#!/usr/bin/env python3
"""Self-check of the repository benchmark, at tiny input sizes.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

It fails (exit 1) when
  * a metric BENCHMARK.json names is missing from a run's output, has no
    unit, or has another unit than BENCHMARK.json gives it;
  * a per-layer metric has no entry in perfbench/metrics.json saying which
    end-to-end metric and workload it should move;
  * a run at the seed code reports a failed op or correct=false;
  * a traced run writes no Chrome trace with parented spans;
  * an injected wrong expected predict-a prediction is not counted as a
    failed op (failed >= 1, ok_frac < 1, correct=false).
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
failures = []


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, extra=()):
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny",
           *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-4000:])
        return None, {}
    lines = out.stdout.splitlines()
    choices = json.loads(lines[-2])["choices"] if len(lines) > 1 else {}
    return json.loads(lines[-1]), choices


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    moves = json.loads((ROOT / "perfbench" / "metrics.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]]

    for name in layer:
        entry = moves["per_layer"].get(name)
        check(entry is not None and entry["moves"] in e2e and
              all(w in workloads for w in entry["workloads"]),
              f"metrics.json maps {name} to an end-to-end metric and "
              "workload")

    for workload in workloads:
        for trace, wanted in ((0, e2e), (1, layer)):
            result, choices = run(workload, trace)
            label = f"{workload} --trace {trace}"
            check(result is not None, f"{label} prints a result")
            if result is None:
                continue
            check(result["correct"] and result["failed"] == 0 and
                  result["attempted"] >= 1,
                  f"{label} is correct with no failed op")
            metrics = result["metrics"]
            for name, unit in wanted.items():
                got = metrics.get(name)
                check(got is not None and got.get("unit") == unit and
                      isinstance(got.get("value"), (int, float)),
                      f"{label} reports {name} in {unit}")
            if trace == 1:
                path = Path(choices.get("trace_file", ""))
                spans = []
                if path.is_file():
                    spans = json.loads(path.read_text())["traceEvents"]
                check(any(s["args"]["parent"] != 0 for s in spans),
                      f"{label} writes a trace with parented spans")

    result, _ = run("predict-a", 0, ["--inject-wrong-expected"])
    check(result is not None and result["failed"] >= 1 and
          not result["correct"] and
          result["metrics"]["ok_frac"]["value"] < 1.0,
          "an injected wrong expected prediction counts as a failed op")

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
