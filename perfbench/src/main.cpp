// perfbench: runs one workload for --seconds and prints, as the
// last stdout line, {"correct", "attempted", "failed", "metrics"} with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// The line before it holds the run's calibrated and resolved choices.
//
//   perfbench --workload predict-a|spmv-stencil|spmv-randomcv|serve-mix
//             --seed N --seconds S --trace 0|1 --cli PATH --work-dir DIR
//             --trace-dir DIR --expected FILE [--tiny]
//             [--inject-wrong-expected]
//   perfbench --record SPEC --seeds FIRST LAST --work-dir DIR
//             (prints recorded predict-a predictions, one line per seed)

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "reuse/olken.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "perfbench: " << why << "\n";
    std::exit(2);
}

std::uint64_t to_u64(const std::string& s) {
    std::uint64_t v = 0;
    const auto res = std::from_chars(s.data(), s.data() + s.size(), v);
    if (res.ec != std::errc{} || res.ptr != s.data() + s.size())
        usage("not a non-negative integer: " + s);
    return v;
}

}  // namespace

int main(int argc, char** argv) {
    RunContext ctx;
    ctx.threads = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
    std::string trace_dir = ".";
    std::string record_spec;
    std::uint64_t first_seed = 0;
    std::uint64_t last_seed = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--workload") ctx.workload = value();
        else if (arg == "--seed") ctx.seed = to_u64(value());
        else if (arg == "--seconds") ctx.seconds = std::stod(value());
        else if (arg == "--trace") ctx.trace = value() == "1";
        else if (arg == "--cli") ctx.cli = value();
        else if (arg == "--work-dir") ctx.work_dir = value();
        else if (arg == "--trace-dir") trace_dir = value();
        else if (arg == "--expected") ctx.expected_file = value();
        else if (arg == "--tiny") ctx.tiny = true;
        else if (arg == "--inject-wrong-expected") ctx.inject_wrong_expected = true;
        else if (arg == "--record") record_spec = value();
        else if (arg == "--seeds") {
            first_seed = to_u64(value());
            last_seed = to_u64(value());
        } else usage("unknown argument " + arg);
    }
    if (ctx.work_dir.empty()) usage("--work-dir is required");

    try {
        if (!record_spec.empty()) {
            for (std::uint64_t s = first_seed; s <= last_seed; ++s)
                std::cout << record_predict_expectation(record_spec, s,
                                                        ctx.work_dir)
                          << std::endl;
            return 0;
        }
        const bool predict = ctx.workload == "predict-a";
        const bool spmv = ctx.workload == "spmv-stencil" ||
                          ctx.workload == "spmv-randomcv";
        const bool serve = ctx.workload == "serve-mix";
        if (!predict && !spmv && !serve)
            usage("unknown workload '" + ctx.workload + "'");
        if (ctx.cli.empty()) usage("--cli is required");
        std::filesystem::create_directories(ctx.work_dir);
        set_tracing(ctx.trace);

        // The workload at full scale; in a traced run the other modules
        // follow at probe scale so every layer metric is measured.
        Report report;
        Outcome total;
        const auto run = [&](bool mine, auto fn) {
            if (mine || ctx.trace)
                total.add(fn(ctx, mine ? Scale::Full : Scale::Probe, report));
        };
        run(predict, run_predict);
        run(spmv, run_spmv);
        run(serve, run_serve);
        // Olken's once-per-process calibration as this process resolved it
        // (the predict-a CLI children calibrate their own and do not say).
        report.choice("olken.batch_mode", spmvcache::OlkenEngine::batch_mode());
        report.choice("olken.interleave_width",
                      std::to_string(spmvcache::OlkenEngine::interleave_width()));

        if (ctx.trace) {
            report.metric("bench.failed_frac",
                          static_cast<double>(total.failed) /
                              static_cast<double>(std::max<std::uint64_t>(
                                  total.attempted, 1)),
                          "ratio");
            const bool counters = report.choices().count("counters") == 0;
            report.metric("bench.counters_available", counters ? 1.0 : 0.0,
                          "bool");
            if (counters) report.choice("counters", "available");
            std::filesystem::create_directories(trace_dir);
            const std::string path = trace_dir + "/" + ctx.workload + "-seed" +
                                     std::to_string(ctx.seed) + ".trace.json";
            auto metadata = report.choices();
            metadata["workload"] = ctx.workload;
            metadata["seed"] = std::to_string(ctx.seed);
            if (write_chrome_trace(path, metadata))
                report.choice("trace_file", path);
        }
        std::cout << "{\"choices\": " << report.choices_json() << "}\n";
        std::cout << "{\"correct\": " << (total.failed == 0 ? "true" : "false")
                  << ", \"attempted\": " << total.attempted
                  << ", \"failed\": " << total.failed
                  << ", \"metrics\": " << report.metrics_json() << "}"
                  << std::endl;
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
