// The three workload modules behind the four named workloads, and what
// they share. A module runs at Full scale for its own workload, or at
// Probe scale (small inputs, a second or two) inside the traced run of
// another workload, so that every traced run reports every per-layer
// metric from a real measurement.
#pragma once

#include <cstdint>
#include <string>

#include "harness.hpp"

namespace perfbench {

enum class Scale { Full, Probe };

struct RunContext {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Self-check sizes: every input shrinks so a run takes seconds.
    bool tiny = false;
    /// Self-check hook: corrupt the expected predict-a values so every op
    /// must be counted as failed.
    bool inject_wrong_expected = false;
    std::string cli;            ///< the spmvcache executable
    std::string work_dir;       ///< scratch for inputs and caches
    std::string expected_file;  ///< recorded predict-a predictions
    int threads = 1;            ///< host hardware threads (nproc)
};

/// Operation counts of one module run.
struct Outcome {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void count(bool ok) {
        ++attempted;
        if (!ok) ++failed;
    }
    void add(const Outcome& o) {
        attempted += o.attempted;
        failed += o.failed;
    }
};

/// predict-a: the shipped CLI as a subprocess; traced runs add the
/// sparse/core/trace/reuse/model layer probes.
Outcome run_predict(const RunContext& ctx, Scale scale, Report& report);

/// One line of the recorded-predictions file: "SPEC SEED CANONICAL".
[[nodiscard]] std::string record_predict_expectation(
    const std::string& spec, std::uint64_t seed, const std::string& work_dir);

/// spmv-stencil / spmv-randomcv: the kernel engine; traced runs add the
/// roofline inputs, every variant and the sync team probe.
Outcome run_spmv(const RunContext& ctx, Scale scale, Report& report);

/// serve-mix: two closed-loop callers on the Server request interface.
Outcome run_serve(const RunContext& ctx, Scale scale, Report& report);

/// Writes the end-to-end metrics every workload reports.
void report_end_to_end(Report& report, double setup_s, const Samples& op_s,
                       double ops_per_s, double peak_rss_mib,
                       const Outcome& outcome);

/// Span-derived per-layer metrics over the spans named "op": the share of
/// op time covered by child spans, and traced vs untraced op time.
void report_span_metrics(Report& report, const Samples& untraced_op_s,
                         const Samples& traced_op_s);

/// Deterministic per-purpose seed derived from the workload seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t purpose);

}  // namespace perfbench
