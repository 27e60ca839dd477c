#include <algorithm>
#include <map>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

void report_end_to_end(Report& report, double setup_s, const Samples& op_s,
                       double ops_per_s, double peak_rss_mib,
                       const Outcome& outcome) {
    report.metric("setup_s", setup_s, "s");
    report.metric("op_p50_ms", op_s.median() * 1e3, "ms");
    report.metric("op_p99_ms", op_s.quantile(0.99) * 1e3, "ms");
    report.metric("ops_per_s", ops_per_s, "1/s");
    report.metric("peak_rss_mib", peak_rss_mib, "MiB");
    const double attempted =
        static_cast<double>(std::max<std::uint64_t>(outcome.attempted, 1));
    report.metric("ok_frac",
                  1.0 - static_cast<double>(outcome.failed) / attempted,
                  "ratio");
    report.choice("op_samples", std::to_string(op_s.size()));
}

void report_span_metrics(Report& report, const Samples& untraced_op_s,
                         const Samples& traced_op_s) {
    const std::vector<SpanRecord> spans = collected_spans();
    std::map<std::uint64_t, double> op_us;  // op span id -> duration
    for (const SpanRecord& s : spans)
        if (s.name == "op") op_us[s.id] = s.end_us - s.start_us;
    double covered = 0.0;
    double total = 0.0;
    for (const auto& [id, us] : op_us) total += us;
    for (const SpanRecord& s : spans)
        if (op_us.count(s.parent) != 0) covered += s.end_us - s.start_us;
    report.metric("bench.span_coverage", total > 0.0 ? covered / total : 0.0,
                  "ratio");
    const double base = untraced_op_s.median();
    report.metric("bench.trace_overhead_frac",
                  base > 0.0 ? traced_op_s.median() / base - 1.0 : 0.0,
                  "ratio");
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose) {
    // SplitMix64 finaliser over (seed, purpose).
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + purpose + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return (z ^ (z >> 31)) & 0x7fffffffffffULL;
}

}  // namespace perfbench
