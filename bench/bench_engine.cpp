// Raw reuse-distance engine throughput in the two modes the model runs:
//
//   exact   access_batch, the lookahead pipeline every model shard feeds
//           (distances bit-identical to in-order access() calls)
//   approx  SampledEngine at R = 0.01 over the same batch path —
//           throughput counted in *input* refs/s, since the model's cost
//           per demand reference is what sampling cuts
//
// The workload is a uniform-random line stream over a footprint large
// enough that the line->node hash map falls out of every cache level, so
// each probe is a dependent DRAM miss — the stall the batch pipeline's
// prefetches overlap.
//
// Emits a perf-trajectory point to BENCH_engine_throughput.json (--out
// overrides the path). --smoke shrinks the stream for CI.
#include <cstdint>
#include <fstream>
#include <vector>

#include "bench_common.hpp"
#include "reuse/kim.hpp"
#include "reuse/olken.hpp"
#include "reuse/sampled.hpp"

namespace {

using namespace spmvcache;

/// splitmix64: deterministic, well-mixed 64-bit stream.
std::uint64_t mix64(std::uint64_t& state) {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::vector<std::uint64_t> make_stream(std::uint64_t refs,
                                       std::uint64_t distinct_lines,
                                       std::uint64_t seed) {
    std::vector<std::uint64_t> lines;
    lines.reserve(static_cast<std::size_t>(refs));
    std::uint64_t state = seed;
    for (std::uint64_t i = 0; i < refs; ++i)
        lines.push_back(mix64(state) % distinct_lines);
    return lines;
}

constexpr std::size_t kBatch = 1024;

/// One access_batch sweep over the stream on a fresh engine; returns its
/// wall-clock seconds.
template <class Engine>
double run_batched(Engine&& engine, const std::vector<std::uint64_t>& lines) {
    std::vector<std::uint64_t> dists(kBatch);
    Timer timer;
    for (std::size_t i = 0; i < lines.size(); i += kBatch)
        engine.access_batch(lines.data() + i, dists.data(),
                            std::min(kBatch, lines.size() - i));
    return timer.seconds();
}

struct Legs {
    double batched_seconds = 0.0;  ///< exact access_batch
    double approx_seconds = 0.0;   ///< SampledEngine, input refs/s
    std::uint64_t approx_sampled_refs = 0;
};

/// Runs both legs on fresh engines over the same stream.
template <class Engine, class... Args>
Legs run_legs(const std::vector<std::uint64_t>& lines, double sample_rate,
              Args&&... args) {
    Legs legs;
    legs.batched_seconds = run_batched(Engine(args...), lines);
    SampledEngine<Engine> sampled(SampleFilter(sample_rate), args...);
    legs.approx_seconds = run_batched(sampled, lines);
    legs.approx_sampled_refs = sampled.sampled_refs();
    return legs;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace spmvcache;
    using namespace spmvcache::bench;

    const CliParser cli(argc, argv);
    print_usage_hint("bench_engine");
    const bool smoke = cli.has("smoke");
    // Footprint: distinct lines drive the FlatMap64 size. 1 << 23 lines
    // put the map at ~128 MiB after growth — far beyond L2, so probes
    // miss. Smoke mode stays cache-resident but still exercises the path.
    const std::uint64_t distinct = static_cast<std::uint64_t>(
        cli.get_int("lines", smoke ? (1 << 16) : (1 << 23)));
    const std::uint64_t refs = static_cast<std::uint64_t>(
        cli.get_int("refs", smoke ? (1 << 19) : (1 << 24)));
    const std::uint64_t seed =
        static_cast<std::uint64_t>(cli.get_int("seed", 42));
    const double sample_rate = cli.get_double("sample-rate", 0.01);
    // Wide groups (8 groups over the default footprint) keep Kim's
    // O(#groups) demotion cascade proportionate to the hash and node
    // misses the batched pipeline hides; sub-group distance resolution is
    // unaffected by the batching either way.
    const std::uint64_t kim_groups = static_cast<std::uint64_t>(
        cli.get_int("group-capacity", 1 << 20));

    std::cout << "Engine throughput, " << refs << " refs over " << distinct
              << " distinct lines (exact access_batch() vs SHARDS-sampled R="
              << sample_rate << ")\n\n";

    const std::vector<std::uint64_t> lines =
        make_stream(refs, distinct, seed);

    const Legs kim = run_legs<KimEngine>(lines, sample_rate, kim_groups);
    const Legs olken = run_legs<OlkenEngine>(lines, sample_rate, distinct);

    const auto rate = [&](double s) {
        return s > 0 ? static_cast<double>(refs) / s : 0.0;
    };
    const auto speedup = [](double base, double s) {
        return s > 0 ? base / s : 0.0;
    };

    TextTable table({"engine", "exact [Mref/s]", "approx [Mref/s]",
                     "approx/exact"});
    const auto add_row = [&](const char* name, const Legs& legs) {
        table.add_row({name, fmt(rate(legs.batched_seconds) / 1e6, 2),
                       fmt(rate(legs.approx_seconds) / 1e6, 2),
                       fmt(speedup(legs.batched_seconds,
                                   legs.approx_seconds),
                           1)});
    };
    add_row("kim", kim);
    add_row("olken", olken);
    table.render(std::cout);
    std::cout << "approx counted in input refs/s ("
              << kim.approx_sampled_refs << " kim / "
              << olken.approx_sampled_refs
              << " olken refs survived the filter)\n";

    const std::string out_path =
        cli.get("out", "BENCH_engine_throughput.json");
    std::ofstream out(out_path);
    if (out) {
        const auto engine_json = [&](const Legs& legs) {
            std::string s = "{\"batched_refs_per_sec\": " +
                            std::to_string(rate(legs.batched_seconds));
            s += ", \"approx\": {\"sample_rate\": " +
                 std::to_string(sample_rate);
            s += ", \"input_refs_per_sec\": " +
                 std::to_string(rate(legs.approx_seconds));
            s += ", \"sampled_refs\": " +
                 std::to_string(legs.approx_sampled_refs);
            s += ", \"speedup_vs_batched\": " +
                 std::to_string(speedup(legs.batched_seconds,
                                        legs.approx_seconds)) +
                 "}}";
            return s;
        };
        out << "{\"bench\": \"engine_throughput\", \"refs\": " << refs
            << ", \"distinct_lines\": " << distinct
            << ", \"smoke\": " << (smoke ? "true" : "false")
            << ", \"sample_rate\": " << sample_rate << ",\n \"kim\": "
            << engine_json(kim) << ",\n \"olken\": " << engine_json(olken)
            << "}\n";
        std::cout << "perf point written to " << out_path << "\n";
    } else {
        std::cerr << "cannot write " << out_path << "\n";
    }
    return 0;
}
