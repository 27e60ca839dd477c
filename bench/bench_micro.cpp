// Google-benchmark microbenchmarks of the library's hot components:
// reuse-distance engines, the cache simulator, trace generation, the host
// SpMV kernels and the MCS lock.
#include <benchmark/benchmark.h>

#include <vector>

#include "cachesim/hierarchy.hpp"
#include "kernels/spmv.hpp"
#include "reuse/kim.hpp"
#include "reuse/naive.hpp"
#include "reuse/olken.hpp"
#include "sparse/gen/random.hpp"
#include "sparse/gen/stencil.hpp"
#include "sync/mcs_lock.hpp"
#include "trace/spmv_trace.hpp"
#include "util/prng.hpp"

namespace {

using namespace spmvcache;

std::vector<std::uint64_t> synthetic_trace(std::size_t length,
                                           std::uint64_t distinct) {
    Xoshiro256 rng(7);
    std::vector<std::uint64_t> trace(length);
    for (auto& line : trace) {
        // 70 % hot set, 30 % cold tail: SpMV-like skew.
        line = rng.uniform() < 0.7 ? rng.bounded(distinct / 16 + 1)
                                   : rng.bounded(distinct);
    }
    return trace;
}

template <class Engine>
void engine_benchmark(benchmark::State& state, Engine& engine,
                      const std::vector<std::uint64_t>& trace) {
    for (auto _ : state) {
        for (const auto line : trace)
            benchmark::DoNotOptimize(engine.access(line));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(trace.size()));
}

void BM_ReuseOlken(benchmark::State& state) {
    const auto trace = synthetic_trace(
        1 << 16, static_cast<std::uint64_t>(state.range(0)));
    OlkenEngine engine;
    engine_benchmark(state, engine, trace);
}
BENCHMARK(BM_ReuseOlken)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_ReuseKim(benchmark::State& state) {
    const auto trace = synthetic_trace(
        1 << 16, static_cast<std::uint64_t>(state.range(0)));
    KimEngine engine(512);
    engine_benchmark(state, engine, trace);
}
BENCHMARK(BM_ReuseKim)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_ReuseNaive(benchmark::State& state) {
    const auto trace = synthetic_trace(
        1 << 12, static_cast<std::uint64_t>(state.range(0)));
    NaiveStackEngine engine;
    engine_benchmark(state, engine, trace);
}
BENCHMARK(BM_ReuseNaive)->Arg(1 << 8)->Arg(1 << 12);

void BM_CacheSimulator(benchmark::State& state) {
    A64fxConfig cfg = a64fx_default();
    cfg.cores = 1;
    MemoryHierarchy sim(cfg);
    const auto trace = synthetic_trace(1 << 16, 1 << 18);
    for (auto _ : state) {
        for (const auto line : trace) sim.demand_access(0, line, 0, false);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_CacheSimulator);

void BM_TraceGeneration(benchmark::State& state) {
    const CsrMatrix m =
        gen::random_uniform(1 << 12, 1 << 12, 32, 3);
    const SpmvLayout layout(m, 256);
    const TraceConfig cfg{state.range(0)};
    for (auto _ : state) {
        std::uint64_t checksum = 0;
        generate_spmv_trace(m, layout, cfg, [&](const MemRef& ref) {
            checksum += ref.line;
        });
        benchmark::DoNotOptimize(checksum);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(spmv_trace_length(m.rows(), m.nnz())));
}
BENCHMARK(BM_TraceGeneration)->Arg(1)->Arg(48);

void BM_SpmvCsr(benchmark::State& state) {
    const CsrMatrix m = gen::stencil_2d_5pt(state.range(0), state.range(0));
    std::vector<double> x(static_cast<std::size_t>(m.cols()), 1.0);
    std::vector<double> y(static_cast<std::size_t>(m.rows()), 0.0);
    for (auto _ : state) {
        spmv_csr(m, x, y);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            m.nnz());
}
BENCHMARK(BM_SpmvCsr)->Arg(128)->Arg(512);

void BM_McsLock(benchmark::State& state) {
    McsLock lock;
    std::uint64_t counter = 0;
    for (auto _ : state) {
        McsGuard guard(lock);
        benchmark::DoNotOptimize(++counter);
    }
}
BENCHMARK(BM_McsLock);

}  // namespace

BENCHMARK_MAIN();
