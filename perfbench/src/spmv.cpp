// spmv-stencil / spmv-randomcv: AnyKernelEngine with variant `auto` on
// nproc threads; each op is one fixed-length run_iterations batch, checked
// against the sequential spmv_csr within the fma tolerance the engine's
// differential tests use.
//
// Traced runs add the roofline inputs measured in the same process (a
// STREAM triad over arrays of at least 4x the LLC, the computed bytes per
// iteration, the 1-thread csr and spmv_csr_parallel baselines), every
// variant's GFLOP/s and the WorkerTeam dispatch cost.

#include <algorithm>
#include <cmath>
#include <random>
#include <span>

#include "core/matrix_source.hpp"
#include "kernels/engine.hpp"
#include "kernels/spmv.hpp"
#include "sync/worker_team.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace spmvcache;

/// Ops are short on purpose: on a shared host, slow episodes of a few
/// milliseconds hit only some short ops, so their median stays put, while
/// every long batch absorbs a varying share of them.
struct Geometry {
    std::string spec;
    std::int64_t iterations = 2;  ///< per op (one run_iterations batch)
};

Geometry geometry_for(const RunContext& ctx, Scale scale) {
    const bool randomcv =
        scale == Scale::Full && ctx.workload == "spmv-randomcv";
    if (ctx.tiny) return {randomcv ? "randomcv:4000" : "stencil2d5:64", 1};
    if (scale == Scale::Probe) return {"stencil2d5:256", 2};
    if (randomcv) return {"randomcv:1000000", 2};
    return {"stencil2d5:2048", 2};
}

/// The reference y after `iterations` accumulations of y_ref, the way
/// repeated y += A x accumulates it.
std::vector<double> accumulated(const std::vector<double>& y_ref,
                                std::int64_t iterations) {
    std::vector<double> out(y_ref.size(), 0.0);
    for (std::int64_t k = 0; k < iterations; ++k)
        for (std::size_t r = 0; r < out.size(); ++r) out[r] += y_ref[r];
    return out;
}

/// |y - expected| <= 1e-12 * max(|expected|, 1) for every row.
bool matches(std::span<const double> y, const std::vector<double>& expected) {
    for (std::size_t r = 0; r < expected.size(); ++r)
        if (!(std::abs(y[r] - expected[r]) <=
              1e-12 * std::max(std::abs(expected[r]), 1.0)))
            return false;
    return true;
}

/// Minimum bytes one iteration moves: matrix arrays once (SELL variants at
/// their padded size), x once, y read and written.
double bytes_per_iteration(const AnyCsrView& m, const EngineInfo& info) {
    const bool sell = info.variant == KernelVariant::SellScalar ||
                      info.variant == KernelVariant::SellSimd;
    const double nnz = static_cast<double>(m.nnz()) *
                       (sell ? info.sell_padding : 1.0);
    const double index_bytes = static_cast<double>(m.colidx_bytes()) /
                               static_cast<double>(std::max<std::int64_t>(m.nnz(), 1));
    const double matrix = nnz * (8.0 + index_bytes) +
                          (sell ? 0.0 : static_cast<double>(m.rowptr_bytes()));
    return matrix + static_cast<double>(m.cols()) * 8.0 +
           static_cast<double>(m.rows()) * 16.0;
}

/// GFLOP/s of one variant: engine built, one warm-up batch, median of
/// three timed batches; the result is checked like a workload op.
double variant_gflops(const AnyCsrView& m, KernelVariant variant, int threads,
                      std::int64_t iterations, std::span<const double> x,
                      const std::vector<double>& expected, Outcome& outcome) {
    EngineOptions options;
    options.threads = threads;
    options.variant = variant;
    AnyKernelEngine engine(m, options);
    std::vector<double> y(static_cast<std::size_t>(m.rows()));
    Samples batch_s;
    for (int rep = 0; rep < 4; ++rep) {
        std::fill(y.begin(), y.end(), 0.0);
        Span span("kernels.AnyKernelEngine.run_iterations");
        engine.run_iterations(x, y, iterations);
        const double s = span.stop();
        if (rep > 0) batch_s.add(s);
        outcome.count(matches(y, expected));
    }
    return 2.0 * static_cast<double>(m.nnz()) * static_cast<double>(iterations) /
           batch_s.median() / 1e9;
}

/// Returns the triad bandwidth (GB/s) it measured.
double probe_kernels(const AnyCsrView& m, int threads, std::int64_t iterations,
                     std::span<const double> x, const std::vector<double>& y_ref,
                     const std::vector<double>& expected, Report& report,
                     Outcome& outcome) {
    const Span root("probe.kernels");
    const double flops_per_iter = 2.0 * static_cast<double>(m.nnz());

    // Roof: STREAM triad with every array at least 4x the LLC.
    const std::uint64_t llc = llc_bytes_from_sysfs();
    const std::uint64_t array_bytes = 4 * llc;
    double triad = 0.0;
    {
        Span span("bench.stream_triad");
        triad = stream_triad_gbs(array_bytes, threads, 5);
    }
    outcome.count(triad > 0.0);
    report.metric("kernels.triad_gbs", triad, "GB/s");
    report.metric("kernels.llc_bytes", static_cast<double>(llc), "B");
    report.metric("kernels.triad_array_bytes", static_cast<double>(array_bytes),
                  "B");

    // Plain 1-thread csr (Listing 1) and the per-call parallel baseline.
    std::vector<double> y(static_cast<std::size_t>(m.rows()));
    Samples serial_s;
    Samples baseline_s;
    const RowPartition partition(m, threads, PartitionPolicy::BalancedNonzeros);
    for (int rep = 0; rep < 3; ++rep) {
        std::fill(y.begin(), y.end(), 0.0);
        {
            Span span("kernels.spmv_csr");
            m.visit([&](const auto& v) { spmv_csr(v, x, std::span<double>(y)); });
            serial_s.add(span.stop());
        }
        outcome.count(matches(y, y_ref));
        std::fill(y.begin(), y.end(), 0.0);
        {
            Span span("kernels.spmv_csr_parallel");
            m.visit([&](const auto& v) {
                spmv_csr_parallel(v, x, std::span<double>(y), partition);
            });
            baseline_s.add(span.stop());
        }
        outcome.count(matches(y, y_ref));
    }
    report.metric("kernels.serial_csr_gflops",
                  flops_per_iter / serial_s.median() / 1e9, "GFLOP/s");
    report.metric("kernels.baseline_gflops",
                  flops_per_iter / baseline_s.median() / 1e9, "GFLOP/s");

    const std::pair<const char*, KernelVariant> variants[] = {
        {"csr", KernelVariant::CsrScalar},
        {"csr-prefetch", KernelVariant::CsrPrefetch},
        {"csr-simd", KernelVariant::CsrSimd},
        {"sell", KernelVariant::SellScalar},
        {"sell-simd", KernelVariant::SellSimd},
        {"merge", KernelVariant::CsrMerge},
    };
    for (const auto& [name, variant] : variants)
        report.metric(std::string("kernels.variant_gflops.") + name,
                      variant_gflops(m, variant, threads, iterations, x,
                                     expected, outcome),
                      "GFLOP/s");

    // sync: one empty dispatch round trip on a worker team.
    WorkerTeam team(static_cast<std::size_t>(threads));
    const Samples dispatch_s =
        time_calls(1000, [&] { team.run([](std::size_t) {}); });
    report.metric("sync.team_dispatch_us", dispatch_s.median() * 1e6, "us");
    return triad;
}

}  // namespace

Outcome run_spmv(const RunContext& ctx, Scale scale, Report& report) {
    const bool full = scale == Scale::Full;
    const Geometry geo = geometry_for(ctx, scale);
    Outcome outcome;
    const Result<CsrMatrix> generated = generated_matrix(geo.spec, ctx.seed);
    if (!generated.ok()) throw std::runtime_error(generated.error().render());
    const CsrMatrix& a = generated.value();
    const AnyCsrView view{CsrView(a)};

    // x from the seed; reference y = A x by the sequential Listing-1 kernel.
    std::vector<double> x(static_cast<std::size_t>(a.cols()));
    std::mt19937_64 rng(derive_seed(ctx.seed, 11));
    std::uniform_real_distribution<double> dist(0.5, 1.5);
    for (double& v : x) v = dist(rng);
    std::vector<double> y_ref(static_cast<std::size_t>(a.rows()), 0.0);
    spmv_csr(a, std::span<const double>(x), std::span<double>(y_ref));
    const std::vector<double> expected = accumulated(y_ref, geo.iterations);

    // Set-up: engine construction (first-touch copies, SELL build,
    // prefetch calibration), several times; the last engine is used.
    EngineOptions options;
    options.threads = ctx.threads;
    options.variant = KernelVariant::Auto;
    Samples setup_s;
    std::unique_ptr<AnyKernelEngine> engine;
    for (int i = 0; i < (full ? 9 : 1); ++i) {
        engine.reset();
        Span span("kernels.AnyKernelEngine");
        engine = std::make_unique<AnyKernelEngine>(view, options);
        setup_s.add(span.stop());
    }
    const EngineInfo info = engine->info();
    report.choice("kernels.resolved_variant", to_string(info.variant));
    report.choice("kernels.isa", simd::to_string(info.isa));
    report.choice("kernels.prefetch_distance",
                  std::to_string(info.prefetch_distance));
    report.choice("kernels.matrix", geo.spec);

    FirstTouchVector xe = engine->make_vector(x.size(), 0.0);
    std::copy(x.begin(), x.end(), xe.data());
    FirstTouchVector ye = engine->make_vector(y_ref.size(), 0.0);
    const std::span<const double> xs(xe.data(), xe.size());
    const std::span<double> ys(ye.data(), ye.size());

    // One untimed, checked warm-up batch, then the timed loop.
    engine->run_iterations(xs, ys, geo.iterations);
    outcome.count(matches(ys, expected));
    std::fill(ys.begin(), ys.end(), 0.0);

    Samples op_s;
    Samples untraced_s;
    Samples traced_s;
    CounterValues counted;
    counted.available = true;
    const double budget = full ? ctx.seconds : 1.0;
    const Clock::time_point loop_start = Clock::now();
    while (op_s.size() < 5 || seconds_since(loop_start) < budget) {
        const bool traced_half =
            ctx.trace && seconds_since(loop_start) >= budget / 2;
        set_tracing(traced_half);
        std::fill(ys.begin(), ys.end(), 0.0);
        double s = 0.0;
        {
            std::unique_ptr<CounterRegion> counters;
            if (traced_half) counters = std::make_unique<CounterRegion>();
            const Span op("op");
            {
                Span span("kernels.AnyKernelEngine.run_iterations");
                engine->run_iterations(xs, ys, geo.iterations);
                s = span.stop();
            }
            if (counters) {
                const CounterValues c = counters->stop();
                if (!c.available) counted = c;
                counted.cycles += c.cycles;
                counted.instructions += c.instructions;
                counted.llc_misses += c.llc_misses;
            }
        }
        set_tracing(ctx.trace);
        op_s.add(s);
        (traced_half ? traced_s : untraced_s).add(s);
        outcome.count(matches(ys, expected));
    }
    const double busy = op_s.sum();
    if (full && !ctx.trace) {
        report_end_to_end(report, setup_s.median(), op_s,
                          busy > 0 ? static_cast<double>(op_s.size()) / busy : 0,
                          self_peak_rss_mib(), outcome);
        return outcome;
    }
    if (!ctx.trace) return outcome;

    if (full) report_span_metrics(report, untraced_s, traced_s);
    const double iter_s = op_s.median() / static_cast<double>(geo.iterations);
    const double bytes = bytes_per_iteration(view, info);
    const double nnz_done = static_cast<double>(a.nnz()) *
                            static_cast<double>(geo.iterations) *
                            static_cast<double>(traced_s.size());
    report.metric("kernels.engine_setup_s", setup_s.median(), "s");
    report.metric("kernels.iter_ms", iter_s * 1e3, "ms");
    report.metric("kernels.spmv_gflops",
                  2.0 * static_cast<double>(a.nnz()) / iter_s / 1e9, "GFLOP/s");
    report.metric("kernels.bytes_per_iter", bytes, "B");
    report.metric("kernels.achieved_gbs", bytes / iter_s / 1e9, "GB/s");
    report.metric("kernels.resolved_variant", static_cast<double>(info.variant),
                  "enum");
    report.metric("kernels.isa", static_cast<double>(info.isa), "enum");
    report.metric("kernels.prefetch_distance",
                  static_cast<double>(info.prefetch_distance), "count");
    report.metric("kernels.sell_padding", info.sell_padding, "ratio");
    report.metric("kernels.row_imbalance", info.imbalance, "ratio");
    report.counter_metric("kernels.llc_miss_per_nnz", counted,
                          nnz_done > 0 ? static_cast<double>(counted.llc_misses) /
                                             nnz_done
                                       : 0.0,
                          "1/nnz");
    report.counter_metric(
        "kernels.ipc", counted,
        counted.cycles > 0 ? static_cast<double>(counted.instructions) /
                                 static_cast<double>(counted.cycles)
                           : 0.0,
        "ratio");
    engine.reset();  // free the engine's copies before the probes
    const double triad =
        probe_kernels(view, ctx.threads, geo.iterations,
                      std::span<const double>(x), y_ref, expected, report,
                      outcome);
    report.metric("kernels.roof_frac",
                  triad > 0 ? bytes / iter_s / 1e9 / triad : 0.0, "ratio");
    return outcome;
}

}  // namespace perfbench
