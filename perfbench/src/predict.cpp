// predict-a: the shipped `spmvcache predict` CLI, run over and over as a
// subprocess on a warm .spmvc cache entry, exactly as a user types it.
// The subprocess pays process start, lazy interleave calibration and JSON
// output on every op, so those count too.
//
// Traced runs add in-process probes of the layers the CLI runs through:
// sparse (parse, .spmvc write and map), core (warm handle load,
// run_model), trace (segment lengths, packing), reuse (Olken replay under
// counters) and model (method A at all jobs and at one job).

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <fcntl.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>

#include "core/matrix_source.hpp"
#include "core/model_runner.hpp"
#include "model/method_a.hpp"
#include "reuse/olken.hpp"
#include "serve/protocol.hpp"
#include "sparse/binary_cache.hpp"
#include "sparse/fingerprint.hpp"
#include "sparse/matrix_market.hpp"
#include "sparse/matrix_stats.hpp"
#include "sync/thread_pool.hpp"
#include "trace/packed_trace.hpp"
#include "trace/spmv_trace.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace spmvcache;

constexpr std::int64_t kModelThreads = 48;

struct ChildRun {
    bool ok = false;  ///< spawned and exited with status 0
    double seconds = 0.0;
    double maxrss_mib = 0.0;
};

/// Runs argv to completion with stdout+stderr appended to `log_path`.
ChildRun run_child(const std::vector<std::string>& args,
                   const std::string& log_path) {
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    ChildRun run;
    const Clock::time_point start = Clock::now();
    pid_t pid = 0;
    const int rc =
        posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) return run;
    int status = 0;
    rusage usage{};
    while (wait4(pid, &status, 0, &usage) < 0) {
        if (errno != EINTR) return run;
    }
    run.seconds = seconds_since(start);
    run.maxrss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;
    run.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    return run;
}

/// The options `spmvcache predict --threads 48` runs the model with.
ModelOptions cli_model_options() {
    ModelOptions options;
    options.machine = a64fx_default();
    options.threads = kModelThreads;
    options.jobs = 0;
    options.l2_way_options = {2, 3, 4, 5, 6, 7};
    return options;
}

/// Predictions as the CLI's --json prints them (default ostream format),
/// so CLI output, in-process results and recorded values compare as text.
std::string canonical(const ModelResult& result) {
    std::ostringstream out;
    for (const ConfigPrediction& c : result.configs)
        out << c.l2_sector_ways << ':' << c.l2_misses << ':' << c.l2_x_misses
            << ';';
    out << "x=" << result.x_traffic_fraction;
    return out.str();
}

/// Same canonical text from the CLI's --json file; empty on any problem.
std::string canonical_from_cli_json(const std::string& path,
                                    std::string& packed_shards) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    const Result<Json> parsed = parse_json(text.str());
    if (!parsed.ok()) return {};
    const Json& root = parsed.value();
    const Json* configs = root.find("configs");
    const Json* xtf = root.find("x_traffic_fraction");
    if (configs == nullptr || xtf == nullptr) return {};
    std::string out;
    for (const Json& c : configs->items) {
        const Json* ways = c.find("l2_sector_ways");
        const Json* misses = c.find("l2_misses");
        const Json* xmisses = c.find("l2_x_misses");
        if (ways == nullptr || misses == nullptr || xmisses == nullptr)
            return {};
        out += ways->text + ':' + misses->text + ':' + xmisses->text + ';';
    }
    if (const Json* shards = root.find("shards"); shards != nullptr) {
        std::size_t packed = 0;
        for (const Json& s : shards->items)
            if (const Json* p = s.find("packed_replay"); p && p->boolean)
                ++packed;
        packed_shards = std::to_string(packed) + "/" +
                        std::to_string(shards->items.size());
    }
    return out + "x=" + xtf->text;
}

/// Recorded canonical predictions for `seed` of `spec`, or empty.
std::string recorded_expectation(const std::string& file,
                                 const std::string& spec,
                                 std::uint64_t seed) {
    std::ifstream in(file);
    std::string line;
    const std::string key = spec + " " + std::to_string(seed) + " ";
    while (std::getline(in, line))
        if (line.rfind(key, 0) == 0) return line.substr(key.size());
    return {};
}

/// In-process reference: the same load and model the CLI runs.
Result<std::string> reference_prediction(const std::string& mtx) {
    MatrixSource source;
    source.path = mtx;
    Result<LoadedMatrix> loaded = load_matrix_handle(source);
    if (!loaded.ok()) return std::move(loaded).to_error();
    Result<ModelResult> result =
        run_model(loaded.value(), cli_model_options(), ModelMethod::A);
    if (!result.ok()) return std::move(result).to_error();
    return canonical(result.value());
}

/// trace + reuse probes over one physical index width.
template <class Idx>
void probe_trace_reuse(const BasicCsrView<Idx>& m, const ModelOptions& opt,
                       Report& report, Outcome& outcome) {
    const A64fxConfig& machine = opt.machine;
    const SpmvLayout layout(m.rows(), m.cols(), m.nnz(),
                            machine.l2.line_bytes,
                            opt.colidx_bytes_for(Idx::width),
                            opt.rowptr_bytes_for(Idx::width));
    const TraceConfig cfg{opt.threads, opt.partition, opt.quantum};
    std::vector<std::uint64_t> lengths;
    double lengths_s = 0.0;
    {
        Span span("trace.spmv_segment_lengths");
        lengths = spmv_segment_lengths(m, cfg, machine.cores_per_numa);
        lengths_s = span.stop();
    }
    const std::uint64_t refs =
        std::accumulate(lengths.begin(), lengths.end(), std::uint64_t{0});
    outcome.count(refs == spmv_trace_length(m.rows(), m.nnz()));

    double pack_s = 0.0;
    std::uint64_t packed_bytes = 0;
    std::vector<std::uint64_t> segment0;
    for (std::size_t s = 0; s < lengths.size(); ++s) {
        Span span("trace.try_pack_spmv_trace_segment");
        Result<std::vector<std::uint64_t>> packed =
            try_pack_spmv_trace_segment(m, layout, cfg, machine.cores_per_numa,
                                        static_cast<std::int64_t>(s));
        pack_s += span.stop();
        outcome.count(packed.ok() && packed.value().size() == lengths[s]);
        if (!packed.ok()) continue;
        packed_bytes += packed.value().size() * sizeof(std::uint64_t);
        if (s == 0) segment0 = std::move(packed).value();
    }
    report.metric("trace.refs", static_cast<double>(refs), "count");
    report.metric("trace.segment_lengths_s", lengths_s, "s");
    report.metric("trace.pack_s", pack_s, "s");
    report.metric("trace.pack_mrefs_per_s",
                  pack_s > 0 ? static_cast<double>(refs) / pack_s / 1e6 : 0,
                  "Mref/s");
    report.metric("trace.packed_bytes", static_cast<double>(packed_bytes), "B");

    // Warm-up + counted pass of segment 0's demand lines through one Olken
    // engine, as a model shard replays them.
    std::vector<std::uint64_t> lines;
    lines.reserve(segment0.size());
    for (const std::uint64_t word : segment0)
        if (!packed_is_prefetch(word)) lines.push_back(packed_line(word));
    segment0 = {};
    std::vector<std::uint64_t> dists(lines.size());
    OlkenEngine engine(static_cast<std::size_t>(
        layout.total_lines() / std::max<std::uint64_t>(lengths.size(), 1) + 64));
    constexpr std::size_t kChunk = 4096;
    CounterRegion counters;
    Span span("reuse.OlkenEngine.access_batch");
    for (int pass = 0; pass < 2; ++pass)
        for (std::size_t i = 0; i < lines.size(); i += kChunk)
            engine.access_batch(lines.data() + i, dists.data() + i,
                                std::min(kChunk, lines.size() - i));
    const double replay_s = span.stop();
    const CounterValues c = counters.stop();
    const double krefs = 2.0 * static_cast<double>(lines.size()) / 1e3;
    report.metric("reuse.olken_replay_s", replay_s, "s");
    report.metric("reuse.olken_mrefs_per_s",
                  replay_s > 0 ? krefs / 1e3 / replay_s : 0.0, "Mref/s");
    report.metric("reuse.distinct_lines",
                  static_cast<double>(engine.distinct_lines()), "count");
    report.counter_metric("reuse.llc_miss_per_kref", c,
                          static_cast<double>(c.llc_misses) / krefs, "1/kref");
    report.counter_metric("reuse.dtlb_miss_per_kref", c,
                          static_cast<double>(c.dtlb_misses) / krefs,
                          "1/kref");
    report.counter_metric(
        "reuse.ipc", c,
        c.cycles > 0 ? static_cast<double>(c.instructions) /
                           static_cast<double>(c.cycles)
                     : 0.0,
        "ratio");
    // After the warm-up pass every counted access has a finite distance
    // below the number of distinct lines.
    const std::uint64_t distinct = engine.distinct_lines();
    outcome.count(std::all_of(dists.begin(), dists.end(),
                              [distinct](std::uint64_t d) {
                                  return d < distinct;
                              }));
}

/// sparse / core / trace / reuse / model / sync probes (traced runs).
void probe_layers(const std::string& mtx, const std::string& cache_dir,
                  const std::string& work, const std::string& expected,
                  double cli_predict_s, Report& report, Outcome& outcome) {
    const Span root("probe.model_stack");
    // sparse: the serial parser the CLI's default --parse-jobs 1 uses.
    Result<AnyCsrMatrix> parsed = Error(ErrorCode::InternalError, "unset");
    {
        Span span("sparse.try_read_matrix_market_any_file");
        parsed = try_read_matrix_market_any_file(mtx);
        report.metric("sparse.mtx_parse_s", span.stop(), "s");
    }
    outcome.count(parsed.ok());
    if (!parsed.ok()) return;
    const AnyCsrView view = parsed.value().view();
    const MatrixFingerprint fp = fingerprint_matrix(view);
    const MatrixStats stats = compute_stats(view);
    const Result<SourceStamp> stamp = stat_source(mtx);
    const std::string spmvc = work + "/probe.spmvc";
    {
        Span span("sparse.write_binary_cache");
        const Status written = write_binary_cache(
            spmvc, view, fp, stats, mtx,
            stamp.ok() ? stamp.value() : SourceStamp{});
        report.metric("sparse.spmvc_write_s", span.stop(), "s");
        outcome.count(written.ok());
    }
    std::error_code ec;
    report.metric("sparse.spmvc_bytes",
                  static_cast<double>(fs::file_size(spmvc, ec)), "B");
    Samples map_s;
    for (int i = 0; i < 5; ++i) {
        Span span("sparse.load_binary_cache");
        const Result<MappedCsr> mapped = load_binary_cache(spmvc);
        map_s.add(span.stop());
        outcome.count(mapped.ok() && mapped.value().view().nnz() == view.nnz());
    }
    report.metric("sparse.spmvc_map_ms", map_s.median() * 1e3, "ms");

    // core: the warm handle load every CLI op starts with.
    MatrixSource source;
    source.path = mtx;
    source.cache_dir = cache_dir;
    Samples load_s;
    Result<LoadedMatrix> loaded = Error(ErrorCode::InternalError, "unset");
    for (int i = 0; i < 5; ++i) {
        Span span("core.load_matrix_handle");
        loaded = load_matrix_handle(source);
        load_s.add(span.stop());
        outcome.count(loaded.ok() &&
                      loaded.value().origin == LoadOrigin::CacheHit);
    }
    report.metric("core.load_handle_warm_ms", load_s.median() * 1e3, "ms");
    if (!loaded.ok()) return;
    const LoadedMatrix handle = loaded.value();

    const ModelOptions options = cli_model_options();
    handle.view.visit([&](const auto& v) {
        probe_trace_reuse(v, options, report, outcome);
    });
    report.metric("reuse.olken_interleave_width",
                  std::string(OlkenEngine::batch_mode()) == "simple"
                      ? 0.0
                      : static_cast<double>(OlkenEngine::interleave_width()),
                  "count");

    // model: method A at the CLI's jobs, at one job, and behind run_model
    // (the latter two interleaved, so their difference sees the same host).
    ModelResult a;
    Result<ModelResult> via_runner = Error(ErrorCode::InternalError, "unset");
    Samples a_samples;
    Samples runner_samples;
    for (int rep = 0; rep < 2; ++rep) {
        {
            Span span("model.run_method_a");
            a = run_method_a(handle.view, options);
            a_samples.add(span.stop());
        }
        {
            Span span("core.run_model");
            via_runner = run_model(handle, options, ModelMethod::A);
            runner_samples.add(span.stop());
        }
    }
    const double a_s = a_samples.median();
    const double runner_s = runner_samples.median();
    ModelOptions serial = options;
    serial.jobs = 1;
    ModelResult a1;
    double a1_s = 0.0;
    {
        Span span("model.run_method_a");
        a1 = run_method_a(handle.view, serial);
        a1_s = span.stop();
    }
    outcome.count(canonical(a) == canonical(a1));
    outcome.count(via_runner.ok() &&
                  canonical(via_runner.value()) == canonical(a));
    outcome.count(expected.empty() || canonical(a) == expected);

    Samples shard_s;
    std::size_t packed = 0;
    for (const ShardStats& s : a.shards) {
        shard_s.add(s.seconds);
        if (s.packed_replay) ++packed;
    }
    report.metric("model.method_a_s", a_s, "s");
    report.metric("model.method_a_jobs1_s", a1_s, "s");
    report.metric("model.parallel_efficiency",
                  a_s > 0 ? a1_s / (a_s * static_cast<double>(a.jobs)) : 0.0,
                  "ratio");
    report.metric("model.shard_imbalance",
                  shard_s.mean() > 0 ? shard_s.max() / shard_s.mean() : 0.0,
                  "ratio");
    report.metric("model.runner_overhead_s", runner_s - a_s, "s");
    report.metric("model.cli_overhead_s",
                  cli_predict_s - (load_s.median() + runner_s), "s");
    report.metric("trace.packed_shard_ratio",
                  a.shards.empty() ? 0.0
                                   : static_cast<double>(packed) /
                                         static_cast<double>(a.shards.size()),
                  "ratio");
    report.choice("model.jobs", std::to_string(a.jobs));

    // sync: one submit + wait round trip on the pool the model shards use.
    ThreadPool pool(default_host_jobs());
    const Samples submit_s = time_calls(200, [&] {
        pool.submit([] {});
        pool.wait_idle();
    });
    report.metric("sync.pool_submit_us", submit_s.median() * 1e6, "us");
}

}  // namespace

std::string record_predict_expectation(const std::string& spec,
                                       std::uint64_t seed,
                                       const std::string& work_dir) {
    fs::create_directories(work_dir);
    const std::string mtx = work_dir + "/record.mtx";
    {
        const Result<CsrMatrix> m = generated_matrix(spec, seed);
        if (!m.ok()) throw std::runtime_error(m.error().render());
        write_matrix_market_file(mtx, m.value());
    }
    const Result<std::string> ref = reference_prediction(mtx);
    fs::remove(mtx);
    if (!ref.ok()) throw std::runtime_error(ref.error().render());
    return spec + " " + std::to_string(seed) + " " + ref.value();
}

Outcome run_predict(const RunContext& ctx, Scale scale, Report& report) {
    const bool full = scale == Scale::Full;
    const std::string spec = ctx.tiny || !full ? "randomcv:20000"
                                               : "randomcv:400000";
    const std::string work = ctx.work_dir + "/predict";
    fs::create_directories(work);
    const std::string mtx = work + "/matrix.mtx";
    const std::string cache_dir = work + "/spmvc";
    const std::string json = work + "/predict.json";
    const std::string log = work + "/cli.log";
    Outcome outcome;

    {
        const Result<CsrMatrix> m = generated_matrix(spec, ctx.seed);
        if (!m.ok()) throw std::runtime_error(m.error().render());
        write_matrix_market_file(mtx, m.value());
    }

    // Set-up: a cold `cache warm` (parse at the default --parse-jobs plus
    // the .spmvc write), several times; the last leaves the entry warm.
    Samples setup_s;
    const int setups = full ? 5 : 1;
    for (int i = 0; i < setups; ++i) {
        fs::remove_all(cache_dir);
        const ChildRun warm = run_child(
            {ctx.cli, "cache", "warm", mtx, "--cache-dir", cache_dir}, log);
        if (!warm.ok) throw std::runtime_error("cache warm failed; see " + log);
        setup_s.add(warm.seconds);
    }

    std::string expected = recorded_expectation(ctx.expected_file, spec,
                                                ctx.seed);
    report.choice("predict.expected_from",
                  expected.empty() ? "in-process reference" : "recorded");
    if (expected.empty()) {
        const Result<std::string> ref = reference_prediction(mtx);
        if (!ref.ok()) throw std::runtime_error(ref.error().render());
        expected = ref.value();
    }
    if (ctx.inject_wrong_expected) expected = "1" + expected;

    // The timed loop. Traced runs time the first half with spans off and
    // the second half with spans on (bench.trace_overhead_frac).
    Samples op_s;
    Samples untraced_s;
    Samples traced_s;
    double maxrss = 0.0;
    const double budget = full ? ctx.seconds : 0.0;
    const std::size_t min_ops = full ? 3 : 2;
    const Clock::time_point loop_start = Clock::now();
    while (op_s.size() < min_ops || seconds_since(loop_start) < budget) {
        const bool traced_half =
            ctx.trace && (full ? seconds_since(loop_start) >= budget / 2
                               : op_s.size() % 2 == 1);
        set_tracing(traced_half);
        fs::remove(json);
        ChildRun run;
        {
            const Span op("op");
            const Span cli("cli.spmvcache_predict");
            run = run_child({ctx.cli, "predict", mtx, "--cache-dir", cache_dir,
                             "--threads", std::to_string(kModelThreads),
                             "--json", json},
                            log);
        }
        set_tracing(ctx.trace);
        std::string packed_shards;
        const bool ok = run.ok && canonical_from_cli_json(json, packed_shards) ==
                                      expected;
        outcome.count(ok);
        op_s.add(run.seconds);
        (traced_half ? traced_s : untraced_s).add(run.seconds);
        maxrss = std::max(maxrss, run.maxrss_mib);
        if (!packed_shards.empty())
            report.choice("predict.packed_shards", packed_shards);
    }
    const double busy = op_s.sum();

    if (full && !ctx.trace) {
        report_end_to_end(report, setup_s.median(), op_s,
                          busy > 0 ? static_cast<double>(op_s.size()) / busy : 0,
                          maxrss, outcome);
    }
    if (ctx.trace) {
        if (full) report_span_metrics(report, untraced_s, traced_s);
        probe_layers(mtx, cache_dir, work, ctx.inject_wrong_expected ? "" : expected,
                     op_s.median(), report, outcome);
    }
    fs::remove_all(work);
    return outcome;
}

}  // namespace perfbench
