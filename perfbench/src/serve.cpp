// serve-mix: two closed-loop callers on the public Server request
// interface (handle_line); each waits for its reply before sending the
// next request. Nine requests in ten repeat a hot set (a few .mtx files
// written at set-up x {method a, b} x {threads 12, 48}); every tenth
// names a first-seen generated matrix, cycling exact method A, sampled
// method A ("approx") and method B. Every served payload is checked
// byte for byte against render_predict_payload over an in-process
// run_model of the same request (hits inline, misses after the loop).

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <thread>

#include "core/matrix_source.hpp"
#include "core/model_runner.hpp"
#include "model/method_b.hpp"
#include "serve/plan_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sparse/fingerprint.hpp"
#include "sparse/matrix_market.hpp"
#include "workloads.hpp"

#include <filesystem>

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace spmvcache;

/// The model options the daemon derives from a predict request.
ModelOptions predict_options(const ServeRequest& request) {
    ModelOptions options;
    options.machine = a64fx_default();
    options.threads = request.threads;
    options.jobs = request.jobs;
    options.l2_way_options = request.l2_ways.empty()
                                 ? std::vector<std::uint32_t>{2, 3, 4, 5, 6, 7}
                                 : request.l2_ways;
    options.sample_rate = request.sample_rate;
    return options;
}

/// The payload an in-process load + run_model yields for `line`.
Result<std::string> reference_payload(const std::string& line) {
    Result<ServeRequest> parsed = parse_request(line);
    if (!parsed.ok()) return std::move(parsed).to_error();
    const ServeRequest& request = parsed.value();
    Result<LoadedMatrix> loaded = load_matrix_handle(request.source);
    if (!loaded.ok()) return std::move(loaded).to_error();
    Result<ModelMethod> method = parse_model_method(request.method);
    if (!method.ok()) return std::move(method).to_error();
    Result<ModelResult> result =
        run_model(loaded.value(), predict_options(request), method.value());
    if (!result.ok()) return std::move(result).to_error();
    return render_predict_payload(result.value(), loaded.value().fingerprint,
                                  request.method, request.threads);
}

struct Reply {
    bool ok = false;
    bool cache_hit = false;
    std::string payload;
};

Reply parse_reply(const std::string& response) {
    Reply reply;
    reply.ok = response.find("\"ok\":true") != std::string::npos;
    reply.cache_hit = response.find("\"cache_hit\":true") != std::string::npos;
    const std::string key = ",\"payload\":";
    const std::size_t at = response.find(key);
    if (at != std::string::npos && response.back() == '}')
        reply.payload = response.substr(at + key.size(),
                                        response.size() - at - key.size() - 1);
    return reply;
}

struct Miss {
    std::string line;
    std::string payload;
};

struct CallerLog {
    Samples all_s;
    Samples hit_s;
    Samples miss_s;
    Samples untraced_s;
    Samples traced_s;
    std::vector<Miss> misses;
    Outcome outcome;
};

std::string miss_line(const std::string& spec, std::uint64_t gen_seed,
                      std::uint64_t n, const std::string& id) {
    static const char* const kinds[] = {
        ",\"method\":\"a\"", ",\"method\":\"a\",\"approx\":true",
        ",\"method\":\"b\""};
    return "{\"id\":" + quote(id) + ",\"op\":\"predict\",\"gen\":" +
           quote(spec) + ",\"seed\":" + std::to_string(gen_seed) +
           ",\"threads\":48" + kinds[n % 3] + "}";
}

}  // namespace

Outcome run_serve(const RunContext& ctx, Scale scale, Report& report) {
    const bool full = scale == Scale::Full && !ctx.tiny;
    const std::int64_t n = full ? 10000 : 1000;
    const std::vector<std::string> hot_specs = {
        "randomcv:" + std::to_string(n),
        "stencil2d5:" + std::to_string(full ? 100 : 32),
        "banded:" + std::to_string(n)};
    const std::string miss_spec = "randomcv:" + std::to_string(n);
    const std::string work = ctx.work_dir + "/serve";
    fs::create_directories(work);
    Outcome outcome;

    // Hot set: files written from the seed, x {a, b} x {12, 48} threads.
    std::vector<std::string> hot_lines;
    std::vector<std::string> hot_paths;
    for (std::size_t f = 0; f < hot_specs.size(); ++f) {
        const Result<CsrMatrix> m =
            generated_matrix(hot_specs[f], derive_seed(ctx.seed, 200 + f));
        if (!m.ok()) throw std::runtime_error(m.error().render());
        const std::string path =
            fs::absolute(work + "/hot-" + std::to_string(f) + ".mtx").string();
        write_matrix_market_file(path, m.value());
        hot_paths.push_back(path);
        for (const char* method : {"a", "b"})
            for (const int threads : {12, 48})
                hot_lines.push_back(
                    "{\"id\":\"hot\",\"op\":\"predict\",\"matrix\":" +
                    quote(path) + ",\"method\":\"" + method +
                    "\",\"threads\":" + std::to_string(threads) + "}");
    }
    std::vector<std::string> hot_payloads;
    for (const std::string& line : hot_lines) {
        Result<std::string> ref = reference_payload(line);
        if (!ref.ok()) throw std::runtime_error(ref.error().render());
        hot_payloads.push_back(std::move(ref).value());
    }

    // Set-up: warm the hot set on a fresh server, several times; the last
    // server takes the load.
    Samples setup_s;
    std::unique_ptr<Server> server;
    for (int i = 0; i < (scale == Scale::Full ? 5 : 1); ++i) {
        server.reset();
        const Clock::time_point start = Clock::now();
        server = std::make_unique<Server>(ServeOptions{});
        for (const std::string& line : hot_lines) {
            const Reply reply = parse_reply(server->handle_line(line));
            if (!reply.ok) throw std::runtime_error("hot-set warm-up failed");
        }
        setup_s.add(seconds_since(start));
    }

    // The closed loop: two callers until the budget is spent and at least
    // `min_requests` have completed.
    const double budget = scale == Scale::Full ? ctx.seconds : 1.0;
    const std::uint64_t min_requests = full ? 1000 : 100;
    std::atomic<std::uint64_t> completed{0};
    std::atomic<bool> stop{false};
    std::vector<CallerLog> logs(2);
    const Clock::time_point loop_start = Clock::now();
    const auto caller = [&](std::size_t c) {
        CallerLog& log = logs[c];
        std::mt19937_64 rng(derive_seed(ctx.seed, 300 + c));
        std::uint64_t misses = 0;
        for (std::uint64_t i = 0; !stop.load(); ++i) {
            const bool is_miss = i % 10 == 9;
            std::size_t hot = 0;
            std::string line;
            if (is_miss) {
                const std::string id =
                    std::to_string(c) + '-' + std::to_string(i);
                line = miss_line(miss_spec,
                                 derive_seed(ctx.seed, 1000000 * (c + 1) + misses),
                                 misses, id);
                ++misses;
            } else {
                hot = static_cast<std::size_t>(rng() % hot_lines.size());
            }
            const bool traced = tracing();
            std::string response;
            double s = 0.0;
            {
                const Span op("op");
                Span span("serve.Server.handle_line");
                response = server->handle_line(is_miss ? line : hot_lines[hot]);
                s = span.stop();
            }
            const Reply reply = parse_reply(response);
            log.all_s.add(s);
            (traced ? log.traced_s : log.untraced_s).add(s);
            (reply.cache_hit ? log.hit_s : log.miss_s).add(s);
            if (is_miss) {
                if (reply.ok)
                    log.misses.push_back({line, reply.payload});
                else
                    log.outcome.count(false);
            } else {
                log.outcome.count(reply.ok && reply.payload == hot_payloads[hot]);
            }
            completed.fetch_add(1);
        }
    };
    set_tracing(false);
    std::vector<std::thread> callers;
    for (std::size_t c = 0; c < logs.size(); ++c) callers.emplace_back(caller, c);
    bool traced_half = false;
    while (seconds_since(loop_start) < budget || completed.load() < min_requests) {
        if (ctx.trace && !traced_half && seconds_since(loop_start) >= budget / 2) {
            traced_half = true;
            set_tracing(true);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    stop.store(true);
    for (std::thread& t : callers) t.join();
    const double loop_s = seconds_since(loop_start);
    // Memory the daemon holds after serving (caches, loaded matrices),
    // taken before the payload checks. Free heap pages are returned first:
    // how many the allocator happens to keep varies by 30 % from run to run
    // with the interleaving of the two callers and would hide real changes.
    malloc_trim(0);
    const double serving_rss_mib = resident_mib();
    set_tracing(ctx.trace);

    // Check every miss payload against an in-process recomputation.
    std::vector<const Miss*> pending;
    CallerLog merged;
    for (CallerLog& log : logs) {
        for (const Miss& m : log.misses) pending.push_back(&m);
        merged.all_s.append(log.all_s);
        merged.hit_s.append(log.hit_s);
        merged.miss_s.append(log.miss_s);
        merged.untraced_s.append(log.untraced_s);
        merged.traced_s.append(log.traced_s);
        outcome.add(log.outcome);
    }
    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> bad{0};
    std::vector<std::thread> checkers;
    for (int t = 0; t < ctx.threads; ++t)
        checkers.emplace_back([&] {
            for (std::size_t k = next.fetch_add(1); k < pending.size();
                 k = next.fetch_add(1)) {
                const Result<std::string> ref = reference_payload(pending[k]->line);
                if (!ref.ok() || ref.value() != pending[k]->payload)
                    bad.fetch_add(1);
            }
        });
    for (std::thread& t : checkers) t.join();
    outcome.attempted += pending.size();
    outcome.failed += bad.load();

    const ServeStats stats = server->stats();
    report.choice("serve.requests", std::to_string(merged.all_s.size()));
    if (scale == Scale::Full && !ctx.trace) {
        report_end_to_end(report, setup_s.median(), merged.all_s,
                          static_cast<double>(merged.all_s.size()) / loop_s,
                          serving_rss_mib, outcome);
        fs::remove_all(work);
        return outcome;
    }
    if (!ctx.trace) {
        fs::remove_all(work);
        return outcome;
    }

    if (scale == Scale::Full)
        report_span_metrics(report, merged.untraced_s, merged.traced_s);
    const auto ratio = [](std::uint64_t hits, std::uint64_t misses) {
        return hits + misses > 0 ? static_cast<double>(hits) /
                                       static_cast<double>(hits + misses)
                                 : 0.0;
    };
    report.metric("serve.hit_p50_us", merged.hit_s.median() * 1e6, "us");
    report.metric("serve.miss_p50_ms", merged.miss_s.median() * 1e3, "ms");
    report.metric("serve.plan_cache_hit_ratio",
                  ratio(stats.cache.hits, stats.cache.misses), "ratio");
    report.metric("serve.source_cache_hit_ratio",
                  ratio(stats.source_hits, stats.source_loads), "ratio");
    report.metric("serve.retries", static_cast<double>(stats.retries), "count");
    report.metric("serve.timeouts", static_cast<double>(stats.timeouts), "count");
    report.metric("serve.rejected", static_cast<double>(stats.rejected_overload),
                  "count");

    // Layer probes on the request path, each call timed on its own.
    const Span root("probe.serve");
    {
        Span span("serve.parse_request");
        const Samples s = time_calls(2000, [&] {
            outcome.count(parse_request(hot_lines[0]).ok());
        });
        report.metric("serve.parse_request_us", s.median() * 1e6, "us");
    }
    {
        ServeResponse response;
        response.id = "hot";
        response.op = "predict";
        response.ok = true;
        response.code = ErrorCode::Ok;
        response.cache_hit = true;
        response.payload = hot_payloads[0];
        Span span("serve.render_response");
        const Samples s = time_calls(2000, [&] {
            outcome.count(render_response(response).size() >
                          response.payload.size());
        });
        report.metric("serve.render_response_us", s.median() * 1e6, "us");
    }
    {
        PlanCache cache(std::uint64_t{64} << 20);
        const PlanKey key{0x1234, 0x5678};
        cache.put(key, hot_payloads[0]);
        Span span("serve.PlanCache.get");
        const Samples s = time_calls(2000, [&] {
            outcome.count(cache.get(key).has_value());
        });
        report.metric("serve.plan_cache_get_us", s.median() * 1e6, "us");
    }
    {
        SourceCache sources(8);
        MatrixSource source;
        source.path = hot_paths[0];
        outcome.count(sources.get(source).ok());
        Span span("core.SourceCache.get");
        const Samples s = time_calls(1000, [&] {
            outcome.count(sources.get(source).ok());
        });
        report.metric("core.source_cache_get_us", s.median() * 1e6, "us");
    }
    Result<CsrMatrix> generated = Error(ErrorCode::InternalError, "unset");
    {
        Span span("sparse.generated_matrix");
        const Samples s = time_calls(3, [&] {
            generated = generated_matrix(miss_spec, derive_seed(ctx.seed, 400));
        });
        report.metric("sparse.generate_ms", s.median() * 1e3, "ms");
    }
    outcome.count(generated.ok());
    if (!generated.ok()) return outcome;
    const AnyCsrView view{CsrView(generated.value())};
    {
        Span span("sparse.fingerprint_matrix");
        MatrixFingerprint fp;
        const Samples s = time_calls(5, [&] { fp = fingerprint_matrix(view); });
        outcome.count(fp.nnz == view.nnz());
        report.metric("sparse.fingerprint_ms", s.median() * 1e3, "ms");
    }
    {
        ServeRequest request;
        request.threads = 48;
        request.sample_rate = 0.01;
        Span span("core.run_model");
        const Result<ModelResult> sampled =
            run_model(std::make_shared<const CsrMatrix>(generated.value()),
                      predict_options(request), ModelMethod::A);
        outcome.count(sampled.ok() && sampled.value().sampled);
        report.metric("reuse.sampled_refs",
                      sampled.ok() ? static_cast<double>(sampled.value().sampled_refs)
                                   : 0.0,
                      "count");
    }
    {
        ServeRequest request;
        request.threads = 48;
        Span span("model.run_method_b");
        const Samples s = time_calls(3, [&] {
            outcome.count(!run_method_b(view, predict_options(request))
                               .configs.empty());
        });
        report.metric("model.method_b_ms", s.median() * 1e3, "ms");
    }
    fs::remove_all(work);
    return outcome;
}

}  // namespace perfbench
