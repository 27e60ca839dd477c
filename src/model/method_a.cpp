#include "model/method_a.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "model/replay.hpp"
#include "model/shard.hpp"
#include "reuse/histogram.hpp"
#include "reuse/olken.hpp"
#include "reuse/sampled.hpp"
#include "trace/spmv_trace.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace spmvcache {

const ConfigPrediction* ModelResult::find_ptr(
    std::uint32_t l2_sector_ways) const noexcept {
    for (const auto& c : configs)
        if (c.l2_sector_ways == l2_sector_ways) return &c;
    return nullptr;
}

[[nodiscard]] Result<ConfigPrediction> ModelResult::find(
    std::uint32_t l2_sector_ways) const {
    if (const ConfigPrediction* p = find_ptr(l2_sector_ways)) return *p;
    return Error(ErrorCode::ValidationError,
                 "no prediction for " + std::to_string(l2_sector_ways) +
                     " L2 sector ways in this run");
}

const ConfigPrediction& ModelResult::at(std::uint32_t l2_sector_ways) const {
    if (const ConfigPrediction* p = find_ptr(l2_sector_ways)) return *p;
    throw_status(Error(ErrorCode::ValidationError,
                       "no prediction for " +
                           std::to_string(l2_sector_ways) +
                           " L2 sector ways in this run"));
}

namespace {

using ShardEngine = SampledEngine<OlkenEngine>;

/// Builds one shard engine: the SHARDS adapter around Olken, which passes
/// every call straight through under the exact filter. Presized for the
/// lines it will track (~R of `lines_hint`, plus headroom, under
/// sampling).
ShardEngine make_engine(std::size_t lines_hint, const SampleFilter& filter) {
    const std::size_t hint =
        filter.exact() ? lines_hint
                       : static_cast<std::size_t>(
                             static_cast<double>(lines_hint) * filter.rate()) +
                             64;
    return ShardEngine(filter, hint);
}

/// Everything one shard accumulates; queried after the parallel phase.
/// Summing per-shard counters yields the same integer totals the single
/// global counters accumulated before sharding, so predictions are
/// bit-identical for any job count.
struct ShardCounters {
    ShardCounters(const std::vector<std::uint64_t>& caps0,
                  const std::vector<std::uint64_t>& caps1,
                  std::uint64_t cap_full, std::uint64_t l1_cap)
        : cnt0(caps0),
          cnt1(caps1),
          cnt_x(caps0),
          cntU({cap_full}),
          cnt_xU({cap_full}),
          cntL1({l1_cap}),
          cnt_xL1({l1_cap}) {}

    CapacityMissCounter cnt0, cnt1, cnt_x;  // partitioned pass (Eq. 2)
    CapacityMissCounter cntU, cnt_xU;       // unpartitioned pass
    CapacityMissCounter cntL1, cnt_xL1;     // per-core L1 model
    std::uint64_t references = 0;
    std::uint64_t sampled_refs = 0;
    double seconds = 0.0;
};

/// Sink recording every distance in `all`, and the x-vector ones in
/// `x_only` when given.
auto record_into(CapacityMissCounter& all, CapacityMissCounter* x_only) {
    return [&all, x_only](std::uint64_t distance, bool is_x) {
        all.record(distance);
        if (x_only != nullptr && is_x) x_only->record(distance);
    };
}

/// The engines one shard feeds — both sectors (Eq. 2), the unpartitioned
/// pass, and optionally one per-core L1 engine per simulated thread.
/// gather() routes one reference to each engine's feed; flush() runs every
/// feed's chunk and records its finite distances; finish() records the
/// first touches' counted-pass distances. Each engine sees exactly its
/// trace-order subsequence, so distances do not depend on where a chunk
/// ends.
class ShardReplay {
public:
    ShardReplay(std::size_t lines_hint, std::int64_t l1_engines,
                const SampleFilter& filter, SectorPolicy policy,
                std::int64_t t_begin, ShardCounters& st)
        : s0_(make_engine(lines_hint, filter)),
          s1_(make_engine(lines_hint, filter)),
          U_(make_engine(lines_hint, filter)),
          policy_(policy),
          t_begin_(t_begin),
          st_(st) {
        for (std::int64_t c = 0; c < l1_engines; ++c)
            L1_.emplace_back(make_engine(detail::kL1EngineLinesHint, filter));
    }

    void gather(std::uint64_t line, DataObject object, std::uint32_t thread) {
        const bool is_x = object == DataObject::X;
        U_.add(line, is_x);
        if (sector_of(object, policy_) == 1)
            s1_.add(line, false);
        else
            s0_.add(line, is_x);
        if (!L1_.empty())
            L1_[static_cast<std::size_t>(static_cast<std::int64_t>(thread) -
                                         t_begin_)]
                .add(line, is_x);
    }

    void flush() {
        st_.references += U_.pending();
        for_each_feed([](Feed& feed, auto sink) { feed.flush(sink); });
    }

    void finish() {
        for_each_feed([](Feed& feed, auto sink) { feed.finish(sink); });
    }

private:
    using Feed = detail::EngineFeed<ShardEngine>;

    /// Calls fn(feed, sink) for every engine with its counters' sink.
    template <class Fn>
    void for_each_feed(Fn&& fn) {
        fn(U_, record_into(st_.cntU, &st_.cnt_xU));
        fn(s0_, record_into(st_.cnt0, &st_.cnt_x));
        fn(s1_, record_into(st_.cnt1, nullptr));
        for (Feed& feed : L1_) fn(feed, record_into(st_.cntL1, &st_.cnt_xL1));
    }

    Feed s0_, s1_, U_;
    std::vector<Feed> L1_;
    SectorPolicy policy_;
    std::int64_t t_begin_;
    ShardCounters& st_;
};

/// Inputs shared by every shard of one run.
template <class Idx>
struct ShardContext {
    const BasicCsrView<Idx>& m;
    const SpmvLayout& layout;
    const ModelOptions& options;
    TraceConfig trace_cfg;
    std::size_t lines_hint = 0;
    std::vector<std::uint64_t> segment_lengths;  ///< demand refs per segment
    /// The run's SHARDS filter (exact unless sampling is on); shared by
    /// the trace replay and the shard engines so both agree on the kept
    /// line subset.
    SampleFilter filter;
};

/// One shard = one L2 segment. Derives the segment's slice of the trace
/// once and streams it through ShardReplay's batch path, feeding the
/// partitioned engines (Eq. 2), the unpartitioned engine, and the
/// segment's per-core L1 engines; the counted iteration's first touches
/// come from the wrap-around sweep at the end.
template <class Idx>
void run_shard(const ShardContext<Idx>& ctx, std::int64_t s,
               ShardCounters& st) {
    const Timer shard_timer;
    const ModelOptions& options = ctx.options;
    const auto& machine = options.machine;
    const std::int64_t t_begin = s * machine.cores_per_numa;
    const std::int64_t t_count =
        std::min(options.threads, t_begin + machine.cores_per_numa) - t_begin;
    const auto seg = static_cast<std::size_t>(s);

    ShardReplay replay(ctx.lines_hint, options.predict_l1 ? t_count : 0,
                       ctx.filter, options.policy, t_begin, st);
    detail::replay_segment_pass(
        ctx.m, ctx.layout, ctx.trace_cfg, machine.cores_per_numa, s,
        ctx.filter,
        [&](std::uint64_t line, DataObject object, std::uint32_t thread) {
            replay.gather(line, object, thread);
        },
        [&] { replay.flush(); });
    replay.finish();
    // The pass counted the kept references only; under sampling the full
    // demand count comes from the segment lengths.
    st.sampled_refs = st.references;
    if (!ctx.filter.exact()) st.references = ctx.segment_lengths[seg];
    st.seconds = shard_timer.seconds();
}

}  // namespace

/// The templated body behind the AnyCsrView entry point. The trace layout
/// spaces colidx/rowptr at the *accounted* element sizes, so a W32 matrix
/// touches half the index lines a W64 one does — unless the caller pins
/// the accounting (the width-differential tests do exactly that).
template <class Idx>
ModelResult run_method_a_impl(const BasicCsrView<Idx>& m,
                              const ModelOptions& options) {
    SPMV_EXPECTS(options.threads >= 1);
    SPMV_EXPECTS(options.threads <= options.machine.cores);
    SPMV_EXPECTS(options.jobs >= 0);
    SPMV_EXPECTS(options.sample_rate > 0.0 && options.sample_rate <= 1.0);
    const Timer timer;

    // Resolved once per run: every shard shares this filter, so all
    // engines agree on the kept line subset. An armed `reuse.sample`
    // fault yields the exact filter here — the whole run degrades to
    // exact computation.
    const SampleFilter filter =
        detail::resolve_sample_filter(options.sample_rate);

    const auto& machine = options.machine;
    const SpmvLayout layout(m.rows(), m.cols(), m.nnz(),
                            machine.l2.line_bytes,
                            options.colidx_bytes_for(Idx::width),
                            options.rowptr_bytes_for(Idx::width));
    const std::int64_t segments =
        trace_segment_count(options.threads, machine.cores_per_numa);
    const std::uint64_t l2_sets = machine.l2.sets();
    const std::uint64_t l2_total_ways = machine.l2.ways;

    // Partition capacities (in lines) priced by the partitioned pass.
    std::vector<std::uint64_t> caps0;  // sector 0: (ways - w) * sets
    std::vector<std::uint64_t> caps1;  // sector 1: w * sets
    for (const auto w : options.l2_way_options) {
        SPMV_EXPECTS(w >= 1 && w < l2_total_ways);
        caps0.push_back((l2_total_ways - w) * l2_sets);
        caps1.push_back(static_cast<std::uint64_t>(w) * l2_sets);
    }
    const std::uint64_t cap_full = l2_total_ways * l2_sets;
    const std::uint64_t l1_cap = machine.l1.lines();
    const std::int64_t jobs = detail::resolve_model_jobs(options.jobs);
    const std::int64_t effective_jobs =
        std::max<std::int64_t>(1, std::min(jobs, segments));

    const TraceConfig trace_cfg{options.threads, options.partition,
                                options.quantum};
    const ShardContext<Idx> ctx{
        m,
        layout,
        options,
        trace_cfg,
        static_cast<std::size_t>(layout.total_lines() /
                                 static_cast<std::uint64_t>(segments)) +
            64,
        spmv_segment_lengths(m, trace_cfg, machine.cores_per_numa),
        filter};

    std::vector<ShardCounters> shard_state;
    shard_state.reserve(static_cast<std::size_t>(segments));
    for (std::int64_t s = 0; s < segments; ++s)
        shard_state.emplace_back(caps0, caps1, cap_full, l1_cap);

    detail::for_each_shard(segments, jobs, [&](std::int64_t s) {
        run_shard(ctx, s, shard_state[static_cast<std::size_t>(s)]);
    });

    // ---- Assemble ---------------------------------------------------------
    // Under sampling each recorded reference stands for 1/R of the full
    // trace, so the integer counter totals are scaled once here (scale is
    // exactly 1.0 for exact runs — multiplying preserves bit-identity).
    const double scale = filter.inverse_rate();
    ModelResult result;
    result.sampled = !filter.exact();
    result.sample_rate = filter.rate();
    {
        ConfigPrediction off;
        off.l2_sector_ways = 0;
        // Cold misses count as misses: a line never seen in the warm-up
        // iteration cannot be resident, whatever the capacity.
        std::uint64_t misses = 0, x_misses = 0;
        for (const auto& st : shard_state) {
            misses += st.cntU.total_misses(cap_full);
            x_misses += st.cnt_xU.total_misses(cap_full);
        }
        off.l2_misses = static_cast<double>(misses) * scale;
        off.l2_x_misses = static_cast<double>(x_misses) * scale;
        result.configs.push_back(off);
    }
    for (std::size_t i = 0; i < options.l2_way_options.size(); ++i) {
        ConfigPrediction p;
        p.l2_sector_ways = options.l2_way_options[i];
        std::uint64_t misses = 0, x_misses = 0;
        for (const auto& st : shard_state) {
            misses += st.cnt0.total_misses(caps0[i]) +
                      st.cnt1.total_misses(caps1[i]);
            x_misses += st.cnt_x.total_misses(caps0[i]);
        }
        p.l2_misses = static_cast<double>(misses) * scale;
        p.l2_x_misses = static_cast<double>(x_misses) * scale;
        result.configs.push_back(p);
    }
    if (options.predict_l1) {
        std::uint64_t misses = 0, x_misses = 0;
        for (const auto& st : shard_state) {
            misses += st.cntL1.total_misses(l1_cap);
            x_misses += st.cnt_xL1.total_misses(l1_cap);
        }
        result.l1_misses = static_cast<double>(misses) * scale;
        result.l1_x_misses = static_cast<double>(x_misses) * scale;
    }
    const double total_unpart = result.configs.front().l2_misses;
    result.x_traffic_fraction =
        total_unpart > 0.0 ? result.configs.front().l2_x_misses / total_unpart
                           : 0.0;
    for (std::int64_t s = 0; s < segments; ++s) {
        const auto& st = shard_state[static_cast<std::size_t>(s)];
        const std::int64_t t_begin = s * machine.cores_per_numa;
        result.shards.push_back(ShardStats{
            .segment = s,
            .threads =
                std::min(options.threads, t_begin + machine.cores_per_numa) -
                t_begin,
            .references = st.references,
            .seconds = st.seconds,
            .sampled_refs = st.sampled_refs});
        result.sampled_refs += st.sampled_refs;
    }
    result.jobs = effective_jobs;
    result.seconds = timer.seconds();
    return result;
}

ModelResult run_method_a(const AnyCsrView& m, const ModelOptions& options) {
    return m.visit(
        [&](const auto& v) { return run_method_a_impl(v, options); });
}

}  // namespace spmvcache
