#include "model/method_a.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "model/replay.hpp"
#include "model/shard.hpp"
#include "reuse/histogram.hpp"
#include "reuse/kim.hpp"
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

/// Builds one shard engine: the SHARDS adapter around E, which passes
/// every call straight through under the exact filter. Olken presizes for
/// the lines it will track (~R of `lines_hint`, plus headroom, under
/// sampling); Kim needs only its group capacity.
template <class E>
SampledEngine<E> make_engine(std::size_t lines_hint,
                             std::uint64_t group_capacity,
                             const SampleFilter& filter) {
    if constexpr (std::is_same_v<E, KimEngine>) {
        return SampledEngine<E>(filter, group_capacity);
    } else {
        const std::size_t hint =
            filter.exact() ? lines_hint
                           : static_cast<std::size_t>(
                                 static_cast<double>(lines_hint) *
                                 filter.rate()) +
                                 64;
        return SampledEngine<E>(filter, hint);
    }
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
    bool packed = false;
};

/// The engines one shard feeds — both sectors (Eq. 2), the unpartitioned
/// pass, and optionally one per-core L1 engine per simulated thread — and
/// the chunk scratch between them. gather() routes one reference to each
/// engine's line list; flush() runs every list through access_batch and
/// records the distances (counted pass only). Each engine sees exactly its
/// trace-order subsequence, so distances do not depend on where a chunk
/// ends.
template <class E>
class ShardReplay {
public:
    ShardReplay(std::size_t lines_hint, std::uint64_t group_capacity,
                std::int64_t l1_engines, const SampleFilter& filter,
                SectorPolicy policy, std::int64_t t_begin, ShardCounters& st)
        : eng0_(make_engine<E>(lines_hint, group_capacity, filter)),
          eng1_(make_engine<E>(lines_hint, group_capacity, filter)),
          engU_(make_engine<E>(lines_hint, group_capacity, filter)),
          policy_(policy),
          t_begin_(t_begin),
          st_(st) {
        for (std::int64_t c = 0; c < l1_engines; ++c)
            engL1_.push_back(make_engine<E>(detail::kL1EngineLinesHint,
                                           group_capacity, filter));
        L1_.resize(engL1_.size());
    }

    bool counting = false;

    void gather(std::uint64_t line, DataObject object, std::uint32_t thread) {
        const unsigned char is_x = object == DataObject::X ? 1 : 0;
        U_.add(line, is_x);
        if (sector_of(object, policy_) == 1)
            s1_.add(line, 0);
        else
            s0_.add(line, is_x);
        if (!L1_.empty())
            L1_[static_cast<std::size_t>(static_cast<std::int64_t>(thread) -
                                         t_begin_)]
                .add(line, is_x);
    }

    void flush() {
        U_.run(engU_);
        s0_.run(eng0_);
        s1_.run(eng1_);
        for (std::size_t t = 0; t < L1_.size(); ++t) L1_[t].run(engL1_[t]);
        if (counting) {
            st_.references += U_.lines.size();
            s0_.record(st_.cnt0, &st_.cnt_x);
            s1_.record(st_.cnt1, nullptr);
            U_.record(st_.cntU, &st_.cnt_xU);
            for (const Chunk& c : L1_) c.record(st_.cntL1, &st_.cnt_xL1);
        }
        for (Chunk* c : {&U_, &s0_, &s1_}) c->clear();
        for (Chunk& c : L1_) c.clear();
    }

private:
    /// One engine's share of the current chunk.
    struct Chunk {
        std::vector<std::uint64_t> lines, dists;
        std::vector<unsigned char> is_x;  // x-vector flags

        void add(std::uint64_t line, unsigned char x) {
            lines.push_back(line);
            is_x.push_back(x);
        }
        void run(SampledEngine<E>& engine) {
            dists.resize(lines.size());
            engine.access_batch(lines.data(), dists.data(), lines.size());
        }
        /// Records every distance in `all`, and the x-vector ones in
        /// `x_only` when given.
        void record(CapacityMissCounter& all,
                    CapacityMissCounter* x_only) const {
            for (std::size_t i = 0; i < dists.size(); ++i) {
                all.record(dists[i]);
                if (x_only != nullptr && is_x[i]) x_only->record(dists[i]);
            }
        }
        void clear() {
            lines.clear();
            is_x.clear();
        }
    };

    SampledEngine<E> eng0_, eng1_, engU_;
    std::vector<SampledEngine<E>> engL1_;
    Chunk s0_, s1_, U_;
    std::vector<Chunk> L1_;
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
    std::uint64_t shard_budget_bytes = 0;
    /// The run's SHARDS filter (exact unless sampling is on); shared by
    /// the packed-trace pre-filter and the shard engines so both agree on
    /// the kept line subset.
    SampleFilter filter;
};

/// One shard = one L2 segment. Packs the segment's slice of the trace once
/// when it fits the shard's budget, else re-derives it per pass; either
/// way a warm-up and a counted pass run through ShardReplay's batch path,
/// feeding the partitioned engines (Eq. 2), the unpartitioned engine, and
/// the segment's per-core L1 engines.
template <class Idx, class E>
void run_shard(const ShardContext<Idx>& ctx, std::int64_t s,
               ShardCounters& st) {
    const Timer shard_timer;
    const ModelOptions& options = ctx.options;
    const auto& machine = options.machine;
    const std::int64_t t_begin = s * machine.cores_per_numa;
    const std::int64_t t_count =
        std::min(options.threads, t_begin + machine.cores_per_numa) - t_begin;
    const auto seg = static_cast<std::size_t>(s);

    ShardReplay<E> replay(ctx.lines_hint, options.kim_group_capacity,
                          options.predict_l1 ? t_count : 0, ctx.filter,
                          options.policy, t_begin, st);
    const std::optional<std::vector<std::uint64_t>> packed =
        detail::pack_segment_within_budget(
            ctx.m, ctx.layout, ctx.trace_cfg, machine.cores_per_numa, s,
            ctx.segment_lengths[seg], ctx.shard_budget_bytes, ctx.filter);
    st.packed = packed.has_value();

    for (const bool counting : {false, true}) {  // warm-up, then measured
        replay.counting = counting;
        detail::replay_segment_pass(
            packed, ctx.m, ctx.layout, ctx.trace_cfg, machine.cores_per_numa,
            s, ctx.filter,
            [&](std::uint64_t line, DataObject object, std::uint32_t thread) {
                replay.gather(line, object, thread);
            },
            [&] { replay.flush(); });
    }
    // The passes counted the kept references only; under sampling the
    // full demand count comes from the segment lengths.
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
                              const ModelOptions& options,
                              EngineKind engine_kind) {
    SPMV_EXPECTS(options.threads >= 1);
    SPMV_EXPECTS(options.threads <= options.machine.cores);
    SPMV_EXPECTS(options.jobs >= 0);
    SPMV_EXPECTS(options.sample_rate > 0.0 && options.sample_rate <= 1.0);
    const Timer timer;

    // Resolved once per run: every shard (and the packed-trace
    // pre-filter) shares this filter, so all passes agree on the kept
    // line subset. An armed `reuse.sample` fault yields the exact filter
    // here — the whole run degrades to exact computation.
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

    ShardContext<Idx> ctx{m, layout, options,
                     TraceConfig{options.threads, options.partition,
                                 options.quantum},
                     static_cast<std::size_t>(
                         layout.total_lines() /
                         static_cast<std::uint64_t>(segments)) +
                         64,
                     spmv_segment_lengths(
                         m,
                         TraceConfig{options.threads, options.partition,
                                     options.quantum},
                         machine.cores_per_numa),
                     detail::resolve_trace_buffer_bytes(
                         options.trace_buffer_bytes) /
                         static_cast<std::uint64_t>(effective_jobs),
                     filter};

    std::vector<ShardCounters> shard_state;
    shard_state.reserve(static_cast<std::size_t>(segments));
    for (std::int64_t s = 0; s < segments; ++s)
        shard_state.emplace_back(caps0, caps1, cap_full, l1_cap);

    detail::for_each_shard(segments, jobs, [&](std::int64_t s) {
        auto& st = shard_state[static_cast<std::size_t>(s)];
        if (engine_kind == EngineKind::Kim)
            run_shard<Idx, KimEngine>(ctx, s, st);
        else
            run_shard<Idx, OlkenEngine>(ctx, s, st);
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
            s,
            std::min(options.threads, t_begin + machine.cores_per_numa) -
                t_begin,
            st.references, st.seconds, st.packed, st.sampled_refs});
        result.sampled_refs += st.sampled_refs;
    }
    result.jobs = effective_jobs;
    result.seconds = timer.seconds();
    return result;
}

ModelResult run_method_a(const AnyCsrView& m, const ModelOptions& options,
                         EngineKind engine_kind) {
    return m.visit([&](const auto& v) {
        return run_method_a_impl(v, options, engine_kind);
    });
}

}  // namespace spmvcache
