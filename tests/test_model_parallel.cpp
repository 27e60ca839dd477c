// Differential tests for host-parallel sharded model execution: for the
// generator suite and every partition policy, parallel method (A)
// (jobs in {1, 2, 4}) must produce bit-identical ConfigPrediction miss
// counts to the serial path, exact and SHARDS-sampled; method (B)'s
// sharded trace pass is held to the same standard. Miss counts are
// integers stored in doubles (sampled totals are those integers times
// 1/R), so EXPECT_EQ really is bit-identity. Every shard streams its
// trace; replaying a shard from its packed trace (trace/packed_trace.hpp)
// must give the same distances.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "model/method_a.hpp"
#include "model/method_b.hpp"
#include "model/replay.hpp"
#include "reuse/olken.hpp"
#include "sparse/gen/banded.hpp"
#include "sparse/gen/block.hpp"
#include "sparse/gen/rmat.hpp"
#include "sparse/gen/stencil.hpp"
#include "trace/packed_trace.hpp"
#include "trace/spmv_trace.hpp"
#include "util/fault.hpp"

namespace spmvcache {
namespace {

/// Scaled machine with 4 L2 segments (8 cores, 2 per NUMA domain) so that
/// a full-thread run shards 4 ways.
A64fxConfig sharded_machine() {
    A64fxConfig cfg;
    cfg.cores = 8;
    cfg.cores_per_numa = 2;
    cfg.l1 = CacheConfig{16 * 1024, 256, 4, 0};
    cfg.l2 = CacheConfig{512 * 1024, 256, 16, 0};
    return cfg;
}

struct NamedMatrix {
    std::string name;
    CsrMatrix matrix;
};

const std::vector<NamedMatrix>& generator_suite() {
    static const std::vector<NamedMatrix>* suite = [] {
        auto* s = new std::vector<NamedMatrix>;
        s->push_back({"banded", gen::banded(768, 8, 24, 11)});
        s->push_back({"stencil", gen::stencil_2d_5pt(48, 48)});
        s->push_back({"rmat", gen::rmat(9, 4096, 12)});
        s->push_back({"block", gen::block_fem(48, 4, 3, 8, 13)});
        return s;
    }();
    return *suite;
}

ModelOptions base_options(PartitionPolicy policy, std::int64_t jobs) {
    ModelOptions o;
    o.machine = sharded_machine();
    o.threads = o.machine.cores;  // 4 segments -> 4 shards
    o.l2_way_options = {2, 4, 6};
    o.predict_l1 = true;
    o.partition = policy;
    o.jobs = jobs;
    return o;
}

void expect_identical(const ModelResult& serial, const ModelResult& parallel,
                      const std::string& label) {
    ASSERT_EQ(serial.configs.size(), parallel.configs.size()) << label;
    for (std::size_t i = 0; i < serial.configs.size(); ++i) {
        EXPECT_EQ(serial.configs[i].l2_sector_ways,
                  parallel.configs[i].l2_sector_ways)
            << label << " config " << i;
        EXPECT_EQ(serial.configs[i].l2_misses, parallel.configs[i].l2_misses)
            << label << " config " << i;
        EXPECT_EQ(serial.configs[i].l2_x_misses,
                  parallel.configs[i].l2_x_misses)
            << label << " config " << i;
    }
    EXPECT_EQ(serial.l1_misses, parallel.l1_misses) << label;
    EXPECT_EQ(serial.l1_x_misses, parallel.l1_x_misses) << label;
    EXPECT_EQ(serial.x_traffic_fraction, parallel.x_traffic_fraction)
        << label;
}

class ModelParallelTest
    : public testing::TestWithParam<PartitionPolicy> {};

TEST_P(ModelParallelTest, MethodAOlkenMatchesSerialForAllJobCounts) {
    for (const auto& [name, m] : generator_suite()) {
        const auto serial =
            run_method_a(m, base_options(GetParam(), /*jobs=*/1));
        for (const std::int64_t jobs : {std::int64_t{2}, std::int64_t{4}}) {
            const auto parallel =
                run_method_a(m, base_options(GetParam(), jobs));
            expect_identical(serial, parallel,
                             name + " olken jobs=" + std::to_string(jobs));
        }
    }
}

TEST_P(ModelParallelTest, MethodBMatchesSerialForAllJobCounts) {
    for (const auto& [name, m] : generator_suite()) {
        const auto serial =
            run_method_b(m, base_options(GetParam(), /*jobs=*/1));
        for (const std::int64_t jobs : {std::int64_t{2}, std::int64_t{4}}) {
            const auto parallel =
                run_method_b(m, base_options(GetParam(), jobs));
            expect_identical(serial, parallel,
                             name + " methodB jobs=" + std::to_string(jobs));
        }
    }
}

TEST_P(ModelParallelTest, SampledMatchesSerialForAllJobCounts) {
    // R = 0.05: every shard shares one filter, so the sampled counters
    // and the references that reached the engines cannot depend on how
    // shards map to workers.
    for (const auto& [name, m] : generator_suite()) {
        ModelOptions serial_options = base_options(GetParam(), /*jobs=*/1);
        serial_options.sample_rate = 0.05;
        const auto serial_a = run_method_a(m, serial_options);
        const auto serial_b = run_method_b(m, serial_options);
        EXPECT_TRUE(serial_a.sampled) << name;
        EXPECT_TRUE(serial_b.sampled) << name;
        for (const std::int64_t jobs : {std::int64_t{2}, std::int64_t{4}}) {
            ModelOptions options = serial_options;
            options.jobs = jobs;
            const std::string label =
                name + " R=0.05 jobs=" + std::to_string(jobs);
            const auto a = run_method_a(m, options);
            expect_identical(serial_a, a, label + " A");
            EXPECT_EQ(serial_a.sampled_refs, a.sampled_refs) << label;
            const auto b = run_method_b(m, options);
            expect_identical(serial_b, b, label + " B");
            EXPECT_EQ(serial_b.sampled_refs, b.sampled_refs) << label;
        }
    }
}

void expect_replay_mode(const ModelResult& result, bool packed,
                        const std::string& label) {
    ASSERT_FALSE(result.shards.empty()) << label;
    for (const ShardStats& shard : result.shards)
        EXPECT_EQ(shard.packed_replay, packed)
            << label << " shard " << shard.segment;
}

/// (distance, is_x) per counted-pass reference of one segment's replay
/// through an OlkenEngine: the finite first-pass distances in trace order,
/// then the wrap-around distances of the first touches.
using ReplayDistances = std::vector<std::pair<std::uint64_t, bool>>;

ReplayDistances streamed_replay(const CsrMatrix& m, const SpmvLayout& layout,
                                const TraceConfig& cfg,
                                std::int64_t cores_per_numa,
                                std::int64_t segment,
                                const SampleFilter& filter) {
    ReplayDistances out;
    const auto sink = [&out](std::uint64_t d, bool is_x) {
        out.emplace_back(d, is_x);
    };
    detail::EngineFeed<OlkenEngine> feed{OlkenEngine{}};
    detail::replay_segment_pass(
        BasicCsrView<Idx32>(m), layout, cfg, cores_per_numa, segment,
        filter,
        [&](std::uint64_t line, DataObject object, std::uint32_t) {
            feed.add(line, object == DataObject::X);
        },
        [&] { feed.flush(sink); });
    feed.finish(sink);
    return out;
}

ReplayDistances packed_replay(const std::vector<std::uint64_t>& words) {
    ReplayDistances out;
    const auto sink = [&out](std::uint64_t d, bool is_x) {
        out.emplace_back(d, is_x);
    };
    detail::EngineFeed<OlkenEngine> feed{OlkenEngine{}};
    for (const std::uint64_t word : words) {
        if (packed_is_prefetch(word)) continue;
        feed.add(packed_line(word), packed_object(word) == DataObject::X);
        if (feed.pending() == detail::kReplayBatch) feed.flush(sink);
    }
    if (feed.pending() > 0) feed.flush(sink);
    feed.finish(sink);
    return out;
}

TEST_P(ModelParallelTest, PackedReplayMatchesForcedStreaming) {
    // The model streams every shard's trace; the packed encoding of the
    // same segment, replayed through the same one-pass engine feed, must
    // give the same counted-pass distances in the same order, exact and
    // SHARDS-sampled. The model's shard stats must report streaming.
    for (const auto& [name, m] : generator_suite()) {
        for (const double rate : {1.0, 0.05}) {
            ModelOptions o = base_options(GetParam(), /*jobs=*/4);
            o.sample_rate = rate;
            const std::string label =
                name + " rate=" + std::to_string(rate);
            const SampleFilter filter(rate);
            const SpmvLayout layout(m, o.machine.l2.line_bytes);
            const TraceConfig cfg{o.threads, o.partition, o.quantum};
            const std::int64_t segments =
                trace_segment_count(o.threads, o.machine.cores_per_numa);
            for (std::int64_t s = 0; s < segments; ++s) {
                const auto words = try_pack_spmv_trace_segment(
                    m, layout, cfg, o.machine.cores_per_numa, s, filter);
                ASSERT_TRUE(words.ok()) << label << " segment " << s;
                const ReplayDistances streamed = streamed_replay(
                    m, layout, cfg, o.machine.cores_per_numa, s, filter);
                if (rate == 1.0)
                    EXPECT_FALSE(streamed.empty()) << label << " segment " << s;
                EXPECT_EQ(packed_replay(words.value()), streamed)
                    << label << " segment " << s;
            }
            const auto a = run_method_a(m, o);
            expect_replay_mode(a, false, label + " A");
            EXPECT_EQ(a.sampled, rate < 1.0) << label;
            expect_replay_mode(run_method_b(m, o), false, label + " B");
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ModelParallelTest,
    testing::Values(PartitionPolicy::BalancedRows,
                    PartitionPolicy::BalancedNonzeros),
    [](const testing::TestParamInfo<PartitionPolicy>& info) {
        return info.param == PartitionPolicy::BalancedRows
                   ? "BalancedRows"
                   : "BalancedNonzeros";
    });

TEST(ModelParallel, PackingFaultEngagesStreamingFallback) {
    // An armed trace.pack fault makes packing fail, but the model streams
    // every shard's trace, so it neither fails nor changes a prediction.
    const auto& m = generator_suite().front().matrix;
    const auto options = base_options(PartitionPolicy::BalancedRows, 4);
    const auto reference = run_method_a(m, options);
    const auto reference_b = run_method_b(m, options);

    // once=false: every packing attempt fails, not just the first.
    fault::ScopedFault f("trace.pack", {.once = false});
    const SpmvLayout layout(m, options.machine.l2.line_bytes);
    const TraceConfig cfg{options.threads, options.partition,
                          options.quantum};
    const auto packed = try_pack_spmv_trace_segment(
        m, layout, cfg, options.machine.cores_per_numa, 0);
    ASSERT_FALSE(packed.ok());
    EXPECT_EQ(packed.error().code, ErrorCode::FaultInjected);

    const auto faulted = run_method_a(m, options);
    expect_replay_mode(faulted, false, "under fault");
    expect_identical(reference, faulted, "trace.pack armed");

    const auto faulted_b = run_method_b(m, options);
    expect_replay_mode(faulted_b, false, "under fault methodB");
    expect_identical(reference_b, faulted_b, "trace.pack armed methodB");
}

TEST(ModelParallel, ShardInstrumentationIsConsistent) {
    const auto& m = generator_suite().front().matrix;
    for (const std::int64_t jobs : {std::int64_t{1}, std::int64_t{4}}) {
        for (const bool use_b : {false, true}) {
            const auto options =
                base_options(PartitionPolicy::BalancedRows, jobs);
            const ModelResult result =
                use_b ? run_method_b(m, options) : run_method_a(m, options);
            ASSERT_EQ(result.shards.size(), 4u);
            std::uint64_t refs = 0;
            for (std::size_t s = 0; s < result.shards.size(); ++s) {
                EXPECT_EQ(result.shards[s].segment,
                          static_cast<std::int64_t>(s));
                EXPECT_EQ(result.shards[s].threads, 2);
                refs += result.shards[s].references;
            }
            // Every shard replays exactly its slice of the derived trace.
            EXPECT_EQ(refs, spmv_trace_length(m.rows(), m.nnz()));
            EXPECT_EQ(result.jobs, std::min<std::int64_t>(jobs, 4));
        }
    }
}

TEST(ModelParallel, SingleSegmentRunsSerially) {
    // threads <= cores_per_numa: one shard only, any jobs value is safe.
    const auto& m = generator_suite().front().matrix;
    ModelOptions o = base_options(PartitionPolicy::BalancedRows, 8);
    o.threads = 2;  // exactly one segment
    const auto result = run_method_a(m, o);
    EXPECT_EQ(result.shards.size(), 1u);
    EXPECT_EQ(result.jobs, 1);
}

TEST(ModelParallel, DefaultJobsUsesHardwareConcurrency) {
    const auto& m = generator_suite().front().matrix;
    ModelOptions o = base_options(PartitionPolicy::BalancedRows, 0);
    const auto serial = run_method_a(m, base_options(
        PartitionPolicy::BalancedRows, 1));
    const auto parallel = run_method_a(m, o);
    EXPECT_GE(parallel.jobs, 1);
    expect_identical(serial, parallel, "default jobs");
}

}  // namespace
}  // namespace spmvcache
