// Differential tests for host-parallel sharded model execution: for the
// generator suite and every partition policy, parallel method (A)
// (jobs in {1, 2, 4}) must produce bit-identical ConfigPrediction miss
// counts to the serial path, for both the Olken and Kim engines; method
// (B)'s sharded trace pass is held to the same standard. Miss counts are
// integers stored in doubles, so EXPECT_EQ really is bit-identity.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "model/method_a.hpp"
#include "model/method_b.hpp"
#include "sparse/gen/banded.hpp"
#include "sparse/gen/block.hpp"
#include "sparse/gen/rmat.hpp"
#include "sparse/gen/stencil.hpp"
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

TEST_P(ModelParallelTest, MethodAKimMatchesSerialForAllJobCounts) {
    for (const auto& [name, m] : generator_suite()) {
        const auto serial = run_method_a(
            m, base_options(GetParam(), /*jobs=*/1), EngineKind::Kim);
        for (const std::int64_t jobs : {std::int64_t{2}, std::int64_t{4}}) {
            const auto parallel = run_method_a(
                m, base_options(GetParam(), jobs), EngineKind::Kim);
            expect_identical(serial, parallel,
                             name + " kim jobs=" + std::to_string(jobs));
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

void expect_replay_mode(const ModelResult& result, bool packed,
                        const std::string& label) {
    ASSERT_FALSE(result.shards.empty()) << label;
    for (const ShardStats& shard : result.shards)
        EXPECT_EQ(shard.packed_replay, packed)
            << label << " shard " << shard.segment;
}

TEST_P(ModelParallelTest, PackedReplayMatchesForcedStreaming) {
    // The tentpole differential: the packed-trace replay path (default
    // budget) and the streaming re-derivation fallback (--trace-buffer 0)
    // must agree bit-for-bit across generators x jobs x engines x both
    // methods, exact and SHARDS-sampled; the shard stats must prove each
    // run took the intended path.
    for (const auto& [name, m] : generator_suite()) {
        for (const std::int64_t jobs : {std::int64_t{1}, std::int64_t{4}}) {
            for (const double rate : {1.0, 0.05}) {
                ModelOptions packed = base_options(GetParam(), jobs);
                packed.sample_rate = rate;
                ModelOptions streamed = packed;
                streamed.trace_buffer_bytes = 0;
                const std::string label = name + " jobs=" +
                                          std::to_string(jobs) +
                                          " rate=" + std::to_string(rate);
                const auto check = [&](const ModelResult& p,
                                       const ModelResult& s,
                                       const std::string& what) {
                    expect_replay_mode(p, true, label + what + " packed");
                    expect_replay_mode(s, false, label + what + " streamed");
                    expect_identical(p, s, label + what);
                    EXPECT_EQ(p.sampled, rate < 1.0) << label << what;
                    EXPECT_EQ(p.sampled_refs, s.sampled_refs)
                        << label << what;
                };

                check(run_method_a(m, packed), run_method_a(m, streamed),
                      " A/olken");
                check(run_method_a(m, packed, EngineKind::Kim),
                      run_method_a(m, streamed, EngineKind::Kim), " A/kim");
                check(run_method_b(m, packed), run_method_b(m, streamed),
                      " B");
            }
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
    // An armed trace.pack fault must not fail the model or change its
    // predictions — every shard silently re-derives its trace instead.
    const auto& m = generator_suite().front().matrix;
    const auto options = base_options(PartitionPolicy::BalancedRows, 4);
    const auto packed = run_method_a(m, options);
    expect_replay_mode(packed, true, "before fault");

    // once=false: every shard's packing attempt must fail, not just the
    // first one to hit the point.
    fault::ScopedFault f("trace.pack", {.once = false});
    const auto faulted = run_method_a(m, options);
    expect_replay_mode(faulted, false, "under fault");
    expect_identical(packed, faulted, "trace.pack fallback");

    const auto faulted_b = run_method_b(m, options);
    expect_replay_mode(faulted_b, false, "under fault methodB");
}

TEST(ModelParallel, TinyBudgetStreamsOnlyOversizedShards) {
    // A budget that admits nothing still predicts identically, and the
    // decision is per shard: with jobs=1 the whole budget goes to each
    // shard in turn, so a budget sized to one shard's trace packs it.
    const auto& m = generator_suite().front().matrix;
    ModelOptions o = base_options(PartitionPolicy::BalancedRows, 1);
    const auto reference = run_method_a(m, o);

    o.trace_buffer_bytes = 8;  // one reference: every shard over budget
    const auto starved = run_method_a(m, o);
    expect_replay_mode(starved, false, "starved");
    expect_identical(reference, starved, "starved budget");

    o.trace_buffer_bytes = spmv_trace_length(m.rows(), m.nnz()) * 8;
    const auto roomy = run_method_a(m, o);
    expect_replay_mode(roomy, true, "roomy");
    expect_identical(reference, roomy, "roomy budget");
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
