// Golden predictions: methods (A)/Olken and (B) on two small generated
// matrices, exact and SHARDS-sampled, pinned bit for bit as hex floats.
//
// The differential suites prove that two code paths agree with each other;
// this one proves that the numbers themselves do not move. A change to the
// reuse engines, the trace derivation or the histogram-to-miss conversion
// that is meant to be a pure refactor or speedup must leave every value
// below untouched. Regenerate the table only for a change that is meant
// to alter predictions, and say so in the change log.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/matrix_source.hpp"
#include "model/method_a.hpp"
#include "model/method_b.hpp"

namespace spmvcache {
namespace {

/// Two L2 segments of two cores with a 64 KiB L2 per segment and a 4 KiB
/// L1: small enough that x overflows both, so every capacity term is
/// non-trivial. Each shard replays well over 2^16 references per engine,
/// so the stack engines run through timestamp compactions.
A64fxConfig golden_machine() {
    A64fxConfig cfg;
    cfg.cores = 4;
    cfg.cores_per_numa = 2;
    cfg.l1 = CacheConfig{4 * 1024, 256, 4, 0};
    cfg.l2 = CacheConfig{64 * 1024, 256, 16, 0};
    return cfg;
}

enum class Method { AOlken, B };

struct GoldenCase {
    const char* spec;
    Method method;
    double sample_rate;
    /// l2_misses / l2_x_misses for sector ways {0 (off), 2, 5}, then
    /// l1_misses, l1_x_misses.
    std::vector<double> expected;
};

std::string hex(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

std::string case_name(const GoldenCase& c) {
    return std::string(c.spec) + (c.method == Method::B ? "/B" : "/A-olken") +
           "/R=" + std::to_string(c.sample_rate);
}

std::vector<double> predict(const GoldenCase& c) {
    const auto matrix = generated_matrix(c.spec, 42);
    EXPECT_TRUE(matrix.ok()) << c.spec;
    if (!matrix.ok()) return {};
    ModelOptions o;
    o.machine = golden_machine();
    o.threads = 4;
    o.l2_way_options = {2, 5};
    o.sample_rate = c.sample_rate;
    const ModelResult r = c.method == Method::B
                              ? run_method_b(matrix.value(), o)
                              : run_method_a(matrix.value(), o);
    std::vector<double> got;
    for (const std::uint32_t ways : {0u, 2u, 5u}) {
        got.push_back(r.at(ways).l2_misses);
        got.push_back(r.at(ways).l2_x_misses);
    }
    got.push_back(r.l1_misses);
    got.push_back(r.l1_x_misses);
    return got;
}

const std::vector<GoldenCase>& golden_cases() {
    static const std::vector<GoldenCase> cases = {
        {"stencil2d5:128", Method::AOlken, 1.0,
         {0x1.3f2p+12, 0x1.04p+9, 0x1.3f2p+12, 0x1.04p+9, 0x1.3f2p+12,
          0x1.04p+9, 0x1.7e4p+12, 0x1.7ep+10}},
        {"stencil2d5:128", Method::AOlken, 0.05,
         {0x1.5a4p+12, 0x1.ep+8, 0x1.5d6p+13, 0x1.ep+8, 0x1.5a4p+12,
          0x1.ep+8, 0x1.59c8p+15, 0x1.61cp+13}},
        {"stencil2d5:128", Method::B, 1.0,
         {0x1.3f2p+12, 0x1.04p+9, 0x1.3f2p+12, 0x1.04p+9, 0x1.3f2p+12,
          0x1.04p+9, 0x1.7e2p+12, 0x1.7ep+10}},
        {"stencil2d5:128", Method::B, 0.05,
         {0x1.3cap+12, 0x1.ep+8, 0x1.3cap+12, 0x1.ep+8, 0x1.3cap+12,
          0x1.ep+8, 0x1.5aap+12, 0x1.ep+9}},
        {"randomcv:8000", Method::AOlken, 1.0,
         {0x1.e168p+13, 0x1.4ecp+13, 0x1.006cp+14, 0x1.6e3p+13, 0x1.083cp+15,
          0x1.c724p+14, 0x1.8065p+16, 0x1.554ep+16}},
        {"randomcv:8000", Method::AOlken, 0.05,
         {0x1.946p+13, 0x1.e3cp+12, 0x1.d6p+12, 0x1.0b8p+11, 0x1.b21p+14,
          0x1.60dp+14, 0x1.bcd8p+16, 0x1.3ecp+16}},
        {"randomcv:8000", Method::B, 1.0,
         {0x1.dc84p+15, 0x1.b7ep+15, 0x1.72ep+14, 0x1.2998p+14, 0x1.32eep+15,
          0x1.0e4ap+15, 0x1.6a34p+16, 0x1.57e2p+16}},
        {"randomcv:8000", Method::B, 0.05,
         {0x1.b274p+15, 0x1.8ddp+15, 0x1.2098p+14, 0x1.aeap+13, 0x1.0374p+15,
          0x1.bdap+14, 0x1.4baep+16, 0x1.395cp+16}},
    };
    return cases;
}

TEST(ModelGolden, PredictionsAreBitIdentical) {
    for (const GoldenCase& c : golden_cases()) {
        const std::vector<double> got = predict(c);
        ASSERT_EQ(got.size(), c.expected.size()) << case_name(c);
        std::string actual;
        for (const double v : got) actual += hex(v) + ", ";
        for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(got[i], c.expected[i])
                << case_name(c) << " value " << i << ": got " << hex(got[i])
                << ", want " << hex(c.expected[i]) << "\n  actual row: {"
                << actual << "}";
    }
}

}  // namespace
}  // namespace spmvcache
