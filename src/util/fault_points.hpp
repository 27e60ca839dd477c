// Central registry of fault-injection point names.
//
// Every named injection point in library code (util/fault.hpp call sites)
// must be listed here. The registry closes the "dead point" hole: a
// typo'd literal — `fault::at("serve.acept")` style — would otherwise
// compile fine and simply never fire, silently disabling the robustness
// test that armed it. Enforcement is two-layered:
//
//   * spmv-lint's `unknown-fault-point` rule cross-checks every string
//     literal passed to maybe_fail/maybe_throw/should_fail in src/ against
//     this file (the tree lint runs with `--fault-registry` pointing here);
//   * fault::arm() soft-checks names at runtime via SPMV_EXPECT, with a
//     "t." prefix escape for test-local points (tests/test_fault.cpp arms
//     ad-hoc points like "t.counter" that no library code ever checks).
//
// Adding a new point = add the literal to kRegisteredPoints, use it at the
// injection site, and document it in the fault.hpp header comment.
#pragma once

#include <string_view>

namespace spmvcache::fault {

/// Every injection point declared by library code, grouped by subsystem.
inline constexpr std::string_view kRegisteredPoints[] = {
    // Matrix Market parsing (sparse/matrix_market, sparse/mm_parallel)
    "mm.open",
    "mm.header",
    "mm.size_line",
    "mm.read_entry",
    "mm.parallel",
    // .spmvc binary cache (sparse/binary_cache)
    "cache.write",
    "cache.map",
    // Trace generation and packing (trace/)
    "trace.generate",
    "trace.worker",
    "trace.pack",
    // Reuse-distance engines (reuse/)
    "reuse.access",
    "reuse.sample",
    // Batch driver (core/batch)
    "batch.item",
    // Kernel engine (kernels/engine)
    "kernel.exec",
    // Serve daemon (serve/server)
    "serve.accept",
    "serve.execute",
    "serve.cache",
};

/// True when `point` is a registered library injection point.
[[nodiscard]] constexpr bool is_registered_point(
    std::string_view point) noexcept {
    for (const std::string_view registered : kRegisteredPoints)
        if (registered == point) return true;
    return false;
}

/// True for test-local points ("t." prefix), which arm() accepts without
/// a registry entry.
[[nodiscard]] constexpr bool is_test_point(std::string_view point) noexcept {
    return point.size() > 2 && point.substr(0, 2) == "t.";
}

}  // namespace spmvcache::fault
