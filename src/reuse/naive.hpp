// Reference reuse-distance engine: an explicit LRU stack walked linearly.
// O(distance) per access — the executable definition of reuse distance,
// used only to validate the fast engines in tests.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>

#include "reuse/engine.hpp"

namespace spmvcache {

/// Exact reuse distances via Mattson's stack algorithm with a linked list.
class NaiveStackEngine {
public:
    std::uint64_t access(std::uint64_t line);
    /// Removes `line` from the stack; returns whether it was there.
    bool evict(std::uint64_t line);
    void clear();
    [[nodiscard]] std::uint64_t distinct_lines() const {
        return stack_.size();
    }

private:
    std::list<std::uint64_t> stack_;  // most recent at front
    std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
        position_;
};

}  // namespace spmvcache
