#include "reuse/naive.hpp"

namespace spmvcache {

std::uint64_t NaiveStackEngine::access(std::uint64_t line) {
    const auto it = position_.find(line);
    if (it == position_.end()) {
        stack_.push_front(line);
        position_[line] = stack_.begin();
        return kInfiniteDistance;
    }
    // Count the distinct lines above this one in the stack.
    std::uint64_t distance = 0;
    for (auto walk = stack_.begin(); walk != it->second; ++walk) ++distance;
    stack_.erase(it->second);
    stack_.push_front(line);
    it->second = stack_.begin();
    return distance;
}

bool NaiveStackEngine::evict(std::uint64_t line) {
    const auto it = position_.find(line);
    if (it == position_.end()) return false;
    stack_.erase(it->second);
    position_.erase(it);
    return true;
}

void NaiveStackEngine::clear() {
    stack_.clear();
    position_.clear();
}

}  // namespace spmvcache
