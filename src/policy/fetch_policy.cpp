#include "policy/fetch_policy.hpp"

#include <array>

#include "common/check.hpp"

namespace dwarn {

void FetchPolicy::sort_by_icount(std::vector<ThreadId>& tids) const {
  // Stable insertion sort over a snapshot of the (at most kMaxThreads)
  // counts: no temporary buffer, one icount() call per thread, and ties
  // keep candidate order exactly as std::stable_sort would.
  const std::size_t n = tids.size();
  DWARN_CHECK(n <= kMaxThreads);
  std::array<unsigned, kMaxThreads> count{};
  for (std::size_t i = 0; i < n; ++i) count[i] = host_.icount(tids[i]);
  for (std::size_t i = 1; i < n; ++i) {
    const ThreadId t = tids[i];
    const unsigned c = count[i];
    std::size_t j = i;
    for (; j > 0 && count[j - 1] > c; --j) {
      tids[j] = tids[j - 1];
      count[j] = count[j - 1];
    }
    tids[j] = t;
    count[j] = c;
  }
}

}  // namespace dwarn
