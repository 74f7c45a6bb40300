// Per-context data TLB.
//
// The paper charges a 160-cycle penalty on a TLB miss and (for STALL and
// FLUSH) treats a data-TLB miss like an L2 miss trigger. We model a
// set-associative DTLB per hardware context over 8KB pages (Alpha 21264
// page size, matching the paper's compilation target).
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace dwarn {

/// Geometry of a TLB.
struct TlbConfig {
  std::string name = "dtlb";
  std::uint32_t entries = 128;
  std::uint32_t assoc = 4;
  std::uint32_t page_bytes = 8192;
};

/// Set-associative translation buffer with true-LRU replacement.
/// Translation itself is identity (the simulator is virtually addressed);
/// the TLB exists purely for its timing behavior.
class Tlb {
 public:
  Tlb(TlbConfig cfg, StatSet& stats)
      : cfg_(cfg),
        lines_(cfg.entries),
        accesses_(stats.counter(cfg.name + ".accesses")),
        misses_(stats.counter(cfg.name + ".misses")) {
    DWARN_CHECK(cfg_.assoc >= 1);
    DWARN_CHECK(cfg_.entries % cfg_.assoc == 0);
    // Page and set selection are a shift and a mask (no division on the
    // per-access path), which needs both to be powers of two.
    DWARN_CHECK(std::has_single_bit(cfg_.page_bytes));
    DWARN_CHECK(std::has_single_bit(cfg_.entries / cfg_.assoc));
    page_shift_ = static_cast<unsigned>(std::countr_zero(cfg_.page_bytes));
    set_mask_ = cfg_.entries / cfg_.assoc - 1;
  }

  /// Probe-and-fill: returns true on hit; on miss the page is installed.
  bool access(Addr addr) {
    accesses_.add();
    const Addr page = addr >> page_shift_;
    Entry* const base = &lines_[set_of(page) * cfg_.assoc];
    ++clock_;
    for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
      if (base[w].valid && base[w].page == page) {
        base[w].lru = clock_;
        return true;
      }
    }
    misses_.add();
    Entry* victim = &base[0];
    for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
      if (!base[w].valid) {
        victim = &base[w];
        break;
      }
      if (base[w].lru < victim->lru) victim = &base[w];
    }
    *victim = Entry{page, clock_, true};
    return false;
  }

  /// Hit check without side effects.
  [[nodiscard]] bool probe(Addr addr) const {
    const Addr page = addr >> page_shift_;
    const Entry* const base = &lines_[set_of(page) * cfg_.assoc];
    for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
      if (base[w].valid && base[w].page == page) return true;
    }
    return false;
  }

  void clear() {
    for (auto& e : lines_) e.valid = false;
  }

  [[nodiscard]] const TlbConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t miss_count() const { return misses_.value(); }

 private:
  struct Entry {
    Addr page = 0;
    std::uint64_t lru = 0;
    bool valid = false;
  };

  [[nodiscard]] std::size_t set_of(Addr page) const {
    return static_cast<std::size_t>(page & set_mask_);
  }

  TlbConfig cfg_;
  unsigned page_shift_ = 0;  ///< log2(page_bytes)
  Addr set_mask_ = 0;        ///< number of sets - 1
  std::vector<Entry> lines_;
  std::uint64_t clock_ = 0;
  Counter& accesses_;
  Counter& misses_;
};

}  // namespace dwarn
