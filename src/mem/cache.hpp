// Parameterized set-associative cache model.
//
// Models the paper's Table 3 caches: 64KB 2-way 8-bank 64B-line L1s and a
// 512KB 2-way 8-bank unified L2. True LRU replacement, write-back /
// write-allocate. Banks are modeled as one access port per bank per cycle;
// a conflicting access pays queueing delay (the paper notes both the
// 5-cycle L1-miss-detection and the 10-cycle L1->L2 latencies hold "if no
// resource conflicts happen").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace dwarn {

/// Geometry and behavior of one cache level.
struct CacheConfig {
  std::string name = "cache";   ///< stat prefix, e.g. "l1d"
  std::uint64_t size_bytes = 64 * 1024;
  std::uint32_t assoc = 2;
  std::uint32_t line_bytes = 64;
  std::uint32_t banks = 8;

  [[nodiscard]] std::uint64_t num_lines() const { return size_bytes / line_bytes; }
  [[nodiscard]] std::uint64_t num_sets() const { return num_lines() / assoc; }
};

/// Result of a cache lookup-and-update.
struct CacheAccessResult {
  bool hit = false;
  bool writeback = false;      ///< a dirty victim was evicted
  Addr victim_line = 0;        ///< line address of the victim (valid if evicted)
  bool evicted = false;        ///< any victim (clean or dirty) was evicted
  Cycle bank_delay = 0;        ///< extra cycles queued behind a busy bank
};

/// One level of set-associative cache with true-LRU replacement.
///
/// The model is state-only: it tracks which lines are resident and dirty,
/// and accounts bank contention. Latency composition across levels is the
/// job of MemoryHierarchy.
class Cache {
 public:
  Cache(CacheConfig cfg, StatSet& stats);

  /// Look up `addr`; on miss, allocate the line (fill-on-access model) and
  /// report the evicted victim. `is_write` marks the line dirty.
  CacheAccessResult access(Addr addr, bool is_write, Cycle now);

  /// Look up without allocating or touching LRU/banks (for tests & probes).
  [[nodiscard]] bool probe(Addr addr) const;

  /// Invalidate a line if present (used by tests and back-invalidation).
  void invalidate(Addr addr);

  /// Remove all lines (e.g. between experiment repetitions).
  void clear();

  /// Fraction of lines currently valid (occupancy diagnostics).
  [[nodiscard]] double occupancy() const;

  [[nodiscard]] const CacheConfig& config() const { return cfg_; }

  /// Line-aligned address of `addr`.
  [[nodiscard]] Addr line_of(Addr addr) const { return addr & line_mask_; }

 private:
  struct Line {
    Addr tag = 0;
    bool valid = false;
    bool dirty = false;
    std::uint64_t lru = 0;  ///< larger = more recently used
  };

  // Every geometry term is a power of two (checked at construction), so
  // the index math is shifts and masks worked out once, as in QEMU's
  // dcache model, instead of divisions on every access.
  [[nodiscard]] std::size_t set_index(Addr line_addr) const {
    return static_cast<std::size_t>((line_addr >> line_shift_) & set_mask_);
  }
  [[nodiscard]] std::size_t bank_index(Addr line_addr) const {
    return static_cast<std::size_t>((line_addr >> line_shift_) & bank_mask_);
  }

  CacheConfig cfg_;
  unsigned line_shift_ = 0;  ///< log2(line_bytes)
  Addr line_mask_ = 0;       ///< clears the offset within a line
  Addr set_mask_ = 0;        ///< num_sets - 1
  Addr bank_mask_ = 0;       ///< banks - 1
  std::vector<Line> lines_;            ///< num_sets * assoc, set-major
  std::vector<Cycle> bank_free_at_;    ///< next cycle each bank is free
  std::uint64_t lru_clock_ = 0;

  Counter& accesses_;
  Counter& misses_;
  Counter& writebacks_;
  Counter& bank_conflicts_;
};

}  // namespace dwarn
