// Memory hierarchy façade: an L1 D-cache, the instruction side
// (mem/icache.hpp), a shared unified L2, fixed-latency main memory,
// per-context DTLBs and MSHR files.
//
// Latency model (paper Table 3 / section 4):
//   * L1 hit: `l1_latency` (1 cycle) + any bank queueing delay.
//   * L1 miss -> L2 hit: + `l2_latency` (10 cycles) more.
//   * L2 miss -> memory: + `mem_latency` (100 cycles) more.
//   * DTLB miss: + `tlb_miss_penalty` (160 cycles).
// The façade also carries two policy-visible timing constants:
//   * `l2_declare_threshold`: a load still outstanding this many cycles
//     after issue is *declared* an L2 miss (STALL/FLUSH trigger, 15).
//   * `fill_advance_notice`: gated threads resume this many cycles before
//     the fill actually arrives (STALL/FLUSH property, 2).
//
// Lines are filled at access time (standard trace-driven simplification),
// so both sides check their MSHRs before the tags: an access to a line
// still in flight is a secondary miss that merges onto the pending fill
// and completes with it, and a burst of accesses to an in-flight line
// costs one memory round trip.
#pragma once

#include <array>
#include <optional>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/cache.hpp"
#include "mem/icache.hpp"
#include "mem/mshr.hpp"
#include "mem/tlb.hpp"

namespace dwarn {

/// Full configuration of the memory subsystem.
struct MemoryConfig {
  CacheConfig l1d{.name = "l1d", .size_bytes = 64 * 1024, .assoc = 2, .line_bytes = 64, .banks = 8};
  CacheConfig l2{.name = "l2", .size_bytes = 512 * 1024, .assoc = 2, .line_bytes = 64, .banks = 8};
  TlbConfig dtlb{.name = "dtlb", .entries = 128, .assoc = 4, .page_bytes = 8192};

  /// Instruction side (mem/icache.hpp): the paper's 64KB 2-way L1I with
  /// 8 MSHRs, no fetch-ahead and a free I-TLB. The `*_icache` machines of
  /// the grid registry override both configs.
  ICacheConfig icache{.size_bytes = 64 * 1024, .assoc = 2, .line_bytes = 64,
                      .hit_latency = 1, .prefetch_depth = 0, .mshrs = 8};
  ITlbConfig itlb{.walk_cycles = 0};

  Cycle l1_latency = 1;
  Cycle l2_latency = 10;
  Cycle mem_latency = 100;
  Cycle tlb_miss_penalty = 160;
  Cycle l2_declare_threshold = 15;
  Cycle fill_advance_notice = 2;

  std::size_t l1d_mshrs = 32;
};

/// Timing and classification of one load.
struct LoadOutcome {
  Cycle complete_at = 0;  ///< cycle the value becomes available
  bool l1_hit = true;
  bool l2_hit = true;     ///< meaningful only when !l1_hit
  bool tlb_miss = false;
  bool mshr_merged = false;  ///< coalesced onto an in-flight miss
};

/// The shared memory subsystem of one simulated machine.
class MemoryHierarchy {
 public:
  MemoryHierarchy(const MemoryConfig& cfg, std::size_t num_threads, StatSet& stats);

  MemoryHierarchy(const MemoryHierarchy&) = delete;
  MemoryHierarchy& operator=(const MemoryHierarchy&) = delete;

  /// Execute the cache side of a load issued at `now` by thread `tid`.
  LoadOutcome load(ThreadId tid, Addr addr, Cycle now);

  /// Commit the cache side of a store (write-allocate, write-back). Stores
  /// retire through a write buffer, so they never stall the pipeline here.
  void store(ThreadId tid, Addr addr, Cycle now);

  /// Fetch the I-cache line containing `addr` (through InstMemory).
  IFetchOutcome ifetch(ThreadId tid, Addr addr, Cycle now) {
    return imem_.fetch(tid, addr, now);
  }

  /// Expire completed MSHR entries; call once per simulated cycle.
  void tick(Cycle now);

  /// Reset all cache/TLB/MSHR state (not statistics).
  void clear_state();

  /// Verify bookkeeping that the per-cycle path relies on: every MSHR
  /// file's tracked next expiry. Aborts via DWARN_CHECK; returns true so
  /// tests can assert on it.
  bool check_invariants() const;

  [[nodiscard]] const MemoryConfig& config() const { return cfg_; }
  [[nodiscard]] const Cache& l1d() const { return l1d_; }
  [[nodiscard]] const Cache& l2() const { return l2_; }
  [[nodiscard]] const InstMemory& inst_memory() const { return imem_; }

  /// Line granularity the fetch stage fragments on.
  [[nodiscard]] std::uint32_t ifetch_line_bytes() const { return cfg_.icache.line_bytes; }

 private:
  MemoryConfig cfg_;
  Cache l1d_;
  Cache l2_;
  std::vector<Tlb> dtlbs_;  ///< one per hardware context
  MshrFile l1d_mshrs_;
  InstMemory imem_;  ///< instruction side; misses into l2_

  Counter& loads_;
  Counter& load_l1_misses_;
  Counter& load_l2_misses_;
  Counter& load_tlb_misses_;
  Counter& load_mshr_merges_;
  Counter& stores_;
};

}  // namespace dwarn
