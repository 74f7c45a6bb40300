// Modeled instruction-side memory subsystem: L1 I-cache + per-context
// I-TLB + next-line fetch-ahead prefetcher.
//
// The legacy path in mem/hierarchy.cpp charges a fixed-geometry L1I with
// no translation and no prefetch — close enough to ideal fetch that
// instruction delivery never constrains the fetch policy. This subsystem
// replaces it when `ICacheConfig::enabled` is set (default OFF: default
// builds construct none of it, register none of its counters, and stay
// byte-identical to pre-subsystem snapshots):
//
//   * demand fetches translate through a per-context I-TLB (walk penalty
//     on the fetch path), then probe a configurable L1 I-cache that
//     misses into the shared unified L2 through its own MSHR file
//     (secondary misses to an in-flight line merge, including demand
//     fetches landing on a line a prefetch already requested);
//   * every demand access triggers a next-line prefetcher: up to
//     `prefetch_depth` sequential successor lines not already present or
//     in flight are requested from the L2 and installed behind MSHR
//     entries. Prefetches translate nothing and charge nothing to the
//     fetching thread — they only warm the cache and occupy MSHRs.
//
// All state advances as a pure function of (config, access stream,
// simulated cycle), preserving the bitwise determinism contract that the
// sharded/orchestrated merge paths enforce. Counters live under the
// "imem." prefix and exist only when the subsystem is constructed.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/cache.hpp"
#include "mem/itlb.hpp"
#include "mem/mshr.hpp"

namespace dwarn {

/// Timing of one instruction-cache line fetch (returned by both the
/// legacy MemoryHierarchy path and the modeled InstMemory).
struct IFetchOutcome {
  Cycle ready_at = 0;  ///< cycle the line can deliver instructions
  bool l1_hit = true;
  bool l2_hit = true;     ///< meaningful only when !l1_hit
  bool itlb_miss = false; ///< modeled subsystem only (legacy: always false)
};

/// Geometry, timing and prefetch knobs of the modeled L1 I-cache.
struct ICacheConfig {
  bool enabled = false;  ///< default OFF: the legacy ideal-ish path runs
  std::uint64_t size_bytes = 16 * 1024;
  std::uint32_t assoc = 2;
  std::uint32_t line_bytes = 64;
  Cycle hit_latency = 1;           ///< cycles a hit blocks fetch beyond this cycle - 1
  std::uint32_t prefetch_depth = 1;  ///< sequential next lines requested per demand access
  std::size_t mshrs = 8;
};

/// The instruction-side subsystem of one simulated machine. Shared by all
/// hardware contexts (tags and MSHRs), with a private I-TLB per context.
class InstMemory {
 public:
  /// `l2` is the machine's shared unified L2; `l2_latency`/`mem_latency`
  /// are the hierarchy's round-trip constants (an I-miss competes for the
  /// same levels as the data side).
  InstMemory(const ICacheConfig& cfg, const ITlbConfig& itlb_cfg, Cycle l2_latency,
             Cycle mem_latency, std::size_t num_threads, Cache& l2, StatSet& stats);

  InstMemory(const InstMemory&) = delete;
  InstMemory& operator=(const InstMemory&) = delete;

  /// Demand-fetch the line containing `pc` for context `tid` at `now`.
  [[nodiscard]] IFetchOutcome fetch(ThreadId tid, Addr pc, Cycle now);

  /// Expire completed MSHR entries; called once per simulated cycle.
  void tick(Cycle now) { mshrs_.expire(now); }

  /// Reset tags/TLB/MSHR state (not statistics).
  void clear_state();

  [[nodiscard]] const ICacheConfig& config() const { return cfg_; }
  [[nodiscard]] const Cache& l1i() const { return tags_; }
  [[nodiscard]] const ITlb& itlb(ThreadId tid) const { return itlbs_[tid]; }
  [[nodiscard]] const MshrFile& mshrs() const { return mshrs_; }

  // Cumulative counters (telemetry reads these every sampling interval).
  [[nodiscard]] std::uint64_t fetch_count() const { return fetches_.value(); }
  [[nodiscard]] std::uint64_t l1i_miss_count() const { return demand_misses_.value(); }
  [[nodiscard]] std::uint64_t itlb_miss_count() const { return itlb_misses_.value(); }
  [[nodiscard]] std::uint64_t prefetch_count() const { return prefetch_issued_.value(); }

 private:
  /// Request up to `prefetch_depth` successors of `demand_line` that are
  /// neither resident nor in flight.
  void fetch_ahead(Addr demand_line, Cycle now);

  ICacheConfig cfg_;
  Cycle l2_latency_;
  Cycle mem_latency_;
  Cache tags_;
  Cache& l2_;
  std::vector<ITlb> itlbs_;  ///< one per hardware context
  MshrFile mshrs_;
  /// Prefetched lines still in flight (pruned lazily): lets a demand
  /// merge distinguish "prefetch was right but late" from plain merges.
  std::vector<std::pair<Addr, Cycle>> pf_inflight_;

  Counter& fetches_;
  Counter& demand_misses_;
  Counter& itlb_misses_;
  Counter& l2_misses_;
  Counter& inflight_merges_;
  Counter& prefetch_issued_;
  Counter& prefetch_late_;
};

}  // namespace dwarn
