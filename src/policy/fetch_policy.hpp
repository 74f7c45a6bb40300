// The I-fetch policy framework.
//
// A fetch policy answers one question each cycle — "which threads may
// fetch, in what priority order?" — and may additionally gate threads or
// request a flush. The paper's Table 1 taxonomy maps onto this interface:
//
//   * Detection Moment: the core feeds policies the relevant events —
//     `on_fetch` (FETCH DM, for predictive policies), `on_l1_miss_detected`
//     (L1 DM, fires when the front end learns of an L1 data miss, 5 cycles
//     after fetch on the baseline), and `on_long_latency` (the "X cycles
//     after load issue" DM: a load declared an L2 miss, or a DTLB miss).
//   * Response Action: implemented through the return value of `order`
//     (REDUCE PRIORITY / GATE), `PolicyHost::flush_after` (SQUASH) and
//     `max_in_flight` (LIMIT RESOURCES).
//
// Policies are event-complete: every load's lifecycle produces a matched
// set of callbacks (detect/fill fire even for squashed or wrong-path
// loads, because the cache fill physically happens regardless), and
// `on_inst_squashed` lets predictive policies unwind per-instruction
// bookkeeping.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "trace/instruction.hpp"

namespace dwarn {

/// Core services and queries available to a fetch policy.
class PolicyHost {
 public:
  virtual ~PolicyHost() = default;

  /// Current cycle.
  [[nodiscard]] virtual Cycle now() const = 0;

  /// Number of hardware contexts running in this workload. The paper's
  /// hybrid DWarn and the keep-one-thread-running rules key off this.
  [[nodiscard]] virtual std::size_t num_threads() const = 0;

  /// ICOUNT of a thread: its instructions in the pre-issue stages
  /// (front end + issue queues).
  [[nodiscard]] virtual unsigned icount(ThreadId tid) const = 0;

  /// Total in-flight instructions of a thread (ROB occupancy).
  [[nodiscard]] virtual unsigned in_flight(ThreadId tid) const = 0;

  /// Squash every instruction of `tid` younger than `dyn_id` (the FLUSH
  /// response action). Returns the number of squashed instructions.
  virtual std::size_t flush_after(ThreadId tid, std::uint64_t dyn_id) = 0;

  /// The 2-cycle advance fill indication used by STALL/FLUSH (paper §5).
  [[nodiscard]] virtual Cycle fill_advance_notice() const = 0;
};

/// Interface implemented by every I-fetch policy.
class FetchPolicy {
 public:
  explicit FetchPolicy(PolicyHost& host) : host_(host) {}
  virtual ~FetchPolicy() = default;
  FetchPolicy(const FetchPolicy&) = delete;
  FetchPolicy& operator=(const FetchPolicy&) = delete;

  /// Short name used in reports ("DWarn", "ICOUNT", ...).
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Produce the fetch order for this cycle. `candidates` are the threads
  /// structurally able to fetch (not I-cache-stalled, window space
  /// available). The policy appends the threads allowed to fetch to `out`,
  /// highest priority first; omitted threads are gated this cycle.
  virtual void order(std::span<const ThreadId> candidates,
                     std::vector<ThreadId>& out) = 0;

  // --- event hooks (default: ignore) --------------------------------------

  /// A (correct- or wrong-path) instruction entered the pipeline.
  virtual void on_fetch(ThreadId /*tid*/, std::uint64_t /*dyn_id*/,
                        const TraceInst& /*ti*/) {}

  /// The front end learned that a load of `tid` missed in the L1 D-cache.
  virtual void on_l1_miss_detected(ThreadId /*tid*/, std::uint64_t /*dyn_id*/,
                                   Addr /*pc*/) {}

  /// The fill for a previously detected L1 miss arrived.
  virtual void on_fill(ThreadId /*tid*/) {}

  /// A load completed (hit or miss); `l1_missed`/`l2_missed` are its actual
  /// behavior. Fires for every issued load, squashed or not.
  virtual void on_load_complete(ThreadId /*tid*/, std::uint64_t /*dyn_id*/,
                                Addr /*pc*/, bool /*l1_missed*/, bool /*l2_missed*/) {}

  /// A correct-path load was declared long-latency (L2 miss after the
  /// declaration threshold, or a DTLB miss). `fill_at` is when its data
  /// arrives.
  virtual void on_long_latency(ThreadId /*tid*/, std::uint64_t /*dyn_id*/,
                               Cycle /*fill_at*/) {}

  /// An in-flight instruction was squashed (branch recovery or flush).
  virtual void on_inst_squashed(ThreadId /*tid*/, std::uint64_t /*dyn_id*/,
                                const TraceInst& /*ti*/) {}

  /// Fetch for `tid` stalled on instruction delivery (I-cache miss or
  /// I-TLB walk); the thread fetches nothing until `ready_at`. Policies
  /// can react to fetch starvation symmetrically with the data-side miss
  /// hooks above.
  virtual void on_ifetch_stall(ThreadId /*tid*/, Cycle /*ready_at*/) {}

  /// Per-thread in-flight instruction cap (LIMIT RESOURCES response
  /// action; DC-PRED overrides). Unlimited by default.
  [[nodiscard]] virtual unsigned max_in_flight(ThreadId /*tid*/) const {
    return std::numeric_limits<unsigned>::max();
  }

  /// Reset all policy state (between experiment phases).
  virtual void reset() {}

 protected:
  PolicyHost& host_;

  /// Shared helper: sort `tids` by ascending ICOUNT (ties: lower tid),
  /// the ICOUNT priority rule used inside most policies.
  void sort_by_icount(std::vector<ThreadId>& tids) const;
};

}  // namespace dwarn
