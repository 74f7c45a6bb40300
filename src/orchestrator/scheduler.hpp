// The sweep orchestrator's dispatch loop.
//
// Scheduler::run drives a DispatchPlan to completion over a Launcher: it
// keeps up to `jobs` work units in flight, polls them (a live job is its
// own heartbeat — a dead or hung worker surfaces as an exit status or a
// timeout), retries failed shards with exponential backoff through the
// JobTracker, and re-dispatches until every shard's fragment exists or a
// shard exhausts its attempt budget. On exhaustion the sweep aborts:
// still-running jobs are killed rather than left to burn the machine for
// a merge that can no longer happen. An interrupt (stop_signal) ends the
// sweep the same way. The scheduler never touches result bytes — workers
// write fragments, the MergeStage validates and merges them — so a
// scheduling decision cannot change what a sweep produces.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "orchestrator/job_tracker.hpp"
#include "orchestrator/launcher.hpp"
#include "orchestrator/sweep_state.hpp"
#include "orchestrator/work_unit.hpp"

namespace dwarn::orch {

struct SchedulerOptions {
  std::size_t jobs = 2;      ///< max work units in flight
  int retries = 2;           ///< extra attempts per shard after the first
  std::chrono::milliseconds backoff_base{200};
  /// Growth ceiling for the exponential backoff. A base above the cap
  /// raises the effective cap to the base — the requested delay is
  /// always honored, only the doubling is bounded.
  std::chrono::milliseconds backoff_cap{5000};
  std::chrono::milliseconds timeout{0};        ///< per-attempt wall cap; 0 = none
  std::chrono::milliseconds poll_interval{25};
  bool verbose = true;  ///< per-event "orch: ..." log lines (stderr)

  /// Injected-failure hook: shard `fault_kill_shard`'s attempt number
  /// `fault_kill_attempt` is killed mid-run (see Launcher). Used by the
  /// CI smoke job and the ctest retry-path gate.
  std::optional<std::size_t> fault_kill_shard;
  int fault_kill_attempt = 1;

  /// Injected *driver* crash: SIGKILL this process (no cleanup, no
  /// destructors — exactly a preemption) right after the N-th shard
  /// completes and is journaled. The deterministic hook behind the
  /// resume roundtrip ctest and the CI driver-kill leg: with --jobs 1
  /// and N=1, exactly one fragment lands before the driver dies.
  std::optional<std::size_t> fault_driver_kill_after;

  /// Stop request, typically stored by a SIGINT/SIGTERM handler: when it
  /// holds a nonzero signal number the dispatch loop stops at its next
  /// round, kills every in-flight worker's process group and reaps it.
  /// Null: the sweep cannot be interrupted this way.
  const std::atomic<int>* stop_signal = nullptr;

  /// Fill options from the environment:
  ///   SMT_ORCH_POLL_MS           scheduler poll sleep in [1, 60000] ms
  ///                              (status --follow reuses it for its refresh)
  ///   SMT_ORCH_FAULT_KILL        shard number whose attempt is killed
  ///   SMT_ORCH_FAULT_ATTEMPT     which attempt dies (default 1)
  ///   SMT_ORCH_FAULT_DRIVER_KILL SIGKILL the driver after N shards done
  /// Out-of-range values warn on stderr and leave the option unchanged.
  /// CLI flags are applied after this, so they win over the environment.
  void apply_env();
};

/// How one shard ended up.
struct ShardOutcome {
  std::size_t shard = 0;  ///< 1-based
  ShardState state = ShardState::Pending;
  int attempts = 0;
  std::string error;  ///< last failure detail (empty when Done first try)
};

/// The whole sweep's execution summary.
struct SweepOutcome {
  bool ok = false;  ///< every shard Done
  std::vector<ShardOutcome> shards;
  std::size_t retries_used = 0;
  int interrupted_by = 0;  ///< the stop_signal value that ended the sweep, or 0
};

class Scheduler {
 public:
  Scheduler(Launcher& launcher, SchedulerOptions opt)
      : launcher_(&launcher), opt_(opt) {}

  /// Execute every unit of `plan`. Blocks until the sweep succeeds or a
  /// shard exhausts its retries. With `resume`, the listed shards are
  /// pre-marked Done (their fragments already validate on disk) and only
  /// the rest dispatch; prior attempt counts are folded into the
  /// cumulative numbers logged and journaled. With `journal`, every
  /// dispatch/completion/failure atomically rewrites the sweep-state
  /// file, so a driver killed at any instant leaves a resumable record.
  [[nodiscard]] SweepOutcome run(const DispatchPlan& plan,
                                 const ResumeSeed* resume = nullptr,
                                 SweepJournal* journal = nullptr);

 private:
  Launcher* launcher_;
  SchedulerOptions opt_;
};

}  // namespace dwarn::orch
