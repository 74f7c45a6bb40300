#include "orchestrator/scheduler.hpp"

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <thread>

#include "common/check.hpp"
#include "common/env.hpp"
#include "common/log.hpp"

namespace dwarn::orch {

void SchedulerOptions::apply_env() {
  if (const auto ms = env_u64("SMT_ORCH_POLL_MS", 1, 60'000)) {
    poll_interval = std::chrono::milliseconds(*ms);
  }
  if (const auto shard = env_u64("SMT_ORCH_FAULT_KILL", 1, kMaxShards)) {
    fault_kill_shard = static_cast<std::size_t>(*shard);
  }
  if (const auto attempt = env_u64("SMT_ORCH_FAULT_ATTEMPT", 1, 1000)) {
    fault_kill_attempt = static_cast<int>(*attempt);
  }
  if (const auto done = env_u64("SMT_ORCH_FAULT_DRIVER_KILL", 1, kMaxShards)) {
    fault_driver_kill_after = static_cast<std::size_t>(*done);
  }
}

namespace {

/// The injected driver crash: die the way a preempted or OOM-killed
/// driver dies — no destructors, no atexit, no flushing. SIGKILL where it
/// exists (the wait status then shows a signal death, like the real
/// thing); the no-cleanup exit path otherwise.
[[noreturn]] void kill_this_driver() {
#ifdef SIGKILL
  std::raise(SIGKILL);
#endif
  std::_Exit(137);
}

}  // namespace

SweepOutcome Scheduler::run(const DispatchPlan& plan, const ResumeSeed* resume,
                            SweepJournal* journal) {
  DWARN_CHECK(plan.units.size() == plan.shards);
  // The cap bounds backoff *growth*; it must never shrink the requested
  // base itself (--backoff-ms 60000 means at least 60 s between retries).
  JobTracker tracker(plan.shards, opt_.retries, opt_.backoff_base,
                     std::max(opt_.backoff_cap, opt_.backoff_base), opt_.timeout);
  bool aborted = false;
  std::size_t shards_done = 0;

  if (resume != nullptr) {
    for (std::size_t k = 1; k <= plan.shards; ++k) {
      if (k - 1 < resume->prior_attempts.size() && resume->prior_attempts[k - 1] > 0) {
        tracker.seed_prior_attempts(k, resume->prior_attempts[k - 1]);
      }
    }
    for (const std::size_t k : resume->done_shards) {
      tracker.seed_done(k);
      ++shards_done;
      if (opt_.verbose) {
        log_info("orch", "shard %zu/%zu fragment already valid, skipped (resume)", k,
                 plan.shards);
      }
    }
  }

  // Cumulative attempt number across driver invocations — what the log
  // lines and the journal report, so a resumed shard's history reads as
  // one sequence, not a restart from 1.
  const auto total_attempts = [&](std::size_t shard) {
    const ShardProgress& p = tracker.progress(shard);
    return p.prior_attempts + p.attempts;
  };

  const auto fail_attempt = [&](std::size_t shard, const std::string& why,
                                TrackerClock::time_point now) {
    const int attempt = total_attempts(shard);
    const bool retrying = tracker.on_failed(shard, why, now);
    if (journal != nullptr) {
      journal->record_failed(shard, attempt, why, /*abandoned=*/!retrying);
    }
    if (retrying) {
      const auto delay = tracker.backoff_delay(tracker.progress(shard).attempts);
      if (opt_.verbose) {
        log_warn("orch", "shard %zu/%zu attempt %d FAILED (%s); retry in %lld ms",
                 shard, plan.shards, attempt, why.c_str(),
                 static_cast<long long>(delay.count()));
      }
    } else {
      if (opt_.verbose) {
        log_warn("orch",
                 "shard %zu/%zu attempt %d FAILED (%s); retries exhausted, aborting sweep",
                 shard, plan.shards, attempt, why.c_str());
      }
      aborted = true;
    }
  };

  const auto interrupted = [&] {
    return opt_.stop_signal != nullptr ? opt_.stop_signal->load() : 0;
  };

  while (tracker.work_remaining() && !aborted && interrupted() == 0) {
    auto now = TrackerClock::now();

    // Dispatch until the job slots are full or nothing is ready yet.
    while (tracker.running().size() < opt_.jobs) {
      const auto next = tracker.next_ready(now);
      if (!next) break;
      WorkUnit unit = plan.units[*next - 1];
      const int attempt = total_attempts(*next) + 1;
      unit.inject_fault = opt_.fault_kill_shard == *next &&
                          attempt == opt_.fault_kill_attempt;
      if (!launcher_->can_start(unit)) {
        // Finite-capacity backend (remote slots) with no acceptable slot
        // right now: wait for the next poll round rather than burning one
        // of the shard's retry attempts on a refusal.
        break;
      }
      const std::optional<JobId> job = launcher_->start(unit);
      if (!job) {
        // Count a spawn failure like any failed attempt: it gets the
        // same bounded retries + backoff instead of a tight spawn loop.
        tracker.on_dispatched(*next, 0, now);
        fail_attempt(*next, "spawn failure", now);
        if (aborted) break;
        continue;
      }
      tracker.on_dispatched(*next, *job, now);
      const std::string host = launcher_->job_host(*job);
      if (journal != nullptr) journal->record_dispatched(*next, attempt, host);
      if (opt_.verbose) {
        log_info("orch", "dispatch shard %zu/%zu attempt %d (%zu runs, %s job %llu%s%s%s)",
                 *next, plan.shards, attempt, unit.indices.size(),
                 std::string(launcher_->name()).c_str(),
                 static_cast<unsigned long long>(*job),
                 host.empty() ? "" : " on ", host.c_str(),
                 unit.inject_fault ? ", injected fault" : "");
      }
    }

    // Poll what is in flight.
    now = TrackerClock::now();
    for (const std::size_t shard : tracker.running()) {
      const ShardProgress& p = tracker.progress(shard);
      const JobStatus status = launcher_->poll(p.job);
      if (status.state == JobStatus::State::Running) {
        if (tracker.timed_out(shard, now)) {
          launcher_->kill(p.job);
          fail_attempt(shard, "timeout", now);
        }
        continue;
      }
      if (status.state == JobStatus::State::Succeeded) {
        const auto secs = std::chrono::duration_cast<std::chrono::milliseconds>(
                              now - p.started).count();
        tracker.on_succeeded(shard);
        if (journal != nullptr) journal->record_done(shard);
        ++shards_done;
        if (opt_.verbose) {
          log_info("orch", "shard %zu/%zu ok (attempt %d, %lld ms)", shard,
                   plan.shards, total_attempts(shard), static_cast<long long>(secs));
        }
        if (opt_.fault_driver_kill_after && shards_done >= *opt_.fault_driver_kill_after) {
          // After the journal recorded the completion — the resumed
          // driver must find a state file that is merely *behind* the
          // fragments on disk at worst, never ahead of them.
          log_warn("orch",
                   "FAULT: killing driver after %zu completed shard(s) "
                   "(SMT_ORCH_FAULT_DRIVER_KILL)",
                   shards_done);
          kill_this_driver();
        }
      } else {
        fail_attempt(shard, status.detail.empty() ? "failed" : status.detail, now);
      }
    }

    if (tracker.work_remaining() && !aborted && interrupted() == 0) {
      std::this_thread::sleep_for(opt_.poll_interval);
    }
  }

  // On abort or interrupt, reap what is still in flight — a sweep that
  // cannot merge must not leave workers grinding in the background. An
  // interrupted shard goes back to pending in the journal, so `resume`
  // picks it up like any failed attempt.
  const int signal = interrupted();
  for (const std::size_t shard : tracker.running()) {
    launcher_->kill(tracker.progress(shard).job);
    if (signal != 0 && journal != nullptr) {
      journal->record_failed(shard, total_attempts(shard),
                             "interrupted by signal " + std::to_string(signal),
                             /*abandoned=*/false);
    }
    if (opt_.verbose) {
      log_warn("orch", "shard %zu/%zu killed (%s)", shard, plan.shards,
               signal != 0 ? "sweep interrupted" : "sweep aborted");
    }
  }

  SweepOutcome outcome;
  outcome.interrupted_by = signal;
  outcome.ok = tracker.all_done();
  outcome.retries_used = tracker.retries_used();
  for (std::size_t k = 1; k <= plan.shards; ++k) {
    const ShardProgress& p = tracker.progress(k);
    outcome.shards.push_back(
        ShardOutcome{k, p.state == ShardState::Running ? ShardState::Abandoned : p.state,
                     p.prior_attempts + p.attempts, p.last_error});
  }
  return outcome;
}

}  // namespace dwarn::orch
