// Pluggable work-unit launchers for the sweep orchestrator.
//
// A Launcher is the one mechanism-specific piece of the orchestrator:
// start a WorkUnit, poll it, kill it. The Scheduler never learns what a
// job *is* — a forked process, a thread, an SSH session — it only sees
// opaque JobIds and their status. Two backends ship:
//
//   ProcessLauncher     one fork/exec worker process per unit, placed on
//                       a host table. Local placement (the default
//                       backend) is a single unnamed host with --jobs
//                       slots that execve()s `smt_shard run --shard K/N`
//                       with the unit's env overrides on top of the
//                       inherited environment; the worker writes its
//                       fragment into the out-dir itself. Remote
//                       placement (--backend remote) is the --hosts
//                       fleet: each job runs the exec template around
//                       remote_command() and its stdout is captured and
//                       renamed onto the fragment (remote_launcher.hpp).
//                       Workers are isolated processes, so a crash (or
//                       an injected SIGKILL) loses one shard attempt,
//                       never the sweep.
//   InProcessLauncher   one std::thread per unit running the shard on
//                       this process's ExperimentEngine. For tests and
//                       --backend thread; ignores the unit's env
//                       overrides (process-global environment cannot be
//                       mutated per worker) and cannot preempt a running
//                       simulation — kill() only marks the job abandoned.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "orchestrator/work_unit.hpp"

namespace dwarn::orch {

using JobId = std::uint64_t;

/// What a poll sees: still running, or finished with an outcome.
struct JobStatus {
  enum class State : std::uint8_t { Running, Succeeded, Failed };
  State state = State::Running;
  std::string detail;  ///< failure reason ("exit code 1", "killed by signal 9")
};

class Launcher {
 public:
  virtual ~Launcher() = default;

  /// Begin executing `unit`. nullopt when the job cannot even be started
  /// (spawn failure) — the scheduler treats that like a failed attempt.
  [[nodiscard]] virtual std::optional<JobId> start(const WorkUnit& unit) = 0;

  /// Non-blocking status check. Polling an unknown id returns Failed.
  [[nodiscard]] virtual JobStatus poll(JobId id) = 0;

  /// Best-effort termination (timeouts, sweep abort). Processes are
  /// SIGKILLed and reaped; threads are only marked abandoned.
  virtual void kill(JobId id) = 0;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Whether `unit` could start right now. Backends with finite capacity
  /// (per-host slots) return false to make the Scheduler wait for a slot
  /// instead of burning one of the shard's retry attempts on a refusal.
  [[nodiscard]] virtual bool can_start(const WorkUnit& unit) const {
    (void)unit;
    return true;
  }

  /// Which host/executor runs job `id` — attribution for logs and the
  /// sweep journal. "" when the backend has no meaningful answer (local
  /// placement, threads). Valid from start() until the terminal poll.
  [[nodiscard]] virtual std::string job_host(JobId id) const {
    (void)id;
    return {};
  }
};

/// One execution slot pool: an opaque host token the exec template
/// understands ("user@host" for ssh, a container name for docker exec, a
/// node name for srun) plus how many units it may run concurrently. The
/// local placement is the single host with an empty name.
struct HostSpec {
  std::string name;
  std::size_t slots = 1;

  friend bool operator==(const HostSpec&, const HostSpec&) = default;
};

/// A parsed exec template: whitespace-split argv whose tokens may embed
/// the `{host}` and `{cmd}` placeholders (see parse_exec_template).
struct ExecTemplate {
  std::vector<std::string> argv;

  /// The template with every placeholder substituted.
  [[nodiscard]] std::vector<std::string> expand(const std::string& host,
                                                const std::string& cmd) const;
};

/// The fork/exec backend: every worker is a process in its own process
/// group, placed on a slot of the host table.
///
/// Host bookkeeping (meaningful with more than one host): start() picks
/// the least-loaded usable host; a failed attempt records the host
/// against its shard so the retry prefers a *different* host, and a host
/// that fails `fail_limit` consecutive attempts is quarantined (only used
/// when every host is equally sick — a dead host must not eat a shard's
/// whole retry budget, but an all-degraded fleet must not deadlock
/// either). can_start() reports "no acceptable slot right now" so the
/// Scheduler waits for capacity instead of burning an attempt.
///
/// Terminal jobs are erased from the job map as soon as their status is
/// returned (poll) or they are reaped (kill): a million-shard sweep must
/// not keep a map entry per finished attempt. The scheduler never polls
/// a job again after seeing a terminal status, so a later poll of a
/// vanished id ("unknown job id") can only mean a caller bug.
class ProcessLauncher final : public Launcher {
 public:
  struct Options {
    std::vector<HostSpec> hosts;
    /// Remote transport; nullopt = local placement (execve the worker).
    std::optional<ExecTemplate> exec;
    /// smt_shard path: a local executable path (not PATH-searched) for
    /// local placement, the path valid on every host for remote.
    std::string shard_binary;
    /// Consecutive failures before a host is quarantined
    /// (SMT_ORCH_HOST_FAIL_LIMIT). A success resets the count.
    int fail_limit = 2;
    /// Delay of the injected SIGKILL of a faulted unit, so the worker is
    /// observably mid-run when it dies (SMT_ORCH_FAULT_DELAY_MS). Armed
    /// as a deadline checked at poll time — start() never sleeps, so a
    /// delayed fault cannot stall dispatch or polling of other workers.
    std::size_t fault_delay_ms = 0;
  };

  /// Local placement: one unnamed host with `slots` slots.
  [[nodiscard]] static Options local(std::string smt_shard_binary, std::size_t slots,
                                     std::size_t fault_delay_ms = 0);

  explicit ProcessLauncher(Options opt);
  ~ProcessLauncher() override;  ///< kills and reaps any still-running jobs

  [[nodiscard]] std::optional<JobId> start(const WorkUnit& unit) override;
  [[nodiscard]] JobStatus poll(JobId id) override;
  void kill(JobId id) override;
  [[nodiscard]] std::string_view name() const override {
    return opt_.exec ? "remote" : "subprocess";
  }

  /// True when an acceptable host has a free slot for this unit's shard.
  [[nodiscard]] bool can_start(const WorkUnit& unit) const override;
  [[nodiscard]] std::string job_host(JobId id) const override;

  [[nodiscard]] std::size_t total_slots() const;

 private:
  struct Job {
    std::int64_t pid = -1;
    std::size_t host = 0;       ///< index into opt_.hosts
    std::size_t shard = 0;      ///< unit's 1-based shard number
    std::string fetch_path;     ///< remote: stdout capture; "" for local
    std::string fragment_path;  ///< remote: rename target on success
    /// Armed delayed fault injection: the next poll at or past this
    /// instant sends the SIGKILL (never slept for in start()).
    std::optional<std::chrono::steady_clock::time_point> kill_at;
  };
  struct HostHealth {
    std::size_t busy = 0;          ///< slots in use
    int consecutive_failures = 0;  ///< resets on any success
  };

  /// Least-loaded host with a free slot, skipping the shard's last failed
  /// host and quarantined hosts while a healthier alternative exists (busy
  /// or free — a busy healthy host is worth waiting for). nullopt = wait.
  [[nodiscard]] std::optional<std::size_t> choose_host(std::size_t shard) const;
  /// SIGKILL the job's process group, reap it and drop its fetch temp.
  static void kill_group_and_reap(const Job& job);
  /// The terminal status of an exited job from its decoded wait status:
  /// place a remote job's fetched fragment, free the slot and update the
  /// host's health.
  [[nodiscard]] JobStatus finish(const Job& job, JobStatus done);
  void release_slot(std::size_t host) {
    if (health_[host].busy > 0) --health_[host].busy;
  }

  Options opt_;
  std::vector<HostHealth> health_;  ///< parallel to opt_.hosts
  std::map<std::size_t, std::size_t> last_failed_host_;  ///< shard → host index
  std::map<JobId, Job> jobs_;  ///< in-flight attempts only (see class doc)
  JobId next_id_ = 1;
};

/// Thread-backed backend: runs units on this process's engine (no fork).
///
/// A job that polls terminal is joined and erased under the launcher
/// lock in one step — the map holds only running (or kill()-abandoned)
/// attempts, and the lock-held join cannot race a concurrent poll or the
/// destructor into a double join.
class InProcessLauncher final : public Launcher {
 public:
  ~InProcessLauncher() override;  ///< joins every worker thread

  [[nodiscard]] std::optional<JobId> start(const WorkUnit& unit) override;
  [[nodiscard]] JobStatus poll(JobId id) override;
  void kill(JobId id) override;
  [[nodiscard]] std::string_view name() const override { return "thread"; }

 private:
  struct Job {
    std::thread worker;
    /// 0 = running, 1 = succeeded, 2 = failed. `detail` is written by the
    /// worker before the release store, read after the acquire load.
    std::atomic<int> state{0};
    std::string detail;
  };

  std::mutex mu_;
  std::map<JobId, std::unique_ptr<Job>> jobs_;  ///< running/abandoned attempts only
  JobId next_id_ = 1;
};

}  // namespace dwarn::orch
