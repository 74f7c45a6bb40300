#include "orchestrator/launcher.hpp"

#include <cstdio>
#include <vector>

#include "common/log.hpp"
#include "engine/experiment_engine.hpp"
#include "engine/grid_registry.hpp"
#include "engine/run_spec.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define DWARN_HAVE_FORK 1
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
extern char** environ;
#else
#define DWARN_HAVE_FORK 0
#endif

namespace dwarn::orch {

// ---- SubprocessLauncher ------------------------------------------------------

SubprocessLauncher::SubprocessLauncher(std::string smt_shard_binary,
                                       std::size_t fault_delay_ms)
    : binary_(std::move(smt_shard_binary)), fault_delay_ms_(fault_delay_ms) {}

bool SubprocessLauncher::supported() { return DWARN_HAVE_FORK == 1; }

#if DWARN_HAVE_FORK

namespace {

/// The inherited environment with `overrides` applied (replacing any
/// existing NAME= entries), as the stable strings execve needs.
std::vector<std::string> merged_environ(
    const std::map<std::string, std::string>& overrides) {
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view entry(*e);
    const std::size_t eq = entry.find('=');
    if (eq != std::string_view::npos &&
        overrides.contains(std::string(entry.substr(0, eq)))) {
      continue;
    }
    env.emplace_back(entry);
  }
  for (const auto& [k, v] : overrides) env.push_back(k + "=" + v);
  return env;
}

std::vector<char*> as_charv(std::vector<std::string>& strings) {
  std::vector<char*> out;
  out.reserve(strings.size() + 1);
  for (std::string& s : strings) out.push_back(s.data());
  out.push_back(nullptr);
  return out;
}

JobStatus decode_wait_status(int status) {
  JobStatus js;
  if (WIFEXITED(status)) {
    const int code = WEXITSTATUS(status);
    js.state = code == 0 ? JobStatus::State::Succeeded : JobStatus::State::Failed;
    if (code != 0) js.detail = "exit code " + std::to_string(code);
  } else if (WIFSIGNALED(status)) {
    js.state = JobStatus::State::Failed;
    js.detail = "killed by signal " + std::to_string(WTERMSIG(status));
  } else {
    js.state = JobStatus::State::Failed;
    js.detail = "unrecognized wait status " + std::to_string(status);
  }
  return js;
}

}  // namespace

SubprocessLauncher::~SubprocessLauncher() {
  // Terminal jobs were erased when reported, so everything left is (or
  // recently was) a live worker.
  for (auto& [id, job] : jobs_) {
    if (job.pid <= 0) continue;
    ::kill(-static_cast<pid_t>(job.pid), SIGKILL);
    int status = 0;
    (void)waitpid(static_cast<pid_t>(job.pid), &status, 0);
  }
}

std::optional<JobId> SubprocessLauncher::start(const WorkUnit& unit) {
  std::vector<std::string> argv_strings = smt_shard_argv(unit, binary_);
  std::vector<std::string> env_strings = merged_environ(unit.env);
  std::vector<char*> argv = as_charv(argv_strings);
  std::vector<char*> envp = as_charv(env_strings);

  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("[orch] fork");
    return std::nullopt;
  }
  if (pid == 0) {
    // Own process group, so a kill reaches everything the worker spawned.
    setpgid(0, 0);
    execve(binary_.c_str(), argv.data(), envp.data());
    // Only reached when the exec itself failed; 127 mirrors the shell.
    std::perror("[orch] execve");
    _exit(127);
  }

  // Set from this side too, so the group exists before any kill below
  // whichever process runs first (EACCES after the child's exec is
  // harmless: the child has already done it).
  setpgid(pid, pid);

  const JobId id = next_id_++;
  Job& job = jobs_[id];
  job.pid = pid;
  if (unit.inject_fault) {
    // The injected worker crash (SMT_ORCH_FAULT_KILL): SIGKILL cannot be
    // caught, so the attempt reliably dies mid-run. A configured delay
    // lets the worker get observably deep into its shard first — armed
    // as a poll-time deadline, never slept for here: sleeping in start()
    // would stall dispatch and polling of every other worker for as long
    // as the faulted one is allowed to run.
    if (fault_delay_ms_ == 0) {
      ::kill(-pid, SIGKILL);
    } else {
      job.kill_at = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(fault_delay_ms_);
    }
  }
  return id;
}

JobStatus SubprocessLauncher::poll(JobId id) {
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return {JobStatus::State::Failed, "unknown job id " + std::to_string(id)};
  }
  Job& job = it->second;
  if (job.kill_at && std::chrono::steady_clock::now() >= *job.kill_at) {
    // The armed fault's deadline passed: fire the SIGKILL now. The death
    // surfaces at this or a later poll's waitpid like any worker crash.
    ::kill(-static_cast<pid_t>(job.pid), SIGKILL);
    job.kill_at.reset();
  }
  int status = 0;
  const pid_t rc = waitpid(static_cast<pid_t>(job.pid), &status, WNOHANG);
  if (rc == 0) return {JobStatus::State::Running, {}};
  const JobStatus done = rc < 0 ? JobStatus{JobStatus::State::Failed, "waitpid failed"}
                                : decode_wait_status(status);
  jobs_.erase(it);
  return done;
}

void SubprocessLauncher::kill(JobId id) {
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return;
  ::kill(-static_cast<pid_t>(it->second.pid), SIGKILL);
  int status = 0;
  // SIGKILL is not maskable, so this reap cannot hang.
  (void)waitpid(static_cast<pid_t>(it->second.pid), &status, 0);
  jobs_.erase(it);
}

#else  // !DWARN_HAVE_FORK

SubprocessLauncher::~SubprocessLauncher() = default;

std::optional<JobId> SubprocessLauncher::start(const WorkUnit&) {
  log_warn("orch",
           "subprocess backend is unavailable on this platform; "
           "use the thread backend");
  return std::nullopt;
}

JobStatus SubprocessLauncher::poll(JobId) {
  return {JobStatus::State::Failed, "subprocess backend unavailable"};
}

void SubprocessLauncher::kill(JobId) {}

#endif  // DWARN_HAVE_FORK

// ---- InProcessLauncher -------------------------------------------------------

InProcessLauncher::~InProcessLauncher() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, job] : jobs_) {
    if (job->worker.joinable()) job->worker.join();
  }
}

std::optional<JobId> InProcessLauncher::start(const WorkUnit& unit) {
  auto job = std::make_unique<Job>();
  Job* j = job.get();
  if (unit.inject_fault) {
    // The env fault hook, thread flavor: a subprocess would be SIGKILLed
    // mid-run; a thread cannot be, so the injected crash is a refused
    // attempt — same failure surface for the scheduler's retry path.
    j->detail = "injected fault (SMT_ORCH_FAULT_KILL)";
    j->state.store(2, std::memory_order_release);
  } else {
    j->worker = std::thread([j, unit]() {
      try {
        GridOptions grid_opt;
        grid_opt.num_seeds = unit.seeds;
        const std::vector<RunSpec> specs = named_grid(unit.bench, grid_opt).expand();
        const auto meta =
            bench_meta(unit.bench, specs.empty() ? RunLength{} : specs.front().len);
        const bool ok = run_shard_to_file(specs, unit.shard, unit.strategy, meta,
                                          unit.fragment_path(), /*zero_wall=*/true);
        if (!ok) j->detail = "cannot write " + unit.fragment_path();
        j->state.store(ok ? 1 : 2, std::memory_order_release);
      } catch (const std::exception& e) {
        j->detail = e.what();
        j->state.store(2, std::memory_order_release);
      }
    });
  }
  std::lock_guard<std::mutex> lock(mu_);
  const JobId id = next_id_++;
  jobs_.emplace(id, std::move(job));
  return id;
}

JobStatus InProcessLauncher::poll(JobId id) {
  // Find, join and erase under one lock hold: joining after dropping the
  // lock would let a concurrent poll of the same id (or the destructor)
  // race this join — and a terminal job must leave the map in the same
  // step its status is reported, so the map never grows with the sweep.
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return {JobStatus::State::Failed, "unknown job id " + std::to_string(id)};
  }
  Job& job = *it->second;
  const int state = job.state.load(std::memory_order_acquire);
  if (state == 0) return {JobStatus::State::Running, {}};
  // The worker already stored its terminal state, so this join can only
  // wait out the tail of the thread's exit — never a whole simulation.
  if (job.worker.joinable()) job.worker.join();
  const JobStatus done{
      state == 1 ? JobStatus::State::Succeeded : JobStatus::State::Failed, job.detail};
  jobs_.erase(it);
  return done;
}

void InProcessLauncher::kill(JobId) {
  // A simulating thread cannot be preempted; the scheduler records the
  // abandonment and ignores whatever the thread eventually reports. Its
  // fragment write stays safe: snapshots are written via rename, and a
  // re-run of the same shard produces byte-identical content anyway.
}

}  // namespace dwarn::orch
