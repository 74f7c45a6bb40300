#include "orchestrator/launcher.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "common/log.hpp"
#include "engine/experiment_engine.hpp"
#include "engine/grid_registry.hpp"
#include "engine/run_spec.hpp"
#include "orchestrator/remote_launcher.hpp"

extern char** environ;

namespace dwarn::orch {

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

/// `detail` attributed to `host` ("host 'X': detail"); unchanged for the
/// unnamed local host.
std::string on_host(const std::string& host, const std::string& detail) {
  return host.empty() ? detail : "host '" + host + "': " + detail;
}

JobStatus decode_wait_status(int status, const std::string& host) {
  std::string why;
  if (WIFEXITED(status)) {
    if (WEXITSTATUS(status) == 0) return {JobStatus::State::Succeeded, {}};
    why = "exit code " + std::to_string(WEXITSTATUS(status));
  } else if (WIFSIGNALED(status)) {
    why = "killed by signal " + std::to_string(WTERMSIG(status));
  } else {
    why = "unrecognized wait status " + std::to_string(status);
  }
  return {JobStatus::State::Failed, on_host(host, why)};
}

}  // namespace

// ---- ProcessLauncher ---------------------------------------------------------

ProcessLauncher::Options ProcessLauncher::local(std::string smt_shard_binary,
                                                std::size_t slots,
                                                std::size_t fault_delay_ms) {
  Options opt;
  opt.hosts = {HostSpec{"", slots}};
  opt.shard_binary = std::move(smt_shard_binary);
  opt.fault_delay_ms = fault_delay_ms;
  return opt;
}

ProcessLauncher::ProcessLauncher(Options opt) : opt_(std::move(opt)) {
  health_.resize(opt_.hosts.size());
}

ProcessLauncher::~ProcessLauncher() {
  // Terminal jobs were erased when reported, so everything left is (or
  // recently was) a live worker.
  for (const auto& [id, job] : jobs_) kill_group_and_reap(job);
}

std::size_t ProcessLauncher::total_slots() const {
  std::size_t total = 0;
  for (const HostSpec& h : opt_.hosts) total += h.slots;
  return total;
}

std::optional<std::size_t> ProcessLauncher::choose_host(std::size_t shard) const {
  const auto last_failed = last_failed_host_.find(shard);
  const bool all_quarantined = std::all_of(
      health_.begin(), health_.end(), [&](const HostHealth& h) {
        return h.consecutive_failures >= opt_.fail_limit;
      });

  std::optional<std::size_t> best;
  std::size_t best_free = 0;
  for (std::size_t i = 0; i < opt_.hosts.size(); ++i) {
    if (health_[i].busy >= opt_.hosts[i].slots) continue;
    // Skip the host that just failed this shard, and quarantined hosts,
    // unless the whole fleet is quarantined — then any slot beats a
    // deadlock, and a recovered host clears its count on first success.
    if (!all_quarantined) {
      if (last_failed != last_failed_host_.end() && last_failed->second == i &&
          opt_.hosts.size() > 1) {
        continue;
      }
      if (health_[i].consecutive_failures >= opt_.fail_limit) continue;
    }
    const std::size_t free = opt_.hosts[i].slots - health_[i].busy;
    if (!best || free > best_free) {
      best = i;
      best_free = free;
    }
  }
  return best;
}

bool ProcessLauncher::can_start(const WorkUnit& unit) const {
  return choose_host(unit.shard.index).has_value();
}

std::string ProcessLauncher::job_host(JobId id) const {
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? std::string{} : opt_.hosts[it->second.host].name;
}

std::optional<JobId> ProcessLauncher::start(const WorkUnit& unit) {
  const std::optional<std::size_t> host = choose_host(unit.shard.index);
  if (!host) {
    // The Scheduler gates on can_start(), so reaching here means a caller
    // skipped the capacity check; fail the attempt rather than oversubscribe.
    log_warn("orch", "no usable slot for shard %zu", unit.shard.index);
    return std::nullopt;
  }
  const JobId id = next_id_;

  // Local placement runs the worker itself, with the unit's env on top of
  // ours. Remote placement runs the transport, which carries the unit's
  // env inline in the command and streams the fragment back on stdout
  // into a fetch file next to the fragment — same directory, so the
  // success rename cannot cross a filesystem boundary and stays atomic.
  Job job;
  job.host = *host;
  job.shard = unit.shard.index;
  std::vector<std::string> argv_strings;
  std::vector<std::string> env_strings;
  if (opt_.exec) {
    job.fragment_path = unit.fragment_path();
    job.fetch_path = job.fragment_path + ".fetch." + std::to_string(id);
    argv_strings = opt_.exec->expand(opt_.hosts[*host].name,
                                     remote_command(unit, opt_.shard_binary));
    env_strings = merged_environ({});
  } else {
    argv_strings = smt_shard_argv(unit, opt_.shard_binary);
    env_strings = merged_environ(unit.env);
  }
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
    if (!job.fetch_path.empty()) {
      const int fd = ::open(job.fetch_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd < 0 || ::dup2(fd, STDOUT_FILENO) < 0) {
        std::perror("[orch] remote fetch file");
        _exit(126);
      }
      ::close(fd);
      // PATH-searched: the transport ("ssh", "docker", a shim path) is a
      // local command, unlike the worker binary execve()d by path.
      execvpe(argv[0], argv.data(), envp.data());
    } else {
      execve(argv[0], argv.data(), envp.data());
    }
    // Only reached when the exec itself failed; 127 mirrors the shell.
    std::perror("[orch] exec");
    _exit(127);
  }

  // Set from this side too, so the group exists before any kill below
  // whichever process runs first (EACCES after the child's exec is
  // harmless: the child has already done it).
  setpgid(pid, pid);

  ++next_id_;
  job.pid = pid;
  ++health_[*host].busy;
  if (unit.inject_fault) {
    // The injected worker crash (SMT_ORCH_FAULT_KILL): SIGKILL cannot be
    // caught, so the attempt reliably dies mid-run — for a remote job the
    // local transport dies, which is exactly what a severed connection
    // looks like. A configured delay lets the worker get observably deep
    // into its shard first — armed as a poll-time deadline, never slept
    // for here: sleeping in start() would stall dispatch and polling of
    // every other worker for as long as the faulted one is allowed to run.
    if (opt_.fault_delay_ms == 0) {
      ::kill(-pid, SIGKILL);
    } else {
      job.kill_at = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(opt_.fault_delay_ms);
    }
  }
  jobs_.emplace(id, std::move(job));
  return id;
}

JobStatus ProcessLauncher::poll(JobId id) {
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
  const std::string& host_name = opt_.hosts[job.host].name;
  const JobStatus done = finish(
      job, rc < 0 ? JobStatus{JobStatus::State::Failed, on_host(host_name, "waitpid failed")}
                  : decode_wait_status(status, host_name));
  jobs_.erase(it);
  return done;
}

JobStatus ProcessLauncher::finish(const Job& job, JobStatus done) {
  const std::string& host_name = opt_.hosts[job.host].name;
  if (done.state == JobStatus::State::Succeeded && !job.fetch_path.empty()) {
    // The transport succeeded — promote the streamed bytes to the real
    // fragment. An empty capture means the remote ran but sent nothing back.
    std::error_code ec;
    const auto size = std::filesystem::file_size(job.fetch_path, ec);
    if (ec || size == 0) {
      done = {JobStatus::State::Failed, on_host(host_name, "no fragment bytes retrieved")};
    } else {
      std::filesystem::rename(job.fetch_path, job.fragment_path, ec);
      if (ec) {
        done = {JobStatus::State::Failed,
                on_host(host_name, "cannot place fragment: " + ec.message())};
      }
    }
  }

  release_slot(job.host);
  HostHealth& health = health_[job.host];
  if (done.state == JobStatus::State::Succeeded) {
    health.consecutive_failures = 0;
    last_failed_host_.erase(job.shard);
  } else {
    ++health.consecutive_failures;
    last_failed_host_[job.shard] = job.host;
    if (!job.fetch_path.empty()) {
      std::error_code ec;
      std::filesystem::remove(job.fetch_path, ec);
    }
    // Quarantine only steers between named hosts; the local host has no
    // alternative, so its failures are not news beyond the scheduler's.
    if (!host_name.empty() && health.consecutive_failures == opt_.fail_limit) {
      log_warn("orch", "remote: host '%s' quarantined after %d consecutive failures",
               host_name.c_str(), opt_.fail_limit);
    }
  }
  return done;
}

void ProcessLauncher::kill_group_and_reap(const Job& job) {
  // Killing a remote job's local transport severs the session; ssh tears
  // down the remote side with it (a shim or docker exec may leave the
  // remote process to finish into its private temp dir — harmless, the
  // bytes are discarded). The timeout contract only needs the *attempt*
  // dead.
  ::kill(-static_cast<pid_t>(job.pid), SIGKILL);
  int status = 0;
  // SIGKILL is not maskable, so this reap cannot hang.
  (void)waitpid(static_cast<pid_t>(job.pid), &status, 0);
  if (!job.fetch_path.empty()) {
    std::error_code ec;
    std::filesystem::remove(job.fetch_path, ec);
  }
}

void ProcessLauncher::kill(JobId id) {
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return;
  kill_group_and_reap(it->second);
  release_slot(it->second.host);
  jobs_.erase(it);
}

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
