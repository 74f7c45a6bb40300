#include "orchestrator/remote_launcher.hpp"

#include <cstdio>

#include "common/log.hpp"
#include "engine/shard.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define DWARN_HAVE_FORK 1
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
extern char** environ;
#else
#define DWARN_HAVE_FORK 0
#endif

#include <algorithm>
#include <filesystem>

namespace dwarn::orch {

// ---- hostfile / template parsing ---------------------------------------------

std::optional<std::vector<HostSpec>> parse_hosts(std::string_view text,
                                                 std::string& error) {
  error.clear();
  std::vector<HostSpec> hosts;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    std::string_view entry = text.substr(pos, comma - pos);
    pos = comma + 1;
    // Tolerate whitespace around entries ("a:2, b:4") but nothing inside.
    while (!entry.empty() && (entry.front() == ' ' || entry.front() == '\t')) {
      entry.remove_prefix(1);
    }
    while (!entry.empty() && (entry.back() == ' ' || entry.back() == '\t')) {
      entry.remove_suffix(1);
    }
    if (entry.empty()) continue;  // stray commas / trailing comma

    HostSpec spec;
    const std::size_t colon = entry.rfind(':');
    if (colon == std::string_view::npos) {
      spec.name = std::string(entry);
    } else {
      spec.name = std::string(entry.substr(0, colon));
      const std::string_view slots = entry.substr(colon + 1);
      if (slots.empty() ||
          !std::all_of(slots.begin(), slots.end(),
                       [](char c) { return c >= '0' && c <= '9'; }) ||
          slots.size() > 6) {
        error = "host entry '" + std::string(entry) + "' has a malformed slot count";
        return std::nullopt;
      }
      spec.slots = static_cast<std::size_t>(std::stoull(std::string(slots)));
      if (spec.slots < 1 || spec.slots > kMaxHostSlots) {
        error = "host entry '" + std::string(entry) + "' slot count out of [1, " +
                std::to_string(kMaxHostSlots) + "]";
        return std::nullopt;
      }
    }
    if (spec.name.empty()) {
      error = "host entry '" + std::string(entry) + "' has an empty host name";
      return std::nullopt;
    }
    for (const HostSpec& h : hosts) {
      if (h.name == spec.name) {
        // A duplicate is almost certainly a typo'd hostfile; merging the
        // slot counts silently would hide it.
        error = "host '" + spec.name + "' is listed twice";
        return std::nullopt;
      }
    }
    hosts.push_back(std::move(spec));
  }
  if (hosts.empty()) {
    error = "host list is empty";
    return std::nullopt;
  }
  return hosts;
}

namespace {

void replace_all(std::string& s, std::string_view from, std::string_view to) {
  for (std::size_t at = s.find(from); at != std::string::npos;
       at = s.find(from, at + to.size())) {
    s.replace(at, from.size(), to);
  }
}

}  // namespace

std::vector<std::string> ExecTemplate::expand(const std::string& host,
                                              const std::string& cmd) const {
  std::vector<std::string> out = argv;
  for (std::string& token : out) {
    replace_all(token, "{host}", host);
    replace_all(token, "{cmd}", cmd);
  }
  return out;
}

std::optional<ExecTemplate> parse_exec_template(std::string_view text,
                                                std::string& error) {
  error.clear();
  ExecTemplate tmpl;
  std::size_t pos = 0;
  while (pos < text.size()) {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t')) ++pos;
    std::size_t end = pos;
    while (end < text.size() && text[end] != ' ' && text[end] != '\t') ++end;
    if (end > pos) tmpl.argv.emplace_back(text.substr(pos, end - pos));
    pos = end;
  }
  if (tmpl.argv.empty()) {
    error = "exec template is empty";
    return std::nullopt;
  }
  const auto contains = [&](std::string_view needle) {
    return std::any_of(tmpl.argv.begin(), tmpl.argv.end(), [&](const std::string& t) {
      return t.find(needle) != std::string::npos;
    });
  };
  if (!contains("{cmd}")) {
    error = "exec template '" + std::string(text) + "' has no {cmd} placeholder";
    return std::nullopt;
  }
  if (!contains("{host}")) {
    error = "exec template '" + std::string(text) + "' has no {host} placeholder";
    return std::nullopt;
  }
  return tmpl;
}

std::string shell_quote(std::string_view s) {
  std::string out = "'";
  for (const char c : s) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  out += '\'';
  return out;
}

std::string remote_command(const WorkUnit& unit, const std::string& remote_shard) {
  // The driver's SMT_* knobs (windows, telemetry, cache mode...) reach a
  // forked worker by inheritance; a remote shell starts clean, so they
  // are re-exported inline, with the unit's own overrides winning.
  std::map<std::string, std::string> env;
#if DWARN_HAVE_FORK
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view entry(*e);
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos || entry.substr(0, 4) != "SMT_") continue;
    env.emplace(entry.substr(0, eq), entry.substr(eq + 1));
  }
#endif
  for (const auto& [k, v] : unit.env) env[k] = v;

  // Fragment bytes come back over stdout, so the worker's own stdout is
  // diverted to stderr and the temp dir is cleaned up however the command
  // ends. Exit 125 marks "remote shell could not even make a temp dir".
  std::string cmd = "d=`mktemp -d` || exit 125; trap 'rm -rf \"$d\"' EXIT; ";
  for (const auto& [k, v] : env) {
    cmd += k + "=" + shell_quote(v) + " ";
  }
  WorkUnit local = unit;
  local.out_dir.clear();  // the remote fragment lands in $d, not our out-dir
  const std::vector<std::string> argv = smt_shard_argv(local, remote_shard);
  for (const std::string& a : argv) {
    cmd += shell_quote(a) + " ";
  }
  cmd += "--out \"$d\" 1>&2 && cat \"$d/" +
         shard_fragment_filename(unit.bench, unit.shard.index, unit.shard.count) +
         "\"";
  return cmd;
}

// ---- RemoteLauncher ----------------------------------------------------------

RemoteLauncher::RemoteLauncher(Options opt) : opt_(std::move(opt)) {
  health_.resize(opt_.hosts.size());
}

std::size_t RemoteLauncher::total_slots() const {
  std::size_t total = 0;
  for (const HostSpec& h : opt_.hosts) total += h.slots;
  return total;
}

bool RemoteLauncher::supported() { return DWARN_HAVE_FORK == 1; }

std::optional<std::size_t> RemoteLauncher::choose_host(std::size_t shard) const {
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

bool RemoteLauncher::can_start(const WorkUnit& unit) const {
  return choose_host(unit.shard.index).has_value();
}

std::string RemoteLauncher::job_host(JobId id) const {
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? std::string{} : opt_.hosts[it->second.host].name;
}

#if DWARN_HAVE_FORK

RemoteLauncher::~RemoteLauncher() {
  for (auto& [id, job] : jobs_) {
    if (job.pid <= 0) continue;
    ::kill(-static_cast<pid_t>(job.pid), SIGKILL);
    int status = 0;
    (void)waitpid(static_cast<pid_t>(job.pid), &status, 0);
    std::error_code ec;
    std::filesystem::remove(job.fetch_path, ec);
  }
}

std::optional<JobId> RemoteLauncher::start(const WorkUnit& unit) {
  const std::optional<std::size_t> host = choose_host(unit.shard.index);
  if (!host) {
    // The Scheduler gates on can_start(), so reaching here means a caller
    // skipped the capacity check; fail the attempt rather than oversubscribe.
    log_warn("orch", "remote: no usable slot for shard %zu", unit.shard.index);
    return std::nullopt;
  }

  const JobId id = next_id_;
  const std::string fragment = unit.fragment_path();
  // Same directory as the fragment, so the success rename cannot cross a
  // filesystem boundary and stays atomic.
  const std::string fetch = fragment + ".fetch." + std::to_string(id);

  std::vector<std::string> argv_strings = opt_.exec.expand(
      opt_.hosts[*host].name, remote_command(unit, opt_.remote_shard));
  std::vector<char*> argv;
  argv.reserve(argv_strings.size() + 1);
  for (std::string& s : argv_strings) argv.push_back(s.data());
  argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("[orch] fork");
    return std::nullopt;
  }
  if (pid == 0) {
    // Own process group, so a kill reaches everything the transport spawned.
    setpgid(0, 0);
    const int fd = ::open(fetch.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0 || ::dup2(fd, STDOUT_FILENO) < 0) {
      std::perror("[orch] remote fetch file");
      _exit(126);
    }
    ::close(fd);
    // PATH-searched: the transport ("ssh", "docker", a shim path) is a
    // local command, unlike the absolute worker binary execve()d locally.
    execvp(argv[0], argv.data());
    std::perror("[orch] execvp");
    _exit(127);
  }

  // Set from this side too, so the group exists before any kill below
  // whichever process runs first.
  setpgid(pid, pid);

  ++next_id_;
  Job& job = jobs_[id];
  job.pid = pid;
  job.host = *host;
  job.shard = unit.shard.index;
  job.fetch_path = fetch;
  job.fragment_path = fragment;
  ++health_[*host].busy;
  if (unit.inject_fault) {
    // The worker-kill fault hook, remote flavor: the local transport
    // process dies, which is exactly what a severed connection looks like.
    ::kill(-pid, SIGKILL);
  }
  return id;
}

JobStatus RemoteLauncher::poll(JobId id) {
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return {JobStatus::State::Failed, "unknown job id " + std::to_string(id)};
  }
  Job& job = it->second;
  int status = 0;
  const pid_t rc = waitpid(static_cast<pid_t>(job.pid), &status, WNOHANG);
  if (rc == 0) return {JobStatus::State::Running, {}};

  const std::string host_name = opt_.hosts[job.host].name;
  JobStatus done;
  done.state = JobStatus::State::Failed;
  if (rc < 0) {
    done.detail = "waitpid failed";
  } else if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
    // Exec succeeded — promote the streamed bytes to the real fragment.
    // An empty capture means the remote ran but sent nothing back.
    std::error_code ec;
    const auto size = std::filesystem::file_size(job.fetch_path, ec);
    if (ec || size == 0) {
      done.detail = "host '" + host_name + "': no fragment bytes retrieved";
    } else {
      std::filesystem::rename(job.fetch_path, job.fragment_path, ec);
      if (ec) {
        done.detail = "host '" + host_name + "': cannot place fragment: " +
                      ec.message();
      } else {
        done.state = JobStatus::State::Succeeded;
      }
    }
  } else if (WIFEXITED(status)) {
    done.detail =
        "host '" + host_name + "': exit code " + std::to_string(WEXITSTATUS(status));
  } else if (WIFSIGNALED(status)) {
    done.detail =
        "host '" + host_name + "': killed by signal " + std::to_string(WTERMSIG(status));
  } else {
    done.detail = "host '" + host_name + "': unrecognized wait status";
  }

  release_slot(job.host);
  if (done.state == JobStatus::State::Succeeded) {
    health_[job.host].consecutive_failures = 0;
    last_failed_host_.erase(job.shard);
  } else {
    ++health_[job.host].consecutive_failures;
    last_failed_host_[job.shard] = job.host;
    std::error_code ec;
    std::filesystem::remove(job.fetch_path, ec);
    if (health_[job.host].consecutive_failures == opt_.fail_limit) {
      log_warn("orch", "remote: host '%s' quarantined after %d consecutive failures",
               host_name.c_str(), opt_.fail_limit);
    }
  }
  jobs_.erase(it);
  return done;
}

void RemoteLauncher::kill(JobId id) {
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return;
  // Killing the local transport severs the session; ssh tears down the
  // remote side with it (a shim or docker exec may leave the remote
  // process to finish into its private temp dir — harmless, the bytes
  // are discarded). The timeout contract only needs the *attempt* dead.
  ::kill(-static_cast<pid_t>(it->second.pid), SIGKILL);
  int status = 0;
  (void)waitpid(static_cast<pid_t>(it->second.pid), &status, 0);
  release_slot(it->second.host);
  std::error_code ec;
  std::filesystem::remove(it->second.fetch_path, ec);
  jobs_.erase(it);
}

#else  // !DWARN_HAVE_FORK

RemoteLauncher::~RemoteLauncher() = default;

std::optional<JobId> RemoteLauncher::start(const WorkUnit&) {
  log_warn("orch", "remote backend needs fork/exec, unavailable on this platform");
  return std::nullopt;
}

JobStatus RemoteLauncher::poll(JobId) {
  return {JobStatus::State::Failed, "remote backend unavailable"};
}

void RemoteLauncher::kill(JobId) {}

#endif  // DWARN_HAVE_FORK

}  // namespace dwarn::orch
