// Unit tests: the remote execution backend — hostfile and exec-template
// parsing hardening (bad slot counts, empty lists, missing placeholders),
// template substitution, the remote command's inline env re-export, and
// RemoteLauncher's process mechanics against stub transport scripts:
// fragment retrieval + atomic placement, failure attribution to the host,
// slot accounting behind can_start(), killing the transport's whole
// process group, retry steering away from a shard's last failed host, and
// quarantine that can never deadlock the fleet.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "engine/shard.hpp"
#include "orchestrator/remote_launcher.hpp"

namespace dwarn {
namespace {

using namespace std::chrono_literals;

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_((std::filesystem::temp_directory_path() / name).string()) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Write an executable stub transport script and return its path. The
/// stub stands in for ssh: tests exercise the launcher's process and
/// bookkeeping mechanics without any real remote side.
std::string write_stub(const TempDir& dir, const std::string& name,
                       const std::string& body) {
  const std::string path = dir.path() + "/" + name;
  {
    std::ofstream out(path);
    out << "#!/bin/sh\n" << body << "\n";
  }
  EXPECT_EQ(chmod(path.c_str(), 0755), 0);
  return path;
}

orch::WorkUnit test_unit(const TempDir& dir, std::size_t k, std::size_t n) {
  orch::WorkUnit unit;
  unit.bench = "fixture";
  unit.shard = ShardSpec{k, n};
  unit.seeds = 1;
  unit.out_dir = dir.path() + "/";
  unit.env = {{"SMT_BENCH_ZERO_WALL", "1"}};
  return unit;
}

orch::RemoteLauncher::Options remote_options(const std::string& hosts_text,
                                             const std::string& stub) {
  std::string error;
  const auto hosts = orch::parse_hosts(hosts_text, error);
  EXPECT_TRUE(hosts) << error;
  const auto tmpl = orch::parse_exec_template(stub + " {host} {cmd}", error);
  EXPECT_TRUE(tmpl) << error;
  orch::RemoteLauncher::Options opt;
  opt.hosts = *hosts;
  opt.exec = *tmpl;
  opt.remote_shard = "/nonexistent/smt_shard";  // stubs never run it
  return opt;
}

/// Poll until terminal (the stub transports exit quickly).
orch::JobStatus poll_to_terminal(orch::RemoteLauncher& launcher, orch::JobId id) {
  for (int i = 0; i < 5000; ++i) {
    const orch::JobStatus status = launcher.poll(id);
    if (status.state != orch::JobStatus::State::Running) return status;
    std::this_thread::sleep_for(1ms);
  }
  ADD_FAILURE() << "job " << id << " never became terminal";
  return {};
}

// ---- hostfile parsing --------------------------------------------------------

TEST(ParseHosts, ListWithSlotsDefaultsAndWhitespace) {
  std::string error;
  const auto hosts = orch::parse_hosts("alpha:2, user@beta ,gamma:1,", error);
  ASSERT_TRUE(hosts) << error;
  ASSERT_EQ(hosts->size(), 3u);
  EXPECT_EQ((*hosts)[0], (orch::HostSpec{"alpha", 2}));
  EXPECT_EQ((*hosts)[1], (orch::HostSpec{"user@beta", 1}));  // slots default 1
  EXPECT_EQ((*hosts)[2], (orch::HostSpec{"gamma", 1}));
  EXPECT_TRUE(error.empty());
}

TEST(ParseHosts, RefusesEmptyAndMalformedInput) {
  std::string error;
  EXPECT_FALSE(orch::parse_hosts("", error));
  EXPECT_NE(error.find("empty"), std::string::npos) << error;
  EXPECT_FALSE(orch::parse_hosts(" , ,", error));

  EXPECT_FALSE(orch::parse_hosts(":4", error));  // empty host name
  EXPECT_NE(error.find("empty host name"), std::string::npos) << error;

  EXPECT_FALSE(orch::parse_hosts("alpha,beta,alpha", error));
  EXPECT_NE(error.find("twice"), std::string::npos) << error;
}

TEST(ParseHosts, RefusesBadSlotCounts) {
  std::string error;
  EXPECT_FALSE(orch::parse_hosts("alpha:0", error));  // zero slots
  EXPECT_NE(error.find("out of [1"), std::string::npos) << error;
  EXPECT_FALSE(orch::parse_hosts("alpha:9999999", error));  // over kMaxHostSlots
  EXPECT_FALSE(orch::parse_hosts("alpha:", error));         // empty count
  EXPECT_FALSE(orch::parse_hosts("alpha:two", error));      // non-numeric
  EXPECT_NE(error.find("malformed slot count"), std::string::npos) << error;
  // ':' binds to the slot count, so an entry with a port-like suffix and
  // no digits after the last colon is malformed, not silently host-named.
  EXPECT_FALSE(orch::parse_hosts("alpha:2:x", error));
}

// ---- exec-template parsing and expansion -------------------------------------

TEST(ExecTemplate, DefaultParsesAndExpands) {
  std::string error;
  const auto tmpl = orch::parse_exec_template(orch::kDefaultExecTemplate, error);
  ASSERT_TRUE(tmpl) << error;
  const std::vector<std::string> argv = tmpl->expand("user@node7", "echo hi");
  ASSERT_EQ(argv.size(), 5u);
  EXPECT_EQ(argv[0], "ssh");
  EXPECT_EQ(argv[1], "-o");
  EXPECT_EQ(argv[2], "BatchMode=yes");
  EXPECT_EQ(argv[3], "user@node7");
  EXPECT_EQ(argv[4], "echo hi");
}

TEST(ExecTemplate, SubstitutesPlaceholdersInsideTokens) {
  std::string error;
  const auto tmpl =
      orch::parse_exec_template("docker exec ctr-{host} sh -c {cmd}", error);
  ASSERT_TRUE(tmpl) << error;
  const std::vector<std::string> argv = tmpl->expand("a1", "true");
  EXPECT_EQ(argv[2], "ctr-a1");
  EXPECT_EQ(argv[5], "true");
}

TEST(ExecTemplate, RefusesMissingPlaceholdersAndEmptyTemplates) {
  std::string error;
  EXPECT_FALSE(orch::parse_exec_template("", error));
  EXPECT_NE(error.find("empty"), std::string::npos) << error;
  EXPECT_FALSE(orch::parse_exec_template("   ", error));
  EXPECT_FALSE(orch::parse_exec_template("ssh {host}", error));
  EXPECT_NE(error.find("{cmd}"), std::string::npos) << error;
  EXPECT_FALSE(orch::parse_exec_template("run-anywhere {cmd}", error));
  EXPECT_NE(error.find("{host}"), std::string::npos) << error;
}

TEST(ExecTemplate, ShellQuoteSurvivesEmbeddedQuotes) {
  EXPECT_EQ(orch::shell_quote("plain"), "'plain'");
  EXPECT_EQ(orch::shell_quote("it's"), "'it'\\''s'");
  EXPECT_EQ(orch::shell_quote(""), "''");
}

// ---- the remote command ------------------------------------------------------

TEST(RemoteCommand, ReexportsUnitEnvAndStreamsTheFragment) {
  TempDir dir("dwarn_remote_cmd_test");
  orch::WorkUnit unit = test_unit(dir, 2, 3);
  unit.env["SMT_SIM_WORKERS"] = "4";
  const std::string cmd = orch::remote_command(unit, "/opt/bin/smt_shard");

  // The unit's env overrides ride inline — ssh starts a clean environment,
  // and these vars shape result bytes.
  EXPECT_NE(cmd.find("SMT_BENCH_ZERO_WALL='1'"), std::string::npos) << cmd;
  EXPECT_NE(cmd.find("SMT_SIM_WORKERS='4'"), std::string::npos) << cmd;
  // The worker runs into the remote temp dir, stdout diverted, and only
  // the fragment bytes come back over the connection.
  EXPECT_NE(cmd.find("mktemp -d"), std::string::npos) << cmd;
  EXPECT_NE(cmd.find("'/opt/bin/smt_shard' 'run'"), std::string::npos) << cmd;
  EXPECT_NE(cmd.find("'--shard' '2/3'"), std::string::npos) << cmd;
  EXPECT_NE(cmd.find("--out \"$d\" 1>&2"), std::string::npos) << cmd;
  EXPECT_NE(cmd.find("cat \"$d/" + shard_fragment_filename("fixture", 2, 3) + "\""),
            std::string::npos)
      << cmd;
  // The local out-dir must not leak into the remote command: the remote
  // side writes into its own temp dir only.
  EXPECT_EQ(cmd.find(dir.path()), std::string::npos) << cmd;
}

// ---- RemoteLauncher mechanics ------------------------------------------------

TEST(RemoteLauncher, RetrievesFragmentBytesAndPlacesThemAtomically) {
  if (!orch::RemoteLauncher::supported()) GTEST_SKIP() << "no fork/exec";
  TempDir dir("dwarn_remote_ok_test");
  // The stub ignores the command and streams payload bytes like a remote
  // `cat` of the fragment would.
  const std::string stub =
      write_stub(dir, "transport_ok.sh", "printf 'payload-from-%s' \"$1\"");
  orch::RemoteLauncher launcher(remote_options("alpha", stub));

  const orch::WorkUnit unit = test_unit(dir, 1, 2);
  const auto id = launcher.start(unit);
  ASSERT_TRUE(id);
  EXPECT_EQ(launcher.job_host(*id), "alpha");

  const orch::JobStatus status = poll_to_terminal(launcher, *id);
  EXPECT_EQ(status.state, orch::JobStatus::State::Succeeded) << status.detail;
  EXPECT_EQ(read_file(unit.fragment_path()), "payload-from-alpha");
  // No .fetch temp left behind, and the terminal job is forgotten.
  std::size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir.path())) {
    files += e.path().filename().string().rfind("transport_ok.sh", 0) == 0 ? 0 : 1;
  }
  EXPECT_EQ(files, 1u);  // just the fragment
  EXPECT_EQ(launcher.job_host(*id), "");
}

TEST(RemoteLauncher, FailureNamesTheHostAndCleansTheFetchTemp) {
  if (!orch::RemoteLauncher::supported()) GTEST_SKIP() << "no fork/exec";
  TempDir dir("dwarn_remote_fail_test");
  const std::string stub = write_stub(dir, "transport_fail.sh", "exit 7");
  orch::RemoteLauncher launcher(remote_options("beta", stub));

  const orch::WorkUnit unit = test_unit(dir, 1, 2);
  const auto id = launcher.start(unit);
  ASSERT_TRUE(id);
  const orch::JobStatus status = poll_to_terminal(launcher, *id);
  EXPECT_EQ(status.state, orch::JobStatus::State::Failed);
  EXPECT_NE(status.detail.find("host 'beta'"), std::string::npos) << status.detail;
  EXPECT_NE(status.detail.find("exit code 7"), std::string::npos) << status.detail;
  EXPECT_FALSE(std::filesystem::exists(unit.fragment_path()));
}

TEST(RemoteLauncher, EmptyRetrievalIsAFailureNotAnEmptyFragment) {
  if (!orch::RemoteLauncher::supported()) GTEST_SKIP() << "no fork/exec";
  TempDir dir("dwarn_remote_empty_test");
  const std::string stub = write_stub(dir, "transport_empty.sh", "exit 0");
  orch::RemoteLauncher launcher(remote_options("gamma", stub));

  const auto id = launcher.start(test_unit(dir, 1, 2));
  ASSERT_TRUE(id);
  const orch::JobStatus status = poll_to_terminal(launcher, *id);
  EXPECT_EQ(status.state, orch::JobStatus::State::Failed);
  EXPECT_NE(status.detail.find("no fragment bytes"), std::string::npos)
      << status.detail;
}

TEST(RemoteLauncher, SlotAccountingGatesCanStartAndKillReleasesTheSlot) {
  if (!orch::RemoteLauncher::supported()) GTEST_SKIP() << "no fork/exec";
  TempDir dir("dwarn_remote_slots_test");
  // exec: the transport process IS the sleeper, so the launcher's SIGKILL
  // leaves no orphan holding inherited pipes open past the test.
  const std::string stub = write_stub(dir, "transport_slow.sh", "exec sleep 30");
  orch::RemoteLauncher launcher(remote_options("alpha:2", stub));
  EXPECT_EQ(launcher.total_slots(), 2u);

  const orch::WorkUnit u1 = test_unit(dir, 1, 3);
  const orch::WorkUnit u2 = test_unit(dir, 2, 3);
  const orch::WorkUnit u3 = test_unit(dir, 3, 3);
  EXPECT_TRUE(launcher.can_start(u1));
  const auto j1 = launcher.start(u1);
  const auto j2 = launcher.start(u2);
  ASSERT_TRUE(j1);
  ASSERT_TRUE(j2);
  // Both slots busy: the scheduler must wait, not burn an attempt.
  EXPECT_FALSE(launcher.can_start(u3));

  launcher.kill(*j1);
  EXPECT_TRUE(launcher.can_start(u3));
  launcher.kill(*j2);
}

TEST(RemoteLauncher, KillTakesTheTransportsChildrenDown) {
  if (!orch::RemoteLauncher::supported()) GTEST_SKIP() << "no fork/exec";
#ifdef __linux__
  // Orphans reparent to this process, so the killed grandchild is reaped
  // here rather than lingering as a zombie.
  prctl(PR_SET_CHILD_SUBREAPER, 1);
#endif
  TempDir dir("dwarn_remote_group_kill_test");
  // A transport that forks (no exec) and records its child's pid, like an
  // ssh client or a shim that runs the remote command as a subprocess.
  const std::string pid_file = dir.path() + "/grandchild.pid";
  const std::string stub = write_stub(
      dir, "transport_forks.sh",
      "sleep 30 &\necho $! > " + pid_file + ".tmp\nmv " + pid_file + ".tmp " + pid_file +
          "\nwait");
  orch::RemoteLauncher launcher(remote_options("alpha", stub));
  const auto id = launcher.start(test_unit(dir, 1, 1));
  ASSERT_TRUE(id);
  for (int i = 0; i < 2000 && !std::filesystem::exists(pid_file); ++i) {
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_TRUE(std::filesystem::exists(pid_file)) << "transport never started";
  const pid_t grandchild = static_cast<pid_t>(std::stol(read_file(pid_file)));
  ASSERT_GT(grandchild, 0);

  launcher.kill(*id);
  bool gone = false;
  for (int i = 0; i < 400 && !gone; ++i) {
    int status = 0;
    (void)waitpid(grandchild, &status, WNOHANG);
    gone = ::kill(grandchild, 0) != 0 && errno == ESRCH;
    if (!gone) std::this_thread::sleep_for(5ms);
  }
  if (!gone) ::kill(grandchild, SIGKILL);  // don't leak it past a failure
#ifdef __linux__
  prctl(PR_SET_CHILD_SUBREAPER, 0);
#endif
  EXPECT_TRUE(gone) << "the transport's child " << grandchild << " outlived the kill";
}

TEST(RemoteLauncher, RetryPrefersADifferentHostThanTheLastFailure) {
  if (!orch::RemoteLauncher::supported()) GTEST_SKIP() << "no fork/exec";
  TempDir dir("dwarn_remote_steer_test");
  const std::string stub = write_stub(dir, "transport_fail.sh", "exit 1");
  orch::RemoteLauncher::Options opt = remote_options("alpha,beta", stub);
  opt.fail_limit = 100;  // isolate last-failed steering from quarantine
  orch::RemoteLauncher launcher(std::move(opt));

  const orch::WorkUnit unit = test_unit(dir, 1, 2);
  std::string first_host;
  {
    const auto id = launcher.start(unit);
    ASSERT_TRUE(id);
    first_host = launcher.job_host(*id);
    EXPECT_EQ(poll_to_terminal(launcher, *id).state, orch::JobStatus::State::Failed);
  }
  // The retry of the same shard must steer to the other host.
  const auto retry = launcher.start(unit);
  ASSERT_TRUE(retry);
  EXPECT_NE(launcher.job_host(*retry), first_host);
  EXPECT_EQ(poll_to_terminal(launcher, *retry).state, orch::JobStatus::State::Failed);
}

TEST(RemoteLauncher, QuarantineNeverDeadlocksAnAllSickFleet) {
  if (!orch::RemoteLauncher::supported()) GTEST_SKIP() << "no fork/exec";
  TempDir dir("dwarn_remote_quarantine_test");
  const std::string stub = write_stub(dir, "transport_fail.sh", "exit 1");
  orch::RemoteLauncher::Options opt = remote_options("alpha", stub);
  opt.fail_limit = 1;
  orch::RemoteLauncher launcher(std::move(opt));

  const orch::WorkUnit unit = test_unit(dir, 1, 1);
  const auto id = launcher.start(unit);
  ASSERT_TRUE(id);
  EXPECT_EQ(poll_to_terminal(launcher, *id).state, orch::JobStatus::State::Failed);
  // The only host is now quarantined AND the shard's last failure — but a
  // fleet with no healthy alternative must still dispatch, not deadlock.
  EXPECT_TRUE(launcher.can_start(unit));
  const auto again = launcher.start(unit);
  ASSERT_TRUE(again);
  EXPECT_EQ(launcher.job_host(*again), "alpha");
  EXPECT_EQ(poll_to_terminal(launcher, *again).state, orch::JobStatus::State::Failed);
}

}  // namespace
}  // namespace dwarn
