// Remote placement for ProcessLauncher: the fleet spec and the command a
// remote job runs.
//
// With --backend remote, ProcessLauncher (launcher.hpp) places each unit
// on a host of the fleet parsed from `--hosts user@host:slots,...` /
// SMT_ORCH_HOSTS and runs it through a pluggable *exec template*
// (default `ssh -o BatchMode=yes {host} {cmd}`; `docker exec`, `srun`, or
// a fake-ssh test shim substitute cleanly), so the launcher itself never
// hardcodes a transport. The remote command materializes its fragment in
// a remote temp dir and streams the bytes back over stdout; the launcher
// captures them into `<fragment>.fetch.<job>` next to the merge directory
// and renames atomically on success — retrieval rides the same connection
// as execution, and a connection that dies mid-stream leaves only a temp
// file the failure path unlinks, never a torn fragment. A dead host is
// just another preemption: its shards re-enter the queue and re-dispatch
// to survivors, and because fragments and the SWEEP_*.state.json journal
// live on the driver, `resume` works across driver and host death alike.
//
// Environment: ssh does not inherit the driver's environment the way
// fork does, so every SMT_* variable of the driver plus the unit's env
// overrides are re-exported inline in the remote command — the knobs
// that shape result bytes (windows, seeds via argv, zero-wall) reach the
// remote worker exactly as they reach a local worker.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "orchestrator/launcher.hpp"

namespace dwarn::orch {

/// Upper bound on slots per host — a typo like "host:0" or "host:1e9"
/// must fail parsing, not starve or stampede a fleet.
inline constexpr std::size_t kMaxHostSlots = 4096;

/// Parse a hostfile string: comma-separated `host[:slots]` entries
/// (whitespace around entries tolerated, slots default 1). Returns
/// nullopt with `error` naming the defect on an empty list, an empty
/// host name, a duplicate host, or a slot count outside [1, 4096].
[[nodiscard]] std::optional<std::vector<HostSpec>> parse_hosts(std::string_view text,
                                                               std::string& error);

/// `{cmd}` expands to one shell snippet argument (run + fragment
/// streaming), so any transport that hands its last argument to a
/// remote/containered shell works:
///   ssh -o BatchMode=yes {host} {cmd}      (default)
///   docker exec {host} sh -c {cmd}
///   srun --nodes=1 --nodelist={host} sh -c {cmd}
///   /path/to/fake_ssh.sh {host} {cmd}      (tests)
inline constexpr std::string_view kDefaultExecTemplate =
    "ssh -o BatchMode=yes {host} {cmd}";

/// Parse an exec template. Returns nullopt with `error` set when the
/// template is empty or lacks a {host} or {cmd} placeholder — a template
/// that cannot address a host or carry the command dispatches garbage.
[[nodiscard]] std::optional<ExecTemplate> parse_exec_template(std::string_view text,
                                                              std::string& error);

/// POSIX single-quote shell quoting (embedded quotes escaped).
[[nodiscard]] std::string shell_quote(std::string_view s);

/// The shell snippet `{cmd}` expands to for one unit: inline SMT_* env
/// re-exports, `smt_shard run` into a remote mktemp dir, and a `cat` of
/// the fragment to stdout (worker stdout itself is diverted to stderr so
/// only fragment bytes come back). Exposed for tests and --dry-run.
[[nodiscard]] std::string remote_command(const WorkUnit& unit,
                                         const std::string& remote_shard);

}  // namespace dwarn::orch
