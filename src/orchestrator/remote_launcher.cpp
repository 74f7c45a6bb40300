#include "orchestrator/remote_launcher.hpp"

#include <unistd.h>

#include <algorithm>
#include <map>

#include "engine/shard.hpp"

extern char** environ;

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
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view entry(*e);
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos || entry.substr(0, 4) != "SMT_") continue;
    env.emplace(entry.substr(0, eq), entry.substr(eq + 1));
  }
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

}  // namespace dwarn::orch
