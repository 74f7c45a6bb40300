// Shared helpers for the paper-figure bench harnesses.
//
// Every bench is a renderer over the ExperimentEngine: it expands its grid
// from the registry (engine/grid_registry.hpp — the one grid definition,
// shared with smt_shard/smt_orchestrate, which are also the only way to
// shard it), runs it once on the persistent ThreadPool, prints the paper's
// table shapes from the ResultSet, and snapshots every run into
// BENCH_<name>.json via ResultStore so perf trajectories are
// machine-readable. The two table printers cover the paper's two figure
// shapes, each as mean ± 95% CI over the grid's seeds: absolute metric
// per (workload, policy), and "DWarn improvement over policy X" grouped by
// workload type.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "analysis/sample_stats.hpp"
#include "analysis/seed_sweep.hpp"
#include "common/env.hpp"
#include "engine/experiment_engine.hpp"
#include "engine/grid_registry.hpp"
#include "engine/result_store.hpp"
#include "engine/run_spec.hpp"
#include "engine/shard.hpp"
#include "policy/factory.hpp"
#include "sim/metrics.hpp"
#include "sim/report.hpp"
#include "sim/workload.hpp"
#include "trace/trace_cache.hpp"

namespace dwarn::benchutil {

/// Replication count for a bench grid: SMT_BENCH_SEEDS, defaulting to 1
/// (the paper's point-estimate mode).
inline std::size_t bench_seed_count() {
  return env_u64("SMT_BENCH_SEEDS", 1, 64).value_or(1);
}

/// Where BENCH_<name>.json lands: SMT_BENCH_OUT_DIR (created on demand)
/// or the working dir.
inline std::string bench_output_path(const std::string& bench_name) {
  std::string dir;
  if (const char* d = std::getenv("SMT_BENCH_OUT_DIR")) dir = d;
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      std::cerr << "[dwarn] error: cannot create SMT_BENCH_OUT_DIR '" << dir
                << "': " << ec.message() << "\n";
    }
    if (dir.back() != '/') dir += '/';
  }
  return dir + "BENCH_" + bench_name + ".json";
}

/// SMT_BENCH_ZERO_WALL=1: serialize wall_seconds as 0 so two executions
/// of the same grid produce byte-identical snapshots (the sharded-vs-
/// unsharded bitwise check in CI sets this on both sides).
inline bool bench_zero_wall() { return env_u64("SMT_BENCH_ZERO_WALL", 0, 1).value_or(0) == 1; }

/// Snapshot every run of `rs` (counters included) to BENCH_<name>.json.
/// Returns false after a loud stderr message when the snapshot cannot be
/// written — benches exit nonzero on that, a lost trajectory file must
/// fail CI rather than silently drop a data point.
[[nodiscard]] inline bool write_bench_json(const std::string& bench_name,
                                           const ResultSet& rs,
                                           const RunLength& len = RunLength::from_env()) {
  ResultStore store;
  for (const auto& [k, v] : bench_meta(bench_name, len)) store.set_meta(k, v);
  // SMT_TRACE_CACHE_STATS=1 only: the counters depend on scheduling, so
  // they would break the SMT_TRACE_CACHE=1 vs =0 byte-identity contract.
  for (const auto& [k, v] : trace_cache_stats_meta_if_enabled()) store.set_meta(k, v);
  store.set_zero_wall(bench_zero_wall());
  store.add_all(rs);
  const std::string path = bench_output_path(bench_name);
  if (!store.write_json(path)) {
    std::cerr << "[dwarn] error: bench snapshot '" << path
              << "' could not be written; failing the bench\n";
    return false;
  }
  std::cout << "\n[" << store.size() << " runs -> " << path << "]\n";
  return true;
}

/// The distinct values of `field` over the grid runs of `rs` (solo
/// baselines excluded), in grid expansion order. Benches take their table
/// axes — machine variants, parameter tags — from the records, so the
/// registry stays the only place a grid's values are written down.
inline std::vector<std::string> distinct_values(const ResultSet& rs,
                                                std::string RunRecord::*field) {
  std::vector<std::string> out;
  for (const RunRecord& r : rs.records()) {
    if (r.role != RunRole::Grid) continue;
    if (std::find(out.begin(), out.end(), r.*field) == out.end()) out.push_back(r.*field);
  }
  return out;
}

/// The workloads of the grid runs of `rs`, in grid order.
inline std::vector<WorkloadSpec> grid_workloads(const ResultSet& rs) {
  std::vector<WorkloadSpec> out;
  for (const RunRecord& r : rs.records()) {
    if (r.role != RunRole::Grid) continue;
    if (std::none_of(out.begin(), out.end(),
                     [&](const WorkloadSpec& w) { return w.name == r.workload.name; })) {
      out.push_back(r.workload);
    }
  }
  return out;
}

/// The policies of the grid runs of `rs`, in grid order.
inline std::vector<PolicyKind> grid_policies(const ResultSet& rs) {
  std::vector<PolicyKind> out;
  for (const std::string& p : distinct_values(rs, &RunRecord::policy)) {
    out.push_back(policy_from_name(p).value());
  }
  return out;
}

/// Print a per-(workload, policy) "mean ± 95% CI" metric table (Figure
/// 1(a) shape), aggregating across every seed in the grid via the
/// analysis subsystem. `key` narrows the lookup (machine/tag) for sweep
/// benches. With a single seed the half-width collapses to ±0.00 and the
/// means are the point estimates.
inline void print_ci_metric_table(std::ostream& os, const ResultSet& rs,
                                  std::span<const WorkloadSpec> workloads,
                                  std::span<const PolicyKind> policies,
                                  const analysis::RecordMetric& metric,
                                  const std::string& metric_name,
                                  const RunKey& key = {},
                                  const analysis::BootstrapConfig& cfg = {}) {
  std::vector<std::string> headers{"workload"};
  for (const PolicyKind p : policies) headers.emplace_back(policy_name(p));
  ReportTable table(std::move(headers));
  std::size_t n = 0;
  for (const auto& w : workloads) {
    std::vector<std::string> row{w.name};
    for (const PolicyKind p : policies) {
      RunKey k = key;
      k.workload = w.name;
      k.policy = policy_name(p);
      const analysis::SampleStats s =
          analysis::summarize(analysis::collect_values(rs, k, metric), cfg);
      n = std::max(n, s.n);
      row.push_back(analysis::fmt_mean_ci(s));
    }
    table.add_row(std::move(row));
  }
  os << metric_name << " per policy (mean ± 95% CI over " << n << " seed"
     << (n == 1 ? "" : "s") << "):\n";
  table.print(os);
}

/// Print DWarn's paired per-seed improvement over every other policy with
/// a 95% CI on the delta, one row per workload plus per-type averages
/// (Figure 1(b) / Figure 3 / Figure 4/5 shape).
/// An avg row first averages each seed's deltas over the row's workloads,
/// then bootstraps over those per-seed averages, so its CI is over seeds
/// (one seed prints ± 0.0), not a spread across workloads.
/// Returns the grand-average delta stats keyed by policy name.
inline std::map<std::string, analysis::SampleStats> print_ci_improvement_table(
    std::ostream& os, const ResultSet& rs, std::span<const WorkloadSpec> workloads,
    std::span<const PolicyKind> policies, const analysis::RecordMetric& metric,
    const std::string& metric_name, const RunKey& key = {},
    const analysis::BootstrapConfig& cfg = {}) {
  std::vector<PolicyKind> others;
  for (const PolicyKind p : policies) {
    if (p != PolicyKind::DWarn) others.push_back(p);
  }

  // One paired comparison per opponent; per-seed deltas pooled per
  // workload across every (machine, tag) the key filter admits, so a
  // multi-variant grid contributes all its replications to a cell rather
  // than just the first variant's.
  std::map<std::string, std::map<std::string, std::vector<analysis::PairedRow>>> by_policy;
  for (const PolicyKind p : others) {
    auto& per_workload = by_policy[std::string(policy_name(p))];
    for (analysis::PairedRow& pr :
         analysis::paired_comparison(rs, "DWarn", policy_name(p), metric, cfg)) {
      if (!key.machine.empty() && pr.machine != key.machine) continue;
      if (!key.tag.empty() && pr.tag != key.tag) continue;
      per_workload[pr.workload].push_back(std::move(pr));
    }
  }

  std::vector<std::string> headers{"workload"};
  for (const PolicyKind p : others) {
    headers.push_back("DWarn/" + std::string(policy_name(p)));
  }
  ReportTable table(std::move(headers));
  const auto cell = [](const analysis::SampleStats& s) {
    return fmt_signed_pct(s.mean) + " ± " + fmt(s.ci_halfwidth(), 1);
  };

  // Per policy and workload type, each seed's deltas over the type's
  // workloads; the avg rows summarize their per-seed means.
  using SeedDeltas = std::map<std::uint64_t, std::vector<double>>;
  std::map<std::string, std::map<WorkloadType, SeedDeltas>> by_type;
  for (const auto& w : workloads) {
    std::vector<std::string> row{w.name};
    for (const PolicyKind p : others) {
      const std::string name(policy_name(p));
      const auto& per_workload = by_policy.at(name);
      const auto it = per_workload.find(w.name);
      if (it == per_workload.end()) {
        // No pairable runs survived the filter (e.g. a policy missing
        // from the grid); report it rather than aborting the table.
        row.push_back("n/a");
        continue;
      }
      std::vector<double> pooled;
      SeedDeltas& seeds = by_type[name][w.type];
      for (const analysis::PairedRow& pr : it->second) {
        pooled.insert(pooled.end(), pr.delta_pct.begin(), pr.delta_pct.end());
        for (std::size_t i = 0; i < pr.seeds.size(); ++i) {
          seeds[pr.seeds[i]].push_back(pr.delta_pct[i]);
        }
      }
      row.push_back(cell(analysis::summarize(pooled, cfg)));
    }
    table.add_row(std::move(row));
  }
  const auto seed_means = [](const SeedDeltas& seeds) {
    std::vector<double> means;
    for (const auto& [seed, deltas] : seeds) {
      double sum = 0.0;
      for (const double d : deltas) sum += d;
      means.push_back(sum / static_cast<double>(deltas.size()));
    }
    return means;
  };
  for (const WorkloadType t : {WorkloadType::ILP, WorkloadType::MIX, WorkloadType::MEM}) {
    std::vector<std::string> row{"avg-" + std::string(to_string(t))};
    for (const PolicyKind p : others) {
      row.push_back(cell(analysis::summarize(
          seed_means(by_type[std::string(policy_name(p))][t]), cfg)));
    }
    table.add_row(std::move(row));
  }
  std::map<std::string, analysis::SampleStats> grand;
  {
    std::vector<std::string> row{"avg"};
    for (const PolicyKind p : others) {
      SeedDeltas all;
      for (const auto& [t, seeds] : by_type[std::string(policy_name(p))]) {
        for (const auto& [seed, deltas] : seeds) {
          all[seed].insert(all[seed].end(), deltas.begin(), deltas.end());
        }
      }
      const analysis::SampleStats s = analysis::summarize(seed_means(all), cfg);
      grand[std::string(policy_name(p))] = s;
      row.push_back(cell(s));
    }
    table.add_row(std::move(row));
  }
  os << "DWarn " << metric_name
     << " improvement over each policy (paired per-seed deltas, mean ± 95% CI):\n";
  table.print(os);
  return grand;
}

}  // namespace dwarn::benchutil
