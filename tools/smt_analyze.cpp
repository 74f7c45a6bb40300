// smt_analyze — statistical analysis CLI over the experiment engine.
//
// Three subcommands close the replication loop around the benches:
//
//   sweep  run a bench's grid across N seeds and print mean ± 95% CI per
//          (workload, policy) plus DWarn's paired per-seed improvement —
//          the distributional version of the paper's point-estimate tables
//   stats  the same aggregation, but over an already-emitted BENCH_*.json
//          snapshot instead of a fresh simulation
//   diff   compare two BENCH_*.json snapshots run-by-run and exit nonzero
//          when any metric regressed beyond the tolerance (the CI
//          trajectory gate)
//
// A fourth closes the loop around the telemetry plane:
//
//   intervals  aggregate TELEM_*.intervals.jsonl series (emitted by
//              workers under SMT_TELEM=1) into per-cell summaries, a
//              --counter time-series, or paired per-counter policy diffs
//
// Exit codes: 0 ok / no regression, 1 regression found or run failed,
// 2 usage or I/O error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/intervals.hpp"
#include "analysis/sample_stats.hpp"
#include "analysis/seed_sweep.hpp"
#include "analysis/trajectory.hpp"
#include "engine/experiment_engine.hpp"
#include "engine/grid_registry.hpp"
#include "engine/result_store.hpp"
#include "engine/run_spec.hpp"
#include "engine/shard.hpp"
#include "sim/machine_config.hpp"
#include "sim/report.hpp"
#include "sim/workload.hpp"

namespace {

using namespace dwarn;

/// The registry grid names the sweep accepts, `sep`-separated.
std::string grid_names(const char* sep) {
  std::string names;
  for (const std::string& g : registered_grids()) names += names.empty() ? g : sep + g;
  return names;
}

int usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "smt_analyze: %s\n\n", error);
  std::fprintf(stderr,
               "usage:\n"
               "  smt_analyze sweep --bench <%s>\n"
               "      [--seeds N] [--workloads A,B,...] [--policies P,Q,...]\n"
               "      [--json PATH]\n",
               grid_names("|").c_str());
  std::fprintf(stderr,
               "  smt_analyze stats <snapshot.json> [--metric throughput|cycles|flushed_frac]\n"
               "  smt_analyze diff <old.json> <new.json> [--tol PCT[%%]] [--all]\n"
               "  smt_analyze intervals <TELEM_*.intervals.jsonl>...\n"
               "      [--counter NAME] [--policies A,B]\n"
               "\n"
               "sweep runs the bench's grid across N seeds (default 8; SMT_SIM_INSTS/\n"
               "SMT_WARMUP_INSTS shrink each run) and prints mean +/- 95%% bootstrap CI\n"
               "per cell plus DWarn's paired per-seed improvement CIs; --workloads and\n"
               "--policies narrow the grid to values it already has. diff exits 1 when\n"
               "a metric is worse than the tolerance (default 2%%). intervals summarizes\n"
               "telemetry interval counters per (workload, policy); --counter prints the\n"
               "per-interval time-series, --policies A,B the paired per-counter diff of\n"
               "A relative to B.\n");
  return 2;
}

/// "2", "2.5", "2%" -> percent value; nullopt on garbage.
std::optional<double> parse_tolerance(std::string_view s) {
  if (!s.empty() && s.back() == '%') s.remove_suffix(1);
  try {
    std::size_t used = 0;
    const double v = std::stod(std::string(s), &used);
    if (used != s.size() || v < 0.0) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::vector<std::string> split_csv(std::string_view s) {
  std::vector<std::string> out;
  while (!s.empty()) {
    const std::size_t comma = s.find(',');
    out.emplace_back(s.substr(0, comma));
    if (comma == std::string_view::npos) break;
    s.remove_prefix(comma + 1);
  }
  return out;
}

/// Which identity columns a long-format table needs: machine and tag
/// each show when the grid runs hold more than one distinct value.
struct Columns {
  bool machine = false;
  bool tag = false;
};

Columns columns_of(const std::vector<RunRecord>& runs) {
  Columns c;
  const RunRecord* first = nullptr;
  for (const RunRecord& r : runs) {
    if (r.role != RunRole::Grid) continue;
    if (first == nullptr) first = &r;
    c.machine |= r.machine != first->machine;
    c.tag |= r.tag != first->tag;
  }
  return c;
}

/// Long-format sweep table: one row per (machine, workload, policy, tag).
void print_sweep_rows(const std::vector<analysis::SweepRow>& rows, const Columns& cols) {
  std::vector<std::string> headers;
  if (cols.machine) headers.emplace_back("machine");
  headers.emplace_back("workload");
  headers.emplace_back("policy");
  if (cols.tag) headers.emplace_back("tag");
  for (const char* h : {"n", "mean ± 95% CI", "stddev", "min", "max"}) {
    headers.emplace_back(h);
  }
  ReportTable table(std::move(headers));
  for (const analysis::SweepRow& r : rows) {
    std::vector<std::string> row;
    if (cols.machine) row.push_back(r.key.machine);
    row.push_back(r.key.workload);
    row.push_back(r.key.policy);
    if (cols.tag) row.push_back(r.key.tag);
    row.push_back(std::to_string(r.stats.n));
    row.push_back(analysis::fmt_mean_ci(r.stats));
    row.push_back(fmt(r.stats.stddev, 3));
    row.push_back(fmt(r.stats.min, 2));
    row.push_back(fmt(r.stats.max, 2));
    table.add_row(std::move(row));
  }
  table.print(std::cout);
}

void print_paired_rows(const ResultSet& rs, const analysis::RecordMetric& metric,
                       const Columns& cols) {
  std::vector<std::string> policies;
  for (const RunRecord& r : rs.records()) {
    if (r.role == RunRole::Grid && r.policy != "DWarn" &&
        std::find(policies.begin(), policies.end(), r.policy) == policies.end()) {
      policies.push_back(r.policy);
    }
  }
  bool any = false;
  for (const std::string& p : policies) {
    const auto rows = analysis::paired_comparison(rs, "DWarn", p, metric);
    if (rows.empty()) continue;
    if (!any) {
      print_banner(std::cout, "DWarn paired per-seed improvement (mean ± 95% CI)");
      any = true;
    }
    std::vector<std::string> headers;
    if (cols.machine) headers.emplace_back("machine");
    headers.emplace_back("workload");
    if (cols.tag) headers.emplace_back("tag");
    headers.emplace_back("n");
    headers.emplace_back("Δ% vs " + p);
    ReportTable table(std::move(headers));
    for (const analysis::PairedRow& r : rows) {
      std::vector<std::string> row;
      if (cols.machine) row.push_back(r.machine);
      row.push_back(r.workload);
      if (cols.tag) row.push_back(r.tag);
      row.push_back(std::to_string(r.stats.n));
      row.push_back(fmt_signed_pct(r.stats.mean) + " ± " +
                    fmt(r.stats.ci_halfwidth(), 2));
      table.add_row(std::move(row));
    }
    table.print(std::cout);
    std::cout << '\n';
  }
}

struct SweepOptions {
  std::string bench;
  std::size_t num_seeds = 8;
  std::vector<std::string> workloads;  ///< empty = the grid's whole axis
  std::vector<std::string> policies;
  std::string json_path;
};

int run_sweep(const SweepOptions& opt) {
  // Grid construction lives in the registry, shared with the benches and
  // smt_shard: a sweep here and a sharded run there expand the identical
  // grid. The filters only narrow it; the registry refuses values the
  // grid does not have.
  if (!is_registered_grid(opt.bench)) {
    return usage(("unknown --bench (" + grid_names(", ") + ")").c_str());
  }
  std::vector<RunSpec> specs;
  try {
    specs = named_grid(opt.bench, GridOptions{.num_seeds = opt.num_seeds,
                                              .workloads = opt.workloads,
                                              .policies = opt.policies})
                .expand();
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  }

  std::cout << "sweeping " << opt.bench << " across " << opt.num_seeds << " seed"
            << (opt.num_seeds == 1 ? "" : "s") << "...\n";
  const ResultSet results = ExperimentEngine().run(specs);

  // Grids with solo baselines are scored on Hmean of relative IPCs, like
  // their benches; the rest on throughput.
  const bool hmean = std::any_of(results.records().begin(), results.records().end(),
                                 [](const RunRecord& r) { return r.role == RunRole::Solo; });
  const analysis::RecordMetric metric =
      hmean ? analysis::hmean_metric(results) : analysis::throughput_metric();
  const char* metric_name = hmean ? "Hmean of relative IPCs" : "throughput";
  const Columns cols = columns_of(results.records());
  print_banner(std::cout, std::string(metric_name) + " — mean ± 95% CI per cell");
  print_sweep_rows(analysis::sweep_stats(results, metric), cols);
  std::cout << '\n';
  print_paired_rows(results, metric, cols);

  if (!opt.json_path.empty()) {
    // The meta block of a bench snapshot, with the windows the grid
    // actually ran (a pinned-length grid ignores SMT_BENCH_WINDOWS), so a
    // later diff against this snapshot can detect window mismatches.
    ResultStore store;
    for (const auto& [k, v] : bench_meta(opt.bench, specs.front().len)) store.set_meta(k, v);
    store.set_meta("tool", "smt_analyze sweep");
    store.set_meta("seeds", std::to_string(opt.num_seeds));
    store.add_all(results);
    if (!store.write_json(opt.json_path)) {
      std::fprintf(stderr, "smt_analyze: cannot write snapshot '%s'\n",
                   opt.json_path.c_str());
      return 1;
    }
    std::cout << "[" << store.size() << " runs -> " << opt.json_path << "]\n";
  }
  return 0;
}

// ---- intervals ---------------------------------------------------------------

struct IntervalsOptions {
  std::vector<std::string> paths;
  std::string counter;                 ///< "" = summary over every counter
  std::vector<std::string> policies;   ///< exactly 2 when set: paired diff
};

/// Pool the per-interval values of `counter` across every series of one
/// (workload, policy) cell.
using CellKey = std::pair<std::string, std::string>;  // (workload, policy)

std::map<CellKey, std::vector<const analysis::IntervalSeries*>> group_by_cell(
    const std::vector<analysis::IntervalSeries>& series) {
  std::map<CellKey, std::vector<const analysis::IntervalSeries*>> cells;
  for (const analysis::IntervalSeries& s : series) {
    cells[{s.id.workload, s.id.policy}].push_back(&s);
  }
  return cells;
}

int run_intervals(const IntervalsOptions& opt) {
  std::vector<analysis::IntervalSeries> series;
  for (const std::string& path : opt.paths) {
    for (analysis::IntervalSeries& s : analysis::load_interval_series(path)) {
      series.push_back(std::move(s));
    }
  }
  if (series.empty()) {
    std::fprintf(stderr, "smt_analyze: no interval series in the given files "
                         "(were the runs executed with SMT_TELEM=1?)\n");
    return 1;
  }

  if (!opt.counter.empty() && !analysis::is_interval_counter(opt.counter)) {
    std::string names;
    for (const std::string& n : analysis::interval_counter_names()) {
      names += (names.empty() ? "" : ", ") + n;
    }
    return usage(("unknown --counter (" + names + ")").c_str());
  }

  // Paired per-counter policy diff: mean-over-intervals per (workload,
  // seed), A relative to B, summarized across seeds.
  if (!opt.policies.empty()) {
    if (opt.policies.size() != 2) return usage("--policies needs exactly A,B");
    const std::string& pa = opt.policies[0];
    const std::string& pb = opt.policies[1];
    const auto counters = opt.counter.empty()
                              ? analysis::interval_counter_names()
                              : std::vector<std::string>{opt.counter};
    // (workload, seed) -> series per policy
    std::map<std::pair<std::string, std::uint64_t>,
             std::pair<const analysis::IntervalSeries*, const analysis::IntervalSeries*>>
        pairs;
    for (const analysis::IntervalSeries& s : series) {
      if (s.id.policy == pa) pairs[{s.id.workload, s.id.seed}].first = &s;
      if (s.id.policy == pb) pairs[{s.id.workload, s.id.seed}].second = &s;
    }
    print_banner(std::cout, "interval counters — paired Δ% of " + pa + " vs " + pb);
    ReportTable table({"workload", "counter", "n", "Δ% mean ± 95% CI"});
    bool any = false;
    std::map<std::pair<std::string, std::string>, std::vector<double>> diffs;
    for (const auto& [key, pr] : pairs) {
      if (pr.first == nullptr || pr.second == nullptr) continue;
      for (const std::string& c : counters) {
        const auto va = analysis::interval_counter_values(*pr.first, c);
        const auto vb = analysis::interval_counter_values(*pr.second, c);
        if (va.empty() || vb.empty()) continue;
        const auto mean = [](const std::vector<double>& v) {
          double sum = 0.0;
          for (const double x : v) sum += x;
          return sum / static_cast<double>(v.size());
        };
        const double ma = mean(va);
        const double mb = mean(vb);
        if (mb == 0.0) continue;
        diffs[{key.first, c}].push_back((ma - mb) / mb * 100.0);
      }
    }
    for (const auto& [key, values] : diffs) {
      const analysis::SampleStats st = analysis::summarize(values);
      table.add_row({key.first, key.second, std::to_string(st.n),
                     fmt_signed_pct(st.mean) + " ± " + fmt(st.ci_halfwidth(), 2)});
      any = true;
    }
    if (!any) {
      std::fprintf(stderr,
                   "smt_analyze: no (workload, seed) has interval series for both "
                   "'%s' and '%s'\n",
                   pa.c_str(), pb.c_str());
      return 1;
    }
    table.print(std::cout);
    return 0;
  }

  // --counter: the per-interval time-series, long format (one row per
  // interval), grouped by run identity.
  if (!opt.counter.empty()) {
    print_banner(std::cout, "interval time-series — " + opt.counter);
    ReportTable table({"workload", "policy", "seed", "interval", "cycle", opt.counter});
    for (const analysis::IntervalSeries& s : series) {
      const std::vector<double> values =
          analysis::interval_counter_values(s, opt.counter);
      // Delta counters have samples-1 values; align each value with the
      // sample that closes its interval.
      const std::size_t offset = s.samples.size() - values.size();
      for (std::size_t i = 0; i < values.size(); ++i) {
        table.add_row({s.id.workload, s.id.policy, std::to_string(s.id.seed),
                       std::to_string(i),
                       std::to_string(s.samples[i + offset].cycle), fmt(values[i], 3)});
      }
    }
    table.print(std::cout);
    return 0;
  }

  // Default: per-cell summary over every counter.
  print_banner(std::cout, "interval counters — mean ± 95% CI per (workload, policy)");
  ReportTable table({"workload", "policy", "counter", "n", "mean ± 95% CI", "min", "max"});
  for (const auto& [key, cell] : group_by_cell(series)) {
    for (const std::string& c : analysis::interval_counter_names()) {
      std::vector<double> pooled;
      for (const analysis::IntervalSeries* s : cell) {
        for (const double v : analysis::interval_counter_values(*s, c)) {
          pooled.push_back(v);
        }
      }
      if (pooled.empty()) continue;
      const analysis::SampleStats st = analysis::summarize(pooled);
      table.add_row({key.first, key.second, c, std::to_string(st.n),
                     analysis::fmt_mean_ci(st), fmt(st.min, 2), fmt(st.max, 2)});
    }
  }
  table.print(std::cout);
  return 0;
}

int run_stats(const std::string& path, const std::string& metric_name) {
  analysis::RecordMetric metric;
  if (metric_name == "throughput") {
    metric = analysis::throughput_metric();
  } else if (metric_name == "flushed_frac") {
    metric = analysis::flushed_frac_metric();
  } else if (metric_name == "cycles") {
    metric = [](const RunRecord& r) { return static_cast<double>(r.result.cycles); };
  } else {
    return usage("unknown --metric (throughput, cycles, flushed_frac)");
  }
  const analysis::Snapshot snap = analysis::load_snapshot(path);
  const auto bench = snap.meta.find("bench");
  std::cout << path << ": " << snap.runs.size() << " runs"
            << (bench == snap.meta.end() ? "" : " (bench " + bench->second + ")") << "\n";
  print_banner(std::cout, metric_name + " — mean ± 95% CI per cell");
  print_sweep_rows(analysis::sweep_stats(snap.result_set(), metric), columns_of(snap.runs));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  const std::string& cmd = args[0];

  try {
    if (cmd == "sweep") {
      SweepOptions opt;
      for (std::size_t i = 1; i < args.size(); ++i) {
        const std::string& a = args[i];
        const auto value = [&]() -> const std::string* {
          return i + 1 < args.size() ? &args[++i] : nullptr;
        };
        if (a == "--bench") {
          if (const auto* v = value()) opt.bench = *v;
        } else if (a == "--seeds") {
          const auto* v = value();
          // Strict digits-only parse: atoi would silently accept "8/2".
          const auto n = v ? parse_decimal_size(*v, 64) : std::nullopt;
          if (!n || *n < 1) return usage("--seeds must be in [1, 64]");
          opt.num_seeds = *n;
        } else if (a == "--workloads") {
          if (const auto* v = value()) opt.workloads = split_csv(*v);
        } else if (a == "--policies") {
          if (const auto* v = value()) opt.policies = split_csv(*v);
        } else if (a == "--json") {
          if (const auto* v = value()) opt.json_path = *v;
        } else {
          return usage(("unknown sweep option '" + a + "'").c_str());
        }
      }
      if (opt.bench.empty()) return usage("sweep needs --bench");
      return run_sweep(opt);
    }

    if (cmd == "stats") {
      std::string path, metric = "throughput";
      for (std::size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--metric" && i + 1 < args.size()) {
          metric = args[++i];
        } else if (path.empty()) {
          path = args[i];
        } else {
          return usage("stats takes one snapshot path");
        }
      }
      if (path.empty()) return usage("stats needs a snapshot path");
      return run_stats(path, metric);
    }

    if (cmd == "intervals") {
      IntervalsOptions opt;
      for (std::size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--counter" && i + 1 < args.size()) {
          opt.counter = args[++i];
        } else if (args[i] == "--policies" && i + 1 < args.size()) {
          opt.policies = split_csv(args[++i]);
        } else if (!args[i].starts_with("--")) {
          opt.paths.push_back(args[i]);
        } else {
          return usage(("unknown intervals option '" + args[i] + "'").c_str());
        }
      }
      if (opt.paths.empty()) {
        return usage("intervals needs at least one TELEM_*.intervals.jsonl path");
      }
      return run_intervals(opt);
    }

    if (cmd == "diff") {
      std::string old_path, new_path;
      double tol = 2.0;
      bool all = false;
      for (std::size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--tol" && i + 1 < args.size()) {
          const auto t = parse_tolerance(args[++i]);
          if (!t) return usage("--tol needs a non-negative percentage");
          tol = *t;
        } else if (args[i] == "--all") {
          all = true;
        } else if (old_path.empty()) {
          old_path = args[i];
        } else if (new_path.empty()) {
          new_path = args[i];
        } else {
          return usage("diff takes exactly two snapshot paths");
        }
      }
      if (new_path.empty()) return usage("diff needs <old.json> <new.json>");
      const analysis::DiffReport report = analysis::diff_snapshots(
          analysis::load_snapshot(old_path), analysis::load_snapshot(new_path), tol);
      report.print(std::cout, all);
      return report.has_regression() ? 1 : 0;
    }

    return usage(("unknown command '" + cmd + "'").c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "smt_analyze: %s\n", e.what());
    return 2;
  }
}
