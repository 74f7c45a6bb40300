// Unit tests: the analysis subsystem — JSON parser, SampleStats /
// bootstrap CIs, seed-sweep aggregation, paired comparison, snapshot
// round-trip through the TrajectoryStore loader, regression diffing, and
// the benches' improvement table.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "../bench/bench_common.hpp"

#include "analysis/json.hpp"
#include "analysis/sample_stats.hpp"
#include "analysis/seed_sweep.hpp"
#include "analysis/trajectory.hpp"
#include "engine/experiment_engine.hpp"
#include "engine/result_store.hpp"
#include "engine/run_spec.hpp"
#include "sim/workload.hpp"

namespace dwarn {
namespace {

RunLength tiny_run() {
  RunLength len;
  len.warmup_insts = 500;
  len.measure_insts = 2000;
  return len;
}

ResultSet tiny_sweep(std::size_t num_seeds) {
  RunGrid grid;
  grid.machine(machine_spec("baseline"))
      .workload(workload_by_name("2-MIX"))
      .policy(PolicyKind::ICount)
      .policy(PolicyKind::DWarn)
      .seed_count(num_seeds)
      .length(tiny_run());
  return ExperimentEngine().run(grid);
}

// ---- json parser -------------------------------------------------------------

TEST(Json, ParsesScalarsAndContainers) {
  const json::Value v = json::parse(
      R"({"s": "a\nbA", "n": -2.5e2, "t": true, "f": false, "z": null,
          "arr": [1, 2, 3], "obj": {"k": "v"}})");
  EXPECT_EQ(v.at("s").as_string(), "a\nbA");
  EXPECT_DOUBLE_EQ(v.at("n").as_number(), -250.0);
  EXPECT_TRUE(v.at("t").as_bool());
  EXPECT_FALSE(v.at("f").as_bool());
  EXPECT_TRUE(v.at("z").is_null());
  ASSERT_EQ(v.at("arr").as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(v.at("arr").as_array()[2].as_number(), 3.0);
  EXPECT_EQ(v.at("obj").at("k").as_string(), "v");
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW((void)v.at("missing"), std::runtime_error);
  EXPECT_THROW((void)v.at("s").as_number(), std::runtime_error);
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW((void)json::parse(""), std::runtime_error);
  EXPECT_THROW((void)json::parse("{"), std::runtime_error);
  EXPECT_THROW((void)json::parse("{\"a\": 1,}"), std::runtime_error);
  EXPECT_THROW((void)json::parse("[1, 2] extra"), std::runtime_error);
  EXPECT_THROW((void)json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW((void)json::parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW((void)json::parse("nul"), std::runtime_error);
  // Errors carry position context.
  try {
    (void)json::parse("{\n  \"a\": ?\n}");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

// ---- json_escape edge cases (ResultStore) ------------------------------------

TEST(JsonEscape, EscapesControlQuoteAndBackslash) {
  EXPECT_EQ(json_escape(""), "");
  EXPECT_EQ(json_escape("a\tb"), "a\\tb");
  EXPECT_EQ(json_escape("\r\n"), "\\r\\n");
  EXPECT_EQ(json_escape(std::string_view("\x01\x1f", 2)), "\\u0001\\u001f");
  EXPECT_EQ(json_escape("\\\""), "\\\\\\\"");
  // Non-ASCII bytes pass through untouched (UTF-8 stays valid).
  EXPECT_EQ(json_escape("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(JsonEscape, RoundTripsThroughParser) {
  const std::string nasty = "q\"b\\s\nn\tt\x01z";
  const json::Value v = json::parse("\"" + json_escape(nasty) + "\"");
  EXPECT_EQ(v.as_string(), nasty);
}

// ---- sample statistics -------------------------------------------------------

TEST(SampleStats, EmptyAndSingleton) {
  const analysis::SampleStats empty = analysis::summarize({});
  EXPECT_EQ(empty.n, 0u);
  EXPECT_EQ(empty.mean, 0.0);

  const double one[] = {3.5};
  const analysis::SampleStats s = analysis::summarize(one);
  EXPECT_EQ(s.n, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 3.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.ci_lo, 3.5);
  EXPECT_DOUBLE_EQ(s.ci_hi, 3.5);
}

TEST(SampleStats, KnownSample) {
  const double xs[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  const analysis::SampleStats s = analysis::summarize(xs);
  EXPECT_EQ(s.n, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.stddev, 2.138, 1e-3);  // sample stddev (n-1)
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  // The bootstrap CI brackets the mean and sits inside the data range.
  EXPECT_LT(s.ci_lo, s.mean);
  EXPECT_GT(s.ci_hi, s.mean);
  EXPECT_GE(s.ci_lo, s.min);
  EXPECT_LE(s.ci_hi, s.max);
}

TEST(SampleStats, BootstrapIsDeterministic) {
  const double xs[] = {0.21, 1.37, 2.91, 3.14, 4.44, 6.02, 7.77, 9.58};
  const analysis::SampleStats a = analysis::summarize(xs);
  const analysis::SampleStats b = analysis::summarize(xs);
  EXPECT_EQ(a.ci_lo, b.ci_lo);
  EXPECT_EQ(a.ci_hi, b.ci_hi);
  // A different bootstrap seed gives a (slightly) different interval.
  analysis::BootstrapConfig other;
  other.seed = 7;
  const analysis::SampleStats c = analysis::summarize(xs, other);
  EXPECT_TRUE(c.ci_lo != a.ci_lo || c.ci_hi != a.ci_hi);
}

TEST(SampleStats, TighterWithNarrowerConfidence) {
  const double xs[] = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0};
  analysis::BootstrapConfig narrow;
  narrow.confidence = 0.5;
  const analysis::SampleStats wide = analysis::summarize(xs);
  const analysis::SampleStats tight = analysis::summarize(xs, narrow);
  EXPECT_LT(tight.ci_halfwidth(), wide.ci_halfwidth());
}

// ---- seed sweep --------------------------------------------------------------

TEST(SeedSweep, GroupsAcrossSeeds) {
  const ResultSet rs = tiny_sweep(3);
  ASSERT_EQ(rs.size(), 6u);  // 3 seeds x 2 policies
  const auto rows = analysis::sweep_stats(rs, analysis::throughput_metric());
  ASSERT_EQ(rows.size(), 2u);  // one per policy, seeds collapsed
  for (const analysis::SweepRow& row : rows) {
    EXPECT_EQ(row.key.workload, "2-MIX");
    EXPECT_EQ(row.seeds, seed_list(3));
    EXPECT_EQ(row.stats.n, 3u);
    EXPECT_GT(row.stats.mean, 0.0);
  }
  // Grid order: ICOUNT declared before DWarn.
  EXPECT_EQ(rows[0].key.policy, "ICOUNT");
  EXPECT_EQ(rows[1].key.policy, "DWarn");
}

TEST(SeedSweep, CollectValuesFiltersAndOrders) {
  const ResultSet rs = tiny_sweep(3);
  const auto values = analysis::collect_values(
      rs, {.workload = "2-MIX", .policy = "DWarn"}, analysis::throughput_metric());
  ASSERT_EQ(values.size(), 3u);
  const auto none = analysis::collect_values(
      rs, {.workload = "2-MIX", .policy = "FLUSH"}, analysis::throughput_metric());
  EXPECT_TRUE(none.empty());
}

TEST(PairedComparison, PairsPerSeed) {
  const ResultSet rs = tiny_sweep(4);
  const auto rows = analysis::paired_comparison(rs, "DWarn", "ICOUNT",
                                                analysis::throughput_metric());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].workload, "2-MIX");
  EXPECT_EQ(rows[0].seeds, seed_list(4));
  ASSERT_EQ(rows[0].delta_pct.size(), 4u);
  // Each delta is the paired per-seed improvement, reproducible by hand.
  const auto& recs = rs.records();
  for (std::size_t i = 0; i < 4; ++i) {
    const std::uint64_t seed = rows[0].seeds[i];
    double ours = 0.0, theirs = 0.0;
    for (const RunRecord& r : recs) {
      if (r.seed != seed) continue;
      (r.policy == "DWarn" ? ours : theirs) = r.result.throughput;
    }
    EXPECT_NEAR(rows[0].delta_pct[i], 100.0 * (ours - theirs) / theirs, 1e-9);
  }
}

TEST(PairedComparison, SkipsUnpairedSeeds) {
  ResultSet rs = tiny_sweep(2);
  std::vector<RunRecord> records = rs.records();
  // Drop DWarn's seed-2 run: only seed 1 remains pairable.
  std::erase_if(records, [](const RunRecord& r) {
    return r.policy == "DWarn" && r.seed == 2;
  });
  const auto rows = analysis::paired_comparison(ResultSet(records), "DWarn", "ICOUNT",
                                                analysis::throughput_metric());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].seeds, seed_list(1));
}

/// Synthetic DWarn-vs-ICOUNT records over 2-MIX and 4-MIX: DWarn's
/// throughput is `1 + pct/100` against ICOUNT's 1.0, per (workload, seed).
ResultSet synthetic_improvements(
    const std::vector<std::pair<std::uint64_t, std::pair<double, double>>>& seeds) {
  std::vector<RunRecord> records;
  for (const auto& [seed, pcts] : seeds) {
    for (const auto& [name, pct] : {std::pair{"2-MIX", pcts.first}, {"4-MIX", pcts.second}}) {
      for (const auto& [policy, ipc] : {std::pair{"ICOUNT", 1.0}, {"DWarn", 1.0 + pct / 100}}) {
        RunRecord r;
        r.machine = "baseline";
        r.workload = workload_by_name(name);
        r.policy = policy;
        r.seed = seed;
        r.result.throughput = ipc;
        records.push_back(std::move(r));
      }
    }
  }
  return ResultSet(std::move(records));
}

/// The printed row of `table` whose first cell is `label`.
std::string table_row(const std::string& table, const std::string& label) {
  std::istringstream in(table);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("| " + label + " ", 0) == 0) return line;
  }
  return {};
}

TEST(ImprovementTable, AvgRowsAreCisOverSeedsNotAcrossWorkloads) {
  const std::vector<WorkloadSpec> workloads{workload_by_name("2-MIX"),
                                            workload_by_name("4-MIX")};
  const std::vector<PolicyKind> policies{PolicyKind::ICount, PolicyKind::DWarn};
  const auto print = [&](const ResultSet& rs, std::ostream& os) {
    return benchutil::print_ci_improvement_table(os, rs, workloads, policies,
                                                 analysis::throughput_metric(), "throughput");
  };

  // One seed: +10% and +30% average to +20%, and there is no spread over
  // seeds to report, however far apart the two workloads are.
  std::ostringstream one;
  const auto grand1 = print(synthetic_improvements({{1, {10.0, 30.0}}}), one);
  EXPECT_EQ(grand1.at("ICOUNT").n, 1u);
  EXPECT_NEAR(grand1.at("ICOUNT").mean, 20.0, 1e-9);
  EXPECT_EQ(grand1.at("ICOUNT").ci_halfwidth(), 0.0);
  EXPECT_NE(table_row(one.str(), "avg-MIX").find("+20.0% ± 0.0"), std::string::npos)
      << one.str();
  EXPECT_NE(table_row(one.str(), "avg").find("+20.0% ± 0.0"), std::string::npos);

  // Two seeds: the CI is over the per-seed averages 20% and 30%, two
  // samples rather than four pooled workload deltas.
  std::ostringstream two;
  const auto grand2 =
      print(synthetic_improvements({{1, {10.0, 30.0}}, {2, {20.0, 40.0}}}), two);
  const analysis::SampleStats& s = grand2.at("ICOUNT");
  EXPECT_EQ(s.n, 2u);
  EXPECT_NEAR(s.mean, 25.0, 1e-9);
  EXPECT_GT(s.ci_halfwidth(), 0.0);
  EXPECT_GE(s.ci_lo, 20.0 - 1e-9);
  EXPECT_LE(s.ci_hi, 30.0 + 1e-9);
  EXPECT_NE(table_row(two.str(), "avg-MIX").find("+25.0%"), std::string::npos) << two.str();
  // Per-workload cells are unchanged: each bootstraps its own two seeds.
  EXPECT_NE(table_row(two.str(), "2-MIX").find("+15.0%"), std::string::npos);
}

// ---- snapshot round-trip -----------------------------------------------------

TEST(Trajectory, RoundTripsResultStoreJson) {
  const ResultSet rs = tiny_sweep(2);
  ResultStore store;
  store.set_meta("bench", "round \"trip\"");
  store.add_all(rs);

  const analysis::Snapshot snap = analysis::load_snapshot_text(store.to_json());
  EXPECT_EQ(snap.meta.at("bench"), "round \"trip\"");
  ASSERT_EQ(snap.runs.size(), rs.size());
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const RunRecord& a = rs.records()[i];
    const RunRecord& b = snap.runs[i];
    EXPECT_EQ(a.machine, b.machine);
    EXPECT_EQ(a.workload.name, b.workload.name);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.tag, b.tag);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.role, b.role);
    EXPECT_EQ(a.result.cycles, b.result.cycles);
    // %.17g doubles round-trip bitwise through the parser.
    EXPECT_EQ(a.result.throughput, b.result.throughput);
    EXPECT_EQ(a.result.flushed_frac, b.result.flushed_frac);
    EXPECT_EQ(a.result.thread_ipc, b.result.thread_ipc);
    EXPECT_EQ(a.result.counters, b.result.counters);
  }
}

TEST(Trajectory, LoadRejectsMalformedSnapshots) {
  EXPECT_THROW((void)analysis::load_snapshot_text("{}"), std::runtime_error);
  EXPECT_THROW((void)analysis::load_snapshot_text(R"({"meta": {}, "runs": [{}]})"),
               std::runtime_error);
  EXPECT_THROW(
      (void)analysis::load_snapshot_text(
          R"({"meta": {}, "runs": [{"machine": "m", "workload": "w", "policy": "p",
              "tag": "", "seed": 1, "role": "banana", "cycles": 1, "throughput": 1,
              "flushed_frac": 0, "wall_seconds": 0, "thread_ipc": [], "counters": {}}]})"),
      std::runtime_error);
  EXPECT_THROW((void)analysis::load_snapshot("/nonexistent/path.json"),
               std::runtime_error);
}

TEST(Trajectory, StoreListsAndLoadsDirectory) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "dwarn_trajectory_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const ResultSet rs = tiny_sweep(1);
  ResultStore store;
  store.add_all(rs);
  ASSERT_TRUE(store.write_json((dir / "BENCH_alpha.json").string()));
  ASSERT_TRUE(store.write_json((dir / "BENCH_beta.json").string()));
  std::ofstream(dir / "notes.txt") << "ignored";

  const analysis::TrajectoryStore traj(dir.string());
  EXPECT_EQ(traj.list(), (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_EQ(traj.load("alpha").runs.size(), rs.size());
  EXPECT_THROW((void)traj.load("missing"), std::runtime_error);
  std::filesystem::remove_all(dir);
}

// ---- snapshot diffing --------------------------------------------------------

analysis::Snapshot snapshot_of(const ResultSet& rs) {
  ResultStore store;
  store.add_all(rs);
  return analysis::load_snapshot_text(store.to_json());
}

TEST(Trajectory, DiffFlagsDirectionAwareRegressions) {
  const ResultSet rs = tiny_sweep(1);
  const analysis::Snapshot before = snapshot_of(rs);
  analysis::Snapshot after = before;
  for (RunRecord& r : after.runs) {
    if (r.policy == "DWarn") {
      r.result.throughput *= 0.90;  // -10%: regression (higher is better)
      r.result.cycles = static_cast<std::uint64_t>(
          static_cast<double>(r.result.cycles) * 1.10);  // +10%: regression
    } else {
      r.result.throughput *= 1.05;  // +5%: improvement, not a regression
    }
  }

  const analysis::DiffReport report = analysis::diff_snapshots(before, after, 2.0);
  EXPECT_TRUE(report.has_regression());
  EXPECT_EQ(report.regressions(), 2u);  // DWarn throughput + DWarn cycles
  EXPECT_EQ(report.improvements(), 1u);  // ICOUNT throughput
  EXPECT_TRUE(report.only_in_old.empty());
  EXPECT_TRUE(report.only_in_new.empty());
  for (const analysis::DiffEntry& e : report.entries) {
    if (e.regressed) {
      EXPECT_EQ(e.policy, "DWarn");
      EXPECT_TRUE(e.metric == "throughput" || e.metric == "cycles") << e.metric;
    }
  }

  // A looser tolerance accepts the same delta.
  EXPECT_FALSE(analysis::diff_snapshots(before, after, 15.0).has_regression());
  // Identical snapshots never regress, even at zero tolerance.
  EXPECT_FALSE(analysis::diff_snapshots(before, before, 0.0).has_regression());
}

TEST(Trajectory, DiffTracksMissingAndAddedRuns) {
  const ResultSet rs = tiny_sweep(1);
  const analysis::Snapshot before = snapshot_of(rs);
  analysis::Snapshot after = before;
  after.runs.pop_back();  // drop DWarn from "after"

  const analysis::DiffReport report = analysis::diff_snapshots(before, after, 2.0);
  ASSERT_EQ(report.only_in_old.size(), 1u);
  EXPECT_NE(report.only_in_old[0].find("DWarn"), std::string::npos);
  EXPECT_TRUE(report.only_in_new.empty());
  EXPECT_FALSE(report.has_regression());  // a missing run is reported, not a regression

  const analysis::DiffReport reverse = analysis::diff_snapshots(after, before, 2.0);
  EXPECT_EQ(reverse.only_in_new.size(), 1u);
}

TEST(Trajectory, DiffIgnoresFlushedFracNoise) {
  const ResultSet rs = tiny_sweep(1);
  const analysis::Snapshot before = snapshot_of(rs);
  analysis::Snapshot after = before;
  // Huge relative change, negligible absolute change: below the noise
  // floor, must not flag.
  after.runs[0].result.flushed_frac = before.runs[0].result.flushed_frac + 5e-5;
  EXPECT_FALSE(analysis::diff_snapshots(before, after, 2.0).has_regression());

  analysis::Snapshot worse = before;
  worse.runs[0].result.flushed_frac = before.runs[0].result.flushed_frac + 0.05;
  EXPECT_TRUE(analysis::diff_snapshots(before, worse, 2.0).has_regression());
}

// ---- hmean metric across seeds -----------------------------------------------

TEST(SeedSweep, HmeanMetricUsesPerSeedSoloBaselines) {
  RunGrid grid;
  grid.machine(machine_spec("baseline"))
      .workload(workload_by_name("2-MIX"))
      .policy(PolicyKind::ICount)
      .seed_count(2)
      .length(tiny_run())
      .with_solo_baselines();
  const ResultSet rs = ExperimentEngine().run(grid);

  const analysis::RecordMetric hmean = analysis::hmean_metric(rs);
  const auto rows = analysis::sweep_stats(rs, hmean);
  ASSERT_EQ(rows.size(), 1u);  // solo runs are excluded from sweep rows
  EXPECT_EQ(rows[0].stats.n, 2u);
  for (const double v : rows[0].values) EXPECT_GT(v, 0.0);

  // The per-seed solo map differs from the pooled first-seed map only by
  // seed selection; both must exist for each seed in the grid.
  EXPECT_EQ(rs.solo_ipcs({}, 1).size(), rs.solo_ipcs({}, 2).size());
}

}  // namespace
}  // namespace dwarn
