// Unit tests: ExperimentEngine, RunGrid expansion, ResultSet lookup,
// ResultStore serialization, and cross-worker-count determinism.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <stdexcept>

#include "engine/experiment_engine.hpp"
#include "engine/result_store.hpp"
#include "engine/run_spec.hpp"
#include "sim/machine_config.hpp"
#include "sim/workload.hpp"

namespace dwarn {
namespace {

RunLength tiny_run() {
  RunLength len;
  len.warmup_insts = 500;
  len.measure_insts = 2000;
  return len;
}

RunGrid tiny_grid() {
  RunGrid grid;
  grid.machine(machine_spec("baseline"))
      .workload(workload_by_name("2-MIX"))
      .workload(workload_by_name("2-MEM"))
      .policy(PolicyKind::ICount)
      .policy(PolicyKind::DWarn)
      .length(tiny_run());
  return grid;
}

// ---- RunGrid expansion -------------------------------------------------------

TEST(RunGrid, ExpansionOrderIsDeterministic) {
  const auto a = tiny_grid().expand();
  const auto b = tiny_grid().expand();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), 4u);  // 2 workloads x 2 policies
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].workload.name, b[i].workload.name);
    EXPECT_EQ(a[i].policy, b[i].policy);
  }
  // Workloads outer, policies inner.
  EXPECT_EQ(a[0].workload.name, "2-MIX");
  EXPECT_EQ(a[1].workload.name, "2-MIX");
  EXPECT_EQ(a[2].workload.name, "2-MEM");
  EXPECT_EQ(a[0].policy, PolicyKind::ICount);
  EXPECT_EQ(a[1].policy, PolicyKind::DWarn);
}

TEST(RunGrid, SoloBaselinesAppendSoloRuns) {
  RunGrid grid = tiny_grid();
  grid.with_solo_baselines();
  const auto specs = grid.expand();
  std::size_t solo = 0;
  std::size_t distinct = 0;
  {
    std::set<Benchmark> benchmarks;
    for (const auto& w : {workload_by_name("2-MIX"), workload_by_name("2-MEM")}) {
      benchmarks.insert(w.benchmarks.begin(), w.benchmarks.end());
    }
    distinct = benchmarks.size();
  }
  for (const auto& s : specs) {
    if (s.role == RunRole::Solo) {
      ++solo;
      EXPECT_EQ(s.policy, PolicyKind::ICount);
      EXPECT_EQ(s.workload.num_threads(), 1u);
    }
  }
  EXPECT_EQ(solo, distinct);
  EXPECT_EQ(specs.size(), 4u + distinct);
}

TEST(RunGrid, ParamVariantsMultiplyTheGrid) {
  RunGrid grid;
  grid.machine(machine_spec("baseline"))
      .workload(workload_by_name("2-MEM"))
      .policy(PolicyKind::DG)
      .length(tiny_run());
  PolicyParams p0;
  p0.dg_threshold = 0;
  PolicyParams p2;
  p2.dg_threshold = 2;
  grid.param_variant("n=0", p0).param_variant("n=2", p2);
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].tag, "n=0");
  EXPECT_EQ(specs[1].tag, "n=2");
  EXPECT_EQ(specs[1].params.dg_threshold, 2u);
}

TEST(RunGrid, SeedListExpansionIsDeterministic) {
  RunGrid grid = tiny_grid();
  grid.seeds({7, 3, 11});
  const auto a = grid.expand();
  const auto b = grid.expand();
  ASSERT_EQ(a.size(), 12u);  // 3 seeds x 2 workloads x 2 policies
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].workload.name, b[i].workload.name);
    EXPECT_EQ(a[i].policy, b[i].policy);
  }
  // Seeds are an outer axis (in caller order), workloads/policies inner.
  EXPECT_EQ(a[0].seed, 7u);
  EXPECT_EQ(a[3].seed, 7u);
  EXPECT_EQ(a[4].seed, 3u);
  EXPECT_EQ(a[8].seed, 11u);
}

TEST(RunGrid, SeedCountExpandsToCanonicalList) {
  EXPECT_EQ(seed_list(3), (std::vector<std::uint64_t>{1, 2, 3}));
  RunGrid grid = tiny_grid();
  grid.seed_count(2);
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), 8u);
  EXPECT_EQ(specs.front().seed, 1u);
  EXPECT_EQ(specs.back().seed, 2u);
}

// ---- engine execution --------------------------------------------------------

TEST(ExperimentEngine, MultiSeedResultsAreBitwiseStableAcrossWorkerCounts) {
  // The multi-seed extension of the PR 1 determinism bar: every per-seed
  // replication must land at its grid index with byte-identical counters
  // whether the sweep runs sequentially or wide.
  RunGrid grid = tiny_grid();
  grid.seed_count(3);
  const ResultSet serial = ExperimentEngine(ThreadPool::shared(), 1).run(grid);
  const ResultSet parallel = ExperimentEngine(ThreadPool::shared(), 0).run(grid);

  ASSERT_EQ(serial.size(), 12u);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const RunRecord& a = serial.records()[i];
    const RunRecord& b = parallel.records()[i];
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.workload.name, b.workload.name);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.result.cycles, b.result.cycles);
    EXPECT_EQ(a.result.counters, b.result.counters);
    EXPECT_EQ(a.result.throughput, b.result.throughput);
  }
  // Different seeds genuinely re-randomize the trace streams: at least one
  // counter snapshot must differ between seed 1 and seed 2 of a cell.
  const RunRecord& s1 = serial.records()[0];
  const RunRecord& s2 = serial.records()[4];
  ASSERT_EQ(s1.workload.name, s2.workload.name);
  ASSERT_EQ(s1.policy, s2.policy);
  EXPECT_NE(s1.result.counters, s2.result.counters);
}

TEST(ExperimentEngine, SameSeedIsBitwiseIdenticalAcrossWorkerCounts) {
  // The acceptance bar of the engine refactor: a grid must produce
  // byte-identical counter snapshots whether it runs sequentially or on
  // many workers.
  const RunGrid grid = tiny_grid();
  const ResultSet serial = ExperimentEngine(ThreadPool::shared(), 1).run(grid);
  const ResultSet parallel = ExperimentEngine(ThreadPool::shared(), 0).run(grid);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const RunRecord& a = serial.records()[i];
    const RunRecord& b = parallel.records()[i];
    // Same record order regardless of completion order...
    EXPECT_EQ(a.workload.name, b.workload.name);
    EXPECT_EQ(a.policy, b.policy);
    // ...and bitwise-identical outcomes.
    EXPECT_EQ(a.result.cycles, b.result.cycles);
    EXPECT_EQ(a.result.counters, b.result.counters);
    ASSERT_EQ(a.result.thread_ipc.size(), b.result.thread_ipc.size());
    for (std::size_t t = 0; t < a.result.thread_ipc.size(); ++t) {
      EXPECT_EQ(a.result.thread_ipc[t], b.result.thread_ipc[t]);
    }
    EXPECT_EQ(a.result.throughput, b.result.throughput);
  }
}

TEST(ExperimentEngine, LookupByWorkloadAndPolicy) {
  const ResultSet rs = ExperimentEngine().run(tiny_grid());
  const SimResult& r = rs.get("2-MEM", "DWarn");
  EXPECT_EQ(r.workload, "2-MEM");
  EXPECT_EQ(r.policy, "DWarn");
  EXPECT_GT(r.cycles, 0u);
  EXPECT_NE(rs.find({.workload = "2-MIX", .policy = "ICOUNT"}), nullptr);
  EXPECT_EQ(rs.find({.workload = "2-MIX", .policy = "FLUSH"}), nullptr);
}

TEST(ExperimentEngine, GetReportsMissingAndAvailableKeys) {
  const ResultSet rs = ExperimentEngine().run(tiny_grid());
  try {
    (void)rs.get("8-MEM", "FLUSH");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string msg = e.what();
    // Names the missing key...
    EXPECT_NE(msg.find("workload=8-MEM"), std::string::npos) << msg;
    EXPECT_NE(msg.find("policy=FLUSH"), std::string::npos) << msg;
    // ...and lists what exists.
    EXPECT_NE(msg.find("available"), std::string::npos) << msg;
    EXPECT_NE(msg.find("workload=2-MIX"), std::string::npos) << msg;
    EXPECT_NE(msg.find("policy=DWarn"), std::string::npos) << msg;
  }
}

TEST(ExperimentEngine, SoloIpcsComeFromSoloRuns) {
  RunGrid grid;
  grid.machine(machine_spec("baseline"))
      .workload(workload_by_name("2-MIX"))
      .length(tiny_run())
      .with_solo_baselines();
  const ResultSet rs = ExperimentEngine().run(grid);
  const SoloIpcMap solo = rs.solo_ipcs();
  ASSERT_EQ(solo.size(), workload_by_name("2-MIX").benchmarks.size());
  for (const auto b : workload_by_name("2-MIX").benchmarks) {
    ASSERT_TRUE(solo.contains(b)) << profile_of(b).name;
    EXPECT_GT(solo.at(b), 0.0);
  }
}

// ---- ResultStore -------------------------------------------------------------

TEST(ResultStore, SerializesJsonAndCsv) {
  const ResultSet rs = ExperimentEngine().run(tiny_grid());
  ResultStore store;
  store.set_meta("bench", "unit \"test\"");
  store.add_all(rs);
  EXPECT_EQ(store.size(), rs.size());

  const std::string json = store.to_json();
  EXPECT_NE(json.find("\"bench\": \"unit \\\"test\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"workload\": \"2-MEM\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"role\": \"grid\""), std::string::npos);

  const std::string csv = store.to_csv();
  std::size_t lines = 0;
  for (const char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, rs.size() + 1);  // header + one row per run
  EXPECT_EQ(csv.find('\n') != std::string::npos, true);
  EXPECT_EQ(csv.rfind("machine,workload,policy", 0), 0u);
}

TEST(ResultStore, CsvQuotesFieldsWithCommas) {
  ResultStore store;
  RunRecord rec;
  rec.machine = "baseline,T=12";
  rec.workload.name = "2-MEM";
  rec.policy = "STALL";
  rec.tag = "say \"hi\"";
  store.add(rec);
  const std::string csv = store.to_csv();
  EXPECT_NE(csv.find("\"baseline,T=12\",2-MEM,STALL,\"say \"\"hi\"\"\","),
            std::string::npos)
      << csv;
}

TEST(ResultStore, CsvQuotesNewlinesAndCarriageReturns) {
  // RFC 4180: embedded line breaks must be enclosed in double quotes,
  // otherwise a row silently splits in two.
  ResultStore store;
  RunRecord rec;
  rec.machine = "base\nline";
  rec.workload.name = "2-MEM";
  rec.policy = "ICOUNT";
  rec.tag = "cr\rlf";
  store.add(rec);
  const std::string csv = store.to_csv();
  EXPECT_NE(csv.find("\"base\nline\",2-MEM,ICOUNT,\"cr\rlf\","), std::string::npos)
      << csv;
}

TEST(ExperimentEngine, SoloIpcsRejectsAmbiguousMachines) {
  RunGrid grid;
  grid.machine(machine_spec("baseline"))
      .machine(machine_spec("small"))
      .workload(workload_by_name("2-MIX"))
      .length(tiny_run())
      .with_solo_baselines();
  const ResultSet rs = ExperimentEngine().run(grid);
  EXPECT_THROW((void)rs.solo_ipcs(), std::logic_error);
  EXPECT_EQ(rs.solo_ipcs("small").size(), workload_by_name("2-MIX").benchmarks.size());
}

TEST(ResultStore, JsonEscape) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json_escape("plain"), "plain");
}

}  // namespace
}  // namespace dwarn
