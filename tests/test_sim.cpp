// Unit tests: simulation layer — presets, workloads, metrics, runner,
// reports.
#include <gtest/gtest.h>

#include <sstream>

#include "sim/machine_config.hpp"
#include "sim/metrics.hpp"
#include "sim/report.hpp"
#include "sim/simulator.hpp"
#include "sim/workload.hpp"

namespace dwarn {
namespace {

// ---- machine presets ---------------------------------------------------------

TEST(Presets, BaselineMatchesTable3) {
  const auto m = baseline_machine(8);
  EXPECT_EQ(m.core.fetch_width, 8u);
  EXPECT_EQ(m.core.fetch_threads, 2u);
  EXPECT_EQ(m.core.iq_capacity[0], 32u);
  EXPECT_EQ(m.core.fu_count, (std::array<unsigned, 3>{6, 3, 4}));
  EXPECT_EQ(m.core.pregs_int, 384u);
  EXPECT_EQ(m.core.rob_entries, 256u);
  EXPECT_EQ(m.mem.l1d.size_bytes, 64u * 1024);
  EXPECT_EQ(m.mem.l2.size_bytes, 512u * 1024);
  EXPECT_EQ(m.mem.l2_latency, 10u);
  EXPECT_EQ(m.mem.mem_latency, 100u);
  EXPECT_EQ(m.mem.tlb_miss_penalty, 160u);
  EXPECT_EQ(m.mem.l2_declare_threshold, 15u);
  EXPECT_EQ(m.bpred.gshare_entries, 2048u);
  EXPECT_EQ(m.bpred.btb_entries, 256u);
  EXPECT_EQ(m.bpred.ras_entries, 256u);
}

TEST(Presets, SmallMachineIsOneDotFour) {
  const auto m = small_machine(4);
  EXPECT_EQ(m.core.fetch_threads, 1u);
  EXPECT_EQ(m.core.fetch_width, 4u);
  EXPECT_EQ(m.core.pregs_int, 256u);
  EXPECT_EQ(m.core.fu_count, (std::array<unsigned, 3>{3, 2, 2}));
}

TEST(Presets, DeepMachineStretchesLatencies) {
  const auto m = deep_machine(8);
  EXPECT_EQ(m.core.frontend_depth, 11u);
  EXPECT_EQ(m.core.iq_capacity[0], 64u);
  EXPECT_EQ(m.core.l1_detect_extra, 3u);
  EXPECT_EQ(m.mem.l2_latency, 15u);
  EXPECT_EQ(m.mem.mem_latency, 200u);
}

// ---- workloads ------------------------------------------------------------------

TEST(Workloads, TwelvePaperWorkloads) {
  const auto& all = paper_workloads();
  ASSERT_EQ(all.size(), 12u);
  for (const auto& w : all) {
    EXPECT_GE(w.num_threads(), 2u);
    EXPECT_LE(w.num_threads(), 8u);
  }
}

TEST(Workloads, Table2bContents) {
  using B = Benchmark;
  EXPECT_EQ(workload_by_name("2-MEM").benchmarks, (std::vector<B>{B::mcf, B::twolf}));
  EXPECT_EQ(workload_by_name("4-MIX").benchmarks,
            (std::vector<B>{B::gzip, B::twolf, B::bzip2, B::mcf}));
  EXPECT_EQ(workload_by_name("8-MEM").benchmarks,
            (std::vector<B>{B::mcf, B::twolf, B::vpr, B::parser, B::mcf, B::twolf,
                            B::vpr, B::parser}));
  EXPECT_EQ(workload_by_name("6-ILP").benchmarks.size(), 6u);
}

TEST(Workloads, TypesAreConsistent) {
  for (const auto& w : paper_workloads()) {
    bool any_mem = false, all_mem = true;
    for (const auto b : w.benchmarks) {
      const bool mem = profile_of(b).is_mem;
      any_mem |= mem;
      all_mem &= mem;
    }
    switch (w.type) {
      case WorkloadType::ILP: EXPECT_FALSE(any_mem) << w.name; break;
      case WorkloadType::MEM: EXPECT_TRUE(all_mem) << w.name; break;
      case WorkloadType::MIX: EXPECT_TRUE(any_mem && !all_mem) << w.name; break;
    }
  }
}

TEST(Workloads, SmallSubsetIsTwoAndFourThreads) {
  for (const auto& w : small_machine_workloads()) EXPECT_LE(w.num_threads(), 4u);
  EXPECT_EQ(small_machine_workloads().size(), 6u);
}

// ---- metrics ---------------------------------------------------------------------

TEST(Metrics, HmeanBasics) {
  const double xs[] = {1.0, 1.0};
  EXPECT_DOUBLE_EQ(hmean(xs), 1.0);
  const double ys[] = {2.0, 0.5};
  EXPECT_NEAR(hmean(ys), 0.8, 1e-12);
  EXPECT_DOUBLE_EQ(hmean({}), 0.0);
  const double zs[] = {1.0, 0.0};
  EXPECT_DOUBLE_EQ(hmean(zs), 0.0);
}

TEST(Metrics, HmeanPunishesImbalanceMoreThanAmean) {
  const double xs[] = {0.9, 0.1};
  EXPECT_LT(hmean(xs), amean(xs));
}

TEST(Metrics, ImprovementPct) {
  EXPECT_DOUBLE_EQ(improvement_pct(1.2, 1.0), 20.0);
  EXPECT_DOUBLE_EQ(improvement_pct(0.9, 1.0), -10.0);
  EXPECT_DOUBLE_EQ(improvement_pct(1.0, 0.0), 0.0);
}

TEST(Metrics, RelativeIpcsDivideBySolo) {
  SimResult res;
  res.thread_ipc = {1.0, 0.5};
  WorkloadSpec w{"t", WorkloadType::MIX, {Benchmark::gzip, Benchmark::mcf}};
  SoloIpcMap solo{{Benchmark::gzip, 2.0}, {Benchmark::mcf, 0.25}};
  const auto rel = relative_ipcs(res, w, solo);
  ASSERT_EQ(rel.size(), 2u);
  EXPECT_DOUBLE_EQ(rel[0], 0.5);
  EXPECT_DOUBLE_EQ(rel[1], 2.0);
  EXPECT_DOUBLE_EQ(weighted_speedup(res, w, solo), 1.25);
  EXPECT_NEAR(hmean_relative(res, w, solo), 0.8, 1e-12);
}

// ---- simulator plumbing -------------------------------------------------------------

TEST(SimulatorRun, ResultFieldsAreConsistent) {
  const RunLength len{3000, 12000, 2'000'000};
  const auto res = run_simulation(baseline_machine(2), workload_by_name("2-ILP"),
                                  PolicyKind::ICount, len);
  EXPECT_EQ(res.workload, "2-ILP");
  EXPECT_EQ(res.policy, "ICOUNT");
  EXPECT_EQ(res.machine, "baseline");
  EXPECT_GT(res.cycles, 0u);
  ASSERT_EQ(res.thread_ipc.size(), 2u);
  EXPECT_NEAR(res.throughput, res.thread_ipc[0] + res.thread_ipc[1], 1e-9);
  // The measurement window commits at least the requested instructions.
  EXPECT_GE(res.counters.at("core.committed"), 12000u);
}

TEST(SimulatorRun, WarmupIsExcludedFromCounters) {
  const RunLength len{8000, 8000, 2'000'000};
  Simulator sim(baseline_machine(1), solo_workload(Benchmark::gzip), PolicyKind::ICount);
  const auto res = sim.run(len);
  // Committed counter was reset after warm-up: close to the window size.
  EXPECT_LT(res.counters.at("core.committed"), 8000u + 64u);
}

TEST(SimulatorRun, SoloWorkloadShape) {
  const auto w = solo_workload(Benchmark::eon);
  EXPECT_EQ(w.num_threads(), 1u);
  EXPECT_EQ(w.type, WorkloadType::ILP);
  EXPECT_EQ(solo_workload(Benchmark::mcf).type, WorkloadType::MEM);
}

// ---- report tables -----------------------------------------------------------------

TEST(Report, TablePrintsAlignedRows) {
  ReportTable t({"name", "value"});
  t.add_row({"x", "1.00"});
  t.add_row({"longer-name", "2.25"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("| longer-name | 2.25"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Report, Formatters) {
  EXPECT_EQ(fmt(1.2345, 2), "1.23");
  EXPECT_EQ(fmt_signed_pct(12.34), "+12.3%");
  EXPECT_EQ(fmt_signed_pct(-3.21), "-3.2%");
}

}  // namespace
}  // namespace dwarn
