// Cross-machine property sweeps: the small (1.4 fetch) and deep
// (16-stage) presets must uphold the same structural invariants and the
// qualitative relationships the paper's section 6 reports.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "sim/machine_config.hpp"
#include "sim/simulator.hpp"
#include "sim/workload.hpp"

namespace dwarn {
namespace {

RunLength tiny() {
  return RunLength{.warmup_insts = 4000, .measure_insts = 16000, .max_cycles = 4'000'000};
}

struct MachineCase {
  const char* machine;
  PolicyKind policy;
  const char* workload;
};

MachineConfig build(const char* name, std::size_t threads) {
  if (std::string_view(name) == "small") return small_machine(threads);
  if (std::string_view(name) == "deep") return deep_machine(threads);
  return baseline_machine(threads);
}

class MachineSweep : public ::testing::TestWithParam<MachineCase> {};

TEST_P(MachineSweep, InvariantsAndProgressOnEveryMachine) {
  const auto [mname, policy, wname] = GetParam();
  const WorkloadSpec& w = workload_by_name(wname);
  Simulator sim(build(mname, w.num_threads()), w, policy, PolicyParams{}, 11);
  for (int phase = 0; phase < 4; ++phase) {
    sim.tick(2500);
    EXPECT_TRUE(sim.core().check_invariants());
  }
  EXPECT_GT(sim.core().total_committed(), 0u);
  for (std::size_t t = 0; t < w.num_threads(); ++t) {
    // No thread may be permanently starved on any machine/policy.
    EXPECT_GT(sim.core().committed(static_cast<ThreadId>(t)), 0u)
        << "thread " << t << " starved";
  }
}

constexpr MachineCase kCases[] = {
    {"small", PolicyKind::ICount, "2-MIX"}, {"small", PolicyKind::DWarn, "2-MEM"},
    {"small", PolicyKind::Flush, "4-MEM"},  {"small", PolicyKind::DG, "4-MIX"},
    {"small", PolicyKind::PDG, "2-MEM"},    {"deep", PolicyKind::ICount, "4-MIX"},
    {"deep", PolicyKind::DWarn, "6-MEM"},   {"deep", PolicyKind::Flush, "8-MEM"},
    {"deep", PolicyKind::Stall, "2-MEM"},   {"deep", PolicyKind::DCPred, "4-MEM"},
};

INSTANTIATE_TEST_SUITE_P(Presets, MachineSweep, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<MachineCase>& p) {
                           std::string n = std::string(p.param.machine) + "_" +
                                           std::string(policy_name(p.param.policy)) +
                                           "_" + p.param.workload;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(MachineShape, SmallMachineFetchesOneThreadPerCycle) {
  // With a 1.4 mechanism a Dmiss thread cannot fetch while a Normal
  // thread can: per cycle at most fetch_width instructions from one
  // thread enter, so fetched-per-cycle never exceeds 4.
  const WorkloadSpec& w = workload_by_name("2-MIX");
  Simulator sim(small_machine(2), w, PolicyKind::DWarn);
  sim.tick(5000);
  const auto fetched = sim.stats().value("core.fetched");
  EXPECT_LE(fetched, 5000u * 4u);
  EXPECT_GT(fetched, 0u);
}

TEST(MachineShape, DeepPipeAmplifiesFlushOverhead) {
  // Paper section 6: FLUSH's re-fetched share grows on the deep machine
  // (~35% -> ~56% on MEM workloads).
  const WorkloadSpec& w = workload_by_name("4-MEM");
  const RunLength len{20000, 80000, 8'000'000};
  const auto base = run_simulation(baseline_machine(4), w, PolicyKind::Flush, len);
  const auto deep = run_simulation(deep_machine(4), w, PolicyKind::Flush, len);
  EXPECT_GT(deep.flushed_frac, base.flushed_frac);
}

TEST(MachineShape, DeepPipeHasLargerMispredictCost) {
  // Same workload & policy: the 16-stage pipe wastes more fetched
  // instructions per mispredict (longer fetch-to-execute distance).
  const WorkloadSpec& w = workload_by_name("2-ILP");
  const RunLength len{10000, 50000, 8'000'000};
  const auto base = run_simulation(baseline_machine(2), w, PolicyKind::ICount, len);
  const auto deep = run_simulation(deep_machine(2), w, PolicyKind::ICount, len);
  const double base_wp = static_cast<double>(base.counters.at("core.fetched_wrongpath")) /
                         static_cast<double>(base.counters.at("bpred.mispredicts") + 1);
  const double deep_wp = static_cast<double>(deep.counters.at("core.fetched_wrongpath")) /
                         static_cast<double>(deep.counters.at("bpred.mispredicts") + 1);
  EXPECT_GT(deep_wp, base_wp);
}

TEST(MachineShape, TinyMachineStillWorks) {
  // A deliberately cramped custom machine exercises every stall path.
  MachineConfig m = baseline_machine(2);
  m.core.iq_capacity = {8, 8, 8};
  m.core.pregs_int = 2 * 32 + 16;
  m.core.pregs_fp = 2 * 32 + 8;
  m.core.rob_entries = 32;
  m.core.frontend_buffer = 8;
  Simulator sim(m, workload_by_name("2-MIX"), PolicyKind::DWarn);
  const auto res = sim.run(tiny());
  EXPECT_GT(res.throughput, 0.05);
  EXPECT_TRUE(sim.core().check_invariants());
}

TEST(MachineShape, OneDotEightFetchMechanism) {
  // The section-6 footnote's 1.8 variant: one thread, eight wide.
  MachineConfig m = baseline_machine(4);
  m.core.fetch_threads = 1;
  Simulator sim(m, workload_by_name("4-MIX"), PolicyKind::DWarn);
  const auto res = sim.run(tiny());
  EXPECT_GT(res.throughput, 0.2);
  EXPECT_TRUE(sim.core().check_invariants());
}

}  // namespace
}  // namespace dwarn
