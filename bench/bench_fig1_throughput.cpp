// Reproduces paper Figure 1: throughput of the six fetch policies on the
// baseline machine across the 12 workloads of Table 2(b).
//   (a) absolute throughput (sum of per-thread IPCs) per policy;
//   (b) DWarn's throughput improvement over each other policy, with the
//       per-type and grand averages the paper quotes (DWarn beats every
//       policy on average; FLUSH wins only on MEM workloads).
// Also prints the Table 3 baseline configuration for reference.
#include <iostream>

#include "bench_common.hpp"
#include "sim/machine_config.hpp"

namespace {

void print_table3(std::ostream& os) {
  using namespace dwarn;
  const MachineConfig m = baseline_machine(8);
  ReportTable t({"parameter", "value"});
  t.add_row({"fetch/issue/commit width", std::to_string(m.core.fetch_width)});
  t.add_row({"fetch policy mechanism",
             std::to_string(m.core.fetch_threads) + "." + std::to_string(m.core.fetch_width)});
  t.add_row({"issue queues (int/fp/ls)", "32 / 32 / 32"});
  t.add_row({"execution units (int/fp/ls)", "6 / 3 / 4"});
  t.add_row({"physical registers", "384 int, 384 fp"});
  t.add_row({"ROB size / thread", std::to_string(m.core.rob_entries)});
  t.add_row({"branch predictor", "2048-entry gshare"});
  t.add_row({"BTB", "256 entries, 4-way"});
  t.add_row({"RAS", "256 entries"});
  t.add_row({"L1 I/D", "64KB, 2-way, 8 banks, 64B lines, 1 cycle"});
  t.add_row({"L2", "512KB, 2-way, 8 banks, 10 cycles"});
  t.add_row({"memory latency", std::to_string(m.mem.mem_latency) + " cycles"});
  t.add_row({"TLB miss penalty", std::to_string(m.mem.tlb_miss_penalty) + " cycles"});
  t.add_row({"L1-miss known after", "~5 cycles from fetch"});
  t.add_row({"L2 miss declared after", std::to_string(m.mem.l2_declare_threshold) + " cycles in hierarchy"});
  print_banner(os, "Table 3: baseline configuration");
  t.print(os);
}

}  // namespace

int main() {
  using namespace dwarn;
  using namespace dwarn::benchutil;

  print_table3(std::cout);

  // SMT_BENCH_SEEDS replicates every cell; the tables then carry
  // bootstrap CIs instead of single-run point estimates.
  const ResultSet results =
      ExperimentEngine().run(named_grid("fig1", GridOptions{.num_seeds = bench_seed_count()}));
  const std::vector<WorkloadSpec> workloads = grid_workloads(results);
  const std::vector<PolicyKind> policies = grid_policies(results);

  print_banner(std::cout, "Figure 1(a): throughput per policy (baseline machine)");
  print_ci_metric_table(std::cout, results, workloads, policies,
                        analysis::throughput_metric(), "throughput (IPC)");

  print_banner(std::cout, "Figure 1(b): DWarn throughput improvement");
  print_ci_improvement_table(std::cout, results, workloads, policies,
                             analysis::throughput_metric(), "throughput");

  std::cout << "\npaper reference (avg): +18% over ICOUNT; +2% ILP/+6% MIX/+7% MEM over STALL;\n"
               "+3% ILP/+8% MIX/+9% MEM over DG; +5/+13/+30 over PDG; +3 ILP/+6 MIX/-3 MEM vs FLUSH\n";
  return write_bench_json("fig1_throughput", results) ? 0 : 1;
}
