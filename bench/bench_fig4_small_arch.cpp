// Reproduces paper Figure 4: DWarn vs the other policies on the *small*
// machine (4-wide, 4 contexts, 1.4 fetch mechanism, 256+256 registers,
// 3/2/2 FUs) over the 2- and 4-thread workloads.
//   (a) throughput improvement of DWarn over each policy;
//   (b) Hmean improvement.
// Paper's shape: with a 1.4 fetch a Dmiss thread cannot fetch at all while
// any Normal thread is fetchable, so MEM threads are hurt more — ICOUNT
// beats DWarn on MIX Hmean (~5%), while DWarn still clearly beats the
// gating policies (STALL/DG/PDG/FLUSH).
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace dwarn;
  using namespace dwarn::benchutil;

  const ResultSet results = ExperimentEngine().run(named_grid("fig4_small_arch"));
  const analysis::RecordMetric hmean = analysis::hmean_metric(results);
  const std::vector<WorkloadSpec> workloads = grid_workloads(results);
  const std::vector<PolicyKind> policies = grid_policies(results);

  print_banner(std::cout, "Figure 4 (small machine: 4-wide, 1.4 fetch, 4 contexts)");
  print_ci_metric_table(std::cout, results, workloads, policies,
                        analysis::throughput_metric(), "throughput (IPC)");

  print_banner(std::cout, "Figure 4(a): DWarn throughput improvement (small machine)");
  print_ci_improvement_table(std::cout, results, workloads, policies,
                             analysis::throughput_metric(), "throughput");

  print_banner(std::cout, "Figure 4(b): DWarn Hmean improvement (small machine)");
  print_ci_improvement_table(std::cout, results, workloads, policies, hmean, "Hmean");

  std::cout << "\npaper reference (MIX+MEM avg): throughput +5% vs STALL, +23% vs DG, +10% vs\n"
               "FLUSH, +40% vs PDG; Hmean +5/+28/+10/+50; ICOUNT wins MIX Hmean by ~5%\n";
  return write_bench_json("fig4_small_arch", results) ? 0 : 1;
}
