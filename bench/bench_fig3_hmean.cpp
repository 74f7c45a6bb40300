// Reproduces paper Figure 3: Hmean (harmonic mean of relative IPCs,
// Luo et al.) improvement of DWarn over the other five policies on the
// baseline machine. Relative-IPC denominators are single-thread runs of
// each benchmark on the same machine.
#include <iostream>

#include "bench_common.hpp"
#include "sim/machine_config.hpp"

int main() {
  using namespace dwarn;
  using namespace dwarn::benchutil;

  // One grid: every (workload, policy) cell plus the single-thread
  // baselines used as relative-IPC denominators, replicated across
  // SMT_BENCH_SEEDS seeds (each seed divides by its own solo runs).
  const ResultSet results =
      ExperimentEngine().run(named_grid("fig3", GridOptions{.num_seeds = bench_seed_count()}));
  const std::vector<WorkloadSpec> workloads = grid_workloads(results);
  const std::vector<PolicyKind> policies = grid_policies(results);
  const SoloIpcMap solo = results.solo_ipcs();

  print_banner(std::cout, "single-thread baseline IPCs (relative-IPC denominators, first seed)");
  {
    ReportTable t({"benchmark", "solo IPC"});
    for (const auto& [b, ipc] : solo) {
      t.add_row({std::string(profile_of(b).name), fmt(ipc, 2)});
    }
    t.print(std::cout);
  }

  const analysis::RecordMetric hmean = analysis::hmean_metric(results);
  print_banner(std::cout, "Figure 3: Hmean improvement of DWarn over the other policies");
  print_ci_metric_table(std::cout, results, workloads, policies, hmean,
                        "Hmean of relative IPCs");
  std::cout << '\n';
  print_ci_improvement_table(std::cout, results, workloads, policies, hmean,
                             "Hmean");
  std::cout << "\npaper reference (MIX+MEM avg): +13% over ICOUNT, +5% over STALL, +3% over\n"
               "FLUSH (-2% on MEM), +11% over DG, +36% over PDG\n";
  return write_bench_json("fig3_hmean", results) ? 0 : 1;
}
