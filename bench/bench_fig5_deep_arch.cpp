// Reproduces paper Figure 5: DWarn vs the other policies on the *deeper*
// machine (16-stage pipe, 2.8 fetch, 64-entry issue queues, L1-miss
// detection +3 cycles, L1->L2 latency 15 cycles, memory 200 cycles) over
// all 12 workloads.
//   (a) throughput improvement of DWarn over each policy;
//   (b) Hmean improvement.
// Plus the §6 flush-overhead observation: on this machine FLUSH re-fetches
// ~56% of instructions on MEM workloads.
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace dwarn;
  using namespace dwarn::benchutil;

  const ResultSet results = ExperimentEngine().run(named_grid("fig5_deep_arch"));
  const analysis::RecordMetric hmean = analysis::hmean_metric(results);
  const std::vector<WorkloadSpec> workloads = grid_workloads(results);
  const std::vector<PolicyKind> policies = grid_policies(results);

  print_banner(std::cout, "Figure 5 (deep machine: 16 stages, mem 200 cycles)");
  print_ci_metric_table(std::cout, results, workloads, policies,
                        analysis::throughput_metric(), "throughput (IPC)");

  print_banner(std::cout, "Figure 5(a): DWarn throughput improvement (deep machine)");
  print_ci_improvement_table(std::cout, results, workloads, policies,
                             analysis::throughput_metric(), "throughput");

  print_banner(std::cout, "Figure 5(b): DWarn Hmean improvement (deep machine)");
  print_ci_improvement_table(std::cout, results, workloads, policies, hmean, "Hmean");

  print_banner(std::cout, "Section 6: FLUSH re-fetch overhead on the deep machine");
  {
    ReportTable t({"workload", "flushed %"});
    std::map<WorkloadType, std::vector<double>> by_type;
    for (const auto& w : workloads) {
      const SimResult& r = results.get(w.name, "FLUSH");
      const double pct = r.flushed_frac * 100.0;
      by_type[w.type].push_back(pct);
      t.add_row({w.name, fmt(pct, 1)});
    }
    for (const WorkloadType ty :
         {WorkloadType::ILP, WorkloadType::MIX, WorkloadType::MEM}) {
      t.add_row({"avg-" + std::string(to_string(ty)), fmt(amean(by_type[ty]), 1)});
    }
    t.print(std::cout);
  }
  std::cout << "\npaper reference: DWarn beats all policies on average except FLUSH on MEM\n"
               "(-6%, driven by 8-MEM over-pressure); FLUSH refetches ~56% on MEM workloads\n";
  return write_bench_json("fig5_deep_arch", results) ? 0 : 1;
}
