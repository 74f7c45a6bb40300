// Figure 1 under instruction-delivery pressure — a regime the paper never
// evaluated. The fig1_icache grid swaps the effectively-ideal legacy L1I
// for the modeled instruction side (8K I-cache, next-line fetch-ahead,
// small I-TLB; docs/instruction_side.md), so the six fetch policies
// compete for a front end that can actually starve:
//   (a) absolute throughput per policy on the pressure machine;
//   (b) DWarn's improvement over each other policy;
//   (c) the instruction-side pressure itself (demand I-misses and I-TLB
//       walks per kilo-instruction, fetch-stall fraction) per workload,
//       so a throughput delta can be read against the pressure causing it.
#include <iostream>

#include "bench_common.hpp"

namespace {

using namespace dwarn;

/// Mean of a per-run derived metric across the runs of (workload, policy).
double mean_metric(const ResultSet& rs, const std::string& workload,
                   PolicyKind policy, double SimResult::*field) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const RunRecord& r : rs.records()) {
    if (r.role != RunRole::Grid) continue;
    if (r.workload.name != workload) continue;
    if (r.policy != policy_name(policy)) continue;
    sum += r.result.*field;
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

void print_pressure_table(std::ostream& os, const ResultSet& rs,
                          const std::vector<WorkloadSpec>& workloads) {
  ReportTable t({"workload", "imiss/kinst", "itlbmiss/kinst", "stall_frac"});
  for (const WorkloadSpec& w : workloads) {
    t.add_row({w.name,
               fmt(mean_metric(rs, w.name, PolicyKind::DWarn, &SimResult::imiss_per_kinst)),
               fmt(mean_metric(rs, w.name, PolicyKind::DWarn,
                               &SimResult::itlb_miss_per_kinst)),
               fmt(mean_metric(rs, w.name, PolicyKind::DWarn, &SimResult::fetch_stall_frac),
                   3)});
  }
  t.print(os);
}

}  // namespace

int main() {
  using namespace dwarn::benchutil;

  const ResultSet results = ExperimentEngine().run(
      named_grid("fig1_icache", GridOptions{.num_seeds = bench_seed_count()}));
  const std::vector<WorkloadSpec> workloads = grid_workloads(results);
  const std::vector<PolicyKind> policies = grid_policies(results);

  print_banner(std::cout, "Figure 1(a) under I-cache pressure: throughput per policy");
  print_ci_metric_table(std::cout, results, workloads, policies,
                        analysis::throughput_metric(), "throughput (IPC)");

  print_banner(std::cout, "Figure 1(b) under I-cache pressure: DWarn improvement");
  print_ci_improvement_table(std::cout, results, workloads, policies,
                             analysis::throughput_metric(), "throughput");

  print_banner(std::cout, "instruction-side pressure (DWarn runs)");
  print_pressure_table(std::cout, results, workloads);

  return write_bench_json("fig1_icache", results) ? 0 : 1;
}
