// Ablation: the L2-miss declaration threshold (DESIGN.md §3).
//
// STALL, FLUSH and hybrid DWarn act when a load has spent more than T
// cycles in the memory hierarchy. The paper experimented with values and
// settled on 15 for its baseline (L2 latency 10): declaring too early
// punishes L2 hits; declaring too late lets the delinquent thread clog
// resources before the response action fires.
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace dwarn;
  using namespace dwarn::benchutil;

  // One grid: the declaration threshold is a machine variant
  // ("baseline,T=<t>").
  const ResultSet results = ExperimentEngine().run(named_grid("ablation_l2_threshold"));
  const std::vector<std::string> machines = distinct_values(results, &RunRecord::machine);

  print_banner(std::cout, "Ablation: L2-miss declaration threshold sweep (throughput)");
  for (const PolicyKind p : grid_policies(results)) {
    std::vector<std::string> headers{"workload"};
    for (const std::string& m : machines) headers.push_back(m.substr(m.find(',') + 1));
    ReportTable table(std::move(headers));
    std::cout << "\npolicy " << policy_name(p) << ":\n";
    for (const auto& w : grid_workloads(results)) {
      std::vector<std::string> row{w.name};
      for (const std::string& machine : machines) {
        row.push_back(fmt(
            results.get({.workload = w.name, .policy = policy_name(p), .machine = machine})
                .throughput,
            2));
      }
      table.add_row(std::move(row));
    }
    table.print(std::cout);
  }
  std::cout << "\npaper choice: 15 cycles ('presents the best overall results for our baseline')\n";
  return write_bench_json("ablation_l2_threshold", results) ? 0 : 1;
}
