// Ablation: DG's outstanding-miss threshold n (DESIGN.md §3).
//
// The paper (and El-Moursy & Albonesi) use n = 0 — gate a thread on any
// outstanding L1 miss. A low threshold over-stalls (especially with few
// threads); a high threshold stops filtering and lets delinquent threads
// clog the queues. This sweep shows the tension on the MIX/MEM workloads.
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace dwarn;
  using namespace dwarn::benchutil;

  // The threshold is a policy parameter: the grid runs DG with one
  // tagged variant ("n=<n>") per value.
  const ResultSet results = ExperimentEngine().run(named_grid("ablation_dg_threshold"));
  const std::vector<std::string> tags = distinct_values(results, &RunRecord::tag);

  print_banner(std::cout, "Ablation: DG gating threshold sweep (throughput)");
  std::vector<std::string> headers{"workload"};
  for (const std::string& tag : tags) headers.push_back("DG(" + tag + ")");
  ReportTable table(std::move(headers));

  for (const auto& w : grid_workloads(results)) {
    std::vector<std::string> row{w.name};
    for (const std::string& tag : tags) {
      row.push_back(
          fmt(results.get({.workload = w.name, .policy = "DG", .tag = tag}).throughput, 2));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\npaper choice: n=0 ('the same used in [3], presents the best overall results')\n";
  return write_bench_json("ablation_dg_threshold", results) ? 0 : 1;
}
