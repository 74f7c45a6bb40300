// Ablation: L1-miss detection latency (DESIGN.md §3).
//
// DWarn's detection moment is the L1 miss, which the front end learns ~5
// cycles after the load is fetched on the baseline (+3 more on the deep
// machine). This sweep adds extra detection delay: the later the Dmiss
// classification, the more instructions a delinquent thread inserts at
// full priority before DWarn (or DG) reacts — measuring how much of
// DWarn's advantage comes from acting *early*.
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace dwarn;
  using namespace dwarn::benchutil;

  // The detection delays are the grid's machine variants
  // ("baseline+<d>cy"); every (delay, workload, policy) cell runs in a
  // single engine invocation.
  const ResultSet results = ExperimentEngine().run(
      named_grid("ablation_detect_delay", GridOptions{.num_seeds = bench_seed_count()}));
  const std::vector<std::string> machines = distinct_values(results, &RunRecord::machine);

  print_banner(std::cout,
               "Ablation: extra L1-miss detection delay (throughput, mean ± 95% CI)");
  for (const PolicyKind p : grid_policies(results)) {
    std::vector<std::string> headers{"workload"};
    for (const std::string& m : machines) headers.push_back(m.substr(m.find('+')));
    ReportTable table(std::move(headers));
    std::cout << "\npolicy " << policy_name(p) << ":\n";
    for (const auto& w : grid_workloads(results)) {
      std::vector<std::string> row{w.name};
      for (const std::string& machine : machines) {
        const analysis::SampleStats s = analysis::summarize(analysis::collect_values(
            results, {.workload = w.name, .policy = policy_name(p), .machine = machine},
            analysis::throughput_metric()));
        row.push_back(analysis::fmt_mean_ci(s));
      }
      table.add_row(std::move(row));
    }
    table.print(std::cout);
  }
  return write_bench_json("ablation_detect_delay", results) ? 0 : 1;
}
