// Reproduces paper Table 4: the relative IPC of every thread in the 4-MIX
// workload (gzip, twolf, bzip2, mcf) under each policy, plus the Hmean.
// The paper's point: DWarn matches the other policies' ILP-thread IPC
// while harming the MEM threads far less, giving the best Hmean; ICOUNT
// favors the MEM threads but crushes the ILP threads.
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace dwarn;
  using namespace dwarn::benchutil;

  const ResultSet results = ExperimentEngine().run(named_grid("table4_relative_ipc"));
  const SoloIpcMap solo = results.solo_ipcs();
  const WorkloadSpec workload = grid_workloads(results).front();

  print_banner(std::cout, "Table 4: relative IPC of each thread in the 4-MIX workload");
  std::vector<std::string> headers{"policy"};
  for (std::size_t t = 0; t < workload.num_threads(); ++t) {
    const auto& p = profile_of(workload.benchmarks[t]);
    headers.push_back(std::string(p.name) + (p.is_mem ? " (MEM)" : " (ILP)"));
  }
  headers.emplace_back("Hmean");
  ReportTable table(std::move(headers));

  for (const PolicyKind p : grid_policies(results)) {
    const SimResult& r = results.get(workload.name, policy_name(p));
    const auto rel = relative_ipcs(r, workload, solo);
    std::vector<std::string> row{std::string(policy_name(p))};
    for (const double v : rel) row.push_back(fmt(v, 2));
    row.push_back(fmt(hmean(rel), 2));
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\npaper reference: ICOUNT favors the MEM threads (0.50/0.79) but crushes ILP\n"
               "(0.36/0.41); DWarn keeps ILP high (0.44/0.69) while hurting MEM least\n"
               "(0.43/0.70), best Hmean (paper: 0.53 vs 0.47 ICOUNT, 0.38 PDG)\n";
  return write_bench_json("table4_relative_ipc", results) ? 0 : 1;
}
