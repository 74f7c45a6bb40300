// Ablation: the DWarn response-action design space (DESIGN.md §3).
//
// The paper's hybrid mechanism gates a thread on a *declared L2 miss* only
// when fewer than three threads run; with more threads, priority reduction
// alone suffices. This bench compares:
//   * DWarn-basic — priority reduction only, never gates;
//   * DWarn       — the paper's hybrid (gate when <3 threads);
//   * DWarn-gate  — gate on declared L2 miss at any thread count.
// Expected shape: hybrid ~= basic at 4+ threads (gating rarely binds),
// hybrid > basic at 2 threads (the paper's motivation: fetch fragmentation
// lets a Dmiss thread leak into the pipeline), and gate-always gives up
// DWarn's advantage over STALL at high thread counts.
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace dwarn;
  using namespace dwarn::benchutil;

  const ResultSet results = ExperimentEngine().run(named_grid("ablation_dwarn_hybrid"));

  print_banner(std::cout, "Ablation: DWarn response-action variants (throughput)");
  print_ci_metric_table(std::cout, results, grid_workloads(results), grid_policies(results),
                        analysis::throughput_metric(), "throughput (IPC)");
  return write_bench_json("ablation_dwarn_hybrid", results) ? 0 : 1;
}
