// Reproduces paper Table 2(a): cache behavior of isolated benchmarks.
//
// Runs every SPECint2000 profile single-threaded on the baseline machine
// and reports the L1 and L2 data miss rates as percentages of dynamic
// loads, the L1->L2 ratio, the class (MEM when L2 miss rate > 1%), plus
// our measured single-thread IPC and branch-prediction accuracy. The
// "paper" columns carry the reference values the synthetic streams are
// calibrated against.
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace dwarn;
  using namespace dwarn::benchutil;

  print_banner(std::cout, "Table 2(a): cache behavior of isolated benchmarks");
  std::cout << "(miss rates are % of dynamic loads; paper reference in brackets)\n";

  ReportTable table({"bench", "L1 miss%", "[paper]", "L2 miss%", "[paper]", "L1->L2%",
                     "[paper]", "type", "IPC", "bpred acc%"});

  // One single-threaded run per benchmark: each record's workload names
  // the profile it measured.
  const ResultSet results = ExperimentEngine().run(named_grid("table2a"));
  for (const RunRecord& rec : results.records()) {
    const BenchmarkProfile& p = profile_of(rec.workload.benchmarks.front());
    const SimResult& r = rec.result;
    const auto loads = static_cast<double>(r.counters.at("core.cloads"));
    const auto l1m = static_cast<double>(r.counters.at("core.cload_l1_misses"));
    const auto l2m = static_cast<double>(r.counters.at("core.cload_l2_misses"));
    const double l1_pct = loads > 0 ? 100.0 * l1m / loads : 0.0;
    const double l2_pct = loads > 0 ? 100.0 * l2m / loads : 0.0;
    const double ratio = l1m > 0 ? 100.0 * l2m / l1m : 0.0;
    const Table2aRow ref = table2a_reference(p.id);
    const double ref_ratio = ref.l1_miss_pct > 0 ? 100.0 * ref.l2_miss_pct / ref.l1_miss_pct : 0.0;
    const auto lookups = static_cast<double>(r.counters.at("bpred.lookups"));
    const auto mispred = static_cast<double>(r.counters.at("bpred.mispredicts"));
    const double acc = lookups > 0 ? 100.0 * (1.0 - mispred / lookups) : 0.0;
    table.add_row({std::string(p.name), fmt(l1_pct, 1), fmt(ref.l1_miss_pct, 1),
                   fmt(l2_pct, 1), fmt(ref.l2_miss_pct, 1), fmt(ratio, 1),
                   fmt(ref_ratio, 1), p.is_mem ? "MEM" : "ILP", fmt(r.throughput, 2),
                   fmt(acc, 1)});
  }
  table.print(std::cout);
  return write_bench_json("table2a", results) ? 0 : 1;
}
