// Reproduces paper Figure 2: instructions squashed by the FLUSH policy as
// a percentage of all fetched instructions, per workload and per-type
// average. The paper reports ~7% (ILP), ~2% (MIX averages lower than ILP
// in their chart) and ~35% (MEM): FLUSH's MEM throughput win is paid for
// in re-fetched instructions.
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace dwarn;
  using namespace dwarn::benchutil;

  const ResultSet results = ExperimentEngine().run(named_grid("fig2_flushed"));

  print_banner(std::cout, "Figure 2: flushed instructions w.r.t. fetched (FLUSH policy)");
  ReportTable table({"workload", "flushed %", "flush events", "fetched"});
  std::map<WorkloadType, std::vector<double>> by_type;
  for (const auto& w : grid_workloads(results)) {
    const SimResult& r = results.get(w.name, "FLUSH");
    const double pct = r.flushed_frac * 100.0;
    by_type[w.type].push_back(pct);
    table.add_row({w.name, fmt(pct, 1),
                   std::to_string(r.counters.at("core.flush_events")),
                   std::to_string(r.counters.at("core.fetched"))});
  }
  for (const WorkloadType t : {WorkloadType::ILP, WorkloadType::MIX, WorkloadType::MEM}) {
    table.add_row({"avg-" + std::string(to_string(t)), fmt(amean(by_type[t]), 1), "", ""});
  }
  table.print(std::cout);
  std::cout << "\npaper reference (avg): ILP ~7%, MIX ~2%, MEM ~35%\n";
  return write_bench_json("fig2_flushed", results) ? 0 : 1;
}
