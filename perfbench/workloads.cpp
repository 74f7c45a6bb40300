#include "workloads.hpp"

#include <stdexcept>

#include "engine/grid_registry.hpp"

namespace perfbench {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fig1", "fig1_icache", "seeds_short"};
  return names;
}

Workload make_workload(std::string_view name, std::uint64_t seed) {
  Workload w;
  w.name = std::string(name);
  w.len = dwarn::RunLength{};  // the library defaults, never the environment
  if (name == "fig1" || name == "fig1_icache") {
    w.grid = w.name;
    w.seeds = {seed};
    w.paper_machine = name == "fig1";
  } else if (name == "seeds_short") {
    // CI's pinned windows over eight seeds disjoint from fig1's.
    w.grid = "fig3";
    for (std::uint64_t i = 1; i <= 8; ++i) w.seeds.push_back(seed + i);
    w.len.warmup_insts = 5000;
    w.len.measure_insts = 20000;
  } else {
    throw std::invalid_argument("unknown workload '" + w.name + "'");
  }
  w.spec = dwarn::named_grid(w.grid);
  w.spec.seeds(w.seeds).length(w.len);
  return w;
}

}  // namespace perfbench
