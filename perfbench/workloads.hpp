// The benchmark's workloads: registered grids with their seeds and
// windows pinned, so the environment cannot change what is measured.
// perfbench/GLOSSARY.md records why each one was chosen.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "engine/run_spec.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  std::string grid;        ///< registered grid name
  dwarn::RunGrid spec;     ///< the grid, seeds and windows set
  dwarn::RunLength len;
  std::vector<std::uint64_t> seeds;
  bool paper_machine = true;  ///< runs the paper's baseline machine
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Build workload `name` around base seed `seed`. Throws
/// std::invalid_argument on an unknown name.
[[nodiscard]] Workload make_workload(std::string_view name, std::uint64_t seed);

}  // namespace perfbench
