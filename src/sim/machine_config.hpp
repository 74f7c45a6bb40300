// Machine presets: the three architectures of the paper's evaluation.
// Presets read no environment, so a machine name fully determines its
// MachineConfig; variants (the I-cache-pressure machines, ablations) are
// named machines of the grid registry.
#pragma once

#include "bpred/frontend_predictor.hpp"
#include "core/core_config.hpp"
#include "mem/hierarchy.hpp"

namespace dwarn {

/// Complete description of one simulated machine.
struct MachineConfig {
  std::string name = "baseline";
  CoreConfig core{};
  MemoryConfig mem{};
  BpredConfig bpred{};
};

/// Paper Table 3: the 8-wide, 9-stage, ICOUNT2.8 baseline.
[[nodiscard]] MachineConfig baseline_machine(std::size_t num_threads);

/// Paper §6 first variant: 4-wide, 4-context, 1.4 fetch, 256+256 physical
/// registers, 3int/2fp/2ls functional units.
[[nodiscard]] MachineConfig small_machine(std::size_t num_threads);

/// Paper §6 second variant: 16-stage pipe, 2.8 fetch, 64-entry issue
/// queues, L1-miss detection +3 cycles, L1->L2 latency 15, memory 200.
[[nodiscard]] MachineConfig deep_machine(std::size_t num_threads);

}  // namespace dwarn
