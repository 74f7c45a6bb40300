#include "sim/machine_config.hpp"

namespace dwarn {

MachineConfig baseline_machine(std::size_t num_threads) {
  MachineConfig m;
  m.name = "baseline";
  m.core.num_threads = num_threads;
  // All other CoreConfig/MemoryConfig/BpredConfig defaults already encode
  // Table 3; keeping them there makes the defaults self-documenting.
  return m;
}

MachineConfig small_machine(std::size_t num_threads) {
  MachineConfig m;
  m.name = "small";
  m.core.num_threads = num_threads;
  m.core.fetch_threads = 1;  // 1.4 fetch mechanism
  m.core.fetch_width = 4;
  m.core.rename_width = 4;
  m.core.issue_width = 4;
  m.core.commit_width = 4;
  m.core.fu_count = {3, 2, 2};
  m.core.pregs_int = 256;
  m.core.pregs_fp = 256;
  return m;
}

MachineConfig deep_machine(std::size_t num_threads) {
  MachineConfig m;
  m.name = "deep";
  m.core.num_threads = num_threads;
  m.core.frontend_depth = 11;  // 16-stage pipeline
  m.core.frontend_buffer = 96;  // 11 stages x 8-wide fetch, plus slack
  m.core.iq_capacity = {64, 64, 64};
  m.core.l1_detect_extra = 3;
  m.mem.l2_latency = 15;
  m.mem.mem_latency = 200;
  return m;
}

}  // namespace dwarn
