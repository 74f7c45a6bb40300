// Named grid registry: the one place an experiment grid is defined.
//
// Every paper-figure bench, smt_analyze sweep, smt_shard plan/run,
// smt_orchestrate and the sharding tests expand their grids from here. A
// sharded run is only mergeable when every process expanded the identical
// grid, and a bench snapshot only matches its sharded counterpart when the
// bench ran that same grid — so a grid is defined once, by name, and the
// benches only render tables from its records.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "engine/run_spec.hpp"

namespace dwarn {

/// Options applied to a named grid. The workload/policy filters (names,
/// as printed in snapshots) only narrow the grid's own axes, keeping the
/// grid's order; empty means the whole axis.
struct GridOptions {
  std::size_t num_seeds = 1;
  std::vector<std::string> workloads;
  std::vector<std::string> policies;
};

/// Grid names the registry builds; a bench renders the grid of the same
/// name (fig1/fig3: bench_fig1_throughput/bench_fig3_hmean):
///   fig1                  baseline × 12 paper workloads × 6 policies
///   fig2_flushed          fig1's workloads under FLUSH
///   fig3                  fig1 plus single-thread solo baselines
///   fig4_small_arch       small machine × 2/4-thread workloads × 6 policies + solos
///   fig5_deep_arch        deep machine × 12 workloads × 6 policies + solos
///   table2a               every benchmark single-threaded under ICOUNT
///   table4_relative_ipc   4-MIX × 6 policies + solos
///   ablation_detect_delay 4 extra L1-miss detection delays × {4-MIX, 4-MEM,
///                         8-MEM} × {DWarn, DG}
///   ablation_dg_threshold MIX/MEM workloads × DG at 4 thresholds (tags "n=<n>")
///   ablation_dwarn_hybrid 12 workloads × the 3 DWarn response actions
///   ablation_l2_threshold 4 L2-miss declaration thresholds × 4 MIX/MEM
///                         workloads × {STALL, FLUSH, DWarn}
///   fig1_icache           fig1 on the I-cache-pressure machine (modeled 8K
///                         I-cache + small I-TLB, docs/instruction_side.md)
///   fig3_icache           fig1_icache plus solo baselines
///   ablation_icache_size  4 modeled I-cache capacities × fig1's grid
///   fixture               tiny 2×2 grid with a pinned short RunLength — the
///                         sharding round-trip fixture, immune to SMT_SIM_INSTS
///   fixture_icache        the fixture on a tiny modeled instruction side —
///                         the icache round-trip fixture
[[nodiscard]] const std::vector<std::string>& registered_grids();

[[nodiscard]] bool is_registered_grid(std::string_view name);

/// Build a registered grid. Aborts (DWARN_CHECK) on an unknown name —
/// CLIs validate with is_registered_grid first. Throws
/// std::invalid_argument when a filter names a workload or policy the
/// grid does not contain (a usage error, never a silently empty grid).
[[nodiscard]] RunGrid named_grid(std::string_view name, const GridOptions& opt = {});

}  // namespace dwarn
