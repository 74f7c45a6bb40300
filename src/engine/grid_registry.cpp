#include "engine/grid_registry.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/check.hpp"
#include "sim/machine_config.hpp"
#include "sim/simulator.hpp"
#include "sim/workload.hpp"
#include "trace/benchmark_profile.hpp"

namespace dwarn {

namespace {

/// Keep the entries of a grid's own axis that `filter` names (all of them
/// when the filter is empty), in the axis' order. A filter value the axis
/// lacks throws std::invalid_argument listing the axis' values.
template <class T, class NameOf>
std::vector<T> narrow(std::vector<T> own, const std::vector<std::string>& filter,
                      std::string_view grid, std::string_view axis, NameOf name_of) {
  for (const std::string& f : filter) {
    if (std::none_of(own.begin(), own.end(), [&](const T& x) { return name_of(x) == f; })) {
      std::string names;
      for (const T& x : own) names += (names.empty() ? "" : ", ") + std::string(name_of(x));
      throw std::invalid_argument("grid '" + std::string(grid) + "' has no " +
                                  std::string(axis) + " '" + f + "' (it has " + names + ")");
    }
  }
  if (!filter.empty()) {
    std::erase_if(own, [&](const T& x) {
      return std::find(filter.begin(), filter.end(), name_of(x)) == filter.end();
    });
  }
  return own;
}

/// Builds a grid from its own axes, narrowed by the GridOptions filters.
struct Axes {
  const GridOptions& opt;
  std::string_view name;

  [[nodiscard]] RunGrid cross(std::vector<MachineSpec> machines,
                              std::vector<WorkloadSpec> workloads,
                              std::vector<PolicyKind> policies) const {
    RunGrid grid;
    grid.machines(std::move(machines))
        .workloads(narrow(std::move(workloads), opt.workloads, name, "workload",
                          [](const WorkloadSpec& w) { return std::string_view(w.name); }))
        .policies(narrow(std::move(policies), opt.policies, name, "policy",
                         [](PolicyKind p) { return policy_name(p); }));
    return grid;
  }
};

std::vector<MachineSpec> preset(std::string_view name) { return {machine_spec(name)}; }

std::vector<PolicyKind> paper_policies() {
  return {kPaperPolicies.begin(), kPaperPolicies.end()};
}

std::vector<WorkloadSpec> named_workloads(std::initializer_list<std::string_view> names) {
  std::vector<WorkloadSpec> out;
  for (const std::string_view n : names) out.push_back(workload_by_name(n));
  return out;
}

/// A baseline machine with a pressured instruction side: a 2-way,
/// 64B-line, 1-cycle I-cache of `kb` KiB with next-line fetch-ahead, and
/// `itlb`. Every imem field is set explicitly, so the machine's name
/// spells out its whole instruction side.
MachineSpec imem_machine(std::string name, std::uint64_t kb, std::size_t mshrs,
                         ITlbConfig itlb) {
  return machine_variant(std::move(name), [=](std::size_t n) {
    MachineConfig m = baseline_machine(n);
    m.mem.icache = ICacheConfig{.size_bytes = kb * 1024, .assoc = 2, .line_bytes = 64,
                                .hit_latency = 1, .prefetch_depth = 1, .mshrs = mshrs};
    m.mem.itlb = itlb;
    return m;
  });
}

/// The I-cache-pressure machine "baseline+icache<kb>k": 8 MSHRs and an
/// 8-entry 2-way I-TLB with 40-cycle walks.
std::vector<MachineSpec> icache_machines(std::initializer_list<std::uint64_t> kbs) {
  std::vector<MachineSpec> out;
  for (const std::uint64_t kb : kbs) {
    out.push_back(imem_machine("baseline+icache" + std::to_string(kb) + "k", kb, 8,
                               ITlbConfig{.name = "itlb", .entries = 8, .assoc = 2,
                                          .page_bytes = 4096, .walk_cycles = 40}));
  }
  return out;
}

/// The pinned windows of the fixture grids: small enough for a ctest to
/// run them several times, and environment-immune so every process —
/// whatever its SMT_SIM_INSTS — expands a grid with the same fingerprint.
RunLength fixture_length() {
  RunLength len;
  len.warmup_insts = 500;
  len.measure_insts = 2000;
  return len;
}

struct GridEntry {
  std::string_view name;
  RunGrid (*build)(const Axes&);
};

// The one name -> builder table: registered_grids() lists it and
// named_grid() dispatches through it, so the two cannot disagree.
const GridEntry kGrids[] = {
    {"fig1",
     [](const Axes& ax) {
       return ax.cross(preset("baseline"), paper_workloads(), paper_policies());
     }},
    {"fig2_flushed",
     [](const Axes& ax) {
       return ax.cross(preset("baseline"), paper_workloads(), {PolicyKind::Flush});
     }},
    {"fig3",
     [](const Axes& ax) {
       return ax.cross(preset("baseline"), paper_workloads(), paper_policies())
           .with_solo_baselines();
     }},
    {"fig4_small_arch",
     [](const Axes& ax) {
       return ax.cross(preset("small"), small_machine_workloads(), paper_policies())
           .with_solo_baselines();
     }},
    {"fig5_deep_arch",
     [](const Axes& ax) {
       return ax.cross(preset("deep"), paper_workloads(), paper_policies())
           .with_solo_baselines();
     }},
    {"table2a",
     [](const Axes& ax) {
       std::vector<WorkloadSpec> solos;
       for (const BenchmarkProfile& p : all_profiles()) solos.push_back(solo_workload(p.id));
       return ax.cross(preset("baseline"), std::move(solos), {PolicyKind::ICount});
     }},
    {"table4_relative_ipc",
     [](const Axes& ax) {
       return ax.cross(preset("baseline"), named_workloads({"4-MIX"}), paper_policies())
           .with_solo_baselines();
     }},
    {"ablation_detect_delay",
     [](const Axes& ax) {
       // Extra L1-miss detection delay as machine variants "baseline+<d>cy".
       std::vector<MachineSpec> machines;
       for (const Cycle d : {0, 3, 10, 25}) {
         machines.push_back(
             machine_variant("baseline+" + std::to_string(d) + "cy", [d](std::size_t n) {
               MachineConfig m = baseline_machine(n);
               m.core.l1_detect_extra = d;
               return m;
             }));
       }
       return ax.cross(std::move(machines), named_workloads({"4-MIX", "4-MEM", "8-MEM"}),
                       {PolicyKind::DWarn, PolicyKind::DG});
     }},
    {"ablation_dg_threshold",
     [](const Axes& ax) {
       // DG's outstanding-miss threshold n is a policy parameter: one
       // tagged variant "n=<n>" per value.
       std::vector<WorkloadSpec> workloads;
       for (const WorkloadSpec& w : paper_workloads()) {
         if (w.type != WorkloadType::ILP) workloads.push_back(w);
       }
       RunGrid grid = ax.cross(preset("baseline"), std::move(workloads), {PolicyKind::DG});
       for (const unsigned n : {0u, 1u, 2u, 4u}) {
         PolicyParams params{};
         params.dg_threshold = n;
         grid.param_variant("n=" + std::to_string(n), params);
       }
       return grid;
     }},
    {"ablation_dwarn_hybrid",
     [](const Axes& ax) {
       return ax.cross(preset("baseline"), paper_workloads(),
                       {PolicyKind::DWarnBasic, PolicyKind::DWarn, PolicyKind::DWarnGateAlways});
     }},
    {"ablation_l2_threshold",
     [](const Axes& ax) {
       // The L2-miss declaration threshold as machine variants
       // "baseline,T=<t>".
       std::vector<MachineSpec> machines;
       for (const Cycle t : {12, 15, 25, 60}) {
         machines.push_back(
             machine_variant("baseline,T=" + std::to_string(t), [t](std::size_t n) {
               MachineConfig m = baseline_machine(n);
               m.mem.l2_declare_threshold = t;
               return m;
             }));
       }
       return ax.cross(std::move(machines),
                       named_workloads({"2-MEM", "4-MIX", "4-MEM", "8-MEM"}),
                       {PolicyKind::Stall, PolicyKind::Flush, PolicyKind::DWarn});
     }},
    // The paper's evaluation under instruction-delivery pressure it never
    // ran: an 8K I-cache (1/8 of the presets' 64K L1I) with a small
    // I-TLB, so the fetch policies compete for a front end that can
    // actually starve.
    {"fig1_icache",
     [](const Axes& ax) {
       return ax.cross(icache_machines({8}), paper_workloads(), paper_policies());
     }},
    {"fig3_icache",
     [](const Axes& ax) {
       return ax.cross(icache_machines({8}), paper_workloads(), paper_policies())
           .with_solo_baselines();
     }},
    // 4K starves an 8-wide front end outright; 32K nearly covers the
    // largest synthetic text segment (128K with next-line fetch-ahead).
    {"ablation_icache_size",
     [](const Axes& ax) {
       return ax.cross(icache_machines({4, 8, 16, 32}), paper_workloads(), paper_policies());
     }},
    // The sharding correctness fixture.
    {"fixture",
     [](const Axes& ax) {
       return ax.cross(preset("baseline"), named_workloads({"2-MIX", "2-MEM"}),
                       {PolicyKind::ICount, PolicyKind::DWarn})
           .length(fixture_length());
     }},
    // The icache round-trip fixture: the fixture grid's shape and pinned
    // RunLength on a deliberately tiny instruction side, so a 2.5K-inst
    // ctest run still produces nonzero miss/walk/prefetch counters.
    {"fixture_icache",
     [](const Axes& ax) {
       std::vector<MachineSpec> machines{
           imem_machine("baseline+icachefix", 4, 4,
                        ITlbConfig{.name = "itlb", .entries = 2, .assoc = 1,
                                   .page_bytes = 4096, .walk_cycles = 24})};
       return ax.cross(std::move(machines), named_workloads({"2-MIX", "2-MEM"}),
                       {PolicyKind::ICount, PolicyKind::DWarn})
           .length(fixture_length());
     }},
};

const GridEntry* find_grid(std::string_view name) {
  const auto it = std::find_if(std::begin(kGrids), std::end(kGrids),
                               [&](const GridEntry& e) { return e.name == name; });
  return it == std::end(kGrids) ? nullptr : &*it;
}

}  // namespace

const std::vector<std::string>& registered_grids() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const GridEntry& e : kGrids) out.emplace_back(e.name);
    return out;
  }();
  return names;
}

bool is_registered_grid(std::string_view name) { return find_grid(name) != nullptr; }

RunGrid named_grid(std::string_view name, const GridOptions& opt) {
  const GridEntry* entry = find_grid(name);
  DWARN_CHECK(entry != nullptr && "unknown grid name (see registered_grids)");
  RunGrid grid = entry->build(Axes{opt, name});
  if (opt.num_seeds > 1) grid.seed_count(opt.num_seeds);
  return grid;
}

}  // namespace dwarn
