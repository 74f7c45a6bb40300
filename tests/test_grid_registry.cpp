// Unit tests: the named grid registry — every registered name builds a
// distinct non-empty grid, the paper subsets keep their pinned shapes, and
// GridOptions filters only ever narrow a grid's own axes.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "engine/grid_registry.hpp"
#include "engine/run_spec.hpp"
#include "engine/shard.hpp"

namespace dwarn {
namespace {

using Identity = std::tuple<std::string, std::string, std::string, std::string,
                            std::uint64_t, RunRole>;

Identity identity(const RunSpec& s) {
  return {s.machine.name, s.workload.name, std::string(policy_name(s.policy)), s.tag,
          s.seed, s.role};
}

std::set<Identity> identities(const std::vector<RunSpec>& specs) {
  std::set<Identity> out;
  for (const RunSpec& s : specs) out.insert(identity(s));
  return out;
}

TEST(GridRegistry, EveryNameExpandsToADistinctNonEmptyGrid) {
  const std::vector<std::string>& names = registered_grids();
  EXPECT_EQ(names.size(), 16u);
  std::set<std::string> fingerprints;
  for (const std::string& name : names) {
    EXPECT_TRUE(is_registered_grid(name)) << name;
    const std::vector<RunSpec> specs = named_grid(name).expand();
    EXPECT_FALSE(specs.empty()) << name;
    EXPECT_TRUE(fingerprints.insert(grid_fingerprint(specs)).second)
        << name << " shares its fingerprint with another grid";
  }
  EXPECT_FALSE(is_registered_grid("fig1_throughput"));
  EXPECT_FALSE(is_registered_grid(""));
}

TEST(GridRegistry, EveryMachineOfEveryGridConstructs) {
  // Caches, TLBs and I-TLBs index with shifts and masks and abort on a
  // geometry that is not a power of two; no registered machine may hit
  // that. One Simulator per distinct (machine, thread count) builds the
  // whole machine: hierarchy, modeled instruction side and core.
  std::set<std::pair<std::string, std::size_t>> built;
  for (const std::string& name : registered_grids()) {
    for (const RunSpec& s : named_grid(name).expand()) {
      const std::size_t threads = s.workload.num_threads();
      if (!built.insert({s.machine.name, threads}).second) continue;
      Simulator sim(s.machine.build(threads), s.workload, s.policy, s.params, s.seed);
      sim.tick(1000);
      EXPECT_TRUE(sim.core().check_invariants()) << name << ": " << s.machine.name;
    }
  }
  EXPECT_GE(built.size(), 20u);
}

TEST(GridRegistry, DetectDelayIsThePaperSubset) {
  const std::vector<RunSpec> specs = named_grid("ablation_detect_delay").expand();
  ASSERT_EQ(specs.size(), 24u);  // 4 delays x 3 workloads x 2 policies
  std::set<std::string> machines, workloads, policies;
  for (const RunSpec& s : specs) {
    machines.insert(s.machine.name);
    workloads.insert(s.workload.name);
    policies.insert(std::string(policy_name(s.policy)));
  }
  EXPECT_EQ(machines, (std::set<std::string>{"baseline+0cy", "baseline+3cy",
                                             "baseline+10cy", "baseline+25cy"}));
  EXPECT_EQ(workloads, (std::set<std::string>{"4-MIX", "4-MEM", "8-MEM"}));
  EXPECT_EQ(policies, (std::set<std::string>{"DWarn", "DG"}));
}

TEST(GridRegistry, FiltersNarrowEveryGridAndNeverWiden) {
  for (const std::string& name : registered_grids()) {
    const std::vector<RunSpec> full = named_grid(name).expand();
    const std::set<Identity> all = identities(full);
    const RunSpec& first = full.front();
    const std::string workload = first.workload.name;
    const std::string policy(policy_name(first.policy));

    const std::vector<RunSpec> narrowed =
        named_grid(name, GridOptions{.workloads = {workload}, .policies = {policy}}).expand();
    ASSERT_FALSE(narrowed.empty()) << name;
    EXPECT_LE(narrowed.size(), full.size()) << name;
    for (const RunSpec& s : narrowed) {
      EXPECT_TRUE(all.count(identity(s)) == 1) << name << ": filter added a run";
      if (s.role == RunRole::Grid) {
        EXPECT_EQ(s.workload.name, workload) << name;
        EXPECT_EQ(policy_name(s.policy), policy) << name;
      }
    }
  }
}

TEST(GridRegistry, FiltersKeepTheGridsOrder) {
  const std::vector<RunSpec> specs =
      named_grid("fig1", GridOptions{.workloads = {"4-MEM", "2-ILP"},
                                     .policies = {"DWarn", "ICOUNT"}})
          .expand();
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].workload.name, "2-ILP");
  EXPECT_EQ(specs[0].policy, PolicyKind::ICount);
  EXPECT_EQ(specs[1].policy, PolicyKind::DWarn);
  EXPECT_EQ(specs[3].workload.name, "4-MEM");
}

TEST(GridRegistry, FilterValuesOutsideTheGridAreRejected) {
  // A paper workload the small machine's grid does not run, a policy
  // FLUSH-only fig2 lacks, and names no grid has: each is an error, not a
  // silently widened or empty grid.
  EXPECT_THROW((void)named_grid("fig4_small_arch", GridOptions{.workloads = {"8-MEM"}}),
               std::invalid_argument);
  EXPECT_THROW((void)named_grid("fig2_flushed", GridOptions{.policies = {"DWarn"}}),
               std::invalid_argument);
  EXPECT_THROW((void)named_grid("ablation_detect_delay", GridOptions{.workloads = {"2-ILP"}}),
               std::invalid_argument);
  EXPECT_THROW((void)named_grid("fig1", GridOptions{.workloads = {"2-MIX", "9-MIX"}}),
               std::invalid_argument);
  EXPECT_THROW((void)named_grid("fig1", GridOptions{.policies = {"icount"}}),
               std::invalid_argument);
  try {
    (void)named_grid("fig4_small_arch", GridOptions{.workloads = {"8-MEM"}});
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("8-MEM"), std::string::npos) << what;
    EXPECT_NE(what.find("4-MIX"), std::string::npos) << "message should list the grid's own values";
  }
}

TEST(GridRegistry, SeedsReplicateTheGrid) {
  const std::size_t one = named_grid("table4_relative_ipc").expand().size();
  EXPECT_EQ(named_grid("table4_relative_ipc", GridOptions{.num_seeds = 3}).expand().size(),
            3 * one);
}

}  // namespace
}  // namespace dwarn
