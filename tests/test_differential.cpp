// Differential equivalence tests for the execution layers around the core.
//
// Worker count, sharding and the warm trace cache change how runs are
// scheduled and where their instructions come from, never what they
// simulate: over a mixed fig1/fig3-shaped mini-grid (baseline + deep
// machines, ILP and MEM workloads, low- and high-squash policies) and the
// fixture_icache grid, the serialized ResultStore JSON must be
// byte-identical to a 1-worker, trace-cache-off reference across worker
// counts {1, 4}, strided shards, and trace-cache on/off.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <regex>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "engine/experiment_engine.hpp"
#include "engine/grid_registry.hpp"
#include "engine/result_store.hpp"
#include "engine/shard.hpp"
#include "sim/workload.hpp"
#include "trace/trace_cache.hpp"

namespace dwarn {
namespace {

/// Scoped environment override, restored on destruction (tests in this
/// binary run sequentially, so no races).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (saved_) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

/// Mixed fig1/fig3 shape: both machine presets of those figures, one ILP
/// and one MEM workload, policies covering the no-squash, gating and
/// flush (recovery-heavy) paths, two seeds.
std::vector<RunSpec> mini_grid() {
  RunLength len;
  len.warmup_insts = 500;
  len.measure_insts = 2000;
  RunGrid grid;
  grid.machine(machine_spec("baseline"))
      .machine(machine_spec("deep"))
      .workload(workload_by_name("2-MIX"))
      .workload(workload_by_name("4-MEM"))
      .policy(PolicyKind::ICount)
      .policy(PolicyKind::DWarn)
      .policy(PolicyKind::Flush)
      .seed_count(2)
      .length(len);
  return grid.expand();
}

std::string snapshot_json(const ResultSet& rs) {
  ResultStore store;
  store.set_zero_wall(true);  // wall time is the one host-varying field
  store.add_all(rs);
  return store.to_json();
}

std::string run_grid(const std::vector<RunSpec>& specs, std::size_t workers) {
  ThreadPool pool(workers);
  return snapshot_json(ExperimentEngine(pool).run(specs));
}

/// The reference every case compares against: one worker, cache off.
std::string reference(const std::vector<RunSpec>& specs) {
  ScopedEnv cache("SMT_TRACE_CACHE", "0");
  return run_grid(specs, 1);
}

TEST(ExecutionDifferential, MatchesReferenceAcrossWorkerCounts) {
  ScopedEnv cache("SMT_TRACE_CACHE", "0");
  const std::vector<RunSpec> specs = mini_grid();
  EXPECT_EQ(run_grid(specs, 4), reference(specs));
}

TEST(ExecutionDifferential, MatchesReferenceWithWarmTraceCache) {
  const std::vector<RunSpec> specs = mini_grid();
  const std::string ref = reference(specs);
  ScopedEnv cache("SMT_TRACE_CACHE", "1");
  TraceCache::shared().clear();
  EXPECT_EQ(run_grid(specs, 1), ref);
  TraceCache::shared().clear();
  EXPECT_EQ(run_grid(specs, 4), ref);
}

TEST(ExecutionDifferential, MatchesReferenceUnderIcachePressure) {
  // The instruction side raises a policy-visible event (on_ifetch_stall)
  // inside the fetch stage; prove scheduling still cannot change the
  // machine under I-cache pressure. fixture_icache is the registry's
  // environment-immune icache grid (tiny I-cache + 2-entry I-TLB, pinned
  // windows).
  const std::vector<RunSpec> specs = named_grid("fixture_icache").expand();
  const std::string ref = reference(specs);
  {
    ScopedEnv cache("SMT_TRACE_CACHE", "0");
    EXPECT_EQ(run_grid(specs, 4), ref);
  }
  ScopedEnv cache("SMT_TRACE_CACHE", "1");
  TraceCache::shared().clear();
  EXPECT_EQ(run_grid(specs, 4), ref);
  // Sanity: the runs were under pressure. Every snapshot carries imem.*
  // keys, but only a machine with a walking I-TLB counts I-TLB misses.
  EXPECT_TRUE(std::regex_search(ref, std::regex(R"("imem\.demand_misses": [1-9])")));
  EXPECT_TRUE(std::regex_search(ref, std::regex(R"("imem\.itlb_misses": [1-9])")));
}

TEST(ExecutionDifferential, StridedShardsMatchReferenceRecords) {
  // Each strided shard, run on 4 workers, must reproduce exactly the
  // reference's records at the shard's grid indices.
  ScopedEnv cache("SMT_TRACE_CACHE", "0");
  const std::vector<RunSpec> specs = mini_grid();
  ThreadPool one(1);
  const ResultSet ref = ExperimentEngine(one).run(specs);
  const ShardPlan plan = ShardPlan::make(specs.size(), 2, ShardStrategy::Strided);
  for (std::size_t k = 1; k <= 2; ++k) {
    const std::vector<std::size_t> indices = plan.indices(k);
    std::vector<RunRecord> picked;
    for (const std::size_t i : indices) picked.push_back(ref.records()[i]);
    EXPECT_EQ(run_grid(slice_specs(specs, indices), 4),
              snapshot_json(ResultSet(std::move(picked))))
        << "shard " << k << "/2";
  }
}

}  // namespace
}  // namespace dwarn
