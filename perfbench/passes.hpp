// One execution of a workload, untraced or traced.
//
// The untraced pass is what a user of the repo pays: set up the grid and
// the worker pool, run it through ExperimentEngine::run, serialize the
// snapshot and summarize the seeds. The traced pass runs the
// same specs in ExperimentEngine::batch_order on a pool of the same width,
// but executes each run itself so it can time the calls into the trace
// cache and the Simulator; its records must equal the engine's.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/experiment_engine.hpp"
#include "spans.hpp"
#include "trace/trace_cache.hpp"
#include "workloads.hpp"

namespace perfbench {

/// The workload's zero-wall snapshot JSON: every record with its full
/// counter set, wall_seconds written as 0, so equal simulations give
/// equal bytes.
[[nodiscard]] std::string snapshot_json(const Workload& w, const dwarn::ResultSet& rs);

/// Zero-wall JSON of each record on its own, for record-by-record
/// comparison of two passes.
[[nodiscard]] std::vector<std::string> record_jsons(const Workload& w,
                                                    const dwarn::ResultSet& rs);

/// The analysis layer's seed summary: per-cell seed statistics and DWarn's
/// paired per-seed CIs against every other policy, as the bench tables
/// print them (a single-seed grid collapses each CI to its value).
void analysis_summary(const dwarn::ResultSet& rs);

struct UntracedPass {
  double setup_s = 0.0;      ///< grid build + expand + pool start
  double wall_s = 0.0;       ///< engine run + serialization + analysis
  double serialize_s = 0.0;
  double analysis_s = 0.0;
  dwarn::ResultSet rs;
  std::string snapshot;      ///< snapshot_json of rs
  dwarn::TraceCacheStats cache;  ///< trace-cache traffic of this pass alone
};

/// Run `workload` once through the engine on a fresh `workers`-wide pool,
/// starting from an empty trace cache.
[[nodiscard]] UntracedPass run_untraced(const std::string& workload, std::uint64_t seed,
                                        std::size_t workers);

/// Time grid build + expand + pool start alone (the set-up part of a pass).
[[nodiscard]] double time_setup(const std::string& workload, std::uint64_t seed,
                                std::size_t workers);

struct TracedPass {
  double wall_s = 0.0;  ///< same composition as UntracedPass::wall_s
  dwarn::ResultSet rs;
  std::string snapshot;
  std::uint64_t warmup_cycles = 0;  ///< summed over runs
  std::vector<std::string> failures;  ///< warm-up windows cut by the cycle cap
};

/// Run `workload` once with spans recorded into `log`, starting from an
/// empty trace cache.
[[nodiscard]] TracedPass run_traced(const std::string& workload, std::uint64_t seed,
                                    std::size_t workers, SpanLog& log);

}  // namespace perfbench
