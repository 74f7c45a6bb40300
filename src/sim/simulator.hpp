// One complete simulated machine run.
//
// A Simulator owns everything a run needs — statistics, memory hierarchy,
// branch predictor, per-thread instruction streams, the SMT core and the
// fetch policy — wires them together, and executes a warm-up window
// followed by a measurement window (statistics reset between the two, so
// caches and predictors stay warm while counters start clean; the paper's
// SimPoint-segment methodology has the same intent).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "core/smt_core.hpp"
#include "policy/factory.hpp"
#include "sim/machine_config.hpp"
#include "sim/workload.hpp"

namespace dwarn {

namespace telem {
class CounterSampler;
}

/// Run-length controls. `from_env` honors:
///   SMT_BENCH_WINDOWS "<warmup>:<measure>" (or just "<measure>", warm-up
///                     defaulting to a quarter of it): both windows in one
///                     knob, so CI and sweep scripts set them once instead
///                     of repeating per-bench flag pairs
///   SMT_SIM_INSTS     measurement window, total committed instructions
///   SMT_WARMUP_INSTS  warm-up window, total committed instructions
/// The specific variables override the combined one field-by-field.
struct RunLength {
  std::uint64_t warmup_insts = 100'000;
  std::uint64_t measure_insts = 400'000;
  std::uint64_t max_cycles = 20'000'000;  ///< safety cap per window

  [[nodiscard]] static RunLength from_env();
};

/// Outcome of one run.
struct SimResult {
  std::string workload;
  std::string policy;
  std::string machine;
  std::uint64_t cycles = 0;
  std::vector<double> thread_ipc;  ///< committed IPC per context
  double throughput = 0.0;         ///< sum of thread IPCs
  double flushed_frac = 0.0;       ///< FLUSH-squashed / fetched
  /// Instruction-delivery pressure. fetch_stall_frac (I-stall cycles
  /// summed over threads / machine cycles; can exceed 1 with many stalled
  /// contexts) is meaningful on every run; the per-kinst rates are 0
  /// unless the modeled instruction side is enabled. The same values ride
  /// in `counters` as "imem.*_x1000" fixed-point entries — only when
  /// enabled, so default snapshots carry no new keys.
  double imiss_per_kinst = 0.0;      ///< demand L1I misses per 1000 committed
  double itlb_miss_per_kinst = 0.0;  ///< I-TLB walks per 1000 committed
  double fetch_stall_frac = 0.0;
  std::map<std::string, std::uint64_t> counters;  ///< full counter snapshot
};

/// A fully assembled machine + workload + policy.
class Simulator {
 public:
  /// `trace_insts_hint` is the expected per-thread instruction demand of
  /// the coming run (trace_window_insts of its RunLength). When it is
  /// nonzero and SMT_TRACE_CACHE is on, the per-thread streams replay
  /// shared MaterializedTrace buffers from TraceCache::shared() instead of
  /// regenerating; 0 (direct construction, demand unknown) keeps the
  /// on-demand generating path. Either way the instruction sequences — and
  /// therefore all results — are bit-identical.
  Simulator(const MachineConfig& machine, const WorkloadSpec& workload,
            PolicyKind policy, const PolicyParams& params = {},
            std::uint64_t seed = 1, std::uint64_t trace_insts_hint = 0);
  ~Simulator();  // out-of-line: CounterSampler is incomplete here

  /// Warm up, reset statistics, then measure. Returns the result summary.
  /// With SMT_TELEM=1 the core carries an interval CounterSampler whose
  /// series is restarted at the warm-up/measurement boundary; sampling
  /// reads counters only and never perturbs the simulated machine, so
  /// results are bit-identical with telemetry on or off.
  SimResult run(const RunLength& len);

  /// Advance `n` cycles without any window bookkeeping (test hook).
  void tick(std::uint64_t n = 1);

  [[nodiscard]] SmtCore& core() { return *core_; }
  [[nodiscard]] StatSet& stats() { return stats_; }
  [[nodiscard]] MemoryHierarchy& memory() { return *mem_; }
  [[nodiscard]] FetchPolicy& policy() { return *policy_; }
  [[nodiscard]] const WorkloadSpec& workload() const { return workload_; }
  /// The run's interval sampler; nullptr unless SMT_TELEM=1.
  [[nodiscard]] telem::CounterSampler* sampler() const { return sampler_.get(); }

 private:
  MachineConfig machine_;
  WorkloadSpec workload_;
  StatSet stats_;
  std::unique_ptr<MemoryHierarchy> mem_;
  std::unique_ptr<FrontEndPredictor> bpred_;
  std::vector<std::unique_ptr<InstStream>> streams_;
  std::vector<std::unique_ptr<WrongPathSupplier>> wrongpaths_;
  std::unique_ptr<SmtCore> core_;
  std::unique_ptr<telem::CounterSampler> sampler_;
  std::unique_ptr<FetchPolicy> policy_;
};

/// Per-thread stream seed of context `t` in `workload` under run seed
/// `seed`: replicated instances of a benchmark get independent seeds (the
/// paper shifts the second instance by 1M instructions instead). This is
/// the trace-cache key derivation — the Simulator and anything that
/// enumerates trace keys (perfbench/passes.cpp) must share it.
[[nodiscard]] std::uint64_t thread_stream_seed(const WorkloadSpec& workload,
                                               std::size_t t, std::uint64_t seed);

/// Upper bound on one thread's instruction demand for a run of `len`:
/// both windows plus in-flight slack (a thread can commit nearly every
/// instruction of a run when its co-runners stall). The capacity of
/// MaterializedTrace buffers, so warm-cache replays stay inside them;
/// only the part a run actually reads is generated.
[[nodiscard]] std::uint64_t trace_window_insts(const RunLength& len);

/// Convenience: build + run in one call (warm-cache aware: the trace
/// demand hint is derived from `len`).
[[nodiscard]] SimResult run_simulation(const MachineConfig& machine,
                                       const WorkloadSpec& workload, PolicyKind policy,
                                       const RunLength& len, const PolicyParams& params = {},
                                       std::uint64_t seed = 1);

/// A single-benchmark workload (for isolated-thread baselines, Table 2(a)
/// and the relative-IPC denominators).
[[nodiscard]] WorkloadSpec solo_workload(Benchmark b);

}  // namespace dwarn
