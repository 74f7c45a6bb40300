// Metric arithmetic for the repository benchmark: order statistics, the
// paper-error score, per-run output checks and the simulated-counter
// totals the per-layer metrics are derived from. Everything here is a pure
// function of its inputs, so perfbench_selftest can pin it on hand-built
// data.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "engine/experiment_engine.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

/// Median with linear interpolation between the two middle values; 0 for
/// an empty sample.
[[nodiscard]] double median(std::vector<double> xs);

/// The tail percentile of a timing sample: the highest of
/// {99.9, 99, 95, 90, 75, 50} whose nearest rank leaves at least
/// kTailBeyond samples above it. A sample too small for even p50 to
/// qualify reports p50 with `beyond` < kTailBeyond.
inline constexpr std::size_t kTailBeyond = 10;
struct TailPercentile {
  double pct = 0.0;
  double value = 0.0;
  std::size_t n = 0;
  std::size_t beyond = 0;  ///< samples ranked above the percentile
};
[[nodiscard]] TailPercentile tail_percentile(std::vector<double> xs);

/// One paper reference delta: DWarn's improvement over `opponent` on
/// workload class `cls` ("ILP", "MIX", "MEM" or "avg" for all workloads).
struct PaperRef {
  std::string figure;
  std::string opponent;
  std::string cls;
  double ref_pct = 0.0;
};

/// Parse the committed reference table (CSV with a figure,opponent,class,
/// ref_pct header; '#' lines are comments). Throws std::runtime_error on a
/// missing file or malformed row.
[[nodiscard]] std::vector<PaperRef> load_paper_refs(const std::string& path);

/// DWarn's mean throughput improvement (%) over each opponent policy, per
/// workload class and overall ("avg"): opponent -> class -> mean. Every
/// grid DWarn run is paired with the same (machine, workload, tag, seed)
/// run of each opponent; per-pair deltas are pooled per class, which is
/// how the bench tables average classes (one seed) and pool seeds (many).
using DeltaTable = std::map<std::string, std::map<std::string, double>>;
[[nodiscard]] DeltaTable dwarn_deltas(const dwarn::ResultSet& rs);

/// Mean absolute gap, in percentage points, between `refs` and the
/// simulated deltas. Throws std::runtime_error when a reference has no
/// simulated counterpart.
[[nodiscard]] double paper_err_pp(const DeltaTable& sim, const std::vector<PaperRef>& refs);

/// Mean throughput of each policy's grid runs.
[[nodiscard]] std::map<std::string, double> policy_throughput(const dwarn::ResultSet& rs);

/// Output checks on one finished run; returns one message per failure
/// (empty when the run is sound): the measured window was committed
/// before the cycle cap, the thread IPCs sum to the throughput, and the
/// per-thread committed counters sum to the total.
[[nodiscard]] std::vector<std::string> check_record(const dwarn::RunRecord& rec,
                                                    const dwarn::RunLength& len);

/// FNV-1a 64-bit hash, rendered as 16 hex digits.
[[nodiscard]] std::string fnv1a_hex(std::string_view bytes);

/// Simulated-counter sums over every run of a result set.
struct CounterTotals {
  std::size_t runs = 0;
  std::map<std::string, std::uint64_t> sum;  ///< counter name -> total
  double iq_int_occ_sum = 0.0;               ///< sum of per-run IQ-int means

  [[nodiscard]] std::uint64_t operator[](const std::string& key) const;
  /// sum[num] / sum[den], 0 when the denominator is 0.
  [[nodiscard]] double ratio(const std::string& num, const std::string& den) const;
  /// Events of `key` per 1000 measured committed instructions.
  [[nodiscard]] double per_kinst(const std::string& key) const;
};
[[nodiscard]] CounterTotals counter_totals(const dwarn::ResultSet& rs);

/// Committed instructions of one run across both windows: the warm-up
/// target plus the measured commits (the warm-up loop stops at the first
/// cycle at or past its target, so this is exact to within a commit group).
[[nodiscard]] std::uint64_t run_insts(const dwarn::RunRecord& rec, const dwarn::RunLength& len);

}  // namespace perfbench
