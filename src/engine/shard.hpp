// Process-level sharding of experiment grids.
//
// A RunGrid expands to a deterministic run list, so a big sweep can be
// split across processes (or hosts) without any coordination: every
// worker expands the same grid, a ShardPlan assigns it a disjoint index
// slice, and each worker serializes its slice as a
// BENCH_<name>.shard<K>of<N>.json fragment. merge_shards (analysis side)
// reassembles the fragments into the canonical, index-stable snapshot —
// and a grid fingerprint recorded in every fragment lets the merge refuse
// mixed-up inputs (different seeds, windows or grids) instead of silently
// producing a plausible-looking file. The correctness contract: a merged
// sharded run is byte-identical to the single-process run of the same
// grid (wall_seconds aside, see ResultStore::set_zero_wall).
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "engine/run_spec.hpp"

namespace dwarn {

/// How a ShardPlan partitions grid indices.
///   Contiguous — balanced consecutive blocks (cache-friendly when
///                neighboring runs share traces);
///   Strided    — round-robin k, k+N, k+2N... (balances a grid whose
///                expensive runs cluster at one end).
enum class ShardStrategy : std::uint8_t { Contiguous, Strided };

[[nodiscard]] constexpr std::string_view to_string(ShardStrategy s) {
  return s == ShardStrategy::Contiguous ? "contiguous" : "strided";
}

/// Parse "contiguous" / "strided"; nullopt if unknown.
[[nodiscard]] std::optional<ShardStrategy> shard_strategy_from_name(std::string_view name);

/// Which shard this process is: 1-based K of N (matching the CLI's
/// `--shard K/N` and the fragment file names).
struct ShardSpec {
  std::size_t index = 1;  ///< 1-based
  std::size_t count = 1;

  friend bool operator==(const ShardSpec&, const ShardSpec&) = default;
};

/// Most shards a sweep can split into — the accept/reject boundary
/// shared by parse_shard, the fragment-header loader and the CLIs.
inline constexpr std::size_t kMaxShards = 65536;

/// Strict non-negative decimal parse ("8", never "8/2", "1e2", " 8" or
/// "+8"); nullopt on anything else or on values above `max`. The one
/// integer parser behind parse_shard and the CLIs' --shards/--seeds.
[[nodiscard]] std::optional<std::size_t> parse_decimal_size(std::string_view s,
                                                            std::size_t max);

/// Strict parse of "K/N": both parts plain decimal, 1 <= K <= N,
/// N <= 65536. Anything else (zero, negative, garbage, extra fields)
/// is nullopt — the CLIs refuse it as a usage error.
[[nodiscard]] std::optional<ShardSpec> parse_shard(std::string_view s);

/// Deterministic partition of `grid_size` run indices into `count`
/// disjoint, jointly exhaustive slices. The plan depends only on
/// (grid_size, count, strategy) — every process of a sharded sweep
/// computes the same one.
class ShardPlan {
 public:
  [[nodiscard]] static ShardPlan make(std::size_t grid_size, std::size_t count,
                                      ShardStrategy strategy = ShardStrategy::Contiguous);

  [[nodiscard]] std::size_t grid_size() const { return grid_size_; }
  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] ShardStrategy strategy() const { return strategy_; }

  /// Ascending 0-based global indices of 1-based shard `k`.
  [[nodiscard]] std::vector<std::size_t> indices(std::size_t k) const;

  /// indices(k).size() without materializing the list.
  [[nodiscard]] std::size_t size(std::size_t k) const;

 private:
  std::size_t grid_size_ = 0;
  std::size_t count_ = 1;
  ShardStrategy strategy_ = ShardStrategy::Contiguous;
};

/// FNV-1a hash (hex string) over the identity of every expanded run:
/// machine, workload, policy, tag, seed, role and the run windows. Two
/// processes agree on the fingerprint iff they expanded the same grid
/// with the same lengths — the merge-safety token recorded in every
/// fragment. PolicyParams values are not hashed; a parameter variant is
/// identified by its tag.
[[nodiscard]] std::string grid_fingerprint(const std::vector<RunSpec>& specs);

/// "BENCH_<bench>.shard<K>of<N>.json" (K 1-based).
[[nodiscard]] std::string shard_fragment_filename(std::string_view bench, std::size_t k,
                                                  std::size_t n);

/// Machine-readable plan (`smt_shard plan --json`): grid identity +
/// fingerprint plus one object per shard with its run count, 0-based
/// grid indices and fragment filename — the contract external schedulers
/// (and smt_orchestrate --dry-run) build dispatch decisions on.
[[nodiscard]] std::string shard_plan_json(std::string_view bench,
                                          std::string_view fingerprint,
                                          const ShardPlan& plan, std::size_t seeds);

/// The "shard" block of a fragment file (docs/sharding.md): which slice
/// this is, of what grid, and the 0-based global index of each run in
/// the fragment's "runs" array (positional).
struct ShardHeader {
  std::size_t index = 1;  ///< 1-based shard number
  std::size_t count = 1;
  std::size_t grid_size = 0;
  ShardStrategy strategy = ShardStrategy::Contiguous;
  std::string fingerprint;
  std::vector<std::size_t> indices;

  friend bool operator==(const ShardHeader&, const ShardHeader&) = default;
};

/// The canonical meta block every bench snapshot carries. Fragments must
/// record byte-identical meta to the unsharded writer (merge_shards
/// requires fragment metas to agree, and the merged file reuses them
/// verbatim), so both paths build the block here.
[[nodiscard]] std::map<std::string, std::string> bench_meta(std::string_view bench,
                                                            const RunLength& len);

/// Keep only the specs at `indices` (ascending grid order).
[[nodiscard]] std::vector<RunSpec> slice_specs(const std::vector<RunSpec>& specs,
                                               const std::vector<std::size_t>& indices);

/// Execute one shard of an expanded grid on the ExperimentEngine and
/// write the fragment file: runs the slice, stamps the ShardHeader
/// (fingerprint computed from the full expansion) and `meta`, serializes
/// to `path`, and prints the "[shard K/N ...]" status line on stdout.
/// Returns false (after a stderr warning) when the file cannot be
/// written.
[[nodiscard]] bool run_shard_to_file(const std::vector<RunSpec>& specs,
                                     const ShardSpec& shard, ShardStrategy strategy,
                                     const std::map<std::string, std::string>& meta,
                                     const std::string& path, bool zero_wall);

}  // namespace dwarn
