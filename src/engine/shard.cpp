#include "engine/shard.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>

#include "common/check.hpp"
#include "engine/experiment_engine.hpp"
#include "engine/result_store.hpp"
#include "telemetry/phase_trace.hpp"
#include "telemetry/progress.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/trace_cache.hpp"

namespace dwarn {

std::optional<ShardStrategy> shard_strategy_from_name(std::string_view name) {
  if (name == "contiguous") return ShardStrategy::Contiguous;
  if (name == "strided") return ShardStrategy::Strided;
  return std::nullopt;
}

std::optional<std::size_t> parse_decimal_size(std::string_view s, std::size_t max) {
  // 15 digits cannot overflow 64 bits, and no in-range value needs more.
  if (s.empty() || s.size() > 15) return std::nullopt;
  std::size_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    v = v * 10 + static_cast<std::size_t>(c - '0');
  }
  return v <= max ? std::optional<std::size_t>(v) : std::nullopt;
}

std::optional<ShardSpec> parse_shard(std::string_view s) {
  const std::size_t slash = s.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  const auto k = parse_decimal_size(s.substr(0, slash), kMaxShards);
  const auto n = parse_decimal_size(s.substr(slash + 1), kMaxShards);
  if (!k || !n) return std::nullopt;
  if (*k < 1 || *n < 1 || *k > *n) return std::nullopt;
  return ShardSpec{*k, *n};
}

ShardPlan ShardPlan::make(std::size_t grid_size, std::size_t count,
                          ShardStrategy strategy) {
  DWARN_CHECK(count >= 1);
  ShardPlan plan;
  plan.grid_size_ = grid_size;
  plan.count_ = count;
  plan.strategy_ = strategy;
  return plan;
}

std::size_t ShardPlan::size(std::size_t k) const {
  DWARN_CHECK(k >= 1 && k <= count_);
  // Both strategies hand shard k one extra run while the remainder lasts.
  const std::size_t base = grid_size_ / count_;
  const std::size_t rem = grid_size_ % count_;
  return base + (k - 1 < rem ? 1 : 0);
}

std::vector<std::size_t> ShardPlan::indices(std::size_t k) const {
  DWARN_CHECK(k >= 1 && k <= count_);
  std::vector<std::size_t> out;
  out.reserve(size(k));
  if (strategy_ == ShardStrategy::Contiguous) {
    const std::size_t base = grid_size_ / count_;
    const std::size_t rem = grid_size_ % count_;
    const std::size_t begin = (k - 1) * base + std::min(k - 1, rem);
    for (std::size_t i = begin; i < begin + size(k); ++i) out.push_back(i);
  } else {
    for (std::size_t i = k - 1; i < grid_size_; i += count_) out.push_back(i);
  }
  return out;
}

namespace {

/// 64-bit FNV-1a, streamed field-by-field with a separator so that
/// ("ab","c") and ("a","bc") hash differently.
class Fnv1a {
 public:
  void feed(std::string_view s) {
    for (const char c : s) feed_byte(static_cast<unsigned char>(c));
    feed_byte(0x1f);  // field separator
  }
  void feed(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) feed_byte(static_cast<unsigned char>(v >> (8 * i)));
    feed_byte(0x1f);
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void feed_byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace

std::string grid_fingerprint(const std::vector<RunSpec>& specs) {
  Fnv1a h;
  h.feed(static_cast<std::uint64_t>(specs.size()));
  for (const RunSpec& s : specs) {
    h.feed(s.machine.name);
    h.feed(s.workload.name);
    h.feed(policy_name(s.policy));
    h.feed(s.tag);
    h.feed(s.seed);
    h.feed(to_string(s.role));
    h.feed(s.len.warmup_insts);
    h.feed(s.len.measure_insts);
    h.feed(s.len.max_cycles);
  }
  return h.hex();
}

std::string shard_fragment_filename(std::string_view bench, std::size_t k,
                                    std::size_t n) {
  return "BENCH_" + std::string(bench) + ".shard" + std::to_string(k) + "of" +
         std::to_string(n) + ".json";
}

std::string shard_plan_json(std::string_view bench, std::string_view fingerprint,
                            const ShardPlan& plan, std::size_t seeds) {
  std::string out = "{\n";
  out += "  \"grid\": \"" + json_escape(bench) + "\",\n";
  out += "  \"grid_size\": " + std::to_string(plan.grid_size()) + ",\n";
  out += "  \"fingerprint\": \"" + json_escape(fingerprint) + "\",\n";
  out += "  \"count\": " + std::to_string(plan.count()) + ",\n";
  out += "  \"strategy\": \"" + std::string(to_string(plan.strategy())) + "\",\n";
  out += "  \"seeds\": " + std::to_string(seeds) + ",\n";
  out += "  \"shards\": [";
  for (std::size_t k = 1; k <= plan.count(); ++k) {
    const std::vector<std::size_t> idx = plan.indices(k);
    out += k == 1 ? "" : ",";
    out += "\n    {\"index\": " + std::to_string(k) +
           ", \"runs\": " + std::to_string(idx.size()) + ", \"fragment\": \"" +
           shard_fragment_filename(bench, k, plan.count()) + "\",\n     \"indices\": [";
    for (std::size_t i = 0; i < idx.size(); ++i) {
      out += (i == 0 ? "" : ", ") + std::to_string(idx[i]);
    }
    out += "]}";
  }
  out += "\n  ]\n}\n";
  return out;
}

std::map<std::string, std::string> bench_meta(std::string_view bench,
                                              const RunLength& len) {
  return {
      {"bench", std::string(bench)},
      {"schema", "1"},
      {"measure_insts", std::to_string(len.measure_insts)},
      {"warmup_insts", std::to_string(len.warmup_insts)},
  };
}

std::vector<RunSpec> slice_specs(const std::vector<RunSpec>& specs,
                                 const std::vector<std::size_t>& indices) {
  std::vector<RunSpec> out;
  out.reserve(indices.size());
  for (const std::size_t i : indices) {
    DWARN_CHECK(i < specs.size());
    out.push_back(specs[i]);
  }
  return out;
}

bool run_shard_to_file(const std::vector<RunSpec>& specs, const ShardSpec& shard,
                       ShardStrategy strategy,
                       const std::map<std::string, std::string>& meta,
                       const std::string& path, bool zero_wall) {
  const ShardPlan plan = ShardPlan::make(specs.size(), shard.count, strategy);
  ShardHeader header;
  header.index = shard.index;
  header.count = shard.count;
  header.grid_size = specs.size();
  header.strategy = strategy;
  header.fingerprint = grid_fingerprint(specs);
  header.indices = plan.indices(shard.index);

  // Streaming status plane: with telemetry on, this worker appends
  // progress events next to its fragment. The file is append-mode, so a
  // retried attempt adds a second "start" (attempt count = start count).
  telem::ProgressWriter progress;
  if (telem::telemetry_enabled()) {
    const auto it = meta.find("bench");
    const std::string bench = it != meta.end() ? it->second : "shard";
    const std::filesystem::path dir = std::filesystem::path(path).parent_path();
    progress.open(
        (dir / telem::progress_filename(bench, shard.index, shard.count)).string());
    progress.event_start(shard.index, shard.count, header.indices.size());
  }
  ExperimentEngine engine;
  std::uint64_t insts = 0;
  if (progress.is_open()) {
    engine.set_observer([&](std::size_t done, std::size_t total, const RunRecord& rec) {
      const auto it = rec.result.counters.find("core.committed");
      if (it != rec.result.counters.end()) insts += it->second;
      progress.event_run(done, total, insts);
    });
  }
  const ResultSet rs = engine.run(slice_specs(specs, header.indices));

  ResultStore store;
  for (const auto& [k, v] : meta) store.set_meta(k, v);
  // SMT_TRACE_CACHE_STATS=1: record this worker's cache traffic in the
  // fragment; merge_shards sums the trace_cache.* keys across fragments
  // so the merged snapshot reports whole-sweep cache effectiveness.
  for (const auto& [k, v] : trace_cache_stats_meta_if_enabled()) store.set_meta(k, v);
  store.set_shard(header);
  store.set_zero_wall(zero_wall);
  store.add_all(rs);
  {
    telem::PhaseSpan span("serialize", "{\"runs\":" + std::to_string(rs.size()) + "}");
    if (!store.write_json(path)) return false;
  }
  progress.event_done(header.indices.size(), header.indices.size(), insts);
  std::printf("[shard %zu/%zu (%s): %zu of %zu runs -> %s]\n", shard.index, shard.count,
              std::string(to_string(strategy)).c_str(), header.indices.size(),
              specs.size(), path.c_str());
  return true;
}

}  // namespace dwarn
