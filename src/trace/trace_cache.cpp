#include "trace/trace_cache.hpp"

#include <algorithm>

#include "common/env.hpp"
#include "telemetry/phase_trace.hpp"

namespace dwarn {

MaterializedTrace::MaterializedTrace(const BenchmarkProfile& prof, ThreadId tid,
                                     std::uint64_t seed, std::uint64_t capacity)
    : key_{prof.id, tid, seed},
      capacity_(capacity),
      gen_(prof, tid, seed),
      layout_(gen_.layout()),
      chunks_(static_cast<std::size_t>((capacity + kChunkInsts - 1) / kChunkInsts)) {
  DWARN_CHECK(capacity > 0);
}

std::uint64_t MaterializedTrace::materialize(std::uint64_t n) const {
  n = std::min(n, capacity_);
  std::uint64_t have = size();
  if (have >= n) return have;
  std::lock_guard lk(mu_);
  have = size_.load(std::memory_order_relaxed);  // only written under mu_
  if (have >= n) return have;  // another reader generated it meanwhile
  telem::PhaseSpan span("materialize", "{\"bench\":\"" + std::string(gen_.profile().name) +
                                           "\",\"from\":" + std::to_string(have) + "}");
  while (have < n) {
    // Generate through the retained stream, retiring as we pack, so its
    // window stays one instruction deep and, once the buffer is full,
    // gen_ *is* the state right past it.
    const std::uint64_t end = std::min(have + kChunkInsts, capacity_);
    auto chunk = std::make_unique<PackedInst[]>(static_cast<std::size_t>(end - have));
    for (InstSeq i = have; i < end; ++i) {
      chunk[static_cast<std::size_t>(i - have)] = pack(gen_.at(i), layout_);
      gen_.retire_below(i + 1);
    }
    chunks_[static_cast<std::size_t>(have / kChunkInsts)] = std::move(chunk);
    have = end;
    size_.store(have, std::memory_order_release);
  }
  return have;
}

const TraceStream& MaterializedTrace::tail() const {
  // After the buffer is full the generator never moves again, so the
  // acquire inside materialize makes it safe to read without the lock.
  (void)materialize(capacity_);
  return gen_;
}

std::size_t MaterializedTrace::bytes() const {
  // The generator (address streams, small deques) and the chunk table are
  // a few hundred bytes to a few KiB; a fixed overhead keeps many
  // untouched buffers from accounting as free.
  constexpr std::size_t kEntryOverhead = 4096;
  return static_cast<std::size_t>(size()) * sizeof(PackedInst) + kEntryOverhead;
}

std::shared_ptr<const MaterializedTrace> TraceCache::acquire(const BenchmarkProfile& prof,
                                                             ThreadId tid,
                                                             std::uint64_t seed,
                                                             std::uint64_t min_insts) {
  if (min_insts == 0) min_insts = 1;
  const TraceKey key{prof.id, tid, seed};

  std::lock_guard lk(mu_);
  const auto it = std::find_if(lru_.begin(), lru_.end(),
                               [&](const auto& t) { return t->key() == key; });
  if (it != lru_.end() && (*it)->capacity() >= min_insts) {
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it);
  } else {
    // A new key, or a cached capacity too small for this run: start a
    // fresh lazy buffer. Holders of a replaced one keep it alive through
    // their shared_ptr.
    ++(it != lru_.end() ? stats_.grows : stats_.misses);
    if (it != lru_.end()) lru_.erase(it);
    lru_.push_front(std::make_shared<const MaterializedTrace>(prof, tid, seed, min_insts));
  }
  // Readers have generated more since the last acquire: re-check now.
  evict_over_budget_locked();
  return lru_.front();
}

std::size_t TraceCache::bytes_locked() const {
  std::size_t total = 0;
  for (const auto& t : lru_) total += t->bytes();
  return total;
}

void TraceCache::evict_over_budget_locked() {
  std::size_t total = bytes_locked();
  while (total > budget_bytes_ && lru_.size() > 1) {
    total -= lru_.back()->bytes();
    lru_.pop_back();
    ++stats_.evictions;
  }
}

TraceCacheStats TraceCache::stats() const {
  std::lock_guard lk(mu_);
  TraceCacheStats s = stats_;
  s.entries = lru_.size();
  s.bytes = bytes_locked();
  s.budget_bytes = budget_bytes_;
  return s;
}

void TraceCache::clear() {
  std::lock_guard lk(mu_);
  lru_.clear();
  stats_ = TraceCacheStats{};
}

void TraceCache::set_budget_bytes(std::size_t bytes) {
  std::lock_guard lk(mu_);
  budget_bytes_ = bytes;
  evict_over_budget_locked();
}

TraceCache& TraceCache::shared() {
  static TraceCache cache(trace_cache_budget_bytes());
  return cache;
}

bool trace_cache_enabled() {
  return env_u64("SMT_TRACE_CACHE", 0, 1).value_or(1) == 1;
}

std::size_t trace_cache_budget_bytes() {
  // Up to 1 TiB: far past any real budget, but no risk of shift overflow.
  const std::uint64_t mb = env_u64("SMT_TRACE_CACHE_MB", 1, 1ull << 20).value_or(256);
  return static_cast<std::size_t>(mb << 20);
}

std::string trace_cache_mode_string() {
  if (!trace_cache_enabled()) return "off";
  return "on (budget " + std::to_string(trace_cache_budget_bytes() >> 20) + " MiB)";
}

std::map<std::string, std::string> trace_cache_meta(const TraceCacheStats& s) {
  return {
      {"trace_cache.hits", std::to_string(s.hits)},
      {"trace_cache.misses", std::to_string(s.misses)},
      {"trace_cache.grows", std::to_string(s.grows)},
      {"trace_cache.evictions", std::to_string(s.evictions)},
      {"trace_cache.entries", std::to_string(s.entries)},
      {"trace_cache.bytes", std::to_string(s.bytes)},
      {"trace_cache.budget_bytes", std::to_string(s.budget_bytes)},
  };
}

std::map<std::string, std::string> trace_cache_stats_meta_if_enabled() {
  if (env_u64("SMT_TRACE_CACHE_STATS", 0, 1).value_or(0) != 1) return {};
  return trace_cache_meta(TraceCache::shared().stats());
}

}  // namespace dwarn
