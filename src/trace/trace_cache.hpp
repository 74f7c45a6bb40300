// Warm trace cache: generate an instruction stream once, replay it
// across every grid point that needs it.
//
// The policy and machine axes of an experiment grid never change the
// workload trace — only (BenchmarkProfile, tid, seed) does — so a sweep
// that regenerates each thread's stream per run repeats identical work.
// MaterializedTrace is a lazy, append-only buffer of one such stream: it
// generates fixed-size chunks only when a reader first asks past the
// published frontier, stores each instruction as a 16-byte PackedInst,
// and published chunks never move. ReplayStream satisfies the InstStream
// contract by indexing and decoding that buffer; TraceCache shares the
// buffers across concurrent runs under an LRU budget counted in generated
// bytes.
//
// Determinism contract: a replayed run is bit-identical to a regenerated
// run. Generation is a pure function of (profile, tid, seed), the buffer
// records its output in an encoding checked to decode back exactly (see
// trace/packed_inst.hpp), and a run that outlives the buffer's capacity
// continues from a copy of the generator state taken right after the
// last buffered instruction — so the core observes the exact sequence
// TraceStream would have produced, and BENCH_*.json snapshots compare
// byte-for-byte with the cache on or off (enforced by ctest + CI).
//
// Environment knobs (read per construction, so tests can toggle them):
//   SMT_TRACE_CACHE     1 (default) share traces; 0 regenerate per run
//   SMT_TRACE_CACHE_MB  LRU budget for generated bytes (default 256)
#pragma once

#include <atomic>
#include <compare>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "trace/benchmark_profile.hpp"
#include "trace/inst_stream.hpp"
#include "trace/packed_inst.hpp"
#include "trace/trace_stream.hpp"

namespace dwarn {

/// Identity of a materialized stream. The machine, policy and run length
/// deliberately do not appear: they never influence generated instructions.
struct TraceKey {
  Benchmark bench{};
  ThreadId tid = 0;
  std::uint64_t seed = 0;

  auto operator<=>(const TraceKey&) const = default;
};

/// Lazy buffer of the first `capacity` correct-path instructions of one
/// (profile, tid, seed) stream. Instructions are generated in chunks of
/// kChunkInsts, under the trace's mutex, from a retained TraceStream, and
/// only when a reader first needs them. Each chunk is published with a
/// release store of the frontier (size()); readers that have observed a
/// frontier index everything below it without locking, because published
/// chunks are never written or moved again. Logically const: generation
/// only reveals more of a sequence fixed by the key.
class MaterializedTrace {
 public:
  /// Instructions generated per step. Small enough that a trace holds at
  /// most one chunk past the deepest read; large enough that the mutex
  /// is taken once per 4K instructions.
  static constexpr std::uint64_t kChunkInsts = 4096;

  /// Constructs the generator (code layout, address streams) but no
  /// instructions. `capacity` must be positive.
  MaterializedTrace(const BenchmarkProfile& prof, ThreadId tid, std::uint64_t seed,
                    std::uint64_t capacity);

  /// Upper bound on buffered instructions; replays past it continue from
  /// tail() privately.
  [[nodiscard]] std::uint64_t capacity() const { return capacity_; }
  /// Published frontier: instructions [0, size()) are generated and
  /// readable lock-free.
  [[nodiscard]] std::uint64_t size() const { return size_.load(std::memory_order_acquire); }
  /// Generate until size() >= min(n, capacity()); returns size(). Blocks
  /// only while another reader generates the chunk this one needs.
  std::uint64_t materialize(std::uint64_t n) const;
  /// Instruction `seq`, decoded; requires seq < a size() this thread
  /// observed.
  [[nodiscard]] TraceInst operator[](InstSeq seq) const {
    return unpack(chunks_[static_cast<std::size_t>(seq / kChunkInsts)]
                         [static_cast<std::size_t>(seq % kChunkInsts)],
                  layout_);
  }
  [[nodiscard]] const CodeLayout& layout() const { return layout_; }
  /// Generator state positioned at capacity(): the continuation seed for
  /// replays that run past the buffer. Materializes the whole buffer.
  [[nodiscard]] const TraceStream& tail() const;
  [[nodiscard]] const TraceKey& key() const { return key_; }
  /// Approximate resident bytes: the generated (packed) instructions plus
  /// a fixed per-entry overhead. The unit the cache budget is accounted in.
  [[nodiscard]] std::size_t bytes() const;

 private:
  TraceKey key_;
  std::uint64_t capacity_;
  mutable std::mutex mu_;
  mutable TraceStream gen_;  ///< positioned at size(); guarded by mu_
  /// A copy of the generator's layout, immutable and readable without
  /// the mutex; records are packed and decoded against it.
  CodeLayout layout_;
  /// One slot per chunk of capacity, allocated at construction so the
  /// table never reallocates; slot c is filled before size() passes it.
  mutable std::vector<std::unique_ptr<PackedInst[]>> chunks_;
  mutable std::atomic<std::uint64_t> size_{0};
};

/// InstStream over a shared MaterializedTrace. Reads below the frontier
/// this replay last observed are lock-free indexing; the first read past
/// it extends the shared buffer; sequences past the capacity fall back to
/// a private continuation generator cloned from the trace's tail, so an
/// undersized buffer costs speed, never correctness.
class ReplayStream final : public InstStream {
 public:
  explicit ReplayStream(std::shared_ptr<const MaterializedTrace> trace)
      : trace_(std::move(trace)) {
    DWARN_CHECK(trace_ != nullptr);
  }

  TraceInst at(InstSeq seq) override {
    DWARN_CHECK(seq >= base_seq_);
    if (seq >= hi_seq_) hi_seq_ = seq + 1;
    if (seq < ready_) return (*trace_)[seq];
    if (seq < trace_->capacity()) {
      ready_ = trace_->materialize(seq + 1);
      return (*trace_)[seq];
    }
    if (!cont_) cont_.emplace(trace_->tail());
    return cont_->at(seq);
  }

  void retire_below(InstSeq seq) override {
    if (seq > hi_seq_) seq = hi_seq_;
    if (seq > base_seq_) base_seq_ = seq;
    if (cont_) cont_->retire_below(seq);
  }

  [[nodiscard]] const CodeLayout& layout() const override { return trace_->layout(); }
  [[nodiscard]] InstSeq window_base() const override { return base_seq_; }
  [[nodiscard]] std::size_t window_size() const override {
    return static_cast<std::size_t>(hi_seq_ - base_seq_);
  }

  /// Whether this replay ran past the buffer's capacity (test hook).
  [[nodiscard]] bool overflowed() const { return cont_.has_value(); }
  [[nodiscard]] const MaterializedTrace& trace() const { return *trace_; }

 private:
  std::shared_ptr<const MaterializedTrace> trace_;
  std::optional<TraceStream> cont_;  ///< lazy continuation past the buffer
  InstSeq ready_ = 0;  ///< a frontier of trace_ this replay has observed
  InstSeq base_seq_ = 0;
  InstSeq hi_seq_ = 0;  ///< one past the highest sequence served
};

/// Counter snapshot of one TraceCache (all values since construction or
/// the last clear()).
struct TraceCacheStats {
  std::uint64_t hits = 0;       ///< acquire served from a cached buffer
  std::uint64_t misses = 0;     ///< acquire created a buffer for a new key
  std::uint64_t grows = 0;      ///< cached capacity too small; replaced larger
  std::uint64_t evictions = 0;  ///< entries dropped to fit the budget
  std::uint64_t entries = 0;    ///< currently cached buffers
  std::uint64_t bytes = 0;      ///< generated bytes of the cached buffers
  std::uint64_t budget_bytes = 0;
};

/// Thread-safe LRU cache of MaterializedTrace buffers keyed by TraceKey.
/// acquire only looks up or constructs an empty lazy buffer — generation
/// happens later, in the readers, chunk by chunk — so it never waits on
/// another worker's generation. The budget counts generated bytes, which
/// grow after acquire returns, so it is re-checked on every acquire.
/// Evicted buffers stay alive for holders of their shared_ptr; the budget
/// bounds cached bytes, not in-flight bytes.
class TraceCache {
 public:
  explicit TraceCache(std::size_t budget_bytes) : budget_bytes_(budget_bytes) {}

  /// The buffer for (prof, tid, seed) with capacity() >= min_insts,
  /// replacing a cached one of smaller capacity. min_insts == 0 is
  /// treated as 1.
  [[nodiscard]] std::shared_ptr<const MaterializedTrace> acquire(
      const BenchmarkProfile& prof, ThreadId tid, std::uint64_t seed,
      std::uint64_t min_insts);

  [[nodiscard]] TraceCacheStats stats() const;

  /// Drop every cached buffer and reset the counters.
  void clear();

  /// Retarget the byte budget (evicts immediately if now over).
  void set_budget_bytes(std::size_t bytes);

  /// Process-wide cache, budget from SMT_TRACE_CACHE_MB at first use.
  static TraceCache& shared();

 private:
  /// Evict least-recently-used entries until the generated bytes fit the
  /// budget. The most recent entry survives even when it alone exceeds
  /// the budget — it is in active use by the caller.
  void evict_over_budget_locked();
  [[nodiscard]] std::size_t bytes_locked() const;

  mutable std::mutex mu_;
  /// Cached buffers, most recently acquired first. A grid touches tens to
  /// a few hundred keys, and every acquire sums the entries' bytes anyway,
  /// so a linear lookup costs nothing next to it.
  std::list<std::shared_ptr<const MaterializedTrace>> lru_;
  std::size_t budget_bytes_;
  TraceCacheStats stats_{};
};

/// SMT_TRACE_CACHE: 1 (default) = engine/run_simulation share traces via
/// TraceCache::shared(); 0 = every run regenerates on demand.
[[nodiscard]] bool trace_cache_enabled();

/// SMT_TRACE_CACHE_MB as bytes (default 256 MiB).
[[nodiscard]] std::size_t trace_cache_budget_bytes();

/// One-line human description of the effective mode, for CLI plan output:
/// "on (budget 256 MiB)" or "off".
[[nodiscard]] std::string trace_cache_mode_string();

/// Stats rendered as "trace_cache.*" meta entries for ResultStore. Only
/// attached when explicitly requested (SMT_TRACE_CACHE_STATS=1): stats
/// depend on scheduling, so unconditional emission would break the
/// byte-identity contract between cached and uncached snapshots.
[[nodiscard]] std::map<std::string, std::string> trace_cache_meta(
    const TraceCacheStats& s);

/// The shared cache's stats as "trace_cache.*" meta when
/// SMT_TRACE_CACHE_STATS=1, else empty — the one gate benches, smt_shard
/// and the orchestrator's workers all go through, so every writer applies
/// the same byte-identity reasoning. Sharded sweeps still merge: the
/// merge sums trace_cache.* values across fragments instead of requiring
/// them to agree (each worker's cache counts its own traffic).
[[nodiscard]] std::map<std::string, std::string> trace_cache_stats_meta_if_enabled();

}  // namespace dwarn
