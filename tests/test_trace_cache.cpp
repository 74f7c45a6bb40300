// Warm trace cache tests: lazy materialization fidelity, replay
// rewind/overflow semantics, concurrent replays of one lazy trace, LRU
// eviction by generated bytes + stats, concurrent single-build, and the
// engine-level byte-identity contract between SMT_TRACE_CACHE=1 and =0
// (workers {1,4}, sharded and unsharded).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "engine/experiment_engine.hpp"
#include "engine/grid_registry.hpp"
#include "engine/result_store.hpp"
#include "engine/shard.hpp"
#include "trace/trace_cache.hpp"
#include "trace/trace_stream.hpp"

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

void expect_inst_eq(const TraceInst& a, const TraceInst& b, InstSeq seq) {
  EXPECT_EQ(a.pc, b.pc) << "seq " << seq;
  EXPECT_EQ(a.next_pc, b.next_pc) << "seq " << seq;
  EXPECT_EQ(a.mem_addr, b.mem_addr) << "seq " << seq;
  EXPECT_EQ(a.cls, b.cls) << "seq " << seq;
  EXPECT_EQ(a.branch, b.branch) << "seq " << seq;
  EXPECT_EQ(a.taken, b.taken) << "seq " << seq;
  EXPECT_EQ(a.dest_reg, b.dest_reg) << "seq " << seq;
  EXPECT_EQ(a.dest_class, b.dest_class) << "seq " << seq;
  EXPECT_EQ(a.src_regs, b.src_regs) << "seq " << seq;
  EXPECT_EQ(a.src_class, b.src_class) << "seq " << seq;
  EXPECT_EQ(a.exec_latency, b.exec_latency) << "seq " << seq;
}

/// The exact resident bytes bytes() reports for `insts` packed records:
/// 16 bytes each plus the fixed 4 KiB per-entry overhead.
std::size_t packed_bytes(std::uint64_t insts) {
  return static_cast<std::size_t>(insts) * 16 + 4096;
}

// ---- materialization fidelity ----------------------------------------------

TEST(MaterializedTrace, RecordsTheGeneratedSequenceVerbatim) {
  const auto& prof = profile_of(Benchmark::twolf);
  constexpr std::uint64_t kN = 10'000;
  MaterializedTrace mt(prof, /*tid=*/1, /*seed=*/7, kN);
  ASSERT_EQ(mt.capacity(), kN);
  EXPECT_EQ(mt.size(), 0u);  // lazy: construction generates nothing
  // Generation rounds up to whole chunks and stops at the capacity.
  EXPECT_EQ(mt.materialize(1), MaterializedTrace::kChunkInsts);
  ASSERT_EQ(mt.materialize(kN + 5), kN);

  TraceStream ref(prof, 1, 7);
  for (InstSeq i = 0; i < kN; ++i) {
    expect_inst_eq(mt[i], ref.at(i), i);
    ref.retire_below(i + 1);
  }
  EXPECT_EQ(mt.layout().text_base(), ref.layout().text_base());
  EXPECT_EQ(mt.bytes(), packed_bytes(mt.size()));
}

TEST(ReplayStream, MatchesGenerationAcrossRewindRetireAndOverflow) {
  // Drive a generating stream and a replayer (buffer deliberately shorter
  // than the walk) through the access pattern a core produces: advance,
  // squash back, re-read, retire — then run past the buffer so the
  // continuation generator takes over mid-walk.
  const auto& prof = profile_of(Benchmark::mcf);
  constexpr std::uint64_t kMaterialized = 1500;
  constexpr std::uint64_t kWalk = 3000;
  TraceStream ref(prof, 0, 3);
  ReplayStream rep(std::make_shared<const MaterializedTrace>(prof, 0, 3, kMaterialized));

  InstSeq retired = 0;
  for (InstSeq i = 0; i < kWalk; ++i) {
    expect_inst_eq(rep.at(i), ref.at(i), i);
    if (i % 97 == 3 && i > retired + 8) {
      // Squash: re-read a window of older (unretired) sequences.
      for (InstSeq j = i - 8; j <= i; ++j) expect_inst_eq(rep.at(j), ref.at(j), j);
    }
    if (i % 61 == 0 && i > 16) {
      retired = i - 16;
      ref.retire_below(retired);
      rep.retire_below(retired);
      EXPECT_EQ(rep.window_base(), ref.window_base());
    }
  }
  EXPECT_TRUE(rep.overflowed());
}

TEST(ReplayStream, ExactBufferWalkNeverOverflows) {
  const auto& prof = profile_of(Benchmark::gzip);
  constexpr std::uint64_t kN = 2000;
  ReplayStream rep(std::make_shared<const MaterializedTrace>(prof, 2, 11, kN));
  for (InstSeq i = 0; i < kN; ++i) {
    (void)rep.at(i);
    rep.retire_below(i + 1);
  }
  EXPECT_FALSE(rep.overflowed());
  EXPECT_EQ(rep.window_base(), kN);
}

// ---- concurrent replay of one lazy trace -----------------------------------

/// Walk `rep` and a private generator in lockstep the way a core does —
/// advance in bursts of `step`, squash back `rewind` sequences every
/// `squash_every` bursts, retire everything older than `lag` — up to
/// `depth`. Returns the first diverging sequence, or `depth` when none.
InstSeq lockstep_walk(ReplayStream& rep, TraceStream& ref, InstSeq depth, InstSeq step,
                      InstSeq rewind, int squash_every, InstSeq lag) {
  InstSeq next = 0;
  for (int burst = 1; next < depth; ++burst) {
    const InstSeq end = std::min(depth, next + step);
    for (; next < end; ++next) {
      if (rep.at(next) != ref.at(next)) return next;
    }
    if (burst % squash_every == 0) {
      for (InstSeq j = std::max(rep.window_base(), next - std::min(next, rewind)); j < next;
           ++j) {
        if (rep.at(j) != ref.at(j)) return j;
      }
    }
    if (next > lag) {
      rep.retire_below(next - lag);
      ref.retire_below(next - lag);
    }
  }
  return depth;
}

TEST(ReplayStreamConcurrency, ReplaysOfOneLazyTraceMatchPrivateGeneration) {
  // Six replays share one lazy trace. Thread t starts only once the
  // shared frontier has reached t half-chunks, so later threads begin
  // while earlier ones are mid-generation: every thread mixes lock-free
  // reads below the frontier with extensions past it. Each must equal a
  // private TraceStream instruction by instruction.
  const auto& prof = profile_of(Benchmark::mcf);
  constexpr std::uint64_t kCapacity = 80'000;
  constexpr int kThreads = 6;
  const auto trace = std::make_shared<const MaterializedTrace>(prof, 1, 9, kCapacity);
  EXPECT_EQ(trace->bytes(), packed_bytes(0));

  std::vector<InstSeq> depth(kThreads);
  std::vector<InstSeq> diverged(kThreads);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      depth[t] = 12'000 + 7'919 * static_cast<InstSeq>(t);
      threads.emplace_back([&, t] {
        const InstSeq start = static_cast<InstSeq>(t) * MaterializedTrace::kChunkInsts / 2;
        while (trace->size() < start) std::this_thread::yield();
        ReplayStream rep(trace);
        TraceStream ref(prof, 1, 9);
        diverged[t] = lockstep_walk(rep, ref, depth[t], /*step=*/5 + t, /*rewind=*/17 + 3 * t,
                                    /*squash_every=*/3 + t, /*lag=*/64 + 32 * t);
      });
    }
    for (auto& th : threads) th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(diverged[t], depth[t]) << "thread " << t << " diverged";
  }

  // Lazy generation stops within one chunk of the deepest read.
  const InstSeq deepest = *std::max_element(depth.begin(), depth.end());
  EXPECT_GE(trace->size(), deepest);
  EXPECT_LE(trace->size(), deepest + MaterializedTrace::kChunkInsts);
  EXPECT_EQ(trace->bytes(), packed_bytes(trace->size()));
}

TEST(ReplayStreamConcurrency, ConcurrentOverflowsContinueBitExact) {
  // Every replay outruns the capacity at about the same time, so the
  // first one to need the tail materializes the rest of the buffer while
  // the others wait or read, then each continues privately from a copy.
  const auto& prof = profile_of(Benchmark::gcc);
  constexpr std::uint64_t kCapacity = 6'000;
  constexpr InstSeq kDepth = 15'000;
  constexpr int kThreads = 4;
  const auto trace = std::make_shared<const MaterializedTrace>(prof, 0, 4, kCapacity);

  std::vector<InstSeq> diverged(kThreads);
  std::vector<char> overflowed(kThreads);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ReplayStream rep(trace);
        TraceStream ref(prof, 0, 4);
        diverged[t] = lockstep_walk(rep, ref, kDepth, /*step=*/7 + 2 * t, /*rewind=*/9 + t,
                                    /*squash_every=*/2 + t, /*lag=*/40 + 8 * t);
        overflowed[t] = rep.overflowed() ? 1 : 0;
      });
    }
    for (auto& th : threads) th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(diverged[t], kDepth) << "thread " << t << " diverged";
    EXPECT_TRUE(overflowed[t]) << "thread " << t;
  }
  EXPECT_EQ(trace->size(), kCapacity);
}

// ---- cache behavior ---------------------------------------------------------

TEST(TraceCache, HitsMissesAndGrows) {
  TraceCache cache(/*budget_bytes=*/64u << 20);
  const auto& prof = profile_of(Benchmark::vpr);

  const auto a = cache.acquire(prof, 0, 1, 500);
  EXPECT_EQ(a->capacity(), 500u);
  EXPECT_EQ(a->size(), 0u);  // acquire generates nothing; readers do
  const auto b = cache.acquire(prof, 0, 1, 400);  // shorter demand: same buffer
  EXPECT_EQ(a.get(), b.get());
  const auto c = cache.acquire(prof, 0, 1, 900);  // longer demand: replaced
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(c->capacity(), 900u);
  // The old buffer stays valid for holders, and the replacement is
  // bit-identical to a from-scratch materialization of the same length.
  ASSERT_EQ(a->materialize(500), 500u);
  ASSERT_EQ(c->materialize(900), 900u);
  for (InstSeq i = 0; i < a->size(); i += 37) expect_inst_eq((*a)[i], (*c)[i], i);
  const MaterializedTrace scratch(prof, 0, 1, 900);
  ASSERT_EQ(scratch.materialize(900), 900u);
  for (InstSeq i = 0; i < scratch.size(); ++i) expect_inst_eq(scratch[i], (*c)[i], i);

  const TraceCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.grows, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, c->bytes());  // generated bytes, read at stats() time
}

TEST(TraceCache, LruEvictionRespectsBudgetAndRecency) {
  const auto& prof = profile_of(Benchmark::parser);
  // Learn the per-entry footprint of a fully read buffer, then budget for
  // exactly two of them.
  const MaterializedTrace probe(prof, 0, 1, 1000);
  (void)probe.materialize(1000);
  const std::size_t entry_bytes = probe.bytes();
  TraceCache cache(2 * entry_bytes + entry_bytes / 2);
  // Acquire and read the whole buffer, as a run would.
  const auto use = [&](std::uint64_t seed) {
    (void)cache.acquire(prof, 0, seed, 1000)->materialize(1000);
  };

  use(1);  // A
  use(2);  // B
  EXPECT_EQ(cache.stats().entries, 2u);
  use(1);  // touch A -> B is now LRU
  use(3);  // C: generated after its acquire, so still within budget there
  EXPECT_EQ(cache.stats().entries, 3u);
  use(3);  // the next acquire (a hit) sees C's bytes and evicts B

  TraceCacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_LE(s.bytes, s.budget_bytes);

  use(1);  // A survived the eviction
  EXPECT_EQ(cache.stats().hits, 3u);
  use(2);  // B was evicted: a fresh miss
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(TraceCache, OversizedEntrySurvivesAloneAndShrinkingBudgetEvicts) {
  const auto& prof = profile_of(Benchmark::eon);
  TraceCache cache(/*budget_bytes=*/1);  // below any entry size
  const auto a = cache.acquire(prof, 0, 1, 2000);
  ASSERT_EQ(a->materialize(2000), 2000u);
  EXPECT_EQ(cache.stats().entries, 1u);  // in active use: kept despite budget
  EXPECT_EQ(cache.stats().bytes, packed_bytes(2000));

  cache.set_budget_bytes(64u << 20);
  (void)cache.acquire(prof, 0, 2, 2000)->materialize(2000);
  EXPECT_EQ(cache.stats().entries, 2u);
  cache.set_budget_bytes(1);  // shrink: everything but the MRU goes
  EXPECT_EQ(cache.stats().entries, 1u);
  // The evicted buffer is still usable through the held shared_ptr.
  EXPECT_EQ(a->size(), 2000u);
  ReplayStream rep(a);
  TraceStream ref(prof, 0, 1);
  for (InstSeq i = 0; i < 2000; i += 101) expect_inst_eq(rep.at(i), ref.at(i), i);
}

TEST(TraceCache, ConcurrentAcquiresBuildOnce) {
  TraceCache cache(/*budget_bytes=*/64u << 20);
  const auto& prof = profile_of(Benchmark::gcc);
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const MaterializedTrace>> got(kThreads);
  std::vector<std::uint64_t> seen(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        got[t] = cache.acquire(prof, 1, 5, 3000);
        seen[t] = got[t]->materialize(3000);  // every thread reads it all
      });
    }
    for (auto& th : threads) th.join();
  }
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(got[0].get(), got[t].get());
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(seen[t], 3000u);
  const TraceCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, static_cast<std::uint64_t>(kThreads - 1));
  // One buffer of 3000 instructions was generated, not one per thread.
  EXPECT_EQ(s.bytes, got[0]->bytes());
}

TEST(TraceCache, ClearResetsEntriesAndCounters) {
  TraceCache cache(/*budget_bytes=*/64u << 20);
  const auto& prof = profile_of(Benchmark::gap);
  (void)cache.acquire(prof, 0, 1, 100);
  cache.clear();
  const TraceCacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes, 0u);
  EXPECT_EQ(s.misses, 0u);
  (void)cache.acquire(prof, 0, 1, 100);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(TraceCacheMeta, RendersEveryCounter) {
  TraceCacheStats s;
  s.hits = 3;
  s.bytes = 123;
  const auto meta = trace_cache_meta(s);
  EXPECT_EQ(meta.at("trace_cache.hits"), "3");
  EXPECT_EQ(meta.at("trace_cache.bytes"), "123");
  EXPECT_EQ(meta.size(), 7u);
}

// ---- engine-level byte identity --------------------------------------------

RunGrid identity_grid() {
  RunLength len;
  len.warmup_insts = 500;
  len.measure_insts = 2000;
  RunGrid grid;
  grid.machine(machine_spec("baseline"))
      .workload(workload_by_name("2-MIX"))
      .workload(workload_by_name("2-MEM"))
      .policy(PolicyKind::ICount)
      .policy(PolicyKind::DWarn)
      .seed_count(2)
      .length(len);
  return grid;
}

std::string snapshot_json(const ResultSet& rs) {
  ResultStore store;
  store.set_zero_wall(true);  // wall time is the one host-varying field
  store.add_all(rs);
  return store.to_json();
}

TEST(TraceCacheIdentity, GridSnapshotsAreByteIdenticalWithAndWithoutCache) {
  const RunGrid grid = identity_grid();

  std::string uncached;
  {
    ScopedEnv off("SMT_TRACE_CACHE", "0");
    uncached = snapshot_json(ExperimentEngine().run(grid));
  }

  ScopedEnv on("SMT_TRACE_CACHE", "1");
  TraceCache::shared().clear();
  ThreadPool one(1);
  ThreadPool four(4);
  const std::string serial = snapshot_json(ExperimentEngine(one).run(grid));
  const std::string parallel = snapshot_json(ExperimentEngine(four).run(grid));

  EXPECT_EQ(uncached, serial);
  EXPECT_EQ(uncached, parallel);
  // Replays actually happened: the serial + parallel passes shared buffers.
  EXPECT_GT(TraceCache::shared().stats().hits, 0u);
}

TEST(TraceCacheIdentity, ShardFragmentsAreByteIdenticalWithAndWithoutCache) {
  const std::vector<RunSpec> specs = named_grid("fixture").expand();
  const ShardPlan plan = ShardPlan::make(specs.size(), 2, ShardStrategy::Strided);

  for (std::size_t k = 1; k <= 2; ++k) {
    const std::vector<RunSpec> slice = slice_specs(specs, plan.indices(k));
    std::string uncached;
    std::string cached;
    {
      ScopedEnv off("SMT_TRACE_CACHE", "0");
      uncached = snapshot_json(ExperimentEngine().run(slice));
    }
    {
      ScopedEnv on("SMT_TRACE_CACHE", "1");
      TraceCache::shared().clear();
      cached = snapshot_json(ExperimentEngine().run(slice));
    }
    EXPECT_EQ(uncached, cached) << "shard " << k << "/2";
  }
}

TEST(BatchOrder, GroupsByWorkloadAndSeedWithoutTouchingIndices) {
  ScopedEnv on("SMT_TRACE_CACHE", "1");
  const std::vector<RunSpec> specs = identity_grid().expand();
  const std::vector<std::size_t> order = ExperimentEngine::batch_order(specs);
  ASSERT_EQ(order.size(), specs.size());

  // A permutation of [0, n).
  std::vector<bool> seen(specs.size(), false);
  for (const std::size_t i : order) {
    ASSERT_LT(i, specs.size());
    EXPECT_FALSE(seen[i]);
    seen[i] = true;
  }
  // Each (workload, seed) group is contiguous in execution order.
  std::set<std::pair<std::string, std::uint64_t>> closed;
  std::pair<std::string, std::uint64_t> cur{"", 0};
  for (const std::size_t i : order) {
    const std::pair<std::string, std::uint64_t> g{specs[i].workload.name, specs[i].seed};
    if (g != cur) {
      EXPECT_TRUE(closed.insert(g).second) << "group reopened: " << g.first;
      cur = g;
    }
  }

  ScopedEnv off("SMT_TRACE_CACHE", "0");
  const std::vector<std::size_t> identity = ExperimentEngine::batch_order(specs);
  for (std::size_t i = 0; i < identity.size(); ++i) EXPECT_EQ(identity[i], i);
}

}  // namespace
}  // namespace dwarn
