// Unit + parameterized property tests: set-associative cache model.
#include <gtest/gtest.h>

#include <random>
#include <tuple>
#include <vector>

#include "common/stats.hpp"
#include "mem/cache.hpp"

namespace dwarn {
namespace {

CacheConfig small_cfg() {
  return CacheConfig{.name = "t", .size_bytes = 4096, .assoc = 2, .line_bytes = 64,
                     .banks = 4};
}

TEST(Cache, FirstAccessMissesThenHits) {
  StatSet stats;
  Cache c(small_cfg(), stats);
  EXPECT_FALSE(c.access(0x1000, false, 1).hit);
  EXPECT_TRUE(c.access(0x1000, false, 10).hit);
  EXPECT_TRUE(c.access(0x1038, false, 20).hit);  // same 64B line
}

TEST(Cache, SeparateLinesAreSeparate) {
  StatSet stats;
  Cache c(small_cfg(), stats);
  c.access(0x1000, false, 1);
  EXPECT_FALSE(c.access(0x1040, false, 2).hit);  // next line
}

TEST(Cache, LruEvictsOldestWay) {
  StatSet stats;
  Cache c(small_cfg(), stats);  // 4KB/64B/2-way -> 32 sets; set stride 2KB
  const Addr a = 0x0, b = 0x800, d = 0x1000;  // all map to set 0
  c.access(a, false, 1);
  c.access(b, false, 2);
  c.access(a, false, 3);        // refresh a; b is now LRU
  c.access(d, false, 4);        // evicts b
  EXPECT_TRUE(c.probe(a));
  EXPECT_FALSE(c.probe(b));
  EXPECT_TRUE(c.probe(d));
}

TEST(Cache, DirtyVictimReportsWriteback) {
  StatSet stats;
  Cache c(small_cfg(), stats);
  c.access(0x0, true, 1);    // dirty
  c.access(0x800, false, 2);
  const auto r = c.access(0x1000, false, 3);  // evicts dirty 0x0
  EXPECT_TRUE(r.evicted);
  EXPECT_TRUE(r.writeback);
  EXPECT_EQ(r.victim_line, 0x0u);
}

TEST(Cache, CleanVictimNoWriteback) {
  StatSet stats;
  Cache c(small_cfg(), stats);
  c.access(0x0, false, 1);
  c.access(0x800, false, 2);
  const auto r = c.access(0x1000, false, 3);
  EXPECT_TRUE(r.evicted);
  EXPECT_FALSE(r.writeback);
}

TEST(Cache, WriteHitMarksDirty) {
  StatSet stats;
  Cache c(small_cfg(), stats);
  c.access(0x0, false, 1);
  c.access(0x0, true, 2);  // dirty via write hit
  c.access(0x800, false, 3);
  const auto r = c.access(0x1000, false, 4);
  EXPECT_TRUE(r.writeback);
}

TEST(Cache, BankConflictAddsDelay) {
  StatSet stats;
  Cache c(small_cfg(), stats);  // 4 banks: lines 0 and 4 share bank 0
  c.access(0x0, false, 5);
  const auto r = c.access(0x100, false, 5);  // line 4 -> bank 0, same cycle
  EXPECT_GT(r.bank_delay, 0u);
  EXPECT_EQ(stats.value("t.bank_conflicts"), 1u);
}

TEST(Cache, DifferentBanksNoConflict) {
  StatSet stats;
  Cache c(small_cfg(), stats);
  c.access(0x0, false, 5);
  const auto r = c.access(0x40, false, 5);  // line 1 -> bank 1
  EXPECT_EQ(r.bank_delay, 0u);
}

TEST(Cache, InvalidateRemovesLine) {
  StatSet stats;
  Cache c(small_cfg(), stats);
  c.access(0x2000, false, 1);
  ASSERT_TRUE(c.probe(0x2000));
  c.invalidate(0x2000);
  EXPECT_FALSE(c.probe(0x2000));
}

TEST(Cache, ClearEmptiesEverything) {
  StatSet stats;
  Cache c(small_cfg(), stats);
  for (Addr a = 0; a < 4096; a += 64) c.access(a, false, 1);
  EXPECT_GT(c.occupancy(), 0.9);
  c.clear();
  EXPECT_DOUBLE_EQ(c.occupancy(), 0.0);
}

TEST(Cache, CountersTrackAccessesAndMisses) {
  StatSet stats;
  Cache c(small_cfg(), stats);
  c.access(0x0, false, 1);
  c.access(0x0, false, 2);
  c.access(0x40, false, 3);
  EXPECT_EQ(stats.value("t.accesses"), 3u);
  EXPECT_EQ(stats.value("t.misses"), 2u);
}

// ---- Parameterized geometry sweep -----------------------------------------

struct Geometry {
  std::uint64_t size;
  std::uint32_t assoc;
};

class CacheGeometry : public ::testing::TestWithParam<Geometry> {};

TEST_P(CacheGeometry, WorkingSetWithinCapacityAlwaysHitsAfterWarmup) {
  const auto [size, assoc] = GetParam();
  StatSet stats;
  Cache c(CacheConfig{.name = "g", .size_bytes = size, .assoc = assoc,
                      .line_bytes = 64, .banks = 1},
          stats);
  // Touch exactly half the capacity twice: second pass must fully hit.
  const std::uint64_t lines = size / 64 / 2;
  Cycle now = 0;
  for (std::uint64_t i = 0; i < lines; ++i) c.access(i * 64, false, ++now);
  for (std::uint64_t i = 0; i < lines; ++i) {
    EXPECT_TRUE(c.access(i * 64, false, ++now).hit) << "line " << i;
  }
}

TEST_P(CacheGeometry, StreamBeyondCapacityAlwaysMisses) {
  const auto [size, assoc] = GetParam();
  StatSet stats;
  Cache c(CacheConfig{.name = "g", .size_bytes = size, .assoc = assoc,
                      .line_bytes = 64, .banks = 1},
          stats);
  const std::uint64_t lines = 4 * size / 64;  // 4x capacity, cyclic twice
  Cycle now = 0;
  std::uint64_t hits = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t i = 0; i < lines; ++i) {
      hits += c.access(i * 64, false, ++now).hit ? 1 : 0;
    }
  }
  EXPECT_EQ(hits, 0u);  // LRU + reuse distance beyond capacity: all miss
}

TEST_P(CacheGeometry, OccupancyReachesFullUnderStream) {
  const auto [size, assoc] = GetParam();
  StatSet stats;
  Cache c(CacheConfig{.name = "g", .size_bytes = size, .assoc = assoc,
                      .line_bytes = 64, .banks = 1},
          stats);
  Cycle now = 0;
  for (std::uint64_t i = 0; i < 2 * size / 64; ++i) c.access(i * 64, false, ++now);
  EXPECT_DOUBLE_EQ(c.occupancy(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheGeometry,
                         ::testing::Values(Geometry{4096, 1}, Geometry{4096, 2},
                                           Geometry{8192, 4}, Geometry{65536, 2},
                                           Geometry{524288, 2}, Geometry{16384, 8}));

// ---- Shift/mask indexing vs a division-based reference ----------------------

/// The cache written straight from its definition: line number, set and
/// bank by division and remainder, true LRU, one port per bank per cycle.
class RefCache {
 public:
  explicit RefCache(const CacheConfig& cfg)
      : cfg_(cfg), ways_(cfg.num_lines()), bank_free_(cfg.banks, 0) {}

  CacheAccessResult access(Addr addr, bool is_write, Cycle now) {
    CacheAccessResult res;
    const Addr line_no = addr / cfg_.line_bytes;
    const Addr line = line_no * cfg_.line_bytes;
    const std::size_t bank = static_cast<std::size_t>(line_no % cfg_.banks);
    if (bank_free_[bank] > now) {
      res.bank_delay = bank_free_[bank] - now;
      bank_free_[bank] += 1;
    } else {
      bank_free_[bank] = now + 1;
    }
    Way* const set = &ways_[static_cast<std::size_t>(line_no % cfg_.num_sets()) * cfg_.assoc];
    ++clock_;
    for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
      if (set[w].valid && set[w].line == line) {
        set[w].lru = clock_;
        set[w].dirty = set[w].dirty || is_write;
        res.hit = true;
        return res;
      }
    }
    Way* victim = &set[0];
    for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
      if (!set[w].valid) {
        victim = &set[w];
        break;
      }
      if (set[w].lru < victim->lru) victim = &set[w];
    }
    if (victim->valid) {
      res.evicted = true;
      res.victim_line = victim->line;
      res.writeback = victim->dirty;
    }
    *victim = Way{line, clock_, true, is_write};
    return res;
  }

 private:
  struct Way {
    Addr line = 0;
    std::uint64_t lru = 0;
    bool valid = false;
    bool dirty = false;
  };
  CacheConfig cfg_;
  std::vector<Way> ways_;
  std::vector<Cycle> bank_free_;
  std::uint64_t clock_ = 0;
};

using IndexGeometry = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>;  // line, assoc, banks

class CacheIndexMath : public ::testing::TestWithParam<IndexGeometry> {};

TEST_P(CacheIndexMath, HitMissVictimAndBankSequencesMatchDivisionReference) {
  const auto [line, assoc, banks] = GetParam();
  const CacheConfig cfg{.name = "m", .size_bytes = 8192, .assoc = assoc, .line_bytes = line,
                        .banks = banks};
  StatSet stats;
  Cache c(cfg, stats);
  RefCache ref(cfg);
  // Seeded stream: half the accesses revisit a small hot set (hits, LRU
  // refreshes), half roam 4x the capacity at a high base (misses, victims,
  // 64-bit tags); several accesses share a cycle, so banks conflict.
  std::mt19937_64 rng(0xD1A6 + line * 131 + assoc * 17 + banks);
  const Addr high = Addr{0x7f3a} << 32;
  std::vector<Addr> hot;
  for (int i = 0; i < 24; ++i) hot.push_back(high + rng() % (2 * cfg.size_bytes));
  Cycle now = 1;
  std::uint64_t misses = 0, conflicts = 0, writebacks = 0;
  for (int i = 0; i < 6000; ++i) {
    const Addr a = (rng() & 1) != 0 ? hot[rng() % hot.size()]
                                    : high + rng() % (4 * cfg.size_bytes);
    const bool write = rng() % 4 == 0;
    now += rng() % 3 == 0 ? 1 : 0;
    SCOPED_TRACE(::testing::Message() << "access " << i << " addr 0x" << std::hex << a);
    const CacheAccessResult got = c.access(a, write, now);
    const CacheAccessResult want = ref.access(a, write, now);
    ASSERT_EQ(got.hit, want.hit);
    ASSERT_EQ(got.evicted, want.evicted);
    ASSERT_EQ(got.victim_line, want.victim_line);
    ASSERT_EQ(got.writeback, want.writeback);
    ASSERT_EQ(got.bank_delay, want.bank_delay);
    ASSERT_EQ(c.line_of(a), a / line * line);
    ASSERT_TRUE(c.probe(a));
    misses += want.hit ? 0 : 1;
    conflicts += want.bank_delay > 0 ? 1 : 0;
    writebacks += want.writeback ? 1 : 0;
  }
  EXPECT_EQ(stats.value("m.misses"), misses);
  EXPECT_EQ(stats.value("m.bank_conflicts"), conflicts);
  EXPECT_EQ(stats.value("m.writebacks"), writebacks);
  // The stream must exercise every path it checks.
  EXPECT_GT(misses, 0u);
  EXPECT_LT(misses, 6000u);
  EXPECT_GT(writebacks, 0u);
  EXPECT_GT(conflicts, 0u);
}

INSTANTIATE_TEST_SUITE_P(LineAssocBanks, CacheIndexMath,
                         ::testing::Combine(::testing::Values(32u, 64u, 128u),
                                            ::testing::Values(1u, 2u, 4u),
                                            ::testing::Values(1u, 4u, 8u)));

}  // namespace
}  // namespace dwarn
