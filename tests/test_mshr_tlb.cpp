// Unit tests: MSHR file and per-context DTLB / I-TLB.
#include <gtest/gtest.h>

#include <random>
#include <tuple>
#include <vector>

#include "common/stats.hpp"
#include "mem/itlb.hpp"
#include "mem/mshr.hpp"
#include "mem/tlb.hpp"

namespace dwarn {
namespace {

TEST(Mshr, AllocateAndLookup) {
  MshrFile m(4);
  EXPECT_FALSE(m.lookup(0x1000).has_value());
  EXPECT_TRUE(m.allocate(0x1000, 110));
  ASSERT_TRUE(m.lookup(0x1000).has_value());
  EXPECT_EQ(*m.lookup(0x1000), 110u);
  EXPECT_EQ(m.in_flight(), 1u);
}

TEST(Mshr, ExpireRemovesCompleted) {
  MshrFile m(4);
  m.allocate(0x1000, 50);
  m.allocate(0x2000, 100);
  m.expire(60);
  EXPECT_FALSE(m.lookup(0x1000).has_value());
  EXPECT_TRUE(m.lookup(0x2000).has_value());
}

TEST(Mshr, FullFileRefusesAllocation) {
  MshrFile m(2);
  EXPECT_TRUE(m.allocate(0x0, 10));
  EXPECT_TRUE(m.allocate(0x40, 10));
  EXPECT_FALSE(m.allocate(0x80, 10));
  m.expire(11);
  EXPECT_TRUE(m.allocate(0x80, 20));
}

TEST(Mshr, MergeCountsSecondaryMisses) {
  MshrFile m(2);
  m.allocate(0x1000, 100);
  m.merge(0x1000);
  m.merge(0x1000);
  EXPECT_EQ(m.in_flight(), 1u);  // merges do not allocate
}

TEST(Mshr, ClearEmptiesFile) {
  MshrFile m(2);
  m.allocate(0x0, 10);
  m.clear();
  EXPECT_EQ(m.in_flight(), 0u);
}

// ---- Tracked next expiry ------------------------------------------------------

TEST(Mshr, OutOfOrderAllocationExpiresByReadyCycle) {
  MshrFile m(4);
  m.allocate(0x1000, 100);
  m.allocate(0x2000, 50);  // lowers the next expiry below the first fill
  m.allocate(0x3000, 75);
  EXPECT_TRUE(m.next_expiry_consistent());
  m.expire(49);
  EXPECT_EQ(m.in_flight(), 3u);
  m.expire(50);
  EXPECT_FALSE(m.lookup(0x2000).has_value());
  EXPECT_TRUE(m.lookup(0x1000).has_value());
  EXPECT_TRUE(m.lookup(0x3000).has_value());
  EXPECT_TRUE(m.next_expiry_consistent());
  m.expire(74);
  EXPECT_EQ(m.in_flight(), 2u);
  m.expire(75);
  EXPECT_FALSE(m.lookup(0x3000).has_value());
  EXPECT_TRUE(m.next_expiry_consistent());
  m.expire(100);
  EXPECT_EQ(m.in_flight(), 0u);
  EXPECT_TRUE(m.next_expiry_consistent());
}

TEST(Mshr, AllocationBetweenTwoFillsIsSeenByTheNextExpiry) {
  MshrFile m(4);
  m.allocate(0x1000, 10);
  m.expire(5);
  m.allocate(0x2000, 20);
  m.expire(10);  // first fill lands; the second is still in flight
  EXPECT_FALSE(m.lookup(0x1000).has_value());
  EXPECT_TRUE(m.lookup(0x2000).has_value());
  m.allocate(0x3000, 15);  // due before the pending one
  EXPECT_TRUE(m.next_expiry_consistent());
  m.expire(15);
  EXPECT_FALSE(m.lookup(0x3000).has_value());
  EXPECT_TRUE(m.lookup(0x2000).has_value());
  m.expire(20);
  EXPECT_EQ(m.in_flight(), 0u);
  EXPECT_TRUE(m.next_expiry_consistent());
}

TEST(Mshr, ClearResetsTheNextExpiry) {
  MshrFile m(2);
  m.allocate(0x0, 10);
  m.allocate(0x40, 20);
  m.clear();
  EXPECT_TRUE(m.next_expiry_consistent());
  m.allocate(0x80, 30);
  EXPECT_TRUE(m.next_expiry_consistent());
  m.expire(29);
  EXPECT_TRUE(m.lookup(0x80).has_value());
  m.expire(30);
  EXPECT_EQ(m.in_flight(), 0u);
}

TEST(Mshr, RefusedAllocationLeavesTheNextExpiry) {
  MshrFile m(2);
  m.allocate(0x0, 30);
  m.allocate(0x40, 20);
  EXPECT_FALSE(m.allocate(0x80, 5));  // full: the early fill is not tracked
  EXPECT_TRUE(m.next_expiry_consistent());
  m.expire(19);
  EXPECT_EQ(m.in_flight(), 2u);
  m.expire(20);
  EXPECT_EQ(m.in_flight(), 1u);
  EXPECT_TRUE(m.allocate(0x80, 25));
  m.expire(25);
  EXPECT_EQ(m.in_flight(), 1u);
  EXPECT_TRUE(m.lookup(0x0).has_value());
  EXPECT_TRUE(m.next_expiry_consistent());
}

TEST(Mshr, MatchesAFullScanOverASeededOperationStream) {
  // Reference: the file without a tracked expiry, scanning every cycle.
  struct Ref {
    std::vector<MshrEntry> e = std::vector<MshrEntry>(6);
    bool allocate(Addr line, Cycle at) {
      for (auto& x : e) {
        if (!x.valid) {
          x = MshrEntry{line, at, 0, true};
          return true;
        }
      }
      return false;
    }
    void expire(Cycle now) {
      for (auto& x : e) {
        if (x.valid && x.ready_at <= now) x.valid = false;
      }
    }
  } ref;
  MshrFile m(6);
  std::mt19937_64 rng(7);
  for (Cycle now = 1; now < 5000; ++now) {
    m.expire(now);
    ref.expire(now);
    for (int k = static_cast<int>(rng() % 3); k > 0; --k) {
      const Addr line = (rng() % 16) * 64;
      const Cycle at = now + 1 + rng() % 120;
      ASSERT_EQ(m.allocate(line, at), ref.allocate(line, at)) << "cycle " << now;
    }
    if (rng() % 500 == 0) {
      m.clear();
      for (auto& x : ref.e) x.valid = false;
    }
    ASSERT_TRUE(m.next_expiry_consistent()) << "cycle " << now;
    for (Addr line = 0; line < 16 * 64; line += 64) {
      std::optional<Cycle> want;
      for (const auto& x : ref.e) {
        if (x.valid && x.line == line) {
          want = x.ready_at;
          break;
        }
      }
      ASSERT_EQ(m.lookup(line), want) << "cycle " << now << " line " << line;
    }
  }
}

TEST(Tlb, MissThenHitOnSamePage) {
  StatSet stats;
  Tlb t(TlbConfig{.name = "t", .entries = 8, .assoc = 2, .page_bytes = 8192}, stats);
  EXPECT_FALSE(t.access(0x0));
  EXPECT_TRUE(t.access(0x1000));  // same 8KB page
  EXPECT_FALSE(t.access(0x2000));  // next page
  EXPECT_EQ(stats.value("t.misses"), 2u);
}

TEST(Tlb, LruReplacementWithinSet) {
  StatSet stats;
  // 4 sets x 2 ways; pages p, p+4, p+8 map to the same set.
  Tlb t(TlbConfig{.name = "t", .entries = 8, .assoc = 2, .page_bytes = 8192}, stats);
  const Addr page = 8192;
  t.access(0 * 4 * page);
  t.access(1 * 4 * page);
  t.access(0 * 4 * page);      // refresh
  t.access(2 * 4 * page);      // evicts 1*4*page
  EXPECT_TRUE(t.probe(0));
  EXPECT_FALSE(t.probe(1 * 4 * page));
  EXPECT_TRUE(t.probe(2 * 4 * page));
}

TEST(Tlb, ClearForgetsAll) {
  StatSet stats;
  Tlb t(TlbConfig{.name = "t", .entries = 8, .assoc = 2, .page_bytes = 8192}, stats);
  t.access(0x0);
  t.clear();
  EXPECT_FALSE(t.probe(0x0));
}

// ---- Shift/mask indexing vs a division-based reference ----------------------

/// The TLB written straight from its definition: page and set by division
/// and remainder, true LRU. Returns whether the access hit.
class RefTlb {
 public:
  RefTlb(std::uint32_t entries, std::uint32_t assoc, std::uint32_t page)
      : assoc_(assoc), sets_(entries / assoc), page_(page), e_(entries) {}
  bool access(Addr addr) {
    const Addr page = addr / page_;
    Entry* const set = &e_[static_cast<std::size_t>(page % sets_) * assoc_];
    ++clock_;
    for (std::uint32_t w = 0; w < assoc_; ++w) {
      if (set[w].valid && set[w].page == page) {
        set[w].lru = clock_;
        return true;
      }
    }
    Entry* victim = &set[0];
    for (std::uint32_t w = 0; w < assoc_; ++w) {
      if (!set[w].valid) {
        victim = &set[w];
        break;
      }
      if (set[w].lru < victim->lru) victim = &set[w];
    }
    *victim = Entry{page, clock_, true};
    return false;
  }

 private:
  struct Entry {
    Addr page = 0;
    std::uint64_t lru = 0;
    bool valid = false;
  };
  std::uint32_t assoc_;
  std::uint64_t sets_;
  std::uint32_t page_;
  std::vector<Entry> e_;
  std::uint64_t clock_ = 0;
};

using TlbGeometry = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>;  // page, entries, assoc

class TlbIndexMath : public ::testing::TestWithParam<TlbGeometry> {};

TEST_P(TlbIndexMath, DataAndInstructionTlbsMatchDivisionReference) {
  const auto [page, entries, assoc] = GetParam();
  StatSet stats;
  Tlb dtlb(TlbConfig{.name = "d", .entries = entries, .assoc = assoc, .page_bytes = page},
           stats);
  ITlb itlb(ITlbConfig{.name = "i", .entries = entries, .assoc = assoc, .page_bytes = page,
                       .walk_cycles = 40},
            stats);
  RefTlb ref(entries, assoc, page);
  std::mt19937_64 rng(0x71B + page + entries * 7 + assoc);
  const Addr high = Addr{0x12} << 36;
  std::uint64_t misses = 0;
  for (int i = 0; i < 4000; ++i) {
    // Pages near each other (sequential code/data) and far apart (conflicts).
    const Addr a = (rng() & 1) != 0 ? high + rng() % (2ULL * entries * page)
                                    : high + rng() % (64ULL * entries * page);
    const bool want = ref.access(a);
    ASSERT_EQ(dtlb.access(a), want) << "access " << i;
    ASSERT_EQ(itlb.access(a), want ? 0u : 40u) << "access " << i;
    ASSERT_TRUE(dtlb.probe(a));
    ASSERT_TRUE(itlb.probe(a));
    misses += want ? 0 : 1;
  }
  EXPECT_EQ(stats.value("d.misses"), misses);
  EXPECT_EQ(itlb.miss_count(), misses);
  EXPECT_GT(misses, 0u);
  EXPECT_LT(misses, 4000u);
}

INSTANTIATE_TEST_SUITE_P(PageEntriesAssoc, TlbIndexMath,
                         ::testing::Combine(::testing::Values(4096u, 8192u),
                                            ::testing::Values(8u, 64u, 128u),
                                            ::testing::Values(1u, 2u, 4u)));

TEST(TlbDeathTest, NonPowerOfTwoPageOrSetCountAborts) {
  StatSet stats;
  EXPECT_DEATH(Tlb(TlbConfig{.name = "p", .entries = 8, .assoc = 2, .page_bytes = 6000}, stats),
               "page_bytes");
  EXPECT_DEATH(Tlb(TlbConfig{.name = "s", .entries = 12, .assoc = 4, .page_bytes = 8192}, stats),
               "entries");
  EXPECT_DEATH(ITlb(ITlbConfig{.name = "q", .entries = 12, .assoc = 2, .page_bytes = 4096},
                    stats),
               "entries");
}

}  // namespace
}  // namespace dwarn
