// Unit tests: memory hierarchy latency composition and event semantics.
#include <gtest/gtest.h>

#include "mem/hierarchy.hpp"
#include "trace/address_stream.hpp"

namespace dwarn {
namespace {

class HierarchyTest : public ::testing::Test {
 protected:
  StatSet stats;
  MemoryConfig cfg{};  // paper Table 3 defaults
  MemoryHierarchy mem{cfg, 2, stats};
};

TEST_F(HierarchyTest, L1HitLatency) {
  mem.load(0, 0x1000, 10);  // install (cold miss)
  mem.tick(500);            // the fill has arrived
  const auto out = mem.load(0, 0x1000, 500);  // now a hit
  EXPECT_TRUE(out.l1_hit);
  EXPECT_EQ(out.complete_at, 500u + cfg.l1_latency);
}

TEST_F(HierarchyTest, ColdMissPaysL2PlusMemory) {
  mem.load(0, 0x5040, 1);  // warm the DTLB page with a different line
  mem.tick(1000);
  const auto out = mem.load(0, 0x5000, 1000);
  EXPECT_FALSE(out.l1_hit);
  EXPECT_FALSE(out.l2_hit);
  EXPECT_FALSE(out.tlb_miss);
  EXPECT_EQ(out.complete_at, 1000 + cfg.l1_latency + cfg.l2_latency + cfg.mem_latency);
}

TEST_F(HierarchyTest, L2HitCostsL2LatencyOnly) {
  mem.load(0, 0x9000, 10);   // install in L1+L2
  mem.tick(2000);
  // Evict from L1 by conflict: lines one L1-way apart (32KB) share a set.
  mem.load(0, 0x9000 + 32 * 1024, 2000);
  mem.load(0, 0x9000 + 64 * 1024, 2100);
  mem.tick(4000);
  const auto out = mem.load(0, 0x9000, 4000);  // L1 miss, L2 hit
  EXPECT_FALSE(out.l1_hit);
  EXPECT_TRUE(out.l2_hit);
  EXPECT_EQ(out.complete_at, 4000 + cfg.l1_latency + cfg.l2_latency);
}

TEST_F(HierarchyTest, TlbMissAddsPenalty) {
  const auto out = mem.load(0, 0x400000, 10);  // fresh page + cold line
  EXPECT_TRUE(out.tlb_miss);
  EXPECT_EQ(out.complete_at,
            10 + cfg.l1_latency + cfg.l2_latency + cfg.mem_latency + cfg.tlb_miss_penalty);
  mem.tick(1000);
  const auto again = mem.load(0, 0x400100, 1000);  // same page, new line
  EXPECT_FALSE(again.tlb_miss);
}

TEST_F(HierarchyTest, DtlbIsPerContext) {
  mem.load(0, 0x800000, 10);
  const auto other = mem.load(1, 0x800000, 20);
  EXPECT_TRUE(other.tlb_miss);  // thread 1's TLB is cold
}

TEST_F(HierarchyTest, SecondaryLoadWaitsForInflightFill) {
  mem.load(0, 0x7040, 1);  // warm the DTLB page with a different line
  mem.tick(400);
  const auto first = mem.load(0, 0x7000, 400);  // cold line
  EXPECT_EQ(first.complete_at, 511u);
  // The tag was installed when the miss issued, but the data is not there
  // yet: the second load merges and completes with the fill.
  mem.tick(401);
  const auto second = mem.load(0, 0x7008, 401);
  EXPECT_FALSE(second.l1_hit);
  EXPECT_TRUE(second.mshr_merged);
  EXPECT_FALSE(second.l2_hit);
  EXPECT_EQ(second.complete_at, 511u);
  EXPECT_EQ(stats.value("mem.load_l1_misses"), 3u);
  EXPECT_EQ(stats.value("mem.load_mshr_merges"), 1u);
}

TEST_F(HierarchyTest, MshrMergesSecondaryMiss) {
  // The merge holds even when the line's tag is gone: conflict it out
  // with two lines one L1-way (32 KiB) apart while its fill is in flight.
  const auto first = mem.load(0, 0xA000, 10);
  mem.load(0, 0xA000 + 32 * 1024, 11);
  mem.load(0, 0xA000 + 64 * 1024, 12);
  const auto second = mem.load(0, 0xA008, 13);  // L1 miss, fill still in flight
  EXPECT_TRUE(second.mshr_merged);
  EXPECT_GE(second.complete_at, first.complete_at);
  EXPECT_EQ(stats.value("mem.load_mshr_merges"), 1u);
}

TEST_F(HierarchyTest, MergedLoadClassifiedLikePrimary) {
  mem.load(0, 0xB000, 10);  // cold: memory access in flight
  mem.load(0, 0xB000 + 32 * 1024, 11);
  mem.load(0, 0xB000 + 64 * 1024, 12);
  const auto merged = mem.load(0, 0xB010, 13);
  EXPECT_TRUE(merged.mshr_merged);
  EXPECT_FALSE(merged.l2_hit);  // classified as L2 miss like the primary
}

TEST_F(HierarchyTest, MshrExpiresAfterFill) {
  const auto out = mem.load(0, 0xC000, 10);
  mem.tick(out.complete_at + 1);
  const auto after = mem.load(0, 0xC008, out.complete_at + 1);
  EXPECT_FALSE(after.mshr_merged);  // fill done: plain L1 hit now
  EXPECT_TRUE(after.l1_hit);
}

TEST_F(HierarchyTest, StoresWriteAllocate) {
  mem.store(0, 0xD000, 10);
  const auto out = mem.load(0, 0xD000, 20);
  EXPECT_TRUE(out.l1_hit);  // store installed the line
}

TEST_F(HierarchyTest, IFetchWaitsForInflightLine) {
  // Preset instruction side: 64KB 2-way L1I, no fetch-ahead, free I-TLB.
  EXPECT_EQ(cfg.icache.size_bytes, 64u * 1024);
  EXPECT_EQ(cfg.icache.prefetch_depth, 0u);
  EXPECT_EQ(cfg.itlb.walk_cycles, 0u);
  mem.tick(10);
  const auto cold = mem.ifetch(0, 0x100000, 10);
  EXPECT_FALSE(cold.l1_hit);
  EXPECT_FALSE(cold.l2_hit);
  EXPECT_FALSE(cold.itlb_miss);
  EXPECT_EQ(cold.ready_at, 10 + cfg.l2_latency + cfg.mem_latency);
  // One cycle later the line is still in flight: the fetch waits for the
  // pending fill instead of hitting the already-installed tag.
  mem.tick(11);
  const auto secondary = mem.ifetch(1, 0x100020, 11);
  EXPECT_FALSE(secondary.l1_hit);
  EXPECT_EQ(secondary.ready_at, cold.ready_at);
  for (Cycle c = 12; c <= cold.ready_at; ++c) mem.tick(c);
  const auto hit = mem.ifetch(0, 0x100000, cold.ready_at);
  EXPECT_TRUE(hit.l1_hit);
  EXPECT_EQ(hit.ready_at, cold.ready_at);
  EXPECT_EQ(stats.value("imem.demand_misses"), 1u);
}

TEST_F(HierarchyTest, CountersDistinguishLoadsAndStores) {
  mem.load(0, 0x0, 1);
  mem.store(0, 0x40, 2);
  EXPECT_EQ(stats.value("mem.loads"), 1u);
  EXPECT_EQ(stats.value("mem.stores"), 1u);
}

TEST_F(HierarchyTest, ClearStateForgetsCaches) {
  mem.load(0, 0x1000, 10);
  mem.clear_state();
  const auto out = mem.load(0, 0x1000, 100);
  EXPECT_FALSE(out.l1_hit);
}

// --- The warm-region contract that DWarn's premise rests on ---------------

TEST_F(HierarchyTest, WarmRegionMissesL1HitsL2Steady) {
  // Drive the aliased warm pattern exactly as AddressStreamSet emits it.
  const Addr base = 0x40000000;
  auto warm_addr = [&](std::uint64_t k) {
    return base + (k % AddressStreamSet::kWarmLines) * AddressStreamSet::kWarmStride;
  };
  Cycle now = 0;
  for (std::uint64_t k = 0; k < AddressStreamSet::kWarmLines; ++k) {
    now += 200;
    mem.tick(now);
    mem.load(0, warm_addr(k), now);  // first lap: compulsory
  }
  std::uint64_t l1_hits = 0, l2_hits = 0, n = 0;
  for (std::uint64_t k = AddressStreamSet::kWarmLines;
       k < 6 * AddressStreamSet::kWarmLines; ++k) {
    now += 200;
    mem.tick(now);
    const auto out = mem.load(0, warm_addr(k), now);
    ++n;
    l1_hits += out.l1_hit ? 1 : 0;
    l2_hits += (!out.l1_hit && out.l2_hit) ? 1 : 0;
  }
  EXPECT_EQ(l1_hits, 0u) << "warm lines must conflict-miss in L1";
  EXPECT_EQ(l2_hits, n) << "warm lines must stay resident in L2";
}

TEST_F(HierarchyTest, ColdStreamAlwaysMissesBothLevels) {
  Cycle now = 0;
  for (int i = 0; i < 200; ++i) {
    now += 150;
    mem.tick(now);
    const auto out = mem.load(0, 0x80000000ull + 64ull * static_cast<Addr>(i), now);
    EXPECT_FALSE(out.l1_hit);
    EXPECT_FALSE(out.l2_hit);
  }
}

}  // namespace
}  // namespace dwarn
