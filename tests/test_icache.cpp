// Unit tests: the instruction-side subsystem (L1 I-cache, I-TLB,
// next-line fetch-ahead) and its determinism when fed the code_layout
// address stream.
#include <gtest/gtest.h>

#include "mem/hierarchy.hpp"
#include "mem/icache.hpp"
#include "mem/itlb.hpp"
#include "sim/simulator.hpp"
#include "sim/workload.hpp"
#include "trace/code_layout.hpp"

namespace dwarn {
namespace {

/// An InstMemory over a private L2, with the I-TLB neutralized (walk 0,
/// huge reach) so cache timing can be asserted in isolation.
class InstMemoryTest : public ::testing::Test {
 protected:
  InstMemoryTest() { rebuild({}); }

  void rebuild(ICacheConfig cfg) {
    icfg = cfg;
    stats = std::make_unique<StatSet>();
    l2 = std::make_unique<Cache>(
        CacheConfig{.name = "l2", .size_bytes = 512 * 1024, .assoc = 2,
                    .line_bytes = 64, .banks = 8},
        *stats);
    ITlbConfig tlb;
    tlb.entries = 1024;
    tlb.assoc = 4;
    tlb.page_bytes = 1u << 28;
    tlb.walk_cycles = 0;
    imem = std::make_unique<InstMemory>(icfg, tlb, /*l2_latency=*/10,
                                        /*mem_latency=*/100, /*num_threads=*/2, *l2,
                                        *stats);
  }

  ICacheConfig icfg;
  std::unique_ptr<StatSet> stats;
  std::unique_ptr<Cache> l2;
  std::unique_ptr<InstMemory> imem;
};

TEST_F(InstMemoryTest, ColdMissPaysL2PlusMemory) {
  const auto out = imem->fetch(0, 0x1000, 50);
  EXPECT_FALSE(out.l1_hit);
  EXPECT_FALSE(out.l2_hit);
  EXPECT_EQ(out.ready_at, 50u + 10 + 100);  // hit_latency 1 adds nothing
  EXPECT_EQ(imem->l1i_miss_count(), 1u);
}

TEST_F(InstMemoryTest, HitAfterFillIsSameCycle) {
  (void)imem->fetch(0, 0x1000, 50);
  imem->tick(1000);
  const auto out = imem->fetch(0, 0x1010, 1000);  // same 64B line
  EXPECT_TRUE(out.l1_hit);
  EXPECT_EQ(out.ready_at, 1000u);
  EXPECT_EQ(imem->l1i_miss_count(), 1u);
}

TEST_F(InstMemoryTest, ExtraHitLatencyStallsFetch) {
  ICacheConfig cfg;
  cfg.hit_latency = 3;
  cfg.prefetch_depth = 0;
  rebuild(cfg);
  (void)imem->fetch(0, 0x1000, 50);
  imem->tick(1000);
  const auto out = imem->fetch(0, 0x1000, 1000);
  EXPECT_TRUE(out.l1_hit);
  EXPECT_EQ(out.ready_at, 1002u);  // hit_latency - 1 beyond this cycle
}

TEST_F(InstMemoryTest, SecondaryMissMergesOntoInflightLine) {
  const auto first = imem->fetch(0, 0x1000, 50);
  const auto second = imem->fetch(1, 0x1020, 55);  // same line, still in flight
  EXPECT_FALSE(second.l1_hit);
  EXPECT_EQ(second.ready_at, first.ready_at);  // completes with the primary
  EXPECT_EQ(imem->l1i_miss_count(), 1u);       // no second transaction
  EXPECT_EQ(stats->value("imem.inflight_merges"), 1u);
}

TEST_F(InstMemoryTest, LruEviction) {
  ICacheConfig cfg;
  cfg.size_bytes = 128;  // 2 lines, direct-mapped: set 0 holds A and A+128
  cfg.assoc = 1;
  cfg.prefetch_depth = 0;
  rebuild(cfg);
  (void)imem->fetch(0, 0x1000, 10);
  imem->tick(500);
  (void)imem->fetch(0, 0x1080, 500);  // same set, evicts 0x1000
  imem->tick(1000);
  const auto out = imem->fetch(0, 0x1000, 1000);
  EXPECT_FALSE(out.l1_hit);
  EXPECT_TRUE(out.l2_hit);  // victim still resident in L2
  EXPECT_EQ(out.ready_at, 1000u + 10);
}

TEST_F(InstMemoryTest, PrefetchDepthWarmsNextLines) {
  ICacheConfig cfg;
  cfg.prefetch_depth = 2;
  rebuild(cfg);
  (void)imem->fetch(0, 0x1000, 10);  // demand 0x1000, prefetch 0x1040 + 0x1080
  EXPECT_EQ(imem->prefetch_count(), 2u);
  imem->tick(1000);
  EXPECT_TRUE(imem->fetch(0, 0x1040, 1000).l1_hit);
  imem->tick(2000);
  EXPECT_TRUE(imem->fetch(0, 0x1080, 2000).l1_hit);
  EXPECT_EQ(imem->l1i_miss_count(), 1u);  // only the demand miss
}

TEST_F(InstMemoryTest, DepthZeroDisablesPrefetch) {
  ICacheConfig cfg;
  cfg.prefetch_depth = 0;
  rebuild(cfg);
  (void)imem->fetch(0, 0x1000, 10);
  EXPECT_EQ(imem->prefetch_count(), 0u);
  imem->tick(1000);
  EXPECT_FALSE(imem->fetch(0, 0x1040, 1000).l1_hit);
}

TEST_F(InstMemoryTest, DemandOnInflightPrefetchCountsLate) {
  const auto demand = imem->fetch(0, 0x1000, 10);  // prefetches 0x1040
  ASSERT_EQ(imem->prefetch_count(), 1u);
  const auto next = imem->fetch(0, 0x1040, 12);  // before the prefetch fill
  EXPECT_FALSE(next.l1_hit);
  EXPECT_GE(next.ready_at, 12u);
  EXPECT_EQ(stats->value("imem.prefetch_late"), 1u);
  // The prefetch fill, not a new transaction, delivers the line.
  EXPECT_EQ(imem->l1i_miss_count(), 1u);
  EXPECT_LE(next.ready_at, demand.ready_at + 10);
}

TEST_F(InstMemoryTest, ItlbWalkChargesFetchPath) {
  StatSet s2;
  Cache l2b(CacheConfig{.name = "l2", .size_bytes = 512 * 1024, .assoc = 2,
                        .line_bytes = 64, .banks = 8},
            s2);
  ICacheConfig cfg;
  ITlbConfig tlb;
  tlb.entries = 4;
  tlb.assoc = 2;
  tlb.page_bytes = 4096;
  tlb.walk_cycles = 40;
  InstMemory im(cfg, tlb, 10, 100, 1, l2b, s2);
  const auto cold = im.fetch(0, 0x1000, 10);  // I-TLB miss + cold cache miss
  EXPECT_TRUE(cold.itlb_miss);
  EXPECT_EQ(cold.ready_at, 10u + 10 + 100 + 40);
  EXPECT_EQ(im.itlb_miss_count(), 1u);
  im.tick(1000);
  const auto warm = im.fetch(0, 0x1004, 1000);  // same page, same line
  EXPECT_FALSE(warm.itlb_miss);
  EXPECT_EQ(warm.ready_at, 1000u);
}

TEST(ITlbTest, LruReplacementWithinSet) {
  StatSet stats;
  ITlbConfig cfg;
  cfg.entries = 2;
  cfg.assoc = 2;  // one set: pages compete by LRU
  cfg.page_bytes = 4096;
  cfg.walk_cycles = 7;
  ITlb tlb(cfg, stats);
  EXPECT_EQ(tlb.access(0x0000), 7u);   // page 0: walk
  EXPECT_EQ(tlb.access(0x1000), 7u);   // page 1: walk
  EXPECT_EQ(tlb.access(0x0000), 0u);   // page 0: hit (touches LRU)
  EXPECT_EQ(tlb.access(0x2000), 7u);   // page 2: evicts page 1 (LRU)
  EXPECT_TRUE(tlb.probe(0x0000));
  EXPECT_FALSE(tlb.probe(0x1000));
  EXPECT_EQ(tlb.access(0x1000), 7u);
  EXPECT_EQ(stats.value(cfg.name + ".misses"), 4u);
}

TEST(InstMemoryHierarchy, RoutesIfetchThroughInstMemory) {
  StatSet stats;
  MemoryConfig cfg;
  cfg.icache.size_bytes = 4 * 1024;
  cfg.itlb.entries = 4;
  cfg.itlb.assoc = 2;
  cfg.itlb.walk_cycles = 40;
  MemoryHierarchy mem(cfg, 2, stats);
  EXPECT_EQ(mem.inst_memory().config().size_bytes, 4u * 1024);
  EXPECT_EQ(mem.ifetch_line_bytes(), cfg.icache.line_bytes);
  const auto out = mem.ifetch(0, 0x2000, 10);
  EXPECT_FALSE(out.l1_hit);
  EXPECT_TRUE(out.itlb_miss);
  EXPECT_EQ(out.ready_at, 10 + cfg.l2_latency + cfg.mem_latency + 40);
  EXPECT_EQ(stats.value("imem.fetches"), 1u);
}

TEST(InstMemoryDeterminism, CodeLayoutStreamReplays) {
  // Feed the same code_layout-derived address walk to two independent
  // subsystems: every counter and outcome must match exactly (this is
  // the stream-level half of the bitwise merge contract).
  const CodeLayout layout(profile_of(Benchmark::gcc), /*tid=*/0, /*seed=*/42);
  auto run = [&](StatSet& stats) {
    Cache l2(CacheConfig{.name = "l2", .size_bytes = 512 * 1024, .assoc = 2,
                         .line_bytes = 64, .banks = 8},
             stats);
    ICacheConfig cfg;
    cfg.size_bytes = 8 * 1024;
    ITlbConfig tlb;
    tlb.entries = 8;
    tlb.assoc = 2;
    tlb.page_bytes = 4096;
    tlb.walk_cycles = 40;
    InstMemory im(cfg, tlb, 10, 100, 1, l2, stats);
    Cycle now = 0;
    std::uint64_t slot = 0;
    Cycle sum = 0;
    for (int i = 0; i < 5000; ++i) {
      // A deterministic stride walk with function-call-like jumps.
      slot = (slot + ((i % 97 == 0) ? 1031 : 1)) % layout.num_slots();
      const auto out = im.fetch(0, layout.pc_of(slot), now);
      sum += out.ready_at;
      now = out.ready_at > now ? out.ready_at : now + 1;
      im.tick(now);
    }
    return sum;
  };
  StatSet a;
  StatSet b;
  const Cycle sa = run(a);
  const Cycle sb = run(b);
  EXPECT_EQ(sa, sb);
  EXPECT_EQ(a.snapshot(), b.snapshot());
  EXPECT_GT(a.value("imem.demand_misses"), 0u);
  EXPECT_GT(a.value("imem.itlb_misses"), 0u);
  EXPECT_GT(a.value("imem.prefetch_issued"), 0u);
}

TEST(InstMemorySimulation, EnabledRunReportsPressureCounters) {
  MachineConfig m = baseline_machine(2);
  m.mem.icache = ICacheConfig{.size_bytes = 4 * 1024,
                              .assoc = 2,
                              .line_bytes = 64,
                              .hit_latency = 1,
                              .prefetch_depth = 1,
                              .mshrs = 4};
  m.mem.itlb = ITlbConfig{.name = "itlb", .entries = 2, .assoc = 1,
                          .page_bytes = 4096, .walk_cycles = 24};
  RunLength len;
  len.warmup_insts = 500;
  len.measure_insts = 2000;
  const SimResult res = run_simulation(m, workload_by_name("2-MIX"),
                                       PolicyKind::ICount, len);
  EXPECT_GT(res.imiss_per_kinst, 0.0);
  EXPECT_GT(res.itlb_miss_per_kinst, 0.0);
  EXPECT_GT(res.fetch_stall_frac, 0.0);
  EXPECT_GT(res.counters.at("imem.imiss_per_kinst_x1000"), 0u);
  EXPECT_GT(res.counters.at("imem.itlb_miss_per_kinst_x1000"), 0u);
  EXPECT_GT(res.counters.at("imem.fetch_stall_frac_x1000"), 0u);
  EXPECT_GT(res.counters.at("imem.prefetch_issued"), 0u);
  EXPECT_GT(res.throughput, 0.0);

  // Pressure must order sensibly: the same tiny cache with fetch-ahead
  // disabled loses to a generous 64KB/large I-TLB configuration on
  // throughput and miss rate.
  MachineConfig worst = m;
  worst.mem.icache.prefetch_depth = 0;
  const SimResult squeezed = run_simulation(worst, workload_by_name("2-MIX"),
                                            PolicyKind::ICount, len);
  MachineConfig roomy = m;
  roomy.mem.icache.size_bytes = 64 * 1024;
  roomy.mem.itlb.entries = 1024;
  roomy.mem.itlb.assoc = 2;
  const SimResult generous = run_simulation(roomy, workload_by_name("2-MIX"),
                                            PolicyKind::ICount, len);
  EXPECT_LT(squeezed.throughput, generous.throughput);
  EXPECT_GT(squeezed.imiss_per_kinst, generous.imiss_per_kinst);
}

}  // namespace
}  // namespace dwarn
