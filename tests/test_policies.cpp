// Unit tests: every fetch policy against a scripted PolicyHost.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <random>

#include "policy/data_gating.hpp"
#include "policy/dcpred.hpp"
#include "policy/dwarn.hpp"
#include "policy/factory.hpp"
#include "policy/icount.hpp"
#include "policy/stall_flush.hpp"

namespace dwarn {
namespace {

/// Scriptable host: fixed icounts, recorded flushes, settable clock.
class FakeHost final : public PolicyHost {
 public:
  Cycle clock = 100;
  std::size_t threads = 4;
  std::array<unsigned, kMaxThreads> icounts{};
  std::array<unsigned, kMaxThreads> inflight{};
  std::vector<std::pair<ThreadId, std::uint64_t>> flushes;

  [[nodiscard]] Cycle now() const override { return clock; }
  [[nodiscard]] std::size_t num_threads() const override { return threads; }
  [[nodiscard]] unsigned icount(ThreadId tid) const override { return icounts[tid]; }
  [[nodiscard]] unsigned in_flight(ThreadId tid) const override { return inflight[tid]; }
  std::size_t flush_after(ThreadId tid, std::uint64_t dyn) override {
    flushes.emplace_back(tid, dyn);
    return 5;
  }
  [[nodiscard]] Cycle fill_advance_notice() const override { return 2; }
};

std::vector<ThreadId> order_of(FetchPolicy& p, std::initializer_list<ThreadId> cands) {
  std::vector<ThreadId> in(cands), out;
  p.order(std::span<const ThreadId>(in), out);
  return out;
}

TraceInst load_inst(Addr pc = 0x1000) {
  TraceInst t;
  t.cls = InstClass::Load;
  t.pc = pc;
  t.mem_addr = 0x999;
  return t;
}

// ---- ICOUNT / RR -----------------------------------------------------------

TEST(ICountPolicy, OrdersByAscendingICount) {
  FakeHost h;
  h.icounts = {30, 5, 20, 10};
  ICountPolicy p(h);
  EXPECT_EQ(order_of(p, {0, 1, 2, 3}), (std::vector<ThreadId>{1, 3, 2, 0}));
}

TEST(ICountPolicy, TiesKeepCandidateOrder) {
  FakeHost h;
  h.icounts = {7, 7, 7, 7};
  ICountPolicy p(h);
  EXPECT_EQ(order_of(p, {2, 0, 3, 1}), (std::vector<ThreadId>{2, 0, 3, 1}));
}

TEST(ICountPolicy, OrderEqualsStableSortOnSeededTieHeavyCounts) {
  // sort_by_icount is a hand-written insertion sort; pin it to the
  // std::stable_sort it replaced, for every thread count, with icounts
  // drawn from a tiny range so most comparisons are ties.
  std::mt19937_64 rng(42);
  for (std::size_t n = 1; n <= kMaxThreads; ++n) {
    for (int trial = 0; trial < 300; ++trial) {
      FakeHost h;
      h.threads = n;
      for (std::size_t t = 0; t < kMaxThreads; ++t) {
        h.icounts[t] = static_cast<unsigned>(rng() % (trial % 3 == 0 ? 2 : 4));
      }
      std::vector<ThreadId> cands;
      for (std::size_t t = 0; t < n; ++t) cands.push_back(static_cast<ThreadId>(t));
      std::shuffle(cands.begin(), cands.end(), rng);
      cands.resize(1 + rng() % n);  // policies also sort subsets (DWarn groups)

      std::vector<ThreadId> want = cands;
      std::stable_sort(want.begin(), want.end(), [&](ThreadId a, ThreadId b) {
        return h.icounts[a] < h.icounts[b];
      });
      ICountPolicy p(h);
      std::vector<ThreadId> got;
      p.order(std::span<const ThreadId>(cands), got);
      ASSERT_EQ(got, want) << "threads " << n << " trial " << trial;
    }
  }
}

TEST(RoundRobinPolicy, Rotates) {
  FakeHost h;
  RoundRobinPolicy p(h);
  const auto first = order_of(p, {0, 1, 2});
  const auto second = order_of(p, {0, 1, 2});
  EXPECT_NE(first, second);
  EXPECT_EQ(first.size(), 3u);
}

// ---- STALL -------------------------------------------------------------------

TEST(StallPolicy, GatesUntilFillMinusAdvance) {
  FakeHost h;
  StallPolicy p(h);
  p.on_long_latency(1, 42, /*fill_at=*/200);
  EXPECT_EQ(p.gate_until(1), 198u);
  h.clock = 150;
  auto out = order_of(p, {0, 1});
  EXPECT_EQ(out, (std::vector<ThreadId>{0}));  // thread 1 gated
  h.clock = 198;
  out = order_of(p, {0, 1});
  EXPECT_EQ(out.size(), 2u);  // resumed on the advance indication
}

TEST(StallPolicy, MultipleTriggersExtendGate) {
  FakeHost h;
  StallPolicy p(h);
  p.on_long_latency(0, 1, 200);
  p.on_long_latency(0, 2, 400);
  EXPECT_EQ(p.gate_until(0), 398u);
}

TEST(StallPolicy, KeepsOneThreadRunning) {
  FakeHost h;
  h.threads = 2;
  h.icounts = {9, 4};
  StallPolicy p(h);
  p.on_long_latency(0, 1, 10000);
  p.on_long_latency(1, 2, 10000);
  const auto out = order_of(p, {0, 1});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 1u);  // the lower-ICOUNT gated thread survives
}

TEST(StallPolicy, NeverGatesTheOnlyThread) {
  FakeHost h;
  h.threads = 1;
  StallPolicy p(h);
  p.on_long_latency(0, 1, 10000);
  EXPECT_EQ(p.gate_until(0), 0u);
}

TEST(StallPolicy, ResetClearsGates) {
  FakeHost h;
  StallPolicy p(h);
  p.on_long_latency(0, 1, 10000);
  p.reset();
  EXPECT_EQ(p.gate_until(0), 0u);
}

// ---- FLUSH -------------------------------------------------------------------

TEST(FlushPolicy, FlushesAndGates) {
  FakeHost h;
  FlushPolicy p(h);
  p.on_long_latency(2, 77, 300);
  ASSERT_EQ(h.flushes.size(), 1u);
  EXPECT_EQ(h.flushes[0], (std::pair<ThreadId, std::uint64_t>{2, 77}));
  EXPECT_EQ(p.gate_until(2), 298u);
}

TEST(FlushPolicy, NeverFlushesTheOnlyThread) {
  FakeHost h;
  h.threads = 1;
  FlushPolicy p(h);
  p.on_long_latency(0, 7, 300);
  EXPECT_TRUE(h.flushes.empty());
}

// ---- DG ------------------------------------------------------------------------

TEST(DataGating, GatesWhileMissOutstanding) {
  FakeHost h;
  DataGatingPolicy p(h, 0);
  p.on_l1_miss_detected(1, 10, 0x0);
  EXPECT_EQ(order_of(p, {0, 1}), (std::vector<ThreadId>{0}));
  p.on_fill(1);
  EXPECT_EQ(order_of(p, {0, 1}).size(), 2u);
}

TEST(DataGating, ThresholdToleratesMisses) {
  FakeHost h;
  DataGatingPolicy p(h, 2);
  p.on_l1_miss_detected(0, 1, 0x0);
  p.on_l1_miss_detected(0, 2, 0x0);
  EXPECT_EQ(order_of(p, {0}).size(), 1u);  // 2 <= threshold
  p.on_l1_miss_detected(0, 3, 0x0);
  EXPECT_TRUE(order_of(p, {0}).empty());  // 3 > threshold
}

TEST(DataGating, NoKeepOneRule) {
  // DG may stall every thread (the paper's criticism at low thread counts).
  FakeHost h;
  DataGatingPolicy p(h, 0);
  p.on_l1_miss_detected(0, 1, 0x0);
  p.on_l1_miss_detected(1, 2, 0x0);
  EXPECT_TRUE(order_of(p, {0, 1}).empty());
}

TEST(DataGating, CounterBalancedByFills) {
  FakeHost h;
  DataGatingPolicy p(h, 0);
  for (int i = 0; i < 5; ++i) p.on_l1_miss_detected(3, i, 0x0);
  for (int i = 0; i < 5; ++i) p.on_fill(3);
  EXPECT_EQ(p.outstanding(3), 0u);
}

// ---- PDG ---------------------------------------------------------------------

TEST(Pdg, UnpredictedMissCountsFromDetection) {
  FakeHost h;
  PredictiveDataGatingPolicy p(h, 0);
  // Predictor is cold: the load is predicted to hit, nothing pending.
  p.on_fetch(0, 1, load_inst());
  EXPECT_EQ(p.pending_count(0), 0u);
  p.on_l1_miss_detected(0, 1, 0x1000);  // actually missed
  EXPECT_EQ(p.pending_count(0), 1u);
  EXPECT_TRUE(order_of(p, {0}).empty());
  p.on_load_complete(0, 1, 0x1000, true, true);
  EXPECT_EQ(p.pending_count(0), 0u);
}

TEST(Pdg, TrainedPredictorGatesAtFetch) {
  FakeHost h;
  PredictiveDataGatingPolicy p(h, 0);
  // Teach the predictor that loads at this PC miss.
  for (std::uint64_t i = 0; i < 4; ++i) {
    p.on_load_complete(0, i, 0x4000, /*l1_missed=*/true, true);
  }
  p.on_fetch(0, 99, load_inst(0x4000));
  EXPECT_EQ(p.pending_count(0), 1u);  // counted from fetch, before any miss
}

TEST(Pdg, SquashUnwindsPending) {
  FakeHost h;
  PredictiveDataGatingPolicy p(h, 0);
  p.on_l1_miss_detected(0, 5, 0x1000);
  EXPECT_EQ(p.pending_count(0), 1u);
  p.on_inst_squashed(0, 5, load_inst());
  EXPECT_EQ(p.pending_count(0), 0u);
  // A late completion event for the squashed load must not double-count.
  p.on_load_complete(0, 5, 0x1000, true, true);
  EXPECT_EQ(p.pending_count(0), 0u);
}

// ---- DWarn --------------------------------------------------------------------

TEST(DWarn, NormalGroupBeforeDmissGroup) {
  FakeHost h;
  h.icounts = {5, 50, 10, 2};
  DWarnPolicy p(h, DWarnMode::Hybrid);
  p.on_l1_miss_detected(3, 1, 0x0);  // thread 3 (lowest icount) -> Dmiss
  const auto out = order_of(p, {0, 1, 2, 3});
  // Normal {0,2,1} by icount, then Dmiss {3}.
  EXPECT_EQ(out, (std::vector<ThreadId>{0, 2, 1, 3}));
}

TEST(DWarn, FillRestoresNormalPriority) {
  FakeHost h;
  h.icounts = {5, 1};
  DWarnPolicy p(h, DWarnMode::Hybrid);
  p.on_l1_miss_detected(1, 1, 0x0);
  EXPECT_EQ(order_of(p, {0, 1})[0], 0u);
  p.on_fill(1);
  EXPECT_EQ(order_of(p, {0, 1})[0], 1u);  // back to pure ICOUNT order
}

TEST(DWarn, CounterTracksMultipleMisses) {
  FakeHost h;
  DWarnPolicy p(h, DWarnMode::Hybrid);
  p.on_l1_miss_detected(0, 1, 0x0);
  p.on_l1_miss_detected(0, 2, 0x0);
  p.on_fill(0);
  EXPECT_EQ(p.dmiss_counter(0), 1u);  // still Dmiss until the last fill
  p.on_fill(0);
  EXPECT_EQ(p.dmiss_counter(0), 0u);
}

TEST(DWarn, HybridGatesOnlyAtTwoThreadsOrFewer) {
  FakeHost h;
  DWarnPolicy p(h, DWarnMode::Hybrid);
  h.threads = 4;
  p.on_long_latency(0, 1, 500);
  EXPECT_EQ(p.gate_until(0), 0u);  // >=3 threads: never gate
  h.threads = 2;
  p.on_long_latency(0, 2, 500);
  EXPECT_EQ(p.gate_until(0), 498u);  // <3 threads: gate like STALL
}

TEST(DWarn, BasicModeNeverGates) {
  FakeHost h;
  h.threads = 2;
  DWarnPolicy p(h, DWarnMode::Basic);
  p.on_long_latency(0, 1, 500);
  EXPECT_EQ(p.gate_until(0), 0u);
  h.clock = 100;
  p.on_l1_miss_detected(0, 2, 0x0);
  EXPECT_EQ(order_of(p, {0}).size(), 1u);  // demoted but never removed
}

TEST(DWarn, GateAlwaysGatesAtAnyThreadCount) {
  FakeHost h;
  h.threads = 8;
  DWarnPolicy p(h, DWarnMode::GateAlways);
  p.on_long_latency(5, 1, 500);
  EXPECT_EQ(p.gate_until(5), 498u);
}

TEST(DWarn, HybridKeepsOneThreadRunning) {
  FakeHost h;
  h.threads = 2;
  h.clock = 100;
  DWarnPolicy p(h, DWarnMode::Hybrid);
  p.on_long_latency(0, 1, 10000);
  p.on_long_latency(1, 2, 10000);
  EXPECT_EQ(order_of(p, {0, 1}).size(), 1u);
}

TEST(DWarn, NamesReflectMode) {
  FakeHost h;
  EXPECT_EQ(DWarnPolicy(h, DWarnMode::Hybrid).name(), "DWarn");
  EXPECT_EQ(DWarnPolicy(h, DWarnMode::Basic).name(), "DWarn-basic");
  EXPECT_EQ(DWarnPolicy(h, DWarnMode::GateAlways).name(), "DWarn-gate");
}

// ---- DC-PRED -------------------------------------------------------------------

TEST(DcPred, LimitsResourcesWhilePredictedMissInFlight) {
  FakeHost h;
  DcPredPolicy p(h, /*limit=*/16);
  EXPECT_EQ(p.max_in_flight(0), std::numeric_limits<unsigned>::max());
  // Train the L2-miss predictor at one PC, then fetch a load there.
  for (std::uint64_t i = 0; i < 4; ++i) p.on_load_complete(0, i, 0x7000, true, true);
  p.on_fetch(0, 50, load_inst(0x7000));
  EXPECT_EQ(p.max_in_flight(0), 16u);
  p.on_load_complete(0, 50, 0x7000, true, true);
  EXPECT_EQ(p.max_in_flight(0), std::numeric_limits<unsigned>::max());
}

TEST(DcPred, SquashReleasesLimit) {
  FakeHost h;
  DcPredPolicy p(h, 16);
  for (std::uint64_t i = 0; i < 4; ++i) p.on_load_complete(0, i, 0x7000, true, true);
  p.on_fetch(0, 50, load_inst(0x7000));
  p.on_inst_squashed(0, 50, load_inst(0x7000));
  EXPECT_EQ(p.max_in_flight(0), std::numeric_limits<unsigned>::max());
}

// ---- factory ---------------------------------------------------------------------

TEST(Factory, NameRoundTripsForEveryKind) {
  FakeHost h;
  for (const PolicyKind k :
       {PolicyKind::ICount, PolicyKind::RoundRobin, PolicyKind::Stall,
        PolicyKind::Flush, PolicyKind::DG, PolicyKind::PDG, PolicyKind::DWarn,
        PolicyKind::DWarnBasic, PolicyKind::DWarnGateAlways, PolicyKind::DCPred}) {
    const auto p = make_policy(k, h);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->name(), policy_name(k));
    const auto parsed = policy_from_name(policy_name(k));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_FALSE(policy_from_name("bogus").has_value());
}

TEST(Factory, PaperPoliciesMatchEvaluationSet) {
  EXPECT_EQ(kPaperPolicies.size(), 6u);
  EXPECT_EQ(kPaperPolicies.front(), PolicyKind::ICount);
  EXPECT_EQ(kPaperPolicies.back(), PolicyKind::DWarn);
}

}  // namespace
}  // namespace dwarn
