// Unit + property tests: profiles, address streams, code layout and the
// rewindable trace stream (the SPEC substitution substrate).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "trace/address_stream.hpp"
#include "trace/benchmark_profile.hpp"
#include "trace/code_layout.hpp"
#include "trace/trace_stream.hpp"
#include "trace/wrongpath.hpp"

namespace dwarn {
namespace {

// ---- profiles --------------------------------------------------------------

TEST(Profiles, TwelveBenchmarksWithUniqueNames) {
  std::set<std::string_view> names;
  for (const auto& p : all_profiles()) names.insert(p.name);
  EXPECT_EQ(names.size(), kNumBenchmarks);
}

TEST(Profiles, LookupByNameRoundTrips) {
  for (const auto& p : all_profiles()) {
    const auto b = benchmark_from_name(p.name);
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(*b, p.id);
  }
  EXPECT_FALSE(benchmark_from_name("nonesuch").has_value());
}

TEST(Profiles, MemClassMatchesPaperCriterion) {
  // MEM iff L2 miss rate >= 1% of loads (the paper states ">1%" but lists
  // parser, whose table value rounds to exactly 1.0, in the MEM group).
  for (const auto& p : all_profiles()) {
    const auto ref = table2a_reference(p.id);
    EXPECT_EQ(p.is_mem, ref.l2_miss_pct >= 1.0) << p.name;
  }
}

TEST(Profiles, LocalityProbabilitiesDeriveFromTable2a) {
  for (const auto& p : all_profiles()) {
    const auto ref = table2a_reference(p.id);
    EXPECT_NEAR(p.p_cold * 100.0, ref.l2_miss_pct, 0.35) << p.name;
    EXPECT_NEAR((p.p_cold + p.p_warm) * 100.0, ref.l1_miss_pct, 0.35) << p.name;
  }
}

class ProfileParam : public ::testing::TestWithParam<Benchmark> {};

TEST_P(ProfileParam, MixFractionsAreSane) {
  const auto& p = profile_of(GetParam());
  const double mix = p.load_frac + p.store_frac + p.branch_frac + p.fp_frac + p.mul_frac;
  EXPECT_GT(p.load_frac, 0.0);
  EXPECT_GT(p.branch_frac, 0.0);
  EXPECT_LT(mix, 1.0);
  EXPECT_LE(p.p_cold + p.p_warm, 1.0);
  EXPECT_GE(p.miss_site_frac(), 0.01);
  EXPECT_LE(p.miss_site_frac(), 0.9);
  EXPECT_EQ(p.code_lines * 16 % CodeLayout::kFuncSlots, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, ProfileParam,
                         ::testing::Values(Benchmark::mcf, Benchmark::twolf,
                                           Benchmark::vpr, Benchmark::parser,
                                           Benchmark::gap, Benchmark::vortex,
                                           Benchmark::gcc, Benchmark::perlbmk,
                                           Benchmark::bzip2, Benchmark::crafty,
                                           Benchmark::gzip, Benchmark::eon));

// ---- address streams --------------------------------------------------------

TEST(AddressStream, RegionsDisjointAcrossThreads) {
  const auto& prof = profile_of(Benchmark::mcf);
  AddressStreamSet a(prof, 0, 1), b(prof, 1, 1);
  EXPECT_NE(a.hot_base() >> 40, b.hot_base() >> 40);
  EXPECT_NE(a.warm_base() >> 40, b.warm_base() >> 40);
}

TEST(AddressStream, WarmLinesAliasIntoOneL1Set) {
  const auto& prof = profile_of(Benchmark::gzip);
  AddressStreamSet s(prof, 0, 7);
  Xoshiro256 rng(3);
  std::set<Addr> l1_sets;
  std::set<Addr> lines;
  for (std::uint32_t i = 0; i < 4 * AddressStreamSet::kWarmLines; ++i) {
    const Addr a = s.next(Locality::Warm, rng);
    l1_sets.insert((a / 64) % 512);  // 64KB 2-way 64B: 512 sets
    lines.insert(a / 64);
  }
  EXPECT_EQ(l1_sets.size(), 1u) << "warm set must conflict in a single L1 set";
  EXPECT_EQ(lines.size(), AddressStreamSet::kWarmLines);
}

TEST(AddressStream, WarmAvoidsOwnHotSets) {
  for (std::uint64_t seed = 1; seed < 40; ++seed) {
    const auto& prof = profile_of(Benchmark::twolf);
    AddressStreamSet s(prof, 0, seed);
    const Addr hot_set = (s.hot_base() / 64) % 512;
    const Addr warm_set = (s.warm_base() / 64) % 512;
    const Addr dist = (warm_set - hot_set + 512) % 512;
    EXPECT_GE(dist, AddressStreamSet::kHotLines) << "seed " << seed;
  }
}

TEST(AddressStream, ColdStreamNeverRepeatsWithinWindow) {
  const auto& prof = profile_of(Benchmark::mcf);
  AddressStreamSet s(prof, 2, 9);
  Xoshiro256 rng(4);
  std::set<Addr> seen;
  for (int i = 0; i < 10000; ++i) {
    const Addr line = s.next(Locality::Cold, rng) / 64;
    EXPECT_TRUE(seen.insert(line).second) << "cold line repeated";
  }
}

TEST(AddressStream, HotStaysWithinHotSet) {
  const auto& prof = profile_of(Benchmark::bzip2);
  AddressStreamSet s(prof, 1, 13);
  Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) {
    const Addr a = s.next(Locality::Hot, rng);
    EXPECT_GE(a, s.hot_base());
    EXPECT_LT(a, s.hot_base() + AddressStreamSet::kHotLines * 64);
  }
}

// ---- code layout -------------------------------------------------------------

TEST(CodeLayout, RolesAreDeterministic) {
  const auto& prof = profile_of(Benchmark::gcc);
  CodeLayout a(prof, 0, 42), b(prof, 0, 42);
  for (std::uint64_t i = 0; i < 2048; ++i) {
    EXPECT_EQ(static_cast<int>(a.role(i).kind), static_cast<int>(b.role(i).kind));
  }
}

TEST(CodeLayout, FuncEndAtEveryBoundary) {
  const auto& prof = profile_of(Benchmark::gzip);
  CodeLayout l(prof, 0, 1);
  for (std::uint64_t f = 0; f < l.num_funcs(); ++f) {
    const auto r = l.role((f + 1) * CodeLayout::kFuncSlots - 1);
    EXPECT_EQ(r.kind, SlotRole::Kind::FuncEnd);
    EXPECT_LT(r.target_slot, l.num_slots());
    EXPECT_EQ(r.target_slot % CodeLayout::kFuncSlots, 0u);
  }
}

TEST(CodeLayout, SkipTargetsStayInsideFunction) {
  const auto& prof = profile_of(Benchmark::parser);
  CodeLayout l(prof, 0, 5);
  for (std::uint64_t i = 0; i < l.num_slots(); ++i) {
    const auto r = l.role(i);
    if (r.kind != SlotRole::Kind::Skip) continue;
    EXPECT_GT(r.skip_target, i);
    EXPECT_EQ(r.skip_target / CodeLayout::kFuncSlots, i / CodeLayout::kFuncSlots);
    EXPECT_GT(r.skip_prob, 0.0);
    EXPECT_LT(r.skip_prob, 1.0);
  }
}

TEST(CodeLayout, LoopBodiesStayInsideFunction) {
  const auto& prof = profile_of(Benchmark::vortex);
  CodeLayout l(prof, 0, 5);
  std::size_t headers = 0;
  for (std::uint64_t i = 0; i < l.num_slots(); ++i) {
    const auto r = l.role(i);
    if (r.kind != SlotRole::Kind::LoopHeader) continue;
    ++headers;
    EXPECT_GE(r.body_len, 6u);
    EXPECT_GE(r.base_iters, 2u);
    const std::uint64_t end = i + r.body_len;
    EXPECT_EQ(end / CodeLayout::kFuncSlots, i / CodeLayout::kFuncSlots);
    EXPECT_LT(end % CodeLayout::kFuncSlots, CodeLayout::kFuncSlots - 1u);
  }
  EXPECT_GT(headers, l.num_slots() / 200);  // density sanity
}

TEST(CodeLayout, CallTargetsAreFunctionStarts) {
  const auto& prof = profile_of(Benchmark::eon);
  CodeLayout l(prof, 0, 5);
  for (std::uint64_t i = 0; i < l.num_slots(); ++i) {
    const auto r = l.role(i);
    if (r.kind != SlotRole::Kind::Call) continue;
    EXPECT_EQ(r.target_slot % CodeLayout::kFuncSlots, 0u);
    EXPECT_LT(r.target_slot, l.num_slots());
  }
}

TEST(CodeLayout, WrapKeepsPcInSegment) {
  const auto& prof = profile_of(Benchmark::gzip);
  CodeLayout l(prof, 3, 7);
  const Addr end = l.text_base() + l.num_slots() * 4;
  EXPECT_EQ(l.wrap(end), l.text_base());
  EXPECT_EQ(l.wrap(l.text_base() + 4), l.text_base() + 4);
}

// ---- trace stream -------------------------------------------------------------

TEST(TraceStream, DeterministicAcrossInstances) {
  const auto& prof = profile_of(Benchmark::twolf);
  TraceStream a(prof, 0, 77), b(prof, 0, 77);
  for (InstSeq i = 0; i < 5000; ++i) {
    const TraceInst x = a.at(i);
    const TraceInst y = b.at(i);
    EXPECT_EQ(x.pc, y.pc);
    EXPECT_EQ(x.next_pc, y.next_pc);
    EXPECT_EQ(static_cast<int>(x.cls), static_cast<int>(y.cls));
    EXPECT_EQ(x.mem_addr, y.mem_addr);
  }
}

TEST(TraceStream, RewindReadsIdenticalInstructions) {
  const auto& prof = profile_of(Benchmark::gcc);
  TraceStream s(prof, 0, 3);
  std::vector<Addr> pcs;
  for (InstSeq i = 0; i < 200; ++i) pcs.push_back(s.at(i).pc);
  // Re-read an un-retired range (squash/refetch).
  for (InstSeq i = 50; i < 200; ++i) EXPECT_EQ(s.at(i).pc, pcs[i]);
}

TEST(TraceStream, RetireShrinksWindow) {
  const auto& prof = profile_of(Benchmark::gzip);
  TraceStream s(prof, 0, 3);
  s.at(999);
  EXPECT_EQ(s.window_size(), 1000u);
  s.retire_below(500);
  EXPECT_EQ(s.window_base(), 500u);
  EXPECT_EQ(s.window_size(), 500u);
  EXPECT_EQ(s.at(500).pc, s.at(500).pc);  // still readable
}

TEST(TraceStream, ControlFlowIsInternallyConsistent) {
  const auto& prof = profile_of(Benchmark::crafty);
  TraceStream s(prof, 0, 11);
  for (InstSeq i = 0; i + 1 < 20000; ++i) {
    const TraceInst cur = s.at(i);
    const TraceInst next = s.at(i + 1);
    EXPECT_EQ(next.pc, cur.next_pc) << "at seq " << i;
    if (!cur.is_branch()) {
      EXPECT_EQ(cur.next_pc, s.layout().wrap(cur.pc + 4));
    }
  }
}

TEST(TraceStream, ReturnsGoBackToCallSites) {
  const auto& prof = profile_of(Benchmark::eon);
  TraceStream s(prof, 0, 19);
  std::vector<Addr> stack;
  std::size_t checked = 0;
  for (InstSeq i = 0; i < 60000 && checked < 50; ++i) {
    const TraceInst t = s.at(i);
    if (t.branch == BranchKind::Call) {
      if (stack.size() < TraceStream::kMaxCallDepth) stack.push_back(t.pc + 4);
    } else if (t.branch == BranchKind::Return) {
      if (!stack.empty()) {
        EXPECT_EQ(t.next_pc, stack.back()) << "seq " << i;
        stack.pop_back();
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(TraceStream, ChaseLoadsSerializeThroughChaseReg) {
  const auto& prof = profile_of(Benchmark::mcf);
  TraceStream s(prof, 0, 23);
  std::size_t chases = 0;
  for (InstSeq i = 0; i < 50000; ++i) {
    const TraceInst t = s.at(i);
    if (t.is_load() && t.dest_reg == kChaseReg) {
      ++chases;
      EXPECT_EQ(t.src_regs[0], kChaseReg);
    } else if (t.dest_class == RegClass::Int) {
      EXPECT_NE(t.dest_reg, kChaseReg) << "only chase loads may write the chase reg";
    }
  }
  EXPECT_GT(chases, 500u);  // mcf chases a lot
}

TEST(TraceStream, MixApproximatesProfile) {
  const auto& prof = profile_of(Benchmark::parser);
  TraceStream s(prof, 0, 31);
  std::map<InstClass, std::size_t> counts;
  const InstSeq n = 60000;
  for (InstSeq i = 0; i < n; ++i) ++counts[s.at(i).cls];
  const double loads = static_cast<double>(counts[InstClass::Load]) / n;
  const double stores = static_cast<double>(counts[InstClass::Store]) / n;
  const double branches = static_cast<double>(counts[InstClass::Branch]) / n;
  // Branch slots displace some of the plain mix, so tolerances are loose.
  EXPECT_NEAR(loads, prof.load_frac, 0.06);
  EXPECT_NEAR(stores, prof.store_frac, 0.05);
  EXPECT_NEAR(branches, prof.branch_frac, 0.08);
  EXPECT_GT(branches, 0.05);
}

TEST(TraceStream, LoopDepthBounded) {
  const auto& prof = profile_of(Benchmark::vortex);
  TraceStream s(prof, 0, 37);
  for (InstSeq i = 0; i < 30000; ++i) {
    s.at(i);
    EXPECT_LE(s.loop_depth(), TraceStream::kMaxLoopDepth);
    EXPECT_LE(s.call_depth(), TraceStream::kMaxCallDepth);
  }
}

TEST(WrongPath, SuppliesBranchFreePlausibleInstructions) {
  const auto& prof = profile_of(Benchmark::gzip);
  CodeLayout layout(prof, 0, 5);
  WrongPathSupplier wp(prof, 0, 5);
  Addr pc = layout.text_base() + 400;
  for (int i = 0; i < 2000; ++i) {
    const TraceInst t = wp.next(pc, layout);
    EXPECT_FALSE(t.is_branch());
    if (t.is_mem()) {
      EXPECT_NE(t.mem_addr, 0u);
    }
    EXPECT_EQ(t.next_pc, layout.wrap(pc + 4));
    pc = t.next_pc;
  }
}

}  // namespace
}  // namespace dwarn
