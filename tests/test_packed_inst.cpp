// PackedInst encoding tests: every generated instruction of every
// benchmark profile survives pack/unpack field by field, the fall-through
// rule matches CodeLayout::wrap on every slot (the last slot included),
// and records the 16-byte encoding cannot hold abort instead of packing.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>

#include "trace/benchmark_profile.hpp"
#include "trace/code_layout.hpp"
#include "trace/packed_inst.hpp"
#include "trace/trace_stream.hpp"

namespace dwarn {
namespace {

/// Name of the first field in which `a` and `b` differ, or nullptr. Field
/// by field, independent of TraceInst::operator== (which pack() relies on).
const char* first_difference(const TraceInst& a, const TraceInst& b) {
  if (a.pc != b.pc) return "pc";
  if (a.next_pc != b.next_pc) return "next_pc";
  if (a.mem_addr != b.mem_addr) return "mem_addr";
  if (a.cls != b.cls) return "cls";
  if (a.branch != b.branch) return "branch";
  if (a.taken != b.taken) return "taken";
  if (a.dest_reg != b.dest_reg) return "dest_reg";
  if (a.dest_class != b.dest_class) return "dest_class";
  if (a.src_regs[0] != b.src_regs[0]) return "src_regs[0]";
  if (a.src_regs[1] != b.src_regs[1]) return "src_regs[1]";
  if (a.src_class[0] != b.src_class[0]) return "src_class[0]";
  if (a.src_class[1] != b.src_class[1]) return "src_class[1]";
  if (a.exec_latency != b.exec_latency) return "exec_latency";
  return nullptr;
}

TEST(PackedInst, RoundTripsEveryProfileAndThread) {
  constexpr InstSeq kInsts = 64 * 1024;
  std::array<std::uint64_t, 5> branch_kinds{};  // indexed by BranchKind
  std::uint64_t chase = 0, fp = 0, no_src = 0, mem = 0;
  for (const BenchmarkProfile& prof : all_profiles()) {
    for (ThreadId tid = 0; tid < 8; ++tid) {
      TraceStream s(prof, tid, 1000 + tid);
      for (InstSeq i = 0; i < kInsts; ++i) {
        const TraceInst t = s.at(i);
        s.retire_below(i + 1);
        const TraceInst back = unpack(pack(t, s.layout()), s.layout());
        if (const char* field = first_difference(back, t)) {
          FAIL() << prof.name << " tid " << tid << " seq " << i << ": " << field
                 << " lost in the round trip";
        }
        ++branch_kinds[static_cast<std::size_t>(t.branch)];
        chase += t.dest_reg == kChaseReg ? 1 : 0;
        fp += t.dest_class == RegClass::Fp ? 1 : 0;
        no_src += t.src_regs[1] == kNoArchReg ? 1 : 0;
        mem += t.is_mem() ? 1 : 0;
      }
    }
  }
  // The walk exercised every part of the bit map.
  for (std::size_t k = 0; k < branch_kinds.size(); ++k) {
    EXPECT_GT(branch_kinds[k], 0u) << "BranchKind " << k;
  }
  EXPECT_GT(chase, 0u);
  EXPECT_GT(fp, 0u);
  EXPECT_GT(no_src, 0u);
  EXPECT_GT(mem, 0u);
}

TEST(PackedInst, FallThroughMatchesWrapOnEverySlot) {
  // The generator never puts a non-branch on the last slot (it is always a
  // FuncEnd), so the wrap to the segment start is covered here directly.
  const CodeLayout layout(profile_of(Benchmark::gcc), 3, 42);
  for (std::uint64_t slot = 0; slot < layout.num_slots(); ++slot) {
    TraceInst t;
    t.pc = layout.pc_of(slot);
    t.next_pc = layout.wrap(t.pc + CodeLayout::kInstBytes);
    t.cls = InstClass::Load;
    t.mem_addr = 0x1234'5678'9abcULL + slot * 64;
    t.dest_reg = 7;
    t.dest_class = RegClass::Int;
    const TraceInst back = unpack(pack(t, layout), layout);
    ASSERT_EQ(first_difference(back, t), nullptr) << "slot " << slot;
  }
  TraceInst last;
  last.pc = layout.pc_of(layout.num_slots() - 1);
  last.next_pc = layout.text_base();
  EXPECT_EQ(unpack(pack(last, layout), layout).next_pc, layout.text_base());
}

TEST(PackedInst, FieldsLandInTheDocumentedBits) {
  const CodeLayout layout(profile_of(Benchmark::eon), 0, 1);
  TraceInst t;
  t.pc = layout.pc_of(5);
  t.next_pc = 0xdead'beefULL;
  t.cls = InstClass::Branch;
  t.branch = BranchKind::Call;
  t.taken = true;
  t.exec_latency = 1;
  t.src_regs = {kChaseReg, kNoArchReg};
  t.src_class = {RegClass::Int, RegClass::None};
  const PackedInst p = pack(t, layout);
  EXPECT_EQ(p.slot, 5u);
  EXPECT_EQ(p.payload, 0xdead'beefULL);
  EXPECT_EQ(p.bits, 5u | (3u << 3) | (1u << 6) | (1u << 7) | ((31u | 32u) << 17));

  TraceInst f;
  f.pc = layout.pc_of(6);
  f.next_pc = layout.pc_of(7);
  f.cls = InstClass::FpAlu;
  f.exec_latency = 4;
  f.dest_reg = 0;
  f.dest_class = RegClass::Fp;
  const PackedInst q = pack(f, layout);
  EXPECT_EQ(q.bits, 2u | (4u << 7) | ((32u | 64u) << 10));
  EXPECT_EQ(q.payload, 0u);  // mem_addr of a non-memory instruction
}

TEST(PackedInstDeathTest, RecordsTheEncodingCannotHoldAbort) {
  const CodeLayout layout(profile_of(Benchmark::vpr), 1, 9);
  TraceInst ok;
  ok.pc = layout.pc_of(10);
  ok.next_pc = layout.pc_of(11);
  ok.cls = InstClass::IntAlu;
  ok.dest_reg = 4;
  ok.dest_class = RegClass::Int;
  ok.src_regs = {5, 6};
  ok.src_class = {RegClass::Int, RegClass::Int};
  ASSERT_EQ(unpack(pack(ok, layout), layout), ok);

  // Pack a copy of `ok` with one field edited.
  const auto pack_edited = [&](const auto& edit) {
    TraceInst bad = ok;
    edit(bad);
    (void)pack(bad, layout);
  };
  const char* const kAbort = "DWARN_CHECK failed";
  EXPECT_DEATH(pack_edited([](TraceInst& t) { t.exec_latency = 8; }), kAbort);
  EXPECT_DEATH(pack_edited([&](TraceInst& t) { t.pc = layout.text_base() - 4; }), kAbort);
  EXPECT_DEATH(pack_edited([&](TraceInst& t) { t.pc = layout.pc_of(layout.num_slots()); }),
               kAbort);
  EXPECT_DEATH(pack_edited([&](TraceInst& t) { t.pc = layout.pc_of(10) + 2; }), kAbort);
  EXPECT_DEATH(pack_edited([&](TraceInst& t) { t.next_pc = layout.pc_of(40); }), kAbort);
  EXPECT_DEATH(pack_edited([](TraceInst& t) { t.dest_reg = 32; }), kAbort);
  EXPECT_DEATH(pack_edited([](TraceInst& t) { t.src_class[1] = RegClass::None; }), kAbort);
  EXPECT_DEATH(pack_edited([](TraceInst& t) { t.dest_reg = kNoArchReg; }), kAbort);
  EXPECT_DEATH(pack_edited([](TraceInst& t) {
                 t.cls = InstClass::Branch;
                 t.branch = BranchKind::Cond;
                 t.mem_addr = 0x1000;  // a branch's payload is next_pc
               }),
               kAbort);
}

}  // namespace
}  // namespace dwarn
