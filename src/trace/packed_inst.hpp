// Packed trace record: the 16-byte form in which MaterializedTrace keeps
// each generated instruction.
//
// A TraceInst is 40 bytes, but most of it is implied by the code layout
// or by the instruction class: the pc is a slot of the layout, a
// non-branch's next_pc is its fall-through, a branch has no memory
// address, and every register number fits in 5 bits. PackedInst stores
// only what is left:
//
//   slot     u32  code-layout slot of pc
//   bits     u32  bits  0-2  cls            bits 10-16  dest register
//                 bits  3-5  branch         bits 17-23  src register 0
//                 bit   6    taken          bits 24-30  src register 1
//                 bits  7-9  exec_latency   bit  31     zero
//            each register field: bits 0-4 number, bit 5 present, bit 6 Fp
//   payload  u64  next_pc for branches, mem_addr for everything else
//
// pack() aborts, in every build, on a record that does not unpack to
// exactly itself (an exec_latency above 7, a pc off the layout, a branch
// with a memory address, ...), so the cache can never replay a record
// that differs from what the generator produced.
#pragma once

#include <array>
#include <cstdint>

#include "common/types.hpp"
#include "trace/code_layout.hpp"
#include "trace/instruction.hpp"

namespace dwarn {

struct PackedInst {
  std::uint32_t slot = 0;     ///< code-layout slot of pc
  std::uint32_t bits = 0;     ///< class, control flow, latency, registers
  std::uint64_t payload = 0;  ///< next_pc (branches) or mem_addr (others)
};
static_assert(sizeof(PackedInst) == 16);

/// Encode `inst`. Aborts (DWARN_CHECK) unless its pc is a slot of
/// `layout` and unpack() of the result equals `inst` in every field.
[[nodiscard]] PackedInst pack(const TraceInst& inst, const CodeLayout& layout);

namespace packed_detail {
inline constexpr unsigned kLatencyShift = 7;
inline constexpr unsigned kRegShift[3] = {10, 17, 24};  // dest, src0, src1
inline constexpr std::uint32_t kRegPresent = 1u << 5;
inline constexpr std::uint32_t kRegFp = 1u << 6;

/// A register field decoded: kNoArchReg/None unless the present bit is set.
struct RegField {
  std::uint8_t reg = kNoArchReg;
  RegClass cls = RegClass::None;
};
/// Every 7-bit register field, decoded. A table lookup keeps unpack()
/// branch-free: the fields are data-dependent, so a branch per register
/// would mispredict on the replay hot path.
inline constexpr std::array<RegField, 128> kRegFields = [] {
  std::array<RegField, 128> t{};
  for (std::uint32_t f = 0; f < t.size(); ++f) {
    if ((f & kRegPresent) == 0) continue;
    t[f] = {static_cast<std::uint8_t>(f & 31), (f & kRegFp) != 0 ? RegClass::Fp : RegClass::Int};
  }
  return t;
}();
}  // namespace packed_detail

/// Decode a record packed against the same `layout`.
[[nodiscard]] inline TraceInst unpack(const PackedInst& p, const CodeLayout& layout) {
  using namespace packed_detail;
  TraceInst t;
  t.pc = layout.pc_of(p.slot);
  t.cls = static_cast<InstClass>(p.bits & 7);
  t.branch = static_cast<BranchKind>((p.bits >> 3) & 7);
  t.taken = ((p.bits >> 6) & 1) != 0;
  t.exec_latency = static_cast<std::uint8_t>((p.bits >> kLatencyShift) & 7);
  const RegField dest = kRegFields[(p.bits >> kRegShift[0]) & 127];
  const RegField src0 = kRegFields[(p.bits >> kRegShift[1]) & 127];
  const RegField src1 = kRegFields[(p.bits >> kRegShift[2]) & 127];
  t.dest_reg = dest.reg;
  t.dest_class = dest.cls;
  t.src_regs = {src0.reg, src1.reg};
  t.src_class = {src0.cls, src1.cls};
  // A non-branch falls through, wrapping from the last slot to the segment
  // start (the address CodeLayout::wrap gives, without the division).
  const Addr fall_through = p.slot + 1 == layout.num_slots()
                                ? layout.text_base()
                                : t.pc + CodeLayout::kInstBytes;
  const bool branch = t.is_branch();
  t.next_pc = branch ? p.payload : fall_through;
  t.mem_addr = branch ? 0 : p.payload;
  return t;
}

}  // namespace dwarn
