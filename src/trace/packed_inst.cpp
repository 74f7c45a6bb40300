#include "trace/packed_inst.hpp"

#include "common/check.hpp"

namespace dwarn {

namespace {

std::uint32_t pack_reg(std::uint8_t reg, RegClass cls) {
  if (reg == kNoArchReg) return 0;
  return (reg & 31u) | packed_detail::kRegPresent |
         (cls == RegClass::Fp ? packed_detail::kRegFp : 0u);
}

}  // namespace

PackedInst pack(const TraceInst& inst, const CodeLayout& layout) {
  using namespace packed_detail;
  const std::uint64_t slot = layout.slot_index(inst.pc);  // wraps huge below text_base
  DWARN_CHECK(slot < layout.num_slots());
  PackedInst p;
  p.slot = static_cast<std::uint32_t>(slot);
  p.bits = (static_cast<std::uint32_t>(inst.cls) & 7) |
           ((static_cast<std::uint32_t>(inst.branch) & 7) << 3) |
           (static_cast<std::uint32_t>(inst.taken) << 6) |
           ((inst.exec_latency & 7u) << kLatencyShift) |
           (pack_reg(inst.dest_reg, inst.dest_class) << kRegShift[0]) |
           (pack_reg(inst.src_regs[0], inst.src_class[0]) << kRegShift[1]) |
           (pack_reg(inst.src_regs[1], inst.src_class[1]) << kRegShift[2]);
  p.payload = inst.is_branch() ? inst.next_pc : inst.mem_addr;
  // Every field must survive: a record the encoding cannot hold would
  // otherwise replay as a different instruction than the generator made.
  DWARN_CHECK(unpack(p, layout) == inst);
  return p;
}

}  // namespace dwarn
