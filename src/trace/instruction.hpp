// The unit of work produced by the trace substrate.
//
// A TraceInst is one dynamic instruction of a synthetic benchmark: its PC,
// class, memory address (loads/stores), actual control flow (branches) and
// architectural register operands. The SMT core turns TraceInsts into
// renamed in-flight DynInsts.
#pragma once

#include <array>
#include <cstdint>

#include "common/types.hpp"

namespace dwarn {

/// Number of architectural registers per class per context (Alpha-like).
inline constexpr std::uint8_t kArchRegs = 32;

/// Sentinel "no architectural register".
inline constexpr std::uint8_t kNoArchReg = 0xff;

/// Integer register reserved for pointer-chase chains: cold loads that
/// chase write and read it, serializing long-latency misses. Other
/// instructions never write it (see TraceStream).
inline constexpr std::uint8_t kChaseReg = 31;

/// One dynamic instruction as produced by a TraceStream.
struct TraceInst {
  Addr pc = 0;
  Addr next_pc = 0;    ///< actual next PC (branch target or fall-through)
  Addr mem_addr = 0;   ///< effective address for loads/stores
  InstClass cls = InstClass::IntAlu;
  BranchKind branch = BranchKind::None;
  bool taken = false;  ///< actual direction (branches)

  std::uint8_t dest_reg = kNoArchReg;
  RegClass dest_class = RegClass::None;
  std::array<std::uint8_t, 2> src_regs{kNoArchReg, kNoArchReg};
  std::array<RegClass, 2> src_class{RegClass::None, RegClass::None};

  std::uint8_t exec_latency = 1;  ///< FU latency; loads use the cache model

  [[nodiscard]] bool is_load() const { return cls == InstClass::Load; }
  [[nodiscard]] bool is_store() const { return cls == InstClass::Store; }
  [[nodiscard]] bool is_branch() const { return cls == InstClass::Branch; }
  [[nodiscard]] bool is_mem() const { return is_load() || is_store(); }

  bool operator==(const TraceInst&) const = default;
};

}  // namespace dwarn
