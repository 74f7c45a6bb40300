// Deterministic, rewind-safe dynamic instruction stream for one context.
//
// The stream generates instructions on demand and retains every
// not-yet-committed instruction in a window buffer. The core addresses
// instructions by sequence number: after a branch misprediction it simply
// re-reads the same sequence numbers, so squash/re-fetch replays exactly
// the same correct-path instructions — the property a real trace file
// gives the paper's simulator.
//
// Control flow executes the structured CodeLayout (nested loops with
// short jittered trip counts, if-skips, calls/returns between functions),
// data references come from the locality-classed AddressStreamSet, and
// register operands form dependency chains through a recent-producer
// window.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "trace/address_stream.hpp"
#include "trace/benchmark_profile.hpp"
#include "trace/code_layout.hpp"
#include "trace/inst_stream.hpp"
#include "trace/instruction.hpp"

namespace dwarn {

/// Infinite per-thread instruction stream with a commit-bounded window.
/// Copy construction snapshots the full generation state — MaterializedTrace
/// keeps such a snapshot as its extension tail so a ReplayStream that runs
/// past the buffer continues the sequence bit-exactly.
class TraceStream : public InstStream {
 public:
  /// `seed` individualizes replicated instances of the same benchmark
  /// (the paper shifts the second instance by 1M instructions; we give it
  /// an independent phase and layout seed instead).
  TraceStream(const BenchmarkProfile& prof, ThreadId tid, std::uint64_t seed);

  /// Instruction at sequence number `seq` (0-based). Generates forward as
  /// needed; `seq` must be >= the lowest retained (uncommitted) sequence.
  TraceInst at(InstSeq seq) override;

  /// Release buffered instructions with sequence < `seq` (commit point).
  void retire_below(InstSeq seq) override;

  /// Lowest retained sequence number (test hook).
  [[nodiscard]] InstSeq window_base() const override { return base_seq_; }

  /// Number of buffered instructions (test hook; bounded by in-flight).
  [[nodiscard]] std::size_t window_size() const override { return window_.size(); }

  /// Current call depth (test hook).
  [[nodiscard]] std::size_t call_depth() const { return shadow_stack_.size(); }

  /// Current loop-nest depth (test hook).
  [[nodiscard]] std::size_t loop_depth() const { return loop_stack_.size(); }

  [[nodiscard]] const BenchmarkProfile& profile() const { return prof_; }
  [[nodiscard]] const CodeLayout& layout() const override { return layout_; }

  /// Maximum call depth tracked by the shadow stack.
  static constexpr std::size_t kMaxCallDepth = 16;

  /// Maximum simultaneously active (nested) loops.
  static constexpr std::size_t kMaxLoopDepth = 4;

  /// P(one extra iteration) each time a loop reaches its exit point —
  /// models data-dependent trip counts so back-edges are not perfectly
  /// predictable.
  static constexpr double kLoopJitter = 0.06;

 private:
  void generate_one();
  void fill_plain(TraceInst& inst);
  /// Choose `count` source registers of class `cls`. When
  /// `allow_load_producers` is false, recent writers that are loads are
  /// skipped (branch operands — see BenchmarkProfile::branch_load_dep).
  void pick_sources(TraceInst& inst, int count, RegClass cls, Xoshiro256& rng,
                    bool allow_load_producers = true);
  void pick_branch_sources(TraceInst& inst);
  void note_writer(std::uint8_t reg, RegClass cls, bool from_load);

  const BenchmarkProfile& prof_;
  CodeLayout layout_;
  AddressStreamSet addrs_;
  Xoshiro256 rng_;

  Addr pc_;
  std::vector<Addr> shadow_stack_;  ///< return addresses for Call/Return

  /// One active loop: back-edge at slot `end`, jumping to `header`.
  struct LoopRec {
    std::uint64_t header;
    std::uint64_t end;
    std::uint32_t remaining;  ///< body passes left (including current)
  };
  std::vector<LoopRec> loop_stack_;

  /// Load-site statistics: the fraction of dynamic loads that land on
  /// miss-prone sites depends on which slots the loop-weighted walk
  /// actually visits, so per-site miss probabilities are continuously
  /// re-derived from the realized fraction to keep the stream's overall
  /// L1/L2 miss rates on the Table 2(a) targets.
  std::uint64_t loads_seen_ = 0;
  std::uint64_t site_loads_seen_ = 0;

  /// Recent destination registers, newest first (dependency chains).
  struct Writer {
    std::uint8_t reg;
    RegClass cls;
    bool from_load;
  };
  std::deque<Writer> recent_writers_;
  static constexpr std::size_t kWriterWindow = 8;

  std::deque<TraceInst> window_;
  InstSeq base_seq_ = 0;  ///< sequence number of window_.front()
};

}  // namespace dwarn
