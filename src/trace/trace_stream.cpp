#include "trace/trace_stream.hpp"

#include <algorithm>

namespace dwarn {

TraceStream::TraceStream(const BenchmarkProfile& prof, ThreadId tid, std::uint64_t seed)
    : prof_(prof),
      layout_(prof, tid, seed),
      addrs_(prof, tid, seed),
      rng_(derive_seed(seed, tid, 0x57ea)),
      pc_(layout_.text_base()) {
  shadow_stack_.reserve(kMaxCallDepth);
  loop_stack_.reserve(kMaxLoopDepth + 1);
}

TraceInst TraceStream::at(InstSeq seq) {
  DWARN_CHECK(seq >= base_seq_);
  while (base_seq_ + window_.size() <= seq) generate_one();
  return window_[static_cast<std::size_t>(seq - base_seq_)];
}

void TraceStream::retire_below(InstSeq seq) {
  while (!window_.empty() && base_seq_ < seq) {
    window_.pop_front();
    ++base_seq_;
  }
}

void TraceStream::note_writer(std::uint8_t reg, RegClass cls, bool from_load) {
  recent_writers_.push_front(Writer{reg, cls, from_load});
  if (recent_writers_.size() > kWriterWindow) recent_writers_.pop_back();
}

void TraceStream::pick_sources(TraceInst& inst, int count, RegClass cls,
                               Xoshiro256& rng, bool allow_load_producers) {
  for (int s = 0; s < count; ++s) {
    std::uint8_t reg = kNoArchReg;
    if (rng.next_bool(prof_.dep_short_frac)) {
      // Chain to a recent producer of the right class (geometric recency).
      const std::size_t start = rng.next_geometric(0.5, recent_writers_.size());
      for (std::size_t i = start; i < recent_writers_.size(); ++i) {
        if (recent_writers_[i].cls != cls) continue;
        if (!allow_load_producers && recent_writers_[i].from_load) continue;
        reg = recent_writers_[i].reg;
        break;
      }
    }
    if (reg == kNoArchReg) {
      reg = static_cast<std::uint8_t>(1 + rng.next_below(kArchRegs - 2));
    }
    inst.src_regs[static_cast<std::size_t>(s)] = reg;
    inst.src_class[static_cast<std::size_t>(s)] = cls;
  }
}

void TraceStream::pick_branch_sources(TraceInst& inst) {
  const bool may_wait_on_load = rng_.next_bool(prof_.branch_load_dep);
  pick_sources(inst, 1, RegClass::Int, rng_, may_wait_on_load);
}

void TraceStream::fill_plain(TraceInst& inst) {
  const double u = rng_.next_double();
  if (u < prof_.load_frac) {
    inst.cls = InstClass::Load;
    // Locality is PC-correlated: only miss-prone sites (a hashed static
    // subset) draw warm/cold classes; other sites always hit. The
    // per-site probabilities divide the Table 2(a) targets by the
    // *realized* fraction of loads landing on miss sites, so the overall
    // rates stay calibrated no matter how the loop-weighted walk
    // distributes its visits.
    const std::uint64_t idx = layout_.slot_index(inst.pc);
    const double msite = prof_.miss_site_frac();
    Locality cls = Locality::Hot;
    ++loads_seen_;
    if (layout_.unit_hash(idx, 0x10adULL) < msite) {
      ++site_loads_seen_;
      double f_site = msite;
      if (loads_seen_ >= 512) {
        f_site = static_cast<double>(site_loads_seen_) / static_cast<double>(loads_seen_);
        if (f_site < 0.005) f_site = 0.005;
      }
      const double q_cold = std::min(0.90, prof_.p_cold / f_site);
      const double q_warm = std::min(0.95 - q_cold, prof_.p_warm / f_site);
      const double uc = rng_.next_double();
      if (uc < q_cold) {
        cls = Locality::Cold;
      } else if (uc < q_cold + q_warm) {
        cls = Locality::Warm;
      }
    }
    inst.mem_addr = addrs_.next(cls, rng_);
    inst.exec_latency = 1;  // address generation; cache adds the rest
    if (cls == Locality::Cold && rng_.next_bool(prof_.cold_chase)) {
      // Pointer chase: the address comes from the previous cold load's
      // result, so consecutive long-latency misses serialize. The raw
      // pointer is consumed only by the next chase load (it is NOT
      // entered into the recent-writer window): the surrounding work is
      // independent, issues freely, and then waits at *commit* behind the
      // miss — holding physical registers rather than issue-queue
      // entries, the way real pointer-chasing code clogs an SMT and the
      // failure mode the paper pins on ICOUNT ("the processor may run
      // out of registers", section 2).
      inst.dest_reg = kChaseReg;
      inst.dest_class = RegClass::Int;
      inst.src_regs[0] = kChaseReg;
      inst.src_class[0] = RegClass::Int;
    } else {
      inst.dest_reg = static_cast<std::uint8_t>(1 + rng_.next_below(kArchRegs - 2));
      inst.dest_class = RegClass::Int;
      pick_sources(inst, 1, RegClass::Int, rng_);
      note_writer(inst.dest_reg, RegClass::Int, /*from_load=*/true);
    }
  } else if (u < prof_.load_frac + prof_.store_frac) {
    inst.cls = InstClass::Store;
    inst.mem_addr = addrs_.next(addrs_.next_store_class(rng_), rng_);
    inst.exec_latency = 1;
    pick_sources(inst, 2, RegClass::Int, rng_);
  } else if (u < prof_.load_frac + prof_.store_frac + prof_.fp_frac) {
    inst.cls = InstClass::FpAlu;
    inst.dest_reg = static_cast<std::uint8_t>(rng_.next_below(kArchRegs));
    inst.dest_class = RegClass::Fp;
    inst.exec_latency = 4;
    pick_sources(inst, 2, RegClass::Fp, rng_);
    note_writer(inst.dest_reg, RegClass::Fp, /*from_load=*/false);
  } else if (u < prof_.load_frac + prof_.store_frac + prof_.fp_frac + prof_.mul_frac) {
    inst.cls = InstClass::IntMul;
    inst.dest_reg = static_cast<std::uint8_t>(1 + rng_.next_below(kArchRegs - 2));
    inst.dest_class = RegClass::Int;
    inst.exec_latency = 3;
    pick_sources(inst, 2, RegClass::Int, rng_);
    note_writer(inst.dest_reg, RegClass::Int, /*from_load=*/false);
  } else {
    inst.cls = InstClass::IntAlu;
    inst.dest_reg = static_cast<std::uint8_t>(1 + rng_.next_below(kArchRegs - 2));
    inst.dest_class = RegClass::Int;
    inst.exec_latency = 1;
    pick_sources(inst, 2, RegClass::Int, rng_);
    note_writer(inst.dest_reg, RegClass::Int, /*from_load=*/false);
  }
}

void TraceStream::generate_one() {
  TraceInst inst;
  inst.pc = pc_;
  const std::uint64_t idx = layout_.slot_index(pc_);
  const Addr fall_through = layout_.wrap(pc_ + CodeLayout::kInstBytes);
  inst.next_pc = fall_through;
  const std::uint64_t func = idx / CodeLayout::kFuncSlots;

  // Lazily drop loop records whose back-edge a taken skip jumped past
  // (only records of the function we are currently in).
  while (!loop_stack_.empty() && loop_stack_.back().end < idx &&
         loop_stack_.back().end / CodeLayout::kFuncSlots == func) {
    loop_stack_.pop_back();
  }

  // Back-edge of the innermost active loop takes precedence over the
  // slot's static role for this visit.
  if (!loop_stack_.empty() && loop_stack_.back().end == idx) {
    LoopRec& top = loop_stack_.back();
    const std::uint64_t header = top.header;
    inst.cls = InstClass::Branch;
    inst.branch = BranchKind::Cond;
    inst.exec_latency = 1;
    pick_branch_sources(inst);
    const bool exit_point = top.remaining <= 1;
    if (exit_point && rng_.next_bool(kLoopJitter)) {
      inst.taken = true;  // data-dependent extra iteration
    } else if (exit_point) {
      inst.taken = false;
      loop_stack_.pop_back();
    } else {
      --top.remaining;
      inst.taken = true;
    }
    inst.next_pc = inst.taken ? layout_.pc_of(header) : fall_through;
    pc_ = inst.next_pc;
    window_.push_back(inst);
    return;
  }

  const SlotRole role = layout_.role(idx);
  switch (role.kind) {
    case SlotRole::Kind::FuncEnd: {
      // All loops of this function have been exited by construction;
      // clean up records a taken skip may have orphaned.
      while (!loop_stack_.empty() &&
             loop_stack_.back().end / CodeLayout::kFuncSlots == func) {
        loop_stack_.pop_back();
      }
      inst.cls = InstClass::Branch;
      inst.exec_latency = 1;
      inst.taken = true;
      pick_branch_sources(inst);
      if (!shadow_stack_.empty()) {
        inst.branch = BranchKind::Return;
        inst.next_pc = shadow_stack_.back();
        shadow_stack_.pop_back();
      } else {
        // Empty call stack: the site acts (and predicts) as a jump to the
        // next hash-chosen function.
        inst.branch = BranchKind::Uncond;
        inst.next_pc = layout_.pc_of(role.target_slot);
      }
      break;
    }
    case SlotRole::Kind::LoopHeader: {
      const bool iterating =
          !loop_stack_.empty() && loop_stack_.back().header == idx;
      if (!iterating && loop_stack_.size() < kMaxLoopDepth) {
        loop_stack_.push_back(LoopRec{
            idx, idx + role.body_len,
            role.base_iters + static_cast<std::uint32_t>(rng_.next_below(3))});
      }
      fill_plain(inst);  // the header emits the loop-setup instruction
      break;
    }
    case SlotRole::Kind::Call: {
      if (shadow_stack_.size() < kMaxCallDepth) {
        inst.cls = InstClass::Branch;
        inst.branch = BranchKind::Call;
        inst.taken = true;
        inst.exec_latency = 1;
        pick_branch_sources(inst);
        inst.next_pc = layout_.pc_of(role.target_slot);
        shadow_stack_.push_back(fall_through);
      } else {
        fill_plain(inst);  // depth cap: site degenerates to a plain slot
      }
      break;
    }
    case SlotRole::Kind::Skip: {
      inst.cls = InstClass::Branch;
      inst.branch = BranchKind::Cond;
      inst.exec_latency = 1;
      pick_branch_sources(inst);
      inst.taken = rng_.next_bool(role.skip_prob);
      inst.next_pc = inst.taken ? layout_.pc_of(role.skip_target) : fall_through;
      break;
    }
    case SlotRole::Kind::Plain:
      fill_plain(inst);
      break;
  }

  pc_ = inst.next_pc;
  window_.push_back(inst);
}

}  // namespace dwarn
