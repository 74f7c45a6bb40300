#include "core/smt_core.hpp"

#include <algorithm>
#include <cstddef>
#include <new>

#include "telemetry/counter_sampler.hpp"

namespace dwarn {

SmtCore::SmtCore(const CoreConfig& cfg, MemoryHierarchy& mem, FrontEndPredictor& bpred,
                 std::vector<ThreadProgram> programs, StatSet& stats)
    : cfg_(cfg),
      mem_(mem),
      bpred_(bpred),
      stats_(stats),
      int_regs_(cfg.pregs_int),
      fp_regs_(cfg.pregs_fp),
      frontend_q_(cfg.frontend_buffer * 2),
      // Direct buckets cover every common schedule distance (the longest
      // is a DTLB-missing load's fill); rarer, longer delays (e.g. bank
      // queueing on top of a TLB miss) take the overflow list.
      events_(mem.config().tlb_miss_penalty + mem.config().mem_latency +
              mem.config().l2_latency + mem.config().l1_latency + 64),
      cycles_(stats.counter("core.cycles")),
      fetched_(stats.counter("core.fetched")),
      fetched_wrongpath_(stats.counter("core.fetched_wrongpath")),
      committed_total_(stats.counter("core.committed")),
      squashed_branch_(stats.counter("core.squashed_branch")),
      squashed_flush_(stats.counter("core.squashed_flush")),
      flush_events_(stats.counter("core.flush_events")),
      rename_stall_regs_(stats.counter("core.rename_stall_regs")),
      rename_stall_iq_(stats.counter("core.rename_stall_iq")),
      icache_stall_cycles_(stats.counter("core.icache_stalls")),
      loads_issued_(stats.counter("core.loads_issued")),
      cloads_(stats.counter("core.cloads")),
      cload_l1_misses_(stats.counter("core.cload_l1_misses")),
      cload_l2_misses_(stats.counter("core.cload_l2_misses")),
      occ_iq_{&stats.histogram("core.occ.iq_int", cfg.iq_capacity[0]),
              &stats.histogram("core.occ.iq_fp", cfg.iq_capacity[1]),
              &stats.histogram("core.occ.iq_ls", cfg.iq_capacity[2])},
      occ_int_regs_(stats.histogram("core.occ.int_regs", cfg.pregs_int)) {
  DWARN_CHECK(cfg_.num_threads >= 1 && cfg_.num_threads <= kMaxThreads);
  DWARN_CHECK(programs.size() == cfg_.num_threads);
  // Each context permanently maps its 32+32 architectural registers; the
  // shared files must at least cover those base mappings.
  DWARN_CHECK(cfg_.pregs_int > cfg_.num_threads * kArchRegs);
  DWARN_CHECK(cfg_.pregs_fp > cfg_.num_threads * kArchRegs);

  threads_.resize(cfg_.num_threads);
  cands_.reserve(cfg_.num_threads);
  fetch_order_.reserve(cfg_.num_threads);
  for (std::size_t c = 0; c < kNumIssueClasses; ++c) {
    iqs_[c].reserve(cfg_.iq_capacity[c]);
  }
  for (std::size_t t = 0; t < cfg_.num_threads; ++t) {
    ThreadCtx& ctx = threads_[t];
    ctx.stream = programs[t].stream;
    ctx.wrongpath = programs[t].wrongpath;
    DWARN_CHECK(ctx.stream != nullptr && ctx.wrongpath != nullptr);
    ctx.window = Ring<DynInst>(cfg_.rob_entries);
    ctx.fetch_pc = ctx.stream->layout().text_base();
    for (std::uint8_t r = 0; r < kArchRegs; ++r) {
      const std::uint16_t pi = int_regs_.alloc();
      DWARN_CHECK(pi != kNoReg);
      int_regs_.set_ready(pi, 0);
      ctx.rmap.set(RegClass::Int, r, pi);
      const std::uint16_t pf = fp_regs_.alloc();
      DWARN_CHECK(pf != kNoReg);
      fp_regs_.set_ready(pf, 0);
      ctx.rmap.set(RegClass::Fp, r, pf);
    }
    committed_tid_[t] = &stats.counter("core.committed.t" + std::to_string(t));
  }
}

void SmtCore::set_policy(FetchPolicy* policy) {
  DWARN_CHECK(policy != nullptr);
  policy_ = policy;
}

void SmtCore::attach_sampler(telem::CounterSampler* sampler) {
  DWARN_CHECK(now_ == 0);  // before the first tick
  sampler_ = sampler;
}

void SmtCore::telem_sample() {
  telem::IntervalSample& s = sampler_->begin_sample(now_);
  s.num_threads = static_cast<std::uint32_t>(threads_.size());
  for (std::size_t t = 0; t < threads_.size(); ++t) {
    s.committed[t] = committed_tid_[t]->value();
    s.window[t] = static_cast<std::uint32_t>(threads_[t].window.size());
  }
  s.fetched = fetched_.value();
  s.dmiss = cload_l1_misses_.value();
  s.l2miss = cload_l2_misses_.value();
  s.flush_events = flush_events_.value();
  s.squashed_flush = squashed_flush_.value();
  s.istall = icache_stall_cycles_.value();
  s.imiss = mem_.inst_memory().l1i_miss_count();
  s.itlbmiss = mem_.inst_memory().itlb_miss_count();
  for (std::size_t c = 0; c < kNumIssueClasses; ++c) {
    s.iq[c] = static_cast<std::uint32_t>(iqs_[c].size());
  }
}

void SmtCore::tick() {
  DWARN_CHECK(policy_ != nullptr);
  ++now_;
  cycles_.add();
  mem_.tick(now_);
  process_events();
  do_commit();
  do_issue();
  do_rename();
  do_fetch();
  sample_occupancy();
  // Keyed to the simulated cycle, so the sample series is a pure
  // function of the simulation — deterministic across hosts and runs.
  if (sampler_ != nullptr && now_ >= sampler_->next_at()) telem_sample();
#if DWARN_EXPENSIVE_CHECKS
  if ((now_ & 0xFF) == 0) check_invariants();
#endif
}

void SmtCore::process_events() {
  events_.drain(now_, [&](const EventRec& ev) {
    switch (ev.kind) {
      case EventRec::Kind::L1MissDetect:
        policy_->on_l1_miss_detected(ev.tid, ev.dyn_id, ev.pc);
        break;
      case EventRec::Kind::Fill:
        policy_->on_fill(ev.tid);
        break;
      case EventRec::Kind::LoadComplete:
        policy_->on_load_complete(ev.tid, ev.dyn_id, ev.pc, ev.l1_missed, ev.l2_missed);
        break;
      case EventRec::Kind::LongLatency: {
        // Only act for loads still live on the correct path; a load
        // squashed inside the declaration window must not gate or flush
        // its thread.
        DynInst* d = find_at(ev.tid, ev.dyn_id, ev.wpos);
        if (d != nullptr && !d->wrong_path) {
          policy_->on_long_latency(ev.tid, ev.dyn_id, ev.fill_at);
        }
        break;
      }
      case EventRec::Kind::BranchResolve: {
        DynInst* d = find_at(ev.tid, ev.dyn_id, ev.wpos);
        if (d == nullptr || d->wrong_path) break;  // squashed meanwhile
        bpred_.note_resolved(d->mispredicted);
        if (d->mispredicted) {
          const Addr resume_pc = d->ti.next_pc;
          const InstSeq resume_seq = d->trace_seq + 1;
          squash_younger_than(ev.tid, ev.dyn_id, /*flush=*/false);
          ThreadCtx& ctx = threads_[ev.tid];
          ctx.in_wrong_path = false;
          ctx.fetch_pc = resume_pc;
          ctx.fetch_seq = resume_seq;
          ctx.fetch_stall_until = now_ + cfg_.redirect_penalty;
          ctx.cur_fetch_line = ~Addr{0};
        }
        break;
      }
    }
  });
}

unsigned SmtCore::icount(ThreadId tid) const {
  DWARN_CHECK(tid < threads_.size());
  return threads_[tid].icount;
}

unsigned SmtCore::in_flight(ThreadId tid) const {
  DWARN_CHECK(tid < threads_.size());
  return static_cast<unsigned>(threads_[tid].window.size());
}

std::uint64_t SmtCore::committed(ThreadId tid) const {
  DWARN_CHECK(tid < threads_.size());
  return committed_tid_[tid]->value();
}

std::uint64_t SmtCore::total_committed() const { return committed_total_.value(); }

DynInst* SmtCore::find(ThreadId tid, std::uint64_t dyn_id) {
  // The window is strictly ascending in dyn_id but not contiguous: a
  // squash removes a tail while next_dyn_id keeps counting, so later
  // fetches leave a gap. Binary search instead of offset arithmetic.
  Ring<DynInst>& w = threads_[tid].window;
  std::size_t lo = 0;
  std::size_t hi = w.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (w[mid].dyn_id < dyn_id) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == w.size() || w[lo].dyn_id != dyn_id) return nullptr;
  return &w[lo];
}

void SmtCore::sample_occupancy() {
  for (std::size_t c = 0; c < kNumIssueClasses; ++c) {
    occ_iq_[c]->sample(iqs_[c].size());
  }
  occ_int_regs_.sample(int_regs_.num_allocated());
}

void SmtCore::do_commit() {
  unsigned budget = cfg_.commit_width;
  const std::size_t n = threads_.size();
  auto tid = static_cast<ThreadId>(commit_rr_);
  for (std::size_t k = 0; k < n && budget > 0; ++k) {
    ThreadCtx& ctx = threads_[tid];
    InstSeq retire_to = 0;  // one past the last committed trace_seq
    while (budget > 0 && !ctx.window.empty()) {
      DynInst& d = ctx.window.front();
      if (d.state != InstState::Issued || d.complete_at > now_) break;
      // A wrong-path instruction can never reach the window head: the
      // mispredicted branch ahead of it squashes it at resolve time.
      DWARN_CHECK(!d.wrong_path);
      if (d.ti.dest_class != RegClass::None) {
        // The previous mapping of the destination is now unreachable.
        regfile(d.ti.dest_class).release(d.old_phys);
      }
      if (d.ti.is_store()) mem_.store(tid, d.ti.mem_addr, now_);
      if (d.ti.is_load()) {
        // Committed-path load cache behavior (Table 2(a) uses these; the
        // mem.* counters also include wrong-path and squashed loads).
        cloads_.add();
        if (d.l1_miss) cload_l1_misses_.add();
        if (d.l2_miss) cload_l2_misses_.add();
      }
      retire_to = d.trace_seq + 1;
      committed_total_.add();
      committed_tid_[tid]->add();
      DWARN_CHECK(ctx.rename_idx > 0);
      --ctx.rename_idx;
      DWARN_CHECK(ctx.renamed_in_flight > 0);
      --ctx.renamed_in_flight;
      ctx.window.pop_front();
      --budget;
    }
    // retire_below is monotone, so one call with the highest sequence
    // equals one call per committed instruction.
    if (retire_to != 0) ctx.stream->retire_below(retire_to);
    if (++tid == n) tid = 0;
  }
  if (++commit_rr_ == n) commit_rr_ = 0;
}

void SmtCore::issue_one(DynInst& d) {
  d.state = InstState::Issued;
  switch (d.ti.cls) {
    case InstClass::Load: {
      const LoadOutcome out = mem_.load(d.tid, d.ti.mem_addr, now_);
      d.complete_at = out.complete_at;
      d.l1_miss = !out.l1_hit;
      d.l2_miss = !out.l1_hit && !out.l2_hit;
      d.tlb_miss = out.tlb_miss;
      loads_issued_.add();
      if (d.ti.dest_class != RegClass::None) {
        regfile(d.ti.dest_class).set_ready(d.dest_phys, d.complete_at);
      }
      schedule(d.complete_at,
               EventRec{EventRec::Kind::LoadComplete, d.tid, d.dyn_id, d.wpos, d.ti.pc,
                        0, d.l1_miss, d.l2_miss});
      if (d.l1_miss) {
        const Cycle detect_at =
            now_ + (cfg_.l1_detect_extra > 0 ? cfg_.l1_detect_extra : 1);
        // A detection that would land after the fill is moot: the front
        // end never learns of the miss, so neither event fires. This also
        // keeps the policies' detect/fill pairing intact (a Fill without
        // its L1MissDetect would underflow their Dmiss counters).
        if (detect_at < d.complete_at) {
          schedule(detect_at, EventRec{EventRec::Kind::L1MissDetect, d.tid, d.dyn_id,
                                       d.wpos, d.ti.pc, 0, true});
          schedule(d.complete_at, EventRec{EventRec::Kind::Fill, d.tid, d.dyn_id,
                                           d.wpos, d.ti.pc, 0, true});
        }
      }
      // "X cycles after issue" detection moment: declared L2 miss (or a
      // DTLB miss, which STALL/FLUSH treat the same way). Wrong-path
      // loads never declare: the hardware analog resolves the older
      // branch before the declaration threshold matters, and gating a
      // thread for a dead load would be modeling noise.
      if (!d.wrong_path) {
        const Cycle threshold = mem_.config().l2_declare_threshold;
        if (out.tlb_miss && mem_.config().tlb_miss_penalty > 0) {
          schedule(now_ + 1, EventRec{EventRec::Kind::LongLatency, d.tid, d.dyn_id,
                                      d.wpos, d.ti.pc, d.complete_at, d.l1_miss});
        } else if (d.complete_at > now_ + threshold) {
          schedule(now_ + threshold,
                   EventRec{EventRec::Kind::LongLatency, d.tid, d.dyn_id, d.wpos,
                            d.ti.pc, d.complete_at, d.l1_miss});
        }
      }
      break;
    }
    case InstClass::Store:
      // Address generation; data drains to the cache at commit.
      d.complete_at = now_ + 1;
      break;
    case InstClass::Branch:
      d.complete_at = now_ + d.ti.exec_latency;
      if (!d.wrong_path) {
        schedule(d.complete_at, EventRec{EventRec::Kind::BranchResolve, d.tid,
                                         d.dyn_id, d.wpos, d.ti.pc, 0, false});
      }
      break;
    default:
      d.complete_at = now_ + d.ti.exec_latency;
      if (d.ti.dest_class != RegClass::None) {
        regfile(d.ti.dest_class).set_ready(d.dest_phys, d.complete_at);
      }
      break;
  }
}

void SmtCore::do_issue() {
  unsigned budget = cfg_.issue_width;
  // Rotate the starting class so no issue class structurally starves when
  // the global issue width binds.
  const std::size_t class_start = static_cast<std::size_t>(now_ % kNumIssueClasses);
  for (std::size_t i = 0; i < kNumIssueClasses; ++i) {
    const std::size_t c = (class_start + i) % kNumIssueClasses;
    auto& q = iqs_[c];
    unsigned fu = cfg_.fu_count[c];
    if (q.empty()) continue;
    // Oldest-first select with in-place compaction: issued entries drop
    // out, waiting entries slide forward in order. Once the budget or the
    // class's FUs run out, the unscanned tail moves down in one erase.
    std::size_t kept = 0;
    std::size_t r = 0;
    for (; r < q.size() && budget != 0 && fu != 0; ++r) {
      const IqEntry e = q[r];
      DynInst* d = find_at(e.tid, e.dyn_id, e.wpos);
      DWARN_CHECK(d != nullptr && d->state == InstState::InQueue);
      if (std::max(*e.src0, *e.src1) <= now_) {
        issue_one(*d);
        DWARN_CHECK(threads_[e.tid].icount > 0);
        --threads_[e.tid].icount;
        --budget;
        --fu;
        continue;
      }
      q[kept++] = e;
    }
    q.erase(q.begin() + static_cast<std::ptrdiff_t>(kept),
            q.begin() + static_cast<std::ptrdiff_t>(r));
  }
}

void SmtCore::do_rename() {
  // Rename consumes the shared front-end queue strictly in fetch order.
  // A head instruction that cannot rename (no register, full queue,
  // policy resource cap) blocks every thread behind it: allocating shared
  // resources in fetch order is what gives the fetch policy its power —
  // and what lets one delinquent thread hurt all the others when the
  // policy lets it through (the paper's motivating pathology).
  unsigned budget = cfg_.rename_width;
  while (budget > 0 && !frontend_q_.empty()) {
    const QEntry e = frontend_q_.front();
    DynInst* d = find_at(e.tid, e.dyn_id, e.wpos);
    if (d == nullptr || d->state != InstState::FrontEnd) {
      frontend_q_.pop_front();  // squashed meanwhile: stale entry, free skip
      continue;
    }
    if (d->fetch_cycle + cfg_.frontend_depth > now_) break;  // still decoding
    ThreadCtx& ctx = threads_[e.tid];
    DWARN_CHECK(ctx.rename_idx < ctx.window.size() &&
                &ctx.window[ctx.rename_idx] == d);
    if (ctx.renamed_in_flight >= policy_->max_in_flight(e.tid)) break;
    const auto qc = static_cast<std::size_t>(issue_class_of(d->ti.cls));
    if (iqs_[qc].size() >= cfg_.iq_capacity[qc]) {
      rename_stall_iq_.add();
      break;
    }
    std::uint16_t dest = kNoReg;
    if (d->ti.dest_class != RegClass::None) {
      dest = regfile(d->ti.dest_class).alloc();
      if (dest == kNoReg) {
        rename_stall_regs_.add();
        break;
      }
    }
    if (d->ti.src_regs[0] != kNoArchReg) {
      d->src_phys0 = ctx.rmap.get(d->ti.src_class[0], d->ti.src_regs[0]);
    }
    if (d->ti.src_regs[1] != kNoArchReg) {
      d->src_phys1 = ctx.rmap.get(d->ti.src_class[1], d->ti.src_regs[1]);
    }
    if (dest != kNoReg) {
      d->dest_phys = dest;
      d->old_phys = ctx.rmap.set(d->ti.dest_class, d->ti.dest_reg, dest);
    }
    d->state = InstState::InQueue;
    iqs_[qc].push_back(IqEntry{src_ready_slot(d->ti.src_class[0], d->src_phys0),
                               src_ready_slot(d->ti.src_class[1], d->src_phys1),
                               d->dyn_id, d->wpos, e.tid});
    ++ctx.rename_idx;
    ++ctx.renamed_in_flight;
    DWARN_CHECK(frontend_live_ > 0);
    --frontend_live_;
    frontend_q_.pop_front();
    --budget;
  }
}

void SmtCore::do_fetch() {
  if (frontend_live_ >= cfg_.frontend_buffer) return;  // shared front end full
  cands_.clear();
  for (std::size_t t = 0; t < threads_.size(); ++t) {
    const ThreadCtx& ctx = threads_[t];
    if (ctx.fetch_stall_until > now_) continue;
    if (ctx.window.size() >= cfg_.rob_entries) continue;
    cands_.push_back(static_cast<ThreadId>(t));
  }
  if (cands_.empty()) return;

  fetch_order_.clear();
  policy_->order(cands_, fetch_order_);

  unsigned budget = cfg_.fetch_width;
  unsigned threads_used = 0;
  for (const ThreadId tid : fetch_order_) {
    if (budget == 0 || threads_used >= cfg_.fetch_threads) break;
    ++threads_used;
    fetch_from_thread(tid, budget);
  }
}

void SmtCore::fetch_from_thread(ThreadId tid, unsigned& budget) {
  ThreadCtx& ctx = threads_[tid];
  const Addr first_line = iline_of(ctx.fetch_pc);
  unsigned taken_this_thread = 0;

  while (budget > 0 && taken_this_thread < cfg_.fetch_width) {
    if (ctx.window.size() >= cfg_.rob_entries) break;
    if (frontend_live_ >= cfg_.frontend_buffer) break;
    const Addr pc = ctx.fetch_pc;
    if (iline_of(pc) != first_line) break;  // line-boundary fragmentation

    if (iline_of(pc) != ctx.cur_fetch_line) {
      const IFetchOutcome out = mem_.ifetch(tid, pc, now_);
      ctx.cur_fetch_line = iline_of(pc);
      if (out.ready_at > now_) {
        ctx.fetch_stall_until = out.ready_at;
        icache_stall_cycles_.add(out.ready_at - now_);
        // Instruction-delivery stalls are policy-visible the same way
        // data misses are (default-empty hook).
        policy_->on_ifetch_stall(tid, out.ready_at);
        break;
      }
    }

    // Filled in its window slot; nothing below reads the window, so
    // appending before the trace and predictor calls changes nothing.
    DynInst& d = ctx.window.emplace_back();
    d.tid = tid;
    d.dyn_id = ctx.next_dyn_id++;
    d.wpos = ctx.window.pos_of_back();
    d.fetch_cycle = now_;
    bool stop_after = false;

    if (ctx.in_wrong_path) {
      d.ti = ctx.wrongpath->next(pc, ctx.stream->layout());
      d.wrong_path = true;
      ctx.fetch_pc = d.ti.next_pc;
    } else {
      // Constructed in place, so the returned instruction lands in d.ti
      // directly. Assigning would copy it through a temporary, and the
      // copy's wide loads cannot be forwarded from the narrow stores a
      // replay decode just made: a stall on every fetched instruction.
      ::new (&d.ti) TraceInst(ctx.stream->at(ctx.fetch_seq));
      d.trace_seq = ctx.fetch_seq++;
      if (d.ti.is_branch()) {
        const Addr fall_through = ctx.stream->layout().wrap(pc + CodeLayout::kInstBytes);
        const BranchPrediction pred =
            bpred_.predict(tid, pc, d.ti.branch, fall_through);
        bpred_.train(tid, pc, d.ti.branch, d.ti.taken, d.ti.next_pc);
        d.pred_next_pc = pred.next_pc;
        d.ras_cp = pred.ras_cp;
        d.mispredicted = pred.next_pc != d.ti.next_pc;
        ctx.fetch_pc = pred.next_pc;
        if (d.mispredicted) ctx.in_wrong_path = true;
        if (pred.taken) stop_after = true;  // fragmentation at taken branch
      } else {
        ctx.fetch_pc = d.ti.next_pc;
      }
    }

    frontend_q_.push_back(QEntry{tid, d.dyn_id, d.wpos});
    ++frontend_live_;
    ++ctx.icount;
    fetched_.add();
    if (d.wrong_path) fetched_wrongpath_.add();
    policy_->on_fetch(tid, d.dyn_id, d.ti);
    --budget;
    ++taken_this_thread;
    if (stop_after) break;
  }
}

std::size_t SmtCore::squash_younger_than(ThreadId tid, std::uint64_t dyn_id,
                                         bool flush) {
  ThreadCtx& ctx = threads_[tid];
  std::size_t count = 0;
  while (!ctx.window.empty() && ctx.window.back().dyn_id > dyn_id) {
    DynInst& d = ctx.window.back();
    policy_->on_inst_squashed(tid, d.dyn_id, d.ti);
    if (d.state == InstState::FrontEnd || d.state == InstState::InQueue) {
      DWARN_CHECK(ctx.icount > 0);
      --ctx.icount;
    }
    if (d.state == InstState::FrontEnd) {
      // Its shared-front-end entry goes stale; rename skips it for free.
      DWARN_CHECK(frontend_live_ > 0);
      --frontend_live_;
    }
    if (d.state == InstState::InQueue) {
      remove_from_iq(tid, d.dyn_id, issue_class_of(d.ti.cls));
    }
    if (d.renamed()) {
      DWARN_CHECK(ctx.renamed_in_flight > 0);
      --ctx.renamed_in_flight;
      if (d.ti.dest_class != RegClass::None) {
        ctx.rmap.set(d.ti.dest_class, d.ti.dest_reg, d.old_phys);
        regfile(d.ti.dest_class).release(d.dest_phys);
      }
    }
    if (!d.wrong_path && d.ti.is_branch()) {
      // Walking youngest-to-oldest restores the RAS to the state just
      // before the oldest squashed branch's speculative push/pop.
      bpred_.restore_ras(tid, d.ras_cp);
    }
    (flush ? squashed_flush_ : squashed_branch_).add();
    ctx.window.pop_back();
    ++count;
  }
  if (ctx.rename_idx > ctx.window.size()) ctx.rename_idx = ctx.window.size();
  return count;
}

std::size_t SmtCore::flush_after(ThreadId tid, std::uint64_t dyn_id) {
  DWARN_CHECK(tid < threads_.size());
  DynInst* anchor = find(tid, dyn_id);
  if (anchor == nullptr || anchor->wrong_path) return 0;
  const Addr resume_pc = anchor->ti.next_pc;
  const InstSeq resume_seq = anchor->trace_seq + 1;
  const std::size_t n = squash_younger_than(tid, dyn_id, /*flush=*/true);
  ThreadCtx& ctx = threads_[tid];
  ctx.in_wrong_path = false;
  ctx.fetch_pc = resume_pc;
  ctx.fetch_seq = resume_seq;
  ctx.cur_fetch_line = ~Addr{0};
  if (ctx.fetch_stall_until > now_ + 1) ctx.fetch_stall_until = now_ + 1;
  flush_events_.add();
  return n;
}

void SmtCore::remove_from_iq(ThreadId tid, std::uint64_t dyn_id, IssueClass c) {
  auto& q = iqs_[static_cast<std::size_t>(c)];
  for (auto it = q.begin(); it != q.end(); ++it) {
    if (it->tid == tid && it->dyn_id == dyn_id) {
      q.erase(it);
      return;
    }
  }
  DWARN_CHECK(false && "InQueue instruction missing from its issue queue");
}

bool SmtCore::check_invariants() const {
  // Register conservation: allocated == per-thread architectural base +
  // renamed in-flight destinations.
  std::size_t expect_int = threads_.size() * kArchRegs;
  std::size_t expect_fp = threads_.size() * kArchRegs;
  for (const ThreadCtx& ctx : threads_) {
    unsigned icnt = 0;
    unsigned renamed = 0;
    std::uint64_t prev_dyn = 0;
    bool first = true;
    for (std::size_t i = 0; i < ctx.window.size(); ++i) {
      const DynInst& d = ctx.window[i];
      if (!first) DWARN_CHECK(d.dyn_id > prev_dyn);  // ascending; gaps after squash
      prev_dyn = d.dyn_id;
      first = false;
      DWARN_CHECK(d.wpos == ctx.window.pos_at(i));  // stable-handle integrity
      const bool is_renamed = d.state != InstState::FrontEnd;
      DWARN_CHECK(is_renamed == (i < ctx.rename_idx));
      if (is_renamed) {
        ++renamed;
        if (d.ti.dest_class == RegClass::Int) ++expect_int;
        if (d.ti.dest_class == RegClass::Fp) ++expect_fp;
      }
      if (d.state == InstState::FrontEnd || d.state == InstState::InQueue) ++icnt;
    }
    DWARN_CHECK(icnt == ctx.icount);
    DWARN_CHECK(renamed == ctx.renamed_in_flight);
  }
  DWARN_CHECK(int_regs_.num_allocated() == expect_int);
  DWARN_CHECK(fp_regs_.num_allocated() == expect_fp);
  // Issue queues: every entry names an InQueue instruction of its class,
  // and its source slots are that instruction's renamed sources in the
  // right register file; every InQueue instruction has an entry.
  std::array<std::size_t, kNumIssueClasses> in_queue{};
  for (const ThreadCtx& ctx : threads_) {
    for (std::size_t i = 0; i < ctx.window.size(); ++i) {
      const DynInst& d = ctx.window[i];
      if (d.state == InstState::InQueue) {
        ++in_queue[static_cast<std::size_t>(issue_class_of(d.ti.cls))];
      }
    }
  }
  for (std::size_t c = 0; c < kNumIssueClasses; ++c) {
    DWARN_CHECK(iqs_[c].size() <= cfg_.iq_capacity[c]);
    DWARN_CHECK(iqs_[c].size() == in_queue[c]);
    for (const IqEntry& e : iqs_[c]) {
      const DynInst* d = find_at(e.tid, e.dyn_id, e.wpos);
      DWARN_CHECK(d != nullptr && d->state == InstState::InQueue);
      DWARN_CHECK(static_cast<std::size_t>(issue_class_of(d->ti.cls)) == c);
      DWARN_CHECK(e.src0 == src_ready_slot(d->ti.src_class[0], d->src_phys0));
      DWARN_CHECK(e.src1 == src_ready_slot(d->ti.src_class[1], d->src_phys1));
    }
  }
  DWARN_CHECK(mem_.check_invariants());
  // Shared front end: live entries equal the FrontEnd-state population.
  std::size_t fe = 0;
  for (const ThreadCtx& ctx : threads_) {
    for (std::size_t i = 0; i < ctx.window.size(); ++i) {
      if (ctx.window[i].state == InstState::FrontEnd) ++fe;
    }
  }
  DWARN_CHECK(fe == frontend_live_);
  DWARN_CHECK(frontend_live_ <= frontend_q_.size());
  return true;
}

}  // namespace dwarn
