#include "mem/hierarchy.hpp"

namespace dwarn {

MemoryHierarchy::MemoryHierarchy(const MemoryConfig& cfg, std::size_t num_threads,
                                 StatSet& stats)
    : cfg_(cfg),
      l1i_(cfg.l1i, stats),
      l1d_(cfg.l1d, stats),
      l2_(cfg.l2, stats),
      l1d_mshrs_(cfg.l1d_mshrs),
      l1i_mshrs_(cfg.l1i_mshrs),
      loads_(stats.counter("mem.loads")),
      load_l1_misses_(stats.counter("mem.load_l1_misses")),
      load_l2_misses_(stats.counter("mem.load_l2_misses")),
      load_tlb_misses_(stats.counter("mem.load_tlb_misses")),
      load_mshr_merges_(stats.counter("mem.load_mshr_merges")),
      stores_(stats.counter("mem.stores")),
      ifetches_(stats.counter("mem.ifetches")),
      ifetch_l1_misses_(stats.counter("mem.ifetch_l1_misses")),
      ifetch_l2_misses_(stats.counter("mem.ifetch_l2_misses")) {
  DWARN_CHECK(num_threads >= 1 && num_threads <= kMaxThreads);
  dtlbs_.reserve(num_threads);
  for (std::size_t t = 0; t < num_threads; ++t) {
    TlbConfig tc = cfg.dtlb;
    tc.name = "dtlb" + std::to_string(t);
    dtlbs_.emplace_back(tc, stats);
  }
  if (cfg_.icache.enabled) {
    // Constructed only on opt-in so its "imem." counters never appear in
    // default snapshots (StatSet snapshots include every created counter).
    imem_ = std::make_unique<InstMemory>(cfg_.icache, cfg_.itlb, cfg_.l2_latency,
                                         cfg_.mem_latency, num_threads, l2_, stats);
  }
}

LoadOutcome MemoryHierarchy::load(ThreadId tid, Addr addr, Cycle now) {
  DWARN_CHECK(tid < dtlbs_.size());
  LoadOutcome out;
  loads_.add();

  Cycle penalty = 0;
  if (!dtlbs_[tid].access(addr)) {
    out.tlb_miss = true;
    load_tlb_misses_.add();
    penalty += cfg_.tlb_miss_penalty;
  }

  const CacheAccessResult r1 = l1d_.access(addr, /*is_write=*/false, now);
  penalty += r1.bank_delay;
  if (r1.hit) {
    out.l1_hit = true;
    out.complete_at = now + cfg_.l1_latency + penalty;
    return out;
  }

  out.l1_hit = false;
  load_l1_misses_.add();
  const Addr line = l1d_.line_of(addr);

  // Secondary miss to a line already in flight: complete with the primary.
  if (auto pending = l1d_mshrs_.lookup(line)) {
    out.mshr_merged = true;
    load_mshr_merges_.add();
    l1d_mshrs_.merge(line);
    const Cycle data_at = *pending + penalty;
    out.complete_at = data_at > now + cfg_.l1_latency ? data_at : now + cfg_.l1_latency;
    // Classify like the primary: if the fill takes longer than an L2 round
    // trip it was a memory access.
    out.l2_hit = (*pending <= now + cfg_.l1_latency + cfg_.l2_latency);
    if (!out.l2_hit) load_l2_misses_.add();
    return out;
  }

  const CacheAccessResult r2 = l2_.access(addr, /*is_write=*/false, now);
  penalty += r2.bank_delay;
  Cycle complete;
  if (r2.hit) {
    out.l2_hit = true;
    complete = now + cfg_.l1_latency + cfg_.l2_latency + penalty;
  } else {
    out.l2_hit = false;
    load_l2_misses_.add();
    complete = now + cfg_.l1_latency + cfg_.l2_latency + cfg_.mem_latency + penalty;
  }
  out.complete_at = complete;
  l1d_mshrs_.allocate(line, complete);
  return out;
}

void MemoryHierarchy::store(ThreadId tid, Addr addr, Cycle now) {
  DWARN_CHECK(tid < dtlbs_.size());
  stores_.add();
  dtlbs_[tid].access(addr);
  const CacheAccessResult r1 = l1d_.access(addr, /*is_write=*/true, now);
  if (!r1.hit) {
    // Write-allocate: bring the line through L2.
    l2_.access(addr, /*is_write=*/false, now);
  }
  if (r1.writeback) {
    // Dirty victim drains to L2 (write-back).
    l2_.access(r1.victim_line, /*is_write=*/true, now);
  }
}

IFetchOutcome MemoryHierarchy::ifetch(ThreadId tid, Addr addr, Cycle now) {
  if (imem_) return imem_->fetch(tid, addr, now);
  (void)tid;
  IFetchOutcome out;
  ifetches_.add();
  const CacheAccessResult r1 = l1i_.access(addr, /*is_write=*/false, now);
  if (r1.hit) {
    out.l1_hit = true;
    out.ready_at = now + r1.bank_delay;
    return out;
  }
  out.l1_hit = false;
  ifetch_l1_misses_.add();
  const Addr line = l1i_.line_of(addr);
  if (auto pending = l1i_mshrs_.lookup(line)) {
    l1i_mshrs_.merge(line);
    out.ready_at = *pending;
    out.l2_hit = true;
    return out;
  }
  const CacheAccessResult r2 = l2_.access(addr, /*is_write=*/false, now);
  Cycle ready;
  if (r2.hit) {
    out.l2_hit = true;
    ready = now + cfg_.l2_latency + r1.bank_delay + r2.bank_delay;
  } else {
    out.l2_hit = false;
    ifetch_l2_misses_.add();
    ready = now + cfg_.l2_latency + cfg_.mem_latency + r1.bank_delay + r2.bank_delay;
  }
  out.ready_at = ready;
  l1i_mshrs_.allocate(line, ready);
  return out;
}

void MemoryHierarchy::tick(Cycle now) {
  l1d_mshrs_.expire(now);
  l1i_mshrs_.expire(now);
  if (imem_) imem_->tick(now);
}

void MemoryHierarchy::clear_state() {
  l1i_.clear();
  l1d_.clear();
  l2_.clear();
  for (auto& t : dtlbs_) t.clear();
  l1d_mshrs_.clear();
  l1i_mshrs_.clear();
  if (imem_) imem_->clear_state();
}

bool MemoryHierarchy::check_invariants() const {
  DWARN_CHECK(l1d_mshrs_.next_expiry_consistent());
  DWARN_CHECK(l1i_mshrs_.next_expiry_consistent());
  if (imem_) DWARN_CHECK(imem_->mshrs().next_expiry_consistent());
  return true;
}

}  // namespace dwarn
