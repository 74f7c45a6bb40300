#include "mem/hierarchy.hpp"

namespace dwarn {

MemoryHierarchy::MemoryHierarchy(const MemoryConfig& cfg, std::size_t num_threads,
                                 StatSet& stats)
    : cfg_(cfg),
      l1d_(cfg.l1d, stats),
      l2_(cfg.l2, stats),
      l1d_mshrs_(cfg.l1d_mshrs),
      imem_(cfg.icache, cfg.itlb, cfg.l2_latency, cfg.mem_latency, num_threads, l2_, stats),
      loads_(stats.counter("mem.loads")),
      load_l1_misses_(stats.counter("mem.load_l1_misses")),
      load_l2_misses_(stats.counter("mem.load_l2_misses")),
      load_tlb_misses_(stats.counter("mem.load_tlb_misses")),
      load_mshr_merges_(stats.counter("mem.load_mshr_merges")),
      stores_(stats.counter("mem.stores")) {
  DWARN_CHECK(num_threads >= 1 && num_threads <= kMaxThreads);
  dtlbs_.reserve(num_threads);
  for (std::size_t t = 0; t < num_threads; ++t) {
    TlbConfig tc = cfg.dtlb;
    tc.name = "dtlb" + std::to_string(t);
    dtlbs_.emplace_back(tc, stats);
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
  const Addr line = l1d_.line_of(addr);

  // A line still in flight misses whatever its tag says: fill-on-access
  // installed the tag when the primary miss issued.
  const std::optional<Cycle> pending = l1d_mshrs_.lookup(line);
  if (r1.hit && !pending) {
    out.complete_at = now + cfg_.l1_latency + penalty;
    return out;
  }

  out.l1_hit = false;
  load_l1_misses_.add();

  // Secondary miss to a line already in flight: complete with the primary.
  if (pending) {
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

void MemoryHierarchy::tick(Cycle now) {
  l1d_mshrs_.expire(now);
  imem_.tick(now);
}

void MemoryHierarchy::clear_state() {
  l1d_.clear();
  l2_.clear();
  for (auto& t : dtlbs_) t.clear();
  l1d_mshrs_.clear();
  imem_.clear_state();
}

bool MemoryHierarchy::check_invariants() const {
  DWARN_CHECK(l1d_mshrs_.next_expiry_consistent());
  DWARN_CHECK(imem_.mshrs().next_expiry_consistent());
  return true;
}

}  // namespace dwarn
