#include "mem/icache.hpp"

namespace dwarn {

namespace {

CacheConfig tag_config(const ICacheConfig& cfg) {
  CacheConfig c;
  c.name = "imem.l1i";
  c.size_bytes = cfg.size_bytes;
  c.assoc = cfg.assoc;
  c.line_bytes = cfg.line_bytes;
  c.banks = 8;  // the same port structure as the L1D
  return c;
}

}  // namespace

InstMemory::InstMemory(const ICacheConfig& cfg, const ITlbConfig& itlb_cfg,
                       Cycle l2_latency, Cycle mem_latency, std::size_t num_threads,
                       Cache& l2, StatSet& stats)
    : cfg_(cfg),
      l2_latency_(l2_latency),
      mem_latency_(mem_latency),
      tags_(tag_config(cfg), stats),
      l2_(l2),
      mshrs_(cfg.mshrs),
      fetches_(stats.counter("imem.fetches")),
      demand_misses_(stats.counter("imem.demand_misses")),
      itlb_misses_(stats.counter("imem.itlb_misses")),
      l2_misses_(stats.counter("imem.l2_misses")),
      inflight_merges_(stats.counter("imem.inflight_merges")),
      prefetch_issued_(stats.counter("imem.prefetch_issued")),
      prefetch_late_(stats.counter("imem.prefetch_late")) {
  DWARN_CHECK(num_threads >= 1 && num_threads <= kMaxThreads);
  DWARN_CHECK(cfg_.mshrs >= 1);
  DWARN_CHECK(cfg_.hit_latency >= 1);
  itlbs_.reserve(num_threads);
  for (std::size_t t = 0; t < num_threads; ++t) {
    ITlbConfig tc = itlb_cfg;
    tc.name = "imem.itlb" + std::to_string(t);
    itlbs_.emplace_back(tc, stats);
  }
}

IFetchOutcome InstMemory::fetch(ThreadId tid, Addr pc, Cycle now) {
  DWARN_CHECK(tid < itlbs_.size());
  IFetchOutcome out;
  fetches_.add();

  // Translation gates the tag access: the walk penalty rides on top of
  // whatever the cache side costs (the access starts after the walk).
  Cycle penalty = itlbs_[tid].access(pc);
  if (penalty > 0) {
    out.itlb_miss = true;
    itlb_misses_.add();
  }

  const Addr line = tags_.line_of(pc);

  // Line already in flight (an earlier demand miss or a prefetch): the
  // fetch completes with the pending fill instead of issuing a second
  // memory transaction.
  if (auto pending = mshrs_.lookup(line)) {
    mshrs_.merge(line);
    inflight_merges_.add();
    for (std::size_t i = 0; i < pf_inflight_.size();) {
      if (pf_inflight_[i].second <= now) {
        pf_inflight_[i] = pf_inflight_.back();
        pf_inflight_.pop_back();
        continue;
      }
      if (pf_inflight_[i].first == line) {
        // A prefetch was on the right track but not timely.
        prefetch_late_.add();
        pf_inflight_[i] = pf_inflight_.back();
        pf_inflight_.pop_back();
        continue;
      }
      ++i;
    }
    tags_.access(pc, /*is_write=*/false, now);  // touch LRU; line installed at request
    out.l1_hit = false;
    const Cycle earliest = now + (cfg_.hit_latency - 1);
    out.ready_at = (*pending > earliest ? *pending : earliest) + penalty;
    // Classify like the data-side merge rule: a fill slower than an L2
    // round trip was a memory access.
    out.l2_hit = (*pending <= now + cfg_.hit_latency + l2_latency_);
    fetch_ahead(line, now);
    return out;
  }

  const CacheAccessResult r1 = tags_.access(pc, /*is_write=*/false, now);
  penalty += r1.bank_delay;
  if (r1.hit) {
    out.l1_hit = true;
    out.ready_at = now + (cfg_.hit_latency - 1) + penalty;
    fetch_ahead(line, now);
    return out;
  }

  out.l1_hit = false;
  demand_misses_.add();
  const CacheAccessResult r2 = l2_.access(pc, /*is_write=*/false, now);
  penalty += r2.bank_delay;
  Cycle fill_at = now + (cfg_.hit_latency - 1) + l2_latency_;
  if (r2.hit) {
    out.l2_hit = true;
  } else {
    out.l2_hit = false;
    l2_misses_.add();
    fill_at += mem_latency_;
  }
  mshrs_.allocate(line, fill_at);
  out.ready_at = fill_at + penalty;
  fetch_ahead(line, now);
  return out;
}

void InstMemory::fetch_ahead(Addr demand_line, Cycle now) {
  for (std::uint32_t d = 1; d <= cfg_.prefetch_depth; ++d) {
    const Addr pl = demand_line + static_cast<Addr>(d) * cfg_.line_bytes;
    if (tags_.probe(pl) || mshrs_.lookup(pl)) continue;
    if (mshrs_.in_flight() >= mshrs_.capacity()) return;  // no free fill slot
    prefetch_issued_.add();
    const CacheAccessResult r2 = l2_.access(pl, /*is_write=*/false, now);
    Cycle fill_at = now + l2_latency_ + r2.bank_delay;
    if (!r2.hit) fill_at += mem_latency_;
    // Fill-on-access (trace-driven simplification): the line is installed
    // now, the MSHR entry carries when its data actually arrives; a
    // demand fetch landing on it before then merges above.
    tags_.access(pl, /*is_write=*/false, now);
    mshrs_.allocate(pl, fill_at);
    pf_inflight_.emplace_back(pl, fill_at);
  }
}

void InstMemory::clear_state() {
  tags_.clear();
  for (auto& t : itlbs_) t.clear();
  mshrs_.clear();
  pf_inflight_.clear();
}

}  // namespace dwarn
