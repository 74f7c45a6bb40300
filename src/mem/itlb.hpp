// Per-context instruction TLB.
//
// The instruction side translates fetch PCs, not data addresses, and its
// miss handling differs from the DTLB's: an I-TLB miss blocks *fetch* for
// the walking thread (the front end cannot even form a cache access until
// the translation returns), so the walk penalty is charged on the fetch
// path and the stalled thread becomes invisible to the fetch policy until
// the walk completes. We model a small set-associative I-TLB per hardware
// context with true-LRU replacement and a fixed page-walk latency
// (`walk_cycles`), configurable separately from the DTLB's 160-cycle
// penalty because instruction pages are few and contiguous — real I-TLBs
// are an order of magnitude smaller than their data siblings.
//
// Owned by the instruction side (mem/icache.hpp). The paper presets set
// `walk_cycles` to 0: the I-TLB's own counters still count misses, but
// none costs fetch a cycle or counts in `imem.itlb_misses`.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/tlb.hpp"

namespace dwarn {

/// Geometry and timing of an instruction TLB.
struct ITlbConfig {
  std::string name = "itlb";
  std::uint32_t entries = 64;
  std::uint32_t assoc = 4;
  std::uint32_t page_bytes = 8192;
  Cycle walk_cycles = 40;  ///< fetch-path penalty of a page walk
};

/// Set-associative instruction TLB with true-LRU replacement: the DTLB's
/// structure (mem/tlb.hpp, same counters under the I-TLB's name) with a
/// page-walk penalty charged on the fetch path. Like the DTLB, translation
/// is identity (the simulator is virtually addressed); the structure exists
/// purely for its timing behavior.
class ITlb {
 public:
  ITlb(ITlbConfig cfg, StatSet& stats)
      : cfg_(std::move(cfg)),
        tlb_(TlbConfig{.name = cfg_.name, .entries = cfg_.entries, .assoc = cfg_.assoc,
                       .page_bytes = cfg_.page_bytes},
             stats) {
    DWARN_CHECK(cfg_.entries >= 1);
    DWARN_CHECK(cfg_.page_bytes >= 64);
  }

  /// Probe-and-fill: returns the fetch-path penalty — 0 on a hit,
  /// `walk_cycles` on a miss (the page is installed behind the walk).
  [[nodiscard]] Cycle access(Addr pc) { return tlb_.access(pc) ? 0 : cfg_.walk_cycles; }

  /// Hit check without side effects (tests).
  [[nodiscard]] bool probe(Addr pc) const { return tlb_.probe(pc); }

  void clear() { tlb_.clear(); }

  [[nodiscard]] const ITlbConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t miss_count() const { return tlb_.miss_count(); }

 private:
  ITlbConfig cfg_;
  Tlb tlb_;
};

}  // namespace dwarn
