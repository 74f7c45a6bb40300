#include "mem/cache.hpp"

#include <bit>

namespace dwarn {

Cache::Cache(CacheConfig cfg, StatSet& stats)
    : cfg_(std::move(cfg)),
      accesses_(stats.counter(cfg_.name + ".accesses")),
      misses_(stats.counter(cfg_.name + ".misses")),
      writebacks_(stats.counter(cfg_.name + ".writebacks")),
      bank_conflicts_(stats.counter(cfg_.name + ".bank_conflicts")) {
  DWARN_CHECK(std::has_single_bit(cfg_.line_bytes));
  DWARN_CHECK(std::has_single_bit(cfg_.banks));
  DWARN_CHECK(cfg_.assoc >= 1);
  DWARN_CHECK(cfg_.num_lines() % cfg_.assoc == 0);
  DWARN_CHECK(std::has_single_bit(cfg_.num_sets()));
  line_shift_ = static_cast<unsigned>(std::countr_zero(cfg_.line_bytes));
  line_mask_ = ~static_cast<Addr>(cfg_.line_bytes - 1);
  set_mask_ = cfg_.num_sets() - 1;
  bank_mask_ = cfg_.banks - 1;
  lines_.resize(cfg_.num_lines());
  bank_free_at_.assign(cfg_.banks, 0);
}

CacheAccessResult Cache::access(Addr addr, bool is_write, Cycle now) {
  CacheAccessResult res;
  const Addr line_addr = line_of(addr);
  const std::size_t set = set_index(line_addr);
  const std::size_t bank = bank_index(line_addr);
  Line* const base = &lines_[set * cfg_.assoc];

  accesses_.add();

  // Bank port: one access per bank per cycle; later arrivals queue.
  if (bank_free_at_[bank] > now) {
    res.bank_delay = bank_free_at_[bank] - now;
    bank_conflicts_.add();
    bank_free_at_[bank] += 1;
  } else {
    bank_free_at_[bank] = now + 1;
  }

  ++lru_clock_;
  for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
    Line& l = base[w];
    if (l.valid && l.tag == line_addr) {
      l.lru = lru_clock_;
      l.dirty = l.dirty || is_write;
      res.hit = true;
      return res;
    }
  }

  // Miss: pick victim = invalid way, else LRU way.
  misses_.add();
  Line* victim = &base[0];
  for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
    Line& l = base[w];
    if (!l.valid) {
      victim = &l;
      break;
    }
    if (l.lru < victim->lru) victim = &l;
  }
  if (victim->valid) {
    res.evicted = true;
    res.victim_line = victim->tag;
    if (victim->dirty) {
      res.writeback = true;
      writebacks_.add();
    }
  }
  victim->tag = line_addr;
  victim->valid = true;
  victim->dirty = is_write;
  victim->lru = lru_clock_;
  return res;
}

bool Cache::probe(Addr addr) const {
  const Addr line_addr = line_of(addr);
  const std::size_t set = set_index(line_addr);
  const Line* const base = &lines_[set * cfg_.assoc];
  for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
    if (base[w].valid && base[w].tag == line_addr) return true;
  }
  return false;
}

void Cache::invalidate(Addr addr) {
  const Addr line_addr = line_of(addr);
  const std::size_t set = set_index(line_addr);
  Line* const base = &lines_[set * cfg_.assoc];
  for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
    if (base[w].valid && base[w].tag == line_addr) {
      base[w].valid = false;
      base[w].dirty = false;
      return;
    }
  }
}

void Cache::clear() {
  for (auto& l : lines_) l = Line{};
  for (auto& b : bank_free_at_) b = 0;
}

double Cache::occupancy() const {
  std::size_t valid = 0;
  for (const auto& l : lines_) valid += l.valid ? 1 : 0;
  return lines_.empty() ? 0.0 : static_cast<double>(valid) / static_cast<double>(lines_.size());
}

}  // namespace dwarn
