#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "sim/metrics.hpp"

namespace perfbench {

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

namespace {

/// 1-based nearest rank of percentile p in a sample of n.
std::size_t rank_of(double p, std::size_t n) {
  const auto r = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(r, 1, n);
}

}  // namespace

TailPercentile tail_percentile(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  TailPercentile t;
  t.n = xs.size();
  if (xs.empty()) return t;
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    t.pct = p;
    t.beyond = t.n - rank_of(p, t.n);
    if (t.beyond >= kTailBeyond) break;
  }
  t.value = xs[rank_of(t.pct, t.n) - 1];
  return t;
}

std::vector<PaperRef> load_paper_refs(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read paper reference table '" + path + "'");
  std::vector<PaperRef> refs;
  std::string line;
  bool header = true;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (header) {
      if (line != "figure,opponent,class,ref_pct") {
        throw std::runtime_error("unexpected header in '" + path + "': " + line);
      }
      header = false;
      continue;
    }
    std::vector<std::string> cells;
    std::stringstream ss(line);
    for (std::string cell; std::getline(ss, cell, ',');) cells.push_back(cell);
    char* end = nullptr;
    const double pct = cells.size() == 4 ? std::strtod(cells[3].c_str(), &end) : 0.0;
    if (cells.size() != 4 || cells[3].empty() || end != cells[3].c_str() + cells[3].size()) {
      throw std::runtime_error("malformed row in '" + path + "': " + line);
    }
    refs.push_back(PaperRef{cells[0], cells[1], cells[2], pct});
  }
  if (refs.empty()) throw std::runtime_error("no reference rows in '" + path + "'");
  return refs;
}

DeltaTable dwarn_deltas(const dwarn::ResultSet& rs) {
  using Cell = std::tuple<std::string, std::string, std::string, std::uint64_t>;
  std::map<Cell, std::map<std::string, const dwarn::RunRecord*>> cells;
  for (const dwarn::RunRecord& r : rs.records()) {
    if (r.role != dwarn::RunRole::Grid) continue;
    cells[{r.machine, r.workload.name, r.tag, r.seed}][r.policy] = &r;
  }
  std::map<std::string, std::map<std::string, std::vector<double>>> pooled;
  for (const auto& [cell, by_policy] : cells) {
    const auto ours = by_policy.find("DWarn");
    if (ours == by_policy.end()) continue;
    const std::string cls(dwarn::to_string(ours->second->workload.type));
    for (const auto& [policy, rec] : by_policy) {
      if (policy == "DWarn") continue;
      const double d =
          dwarn::improvement_pct(ours->second->result.throughput, rec->result.throughput);
      pooled[policy][cls].push_back(d);
      pooled[policy]["avg"].push_back(d);
    }
  }
  DeltaTable out;
  for (const auto& [policy, by_cls] : pooled) {
    for (const auto& [cls, v] : by_cls) out[policy][cls] = dwarn::amean(v);
  }
  return out;
}

double paper_err_pp(const DeltaTable& sim, const std::vector<PaperRef>& refs) {
  if (refs.empty()) throw std::runtime_error("paper_err_pp: no references");
  double sum = 0.0;
  for (const PaperRef& r : refs) {
    const auto p = sim.find(r.opponent);
    if (p == sim.end() || p->second.find(r.cls) == p->second.end()) {
      throw std::runtime_error("paper_err_pp: no simulated DWarn-vs-" + r.opponent + " " +
                               r.cls + " delta");
    }
    sum += std::fabs(p->second.at(r.cls) - r.ref_pct);
  }
  return sum / static_cast<double>(refs.size());
}

std::map<std::string, double> policy_throughput(const dwarn::ResultSet& rs) {
  std::map<std::string, std::vector<double>> by_policy;
  for (const dwarn::RunRecord& r : rs.records()) {
    if (r.role == dwarn::RunRole::Grid) by_policy[r.policy].push_back(r.result.throughput);
  }
  std::map<std::string, double> out;
  for (const auto& [p, v] : by_policy) out[p] = dwarn::amean(v);
  return out;
}

namespace {

std::uint64_t counter(const dwarn::SimResult& r, const std::string& key) {
  const auto it = r.counters.find(key);
  return it == r.counters.end() ? 0 : it->second;
}

}  // namespace

std::vector<std::string> check_record(const dwarn::RunRecord& rec, const dwarn::RunLength& len) {
  std::vector<std::string> fails;
  const dwarn::SimResult& r = rec.result;
  const std::string id = rec.machine + "/" + rec.workload.name + "/" + rec.policy + "/seed" +
                         std::to_string(rec.seed);
  const std::uint64_t committed = counter(r, "core.committed");
  if (committed < len.measure_insts) {
    fails.push_back(id + ": measured window stopped on the cycle cap at " +
                    std::to_string(committed) + " of " + std::to_string(len.measure_insts) +
                    " committed");
  }
  if (r.thread_ipc.size() != rec.workload.num_threads()) {
    fails.push_back(id + ": " + std::to_string(r.thread_ipc.size()) + " thread IPCs for " +
                    std::to_string(rec.workload.num_threads()) + " threads");
  }
  double ipc_sum = 0.0;
  std::uint64_t thread_committed = 0;
  for (std::size_t t = 0; t < r.thread_ipc.size(); ++t) {
    ipc_sum += r.thread_ipc[t];
    thread_committed += counter(r, "core.committed.t" + std::to_string(t));
  }
  if (std::fabs(ipc_sum - r.throughput) > 1e-9 * std::max(1.0, r.throughput)) {
    fails.push_back(id + ": thread IPCs sum to " + std::to_string(ipc_sum) +
                    ", throughput is " + std::to_string(r.throughput));
  }
  if (thread_committed != committed) {
    fails.push_back(id + ": per-thread committed counters sum to " +
                    std::to_string(thread_committed) + ", core.committed is " +
                    std::to_string(committed));
  }
  return fails;
}

std::string fnv1a_hex(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, h >>= 4) out[static_cast<std::size_t>(i)] = kHex[h & 0xf];
  return out;
}

std::uint64_t CounterTotals::operator[](const std::string& key) const {
  const auto it = sum.find(key);
  return it == sum.end() ? 0 : it->second;
}

double CounterTotals::ratio(const std::string& num, const std::string& den) const {
  const std::uint64_t d = (*this)[den];
  return d == 0 ? 0.0 : static_cast<double>((*this)[num]) / static_cast<double>(d);
}

double CounterTotals::per_kinst(const std::string& key) const {
  return 1000.0 * ratio(key, "core.committed");
}

CounterTotals counter_totals(const dwarn::ResultSet& rs) {
  CounterTotals t;
  for (const dwarn::RunRecord& r : rs.records()) {
    ++t.runs;
    for (const auto& [k, v] : r.result.counters) t.sum[k] += v;
    t.iq_int_occ_sum +=
        static_cast<double>(counter(r.result, "core.occ.iq_int.mean_x100")) / 100.0;
  }
  return t;
}

std::uint64_t run_insts(const dwarn::RunRecord& rec, const dwarn::RunLength& len) {
  return len.warmup_insts + counter(rec.result, "core.committed");
}

}  // namespace perfbench
