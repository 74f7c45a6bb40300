#include "engine/experiment_engine.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>

#include "sim/simulator.hpp"
#include "telemetry/counter_sampler.hpp"
#include "telemetry/phase_trace.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/trace_cache.hpp"

namespace dwarn {

const RunRecord* ResultSet::find(const RunKey& key) const {
  for (const RunRecord& r : records_) {
    if (r.role != RunRole::Grid) continue;
    if (r.workload.name != key.workload) continue;
    if (r.policy != key.policy) continue;
    if (!key.machine.empty() && r.machine != key.machine) continue;
    if (!key.tag.empty() && r.tag != key.tag) continue;
    if (key.seed && r.seed != *key.seed) continue;
    return &r;
  }
  return nullptr;
}

const SimResult& ResultSet::get(const RunKey& key) const {
  if (const RunRecord* r = find(key)) return r->result;
  std::ostringstream os;
  os << "ResultSet: no run for (workload=" << key.workload << ", policy=" << key.policy;
  if (!key.machine.empty()) os << ", machine=" << key.machine;
  if (!key.tag.empty()) os << ", tag=" << key.tag;
  if (key.seed) os << ", seed=" << *key.seed;
  os << "); available:";
  if (records_.empty()) os << " (none)";
  for (const RunRecord& r : records_) {
    os << "\n  (machine=" << r.machine << ", workload=" << r.workload.name
       << ", policy=" << r.policy;
    if (!r.tag.empty()) os << ", tag=" << r.tag;
    os << ", seed=" << r.seed << ", role=" << to_string(r.role) << ")";
  }
  throw std::out_of_range(os.str());
}

SoloIpcMap ResultSet::solo_ipcs(std::string_view machine,
                                std::optional<std::uint64_t> seed) const {
  // Baselines from different machines must never be mixed: relative-IPC
  // denominators are machine-specific, so an ambiguous selection is an
  // error rather than a silent first-match.
  std::set<std::string> machines;
  for (const RunRecord& r : records_) {
    if (r.role == RunRole::Solo && (machine.empty() || r.machine == machine)) {
      machines.insert(r.machine);
    }
  }
  if (machines.size() > 1) {
    std::ostringstream os;
    os << "ResultSet::solo_ipcs: solo baselines exist for multiple machines (";
    bool first = true;
    for (const auto& m : machines) {
      os << (first ? "" : ", ") << m;
      first = false;
    }
    os << "); pass the machine name to select one";
    throw std::logic_error(os.str());
  }

  SoloIpcMap solo;
  for (const RunRecord& r : records_) {
    if (r.role != RunRole::Solo) continue;
    if (!machine.empty() && r.machine != machine) continue;
    if (seed && r.seed != *seed) continue;
    if (r.workload.benchmarks.empty()) continue;
    // Multiple seeds, no filter: the first (lowest grid index) run wins.
    solo.emplace(r.workload.benchmarks.front(), r.result.throughput);
  }
  return solo;
}

std::vector<std::size_t> ExperimentEngine::batch_order(const std::vector<RunSpec>& specs) {
  std::vector<std::size_t> order(specs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (specs.size() < 2 || !trace_cache_enabled()) return order;
  // Warm-cache batching: all policy/machine/tag variants of one
  // (workload, seed) grid point share the same per-thread trace keys, so
  // executing them back-to-back makes them share one generation of each
  // trace (whichever run first reads a chunk generates it; the others
  // replay it) — and keeps the cache's working set one group wide
  // instead of one grid wide. The stable sort preserves expansion order
  // inside a group; records are still indexed by grid position, so the
  // ResultSet (and every serialized byte) is unchanged.
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const RunSpec& x = specs[a];
    const RunSpec& y = specs[b];
    if (x.workload.name != y.workload.name) return x.workload.name < y.workload.name;
    return x.seed < y.seed;
  });
  return order;
}

ResultSet ExperimentEngine::run(const std::vector<RunSpec>& specs) const {
  std::vector<RunRecord> records(specs.size());
  const std::vector<std::size_t> order = batch_order(specs);
  std::mutex done_mu;
  std::size_t done = 0;
  pool_->for_each(
      specs.size(),
      [&](std::size_t job) {
        const std::size_t i = order[job];
        const RunSpec& s = specs[i];
        const auto t0 = std::chrono::steady_clock::now();
        Simulator sim(s.machine.build(s.workload.num_threads()), s.workload, s.policy,
                      s.params, s.seed, trace_window_insts(s.len));
        SimResult result;
        {
          telem::PhaseSpan span("simulate",
                                "{\"workload\":\"" + telem::telem_json_escape(s.workload.name) +
                                    "\",\"seed\":" + std::to_string(s.seed) + "}");
          result = sim.run(s.len);
        }
        const auto t1 = std::chrono::steady_clock::now();
        if (!s.machine.name.empty()) result.machine = s.machine.name;
        RunRecord& rec = records[i];
        rec.machine = result.machine;
        rec.workload = s.workload;
        rec.policy = result.policy;
        rec.tag = s.tag;
        rec.seed = s.seed;
        rec.role = s.role;
        rec.result = std::move(result);
        rec.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
        // Interval series (telemetry): one JSONL record per run, carrying
        // the run identity so append order — worker-completion order,
        // nondeterministic — does not matter to the reader.
        if (sim.sampler() != nullptr && telem::IntervalSink::shared().is_open()) {
          telem::IntervalRunId id{rec.machine, rec.workload.name, rec.policy, rec.tag,
                                  rec.seed};
          telem::IntervalSink::shared().append(telem::interval_json_line(id, *sim.sampler()));
        }
        if (observer_) {
          std::lock_guard<std::mutex> lock(done_mu);
          observer_(++done, specs.size(), rec);
        }
      },
      max_workers_);
  return ResultSet(std::move(records));
}

}  // namespace dwarn
