#include "passes.hpp"

#include <chrono>
#include <mutex>
#include <optional>

#include "analysis/seed_sweep.hpp"
#include "common/thread_pool.hpp"
#include "engine/result_store.hpp"
#include "engine/shard.hpp"
#include "policy/factory.hpp"
#include "sim/simulator.hpp"
#include "trace/benchmark_profile.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

dwarn::ResultStore zero_wall_store(const Workload& w) {
  dwarn::ResultStore store;
  for (const auto& [k, v] : dwarn::bench_meta("perfbench." + w.name, w.len)) {
    store.set_meta(k, v);
  }
  store.set_zero_wall(true);
  return store;
}

std::string run_args(const dwarn::RunSpec& s) {
  return "{\"workload\":\"" + dwarn::json_escape(s.workload.name) + "\",\"policy\":\"" +
         std::string(dwarn::policy_name(s.policy)) + "\",\"seed\":" + std::to_string(s.seed) +
         "}";
}

}  // namespace

std::string snapshot_json(const Workload& w, const dwarn::ResultSet& rs) {
  dwarn::ResultStore store = zero_wall_store(w);
  store.add_all(rs);
  return store.to_json();
}

std::vector<std::string> record_jsons(const Workload& w, const dwarn::ResultSet& rs) {
  std::vector<std::string> out;
  out.reserve(rs.size());
  for (const dwarn::RunRecord& r : rs.records()) {
    dwarn::ResultStore store = zero_wall_store(w);
    store.add(r);
    out.push_back(store.to_json());
  }
  return out;
}

void analysis_summary(const dwarn::ResultSet& rs) {
  const dwarn::analysis::RecordMetric metric = dwarn::analysis::throughput_metric();
  (void)dwarn::analysis::sweep_stats(rs, metric);
  for (const dwarn::PolicyKind p : dwarn::kPaperPolicies) {
    if (p == dwarn::PolicyKind::DWarn) continue;
    (void)dwarn::analysis::paired_comparison(rs, "DWarn", dwarn::policy_name(p), metric);
  }
}

double time_setup(const std::string& workload, std::uint64_t seed, std::size_t workers) {
  const auto t0 = Clock::now();
  const Workload w = make_workload(workload, seed);
  const std::vector<dwarn::RunSpec> specs = w.spec.expand();
  dwarn::ThreadPool pool(workers);
  const dwarn::ExperimentEngine engine(pool);
  return seconds_between(t0, Clock::now());
}

UntracedPass run_untraced(const std::string& workload, std::uint64_t seed, std::size_t workers) {
  dwarn::TraceCache::shared().clear();
  UntracedPass p;
  const auto t0 = Clock::now();
  const Workload w = make_workload(workload, seed);
  const std::vector<dwarn::RunSpec> specs = w.spec.expand();
  dwarn::ThreadPool pool(workers);
  const dwarn::ExperimentEngine engine(pool);
  const auto t1 = Clock::now();
  p.rs = engine.run(specs);
  p.cache = dwarn::TraceCache::shared().stats();
  const auto t2 = Clock::now();
  p.snapshot = snapshot_json(w, p.rs);
  const auto t3 = Clock::now();
  analysis_summary(p.rs);
  const auto t4 = Clock::now();
  p.setup_s = seconds_between(t0, t1);
  p.serialize_s = seconds_between(t2, t3);
  p.analysis_s = seconds_between(t3, t4);
  p.wall_s = seconds_between(t1, t4);
  return p;
}

TracedPass run_traced(const std::string& workload, std::uint64_t seed, std::size_t workers,
                      SpanLog& log) {
  dwarn::TraceCache::shared().clear();
  TracedPass p;
  const Workload w = make_workload(workload, seed);
  const std::vector<dwarn::RunSpec> specs = w.spec.expand();
  dwarn::ThreadPool pool(workers);
  const std::vector<std::size_t> order = dwarn::ExperimentEngine::batch_order(specs);
  std::vector<dwarn::RunRecord> records(specs.size());
  std::mutex mu;  // guards p.warmup_cycles and p.failures
  const bool replay = dwarn::trace_cache_enabled();

  const auto t0 = Clock::now();
  pool.for_each(specs.size(), [&](std::size_t job) {
    const std::size_t i = order[job];
    const dwarn::RunSpec& s = specs[i];
    const std::uint64_t run_id = i + 1;
    const std::uint64_t hint = dwarn::trace_window_insts(s.len);
    ScopedSpan run(log, "run", 0, run_id, run_args(s));
    const auto r0 = Clock::now();
    // The Simulator acquires the same keys again in its constructor; those
    // acquires are cache hits because the buffers are held here.
    std::vector<std::shared_ptr<const dwarn::MaterializedTrace>> held;
    if (replay) {
      for (std::size_t t = 0; t < s.workload.num_threads(); ++t) {
        ScopedSpan acq(log, "trace.acquire", run.id(), run_id,
                       "{\"tid\":" + std::to_string(t) + "}");
        held.push_back(dwarn::TraceCache::shared().acquire(
            dwarn::profile_of(s.workload.benchmarks[t]), static_cast<dwarn::ThreadId>(t),
            dwarn::thread_stream_seed(s.workload, t, s.seed), hint));
      }
    }
    std::optional<dwarn::Simulator> sim;
    {
      ScopedSpan construct(log, "sim.construct", run.id(), run_id);
      sim.emplace(s.machine.build(s.workload.num_threads()), s.workload, s.policy, s.params,
                  s.seed, hint);
    }
    std::uint64_t warm_cycles = 0;
    {
      // Simulator::run's own warm-up loop, with the same cycle cap; run()
      // then finds the window committed and goes straight to measuring.
      ScopedSpan warm(log, "sim.warmup", run.id(), run_id);
      while (sim->core().total_committed() < s.len.warmup_insts &&
             warm_cycles < s.len.max_cycles) {
        sim->tick();
        ++warm_cycles;
      }
    }
    const bool warm_cut = sim->core().total_committed() < s.len.warmup_insts;
    dwarn::SimResult result;
    {
      ScopedSpan measure(log, "sim.measure", run.id(), run_id);
      result = sim->run(s.len);
    }
    const auto r1 = Clock::now();
    if (!s.machine.name.empty()) result.machine = s.machine.name;
    dwarn::RunRecord& rec = records[i];
    rec.machine = result.machine;
    rec.workload = s.workload;
    rec.policy = result.policy;
    rec.tag = s.tag;
    rec.seed = s.seed;
    rec.role = s.role;
    rec.result = std::move(result);
    rec.wall_seconds = seconds_between(r0, r1);
    std::lock_guard<std::mutex> lock(mu);
    p.warmup_cycles += warm_cycles;
    if (warm_cut) {
      p.failures.push_back(rec.machine + "/" + rec.workload.name + "/" + rec.policy +
                           "/seed" + std::to_string(rec.seed) +
                           ": warm-up window stopped on the cycle cap");
    }
  });
  p.rs = dwarn::ResultSet(std::move(records));
  {
    ScopedSpan ser(log, "engine.serialize", 0, 0);
    p.snapshot = snapshot_json(w, p.rs);
  }
  {
    ScopedSpan an(log, "analysis.summary", 0, 0);
    analysis_summary(p.rs);
  }
  p.wall_s = seconds_between(t0, Clock::now());
  return p;
}

}  // namespace perfbench
