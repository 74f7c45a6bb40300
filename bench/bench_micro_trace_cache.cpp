// Micro-bench: trace generation vs warm-cache replay on the fig1 grid.
//
// Two measurements:
//   1. Stream level (always): for every distinct (benchmark, tid, seed)
//      trace key the fig1 grid touches, time generating N instructions
//      from scratch with TraceStream vs replaying the same N from a fully
//      generated MaterializedTrace through ReplayStream. Checksums of both passes
//      must agree — the bench doubles as a determinism check.
//   2. End to end (SMT_MICRO_E2E=1, default on): wall clock of the full
//      fig1 grid through the ExperimentEngine with the cache off, cold,
//      and warm.
//
// Environment:
//   SMT_MICRO_TRACE_INSTS  instructions per stream pass  (default 200000)
//   SMT_MICRO_REPS         repetitions, best-of          (default 3)
//   SMT_MICRO_E2E          0 disables the grid passes    (default 1)
//   SMT_MICRO_MIN_SPEEDUP  e.g. "1.3": exit nonzero when the aggregate
//                          stream-level replay speedup falls below it
//   SMT_BENCH_WINDOWS / SMT_SIM_INSTS / SMT_WARMUP_INSTS size the E2E
//   grid runs (default here: 2500:10000 to keep the bench quick).
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "trace/trace_cache.hpp"

namespace {

using namespace dwarn;
using Clock = std::chrono::steady_clock;

struct StreamId {
  Benchmark bench;
  ThreadId tid;
  std::uint64_t seed;
};

/// The distinct trace keys of the fig1 grid (12 workloads, run seed 1),
/// derived via the Simulator's own thread_stream_seed so the measured
/// streams are exactly the ones the real grid replays.
std::vector<StreamId> fig1_stream_ids() {
  std::vector<StreamId> ids;
  std::set<std::tuple<Benchmark, ThreadId, std::uint64_t>> seen;
  for (const WorkloadSpec& w : paper_workloads()) {
    for (std::size_t t = 0; t < w.num_threads(); ++t) {
      const Benchmark b = w.benchmarks[t];
      const std::uint64_t tseed = thread_stream_seed(w, t, /*seed=*/1);
      const auto tid = static_cast<ThreadId>(t);
      if (seen.emplace(b, tid, tseed).second) ids.push_back({b, tid, tseed});
    }
  }
  return ids;
}

/// Drain `n` instructions from `s`, returning a checksum so the work
/// cannot be optimized away and both passes can be compared.
std::uint64_t drain(InstStream& s, std::uint64_t n) {
  std::uint64_t sum = 0;
  for (InstSeq i = 0; i < n; ++i) {
    const TraceInst& ti = s.at(i);
    sum = sum * 1099511628211ull + ti.pc + ti.mem_addr + ti.next_pc;
    s.retire_below(i + 1);
  }
  return sum;
}

double best_of(std::uint64_t reps, const std::function<double()>& pass) {
  double best = pass();
  for (std::uint64_t r = 1; r < reps; ++r) best = std::min(best, pass());
  return best;
}

double parse_min_speedup() {
  const char* v = std::getenv("SMT_MICRO_MIN_SPEEDUP");
  if (v == nullptr || *v == '\0') return 0.0;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (end == v || *end != '\0' || !(parsed > 0.0)) {
    std::cerr << "[dwarn] warning: SMT_MICRO_MIN_SPEEDUP='" << v
              << "' is not a positive number; gate disabled\n";
    return 0.0;
  }
  return parsed;
}

double grid_pass(const RunGrid& grid) {
  const auto t0 = Clock::now();
  const ResultSet rs = ExperimentEngine().run(grid);
  const auto t1 = Clock::now();
  if (rs.size() == 0) std::abort();  // keep the run observable
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main() {
  using namespace dwarn::benchutil;

  const std::uint64_t n = env_u64("SMT_MICRO_TRACE_INSTS", 1000, 100'000'000)
                              .value_or(200'000);
  const std::uint64_t reps = env_u64("SMT_MICRO_REPS", 1, 100).value_or(3);
  const std::vector<StreamId> ids = fig1_stream_ids();

  print_banner(std::cout, "trace cache micro-bench: generate vs replay (fig1 grid)");
  std::cout << ids.size() << " distinct streams, " << n << " insts each, best of "
            << reps << "\n\n";

  // Stream level: per-benchmark aggregation (tids of the same benchmark
  // behave alike; per-key rows would be noise).
  std::map<std::string, std::pair<double, double>> by_bench;  // gen_s, replay_s
  double gen_total = 0.0;
  double replay_total = 0.0;
  for (const StreamId& id : ids) {
    const BenchmarkProfile& prof = profile_of(id.bench);
    std::uint64_t gen_sum = 0;
    const double gen_s = best_of(reps, [&] {
      TraceStream s(prof, id.tid, id.seed);
      const auto t0 = Clock::now();
      gen_sum = drain(s, n);
      return std::chrono::duration<double>(Clock::now() - t0).count();
    });

    // Generate the whole buffer before timing, so every replay pass reads
    // published chunks and the ratio compares replay against generation,
    // not lazy generation against itself.
    const auto trace = std::make_shared<const MaterializedTrace>(prof, id.tid, id.seed, n);
    (void)trace->materialize(n);
    std::uint64_t replay_sum = 0;
    const double replay_s = best_of(reps, [&] {
      ReplayStream s(trace);
      const auto t0 = Clock::now();
      replay_sum = drain(s, n);
      return std::chrono::duration<double>(Clock::now() - t0).count();
    });

    if (gen_sum != replay_sum) {
      std::cerr << "[dwarn] error: replay checksum diverged from generation for "
                << prof.name << " tid " << int(id.tid) << " seed " << id.seed << "\n";
      return 1;
    }
    auto& agg = by_bench[std::string(prof.name)];
    agg.first += gen_s;
    agg.second += replay_s;
    gen_total += gen_s;
    replay_total += replay_s;
  }

  ReportTable table({"benchmark", "generate", "replay", "speedup"});
  for (const auto& [name, agg] : by_bench) {
    table.add_row({name, fmt(agg.first * 1e3, 2) + " ms", fmt(agg.second * 1e3, 2) + " ms",
                   fmt(agg.first / agg.second, 2) + "x"});
  }
  const double stream_speedup = gen_total / replay_total;
  table.add_row({"total", fmt(gen_total * 1e3, 2) + " ms", fmt(replay_total * 1e3, 2) + " ms",
                 fmt(stream_speedup, 2) + "x"});
  table.print(std::cout);

  // End to end: the fig1 grid through the engine, cache off vs cold vs warm.
  if (env_u64("SMT_MICRO_E2E", 0, 1).value_or(1) == 1) {
    RunLength len;
    len.warmup_insts = 2500;
    len.measure_insts = 10'000;
    if (std::getenv("SMT_BENCH_WINDOWS") != nullptr ||
        std::getenv("SMT_SIM_INSTS") != nullptr ||
        std::getenv("SMT_WARMUP_INSTS") != nullptr) {
      len = RunLength::from_env();
    }
    RunGrid grid = named_grid("fig1");
    grid.length(len);

    setenv("SMT_TRACE_CACHE", "0", 1);
    const double off_s = grid_pass(grid);
    setenv("SMT_TRACE_CACHE", "1", 1);
    TraceCache::shared().clear();
    const double cold_s = grid_pass(grid);
    const double warm_s = grid_pass(grid);
    const TraceCacheStats st = TraceCache::shared().stats();

    std::cout << "\nfig1 grid end-to-end (" << len.warmup_insts << "+" << len.measure_insts
              << " insts/run):\n";
    ReportTable e2e({"mode", "wall", "vs off"});
    e2e.add_row({"cache off", fmt(off_s, 3) + " s", "1.00x"});
    e2e.add_row({"cache cold", fmt(cold_s, 3) + " s", fmt(off_s / cold_s, 2) + "x"});
    e2e.add_row({"cache warm", fmt(warm_s, 3) + " s", fmt(off_s / warm_s, 2) + "x"});
    e2e.print(std::cout);
    std::cout << "cache: " << st.hits << " hits, " << st.misses << " misses, "
              << st.evictions << " evictions, " << (st.bytes >> 20) << " MiB cached\n";
  }

  std::cout << "\nstream-level replay speedup: " << fmt(stream_speedup, 2) << "x\n";
  if (const double min = parse_min_speedup(); min > 0.0 && stream_speedup < min) {
    std::cerr << "[dwarn] error: replay speedup " << fmt(stream_speedup, 2)
              << "x below required " << fmt(min, 2) << "x\n";
    return 1;
  }
  return 0;
}
