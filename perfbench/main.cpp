// perfbench: the repository benchmark, one process per (workload, seed).
//
//   perfbench --workload fig1|fig1_icache|seeds_short --seed N --seconds S
//             --trace 0|1 [--out DIR]
//
// --trace 0 repeats the untraced pass for about S seconds and prints the
// end-to-end metrics (medians over the repetitions). --trace 1 does the
// same, then one traced pass, and prints the per-layer metrics, the
// tracing overhead and a Perfetto-loadable span file under DIR. Either
// way every run's outputs are checked; the last stdout line is one JSON
// object {correct, attempted, failed, metrics}, and the exit code is
// nonzero when any check failed. perfbench/GLOSSARY.md defines every
// metric.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>
#include <unistd.h>

#include "metrics.hpp"
#include "passes.hpp"
#include "policy/factory.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out_dir = ".bench_build/perfbench/out";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload fig1|fig1_icache|seeds_short --seed N "
               "--seconds S --trace 0|1 [--out DIR]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const char* v, std::uint64_t lo,
                        std::uint64_t hi) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v, &end, 10);
  if (*v == '\0' || *v == '-' || *end != '\0' || errno != 0 || x < lo || x > hi) {
    usage(flag + " wants a whole number in [" + std::to_string(lo) + ", " +
          std::to_string(hi) + "], got '" + v + "'");
  }
  return x;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parse_u64(flag, v, 0, 1ull << 48);
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_u64(flag, v, 1, 3600));
    } else if (flag == "--trace") {
      a.trace = static_cast<int>(parse_u64(flag, v, 0, 1));
    } else if (flag == "--out") {
      a.out_dir = v;
    } else {
      usage("unknown argument " + flag);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    usage("unknown or missing --workload '" + a.workload + "'");
  }
  return a;
}

/// Resident set of this process, in MiB (0 when /proc is unavailable).
double rss_mb() {
  std::ifstream in("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  in >> size >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

/// Highest resident set seen while alive, sampled every 2 ms on its own
/// thread.
class RssSampler {
 public:
  RssSampler() : thread_([this] { loop(); }) {}
  ~RssSampler() { stop_mb(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Stop sampling; the peak seen.
  double stop_mb() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
    return std::max(peak_mb_, rss_mb());
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      peak_mb_ = std::max(peak_mb_, rss_mb());
      cv_.wait_for(lock, std::chrono::milliseconds(2), [this] { return stop_; });
    }
  }

  std::mutex mu_;  // guards stop_ and peak_mb_
  std::condition_variable cv_;
  bool stop_ = false;
  double peak_mb_ = 0.0;
  std::thread thread_;  // last: starts after the members it uses
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string fmt_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// Runs attempted and failed, with one message per failure.
struct Checks {
  explicit Checks(const Workload& workload) : w(workload) {}

  const Workload& w;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;

  void runs(const dwarn::ResultSet& rs) {
    attempted += rs.size();
    for (const dwarn::RunRecord& r : rs.records()) {
      const std::vector<std::string> f = check_record(r, w.len);
      if (f.empty()) continue;
      ++failed;
      problems.insert(problems.end(), f.begin(), f.end());
    }
  }

  /// Every record of `rs` must serialize like the reference pass's.
  void same_records(const std::vector<std::string>& ref, const dwarn::ResultSet& rs,
                    const std::string& what) {
    const std::vector<std::string> got = record_jsons(w, rs);
    std::size_t n = std::max(ref.size(), got.size()) - std::min(ref.size(), got.size());
    std::size_t first = 0;
    for (std::size_t i = std::min(ref.size(), got.size()); i-- > 0;) {
      if (ref[i] == got[i]) continue;
      ++n;
      first = i;
    }
    if (n == 0) return;
    failed += n;
    problems.push_back(what + " differs from the first untraced pass in " + std::to_string(n) +
                       " records (first: record " + std::to_string(first) + ")");
  }

  void fail(std::string msg) {
    ++failed;
    problems.push_back(std::move(msg));
  }
};

/// Host-time figures of one untraced repetition.
struct Rep {
  double wall_s = 0.0;
  double serialize_s = 0.0;
  double analysis_s = 0.0;
  double busy_s = 0.0;
  double minsts_per_s = 0.0;
  double us_per_kinst_p50 = 0.0;
  TailPercentile tail;
  double peak_rss_mb = 0.0;
};

Rep rep_of(const UntracedPass& p, const dwarn::RunLength& len, double peak_rss_mb) {
  Rep r;
  std::vector<double> us_per_kinst;
  double insts = 0.0;
  for (const dwarn::RunRecord& rec : p.rs.records()) {
    const double n = static_cast<double>(run_insts(rec, len));
    r.busy_s += rec.wall_seconds;
    insts += n;
    us_per_kinst.push_back(rec.wall_seconds * 1e6 / (n / 1000.0));
  }
  r.wall_s = p.wall_s;
  r.serialize_s = p.serialize_s;
  r.analysis_s = p.analysis_s;
  r.minsts_per_s = insts / p.wall_s / 1e6;
  r.us_per_kinst_p50 = median(us_per_kinst);
  r.tail = tail_percentile(us_per_kinst);
  r.peak_rss_mb = peak_rss_mb;
  return r;
}

/// The untraced repetitions of one process.
struct Untraced {
  std::vector<Rep> reps;
  std::vector<double> setups;  ///< set-up times: standalone plus one per repetition
  UntracedPass first;
  std::vector<std::string> first_records;

  template <typename F>
  [[nodiscard]] double median_of(F f) const {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back(f(r));
    return median(v);
  }
};

/// Repeat the untraced pass until the next repetition would end past
/// `seconds` (at least twice, so repetitions can be compared).
Untraced run_repetitions(const Args& args, std::size_t workers, Checks& checks) {
  Untraced u;
  const auto start = Clock::now();
  for (;;) {
    // Set-up alone, several times per repetition: samples spread over the
    // whole run give a steadier median than any burst of them.
    for (int i = 0; i < 12; ++i) {
      u.setups.push_back(time_setup(args.workload, args.seed, workers));
    }
    // Hand the previous repetition's freed heap back first, so each peak
    // is what one run of the workload costs.
    malloc_trim(0);
    RssSampler rss;
    UntracedPass p = run_untraced(args.workload, args.seed, workers);
    u.reps.push_back(rep_of(p, checks.w.len, rss.stop_mb()));
    u.setups.push_back(p.setup_s);
    checks.runs(p.rs);
    if (u.reps.size() == 1) {
      u.first_records = record_jsons(checks.w, p.rs);
      u.first = std::move(p);
    } else if (p.snapshot != u.first.snapshot) {
      checks.same_records(u.first_records, p.rs,
                          "repetition " + std::to_string(u.reps.size()));
    }
    const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    const double per_rep = elapsed / static_cast<double>(u.reps.size());
    if (u.reps.size() >= 2 && elapsed + per_rep > args.seconds) break;
  }
  return u;
}

std::vector<Metric> end_to_end(const Untraced& u) {
  return {
      {"setup_s", median(u.setups), "s"},
      {"wall_s", u.median_of([](const Rep& r) { return r.wall_s; }), "s"},
      {"sim_minsts_per_s", u.median_of([](const Rep& r) { return r.minsts_per_s; }), "Minsts/s"},
      {"run_us_per_kinst.p50", u.median_of([](const Rep& r) { return r.us_per_kinst_p50; }),
       "us/kinst"},
      {"run_us_per_kinst.tail", u.median_of([](const Rep& r) { return r.tail.value; }),
       "us/kinst"},
      {"peak_rss_mb", u.median_of([](const Rep& r) { return r.peak_rss_mb; }), "MB"},
  };
}

std::vector<Metric> per_layer(const Untraced& u, const TracedPass& traced,
                              const std::vector<Span>& spans, std::size_t workers,
                              const DeltaTable& deltas, double err_pp) {
  const auto totals = totals_by_name(spans);
  auto total = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_s;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const CounterTotals c = counter_totals(u.first.rs);
  const dwarn::TraceCacheStats& tc = u.first.cache;
  const double acquires = static_cast<double>(tc.hits + tc.misses);
  const double warm_s = total("sim.warmup");
  const double meas_s = total("sim.measure");
  const double cycles = static_cast<double>(traced.warmup_cycles + c["core.cycles"]);
  const double wall_s = u.median_of([](const Rep& r) { return r.wall_s; });
  const double busy = u.median_of([](const Rep& r) { return r.busy_s; });
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };

  std::vector<Metric> out = {
      {"engine.busy_s", busy, "s"},
      {"engine.pool_efficiency", ratio(busy, wall_s * static_cast<double>(workers)), "ratio"},
      {"engine.serialize_s", u.median_of([](const Rep& r) { return r.serialize_s; }), "s"},
      {"engine.snapshot_bytes", count(u.first.snapshot.size()), "bytes"},
      {"engine.run_self_s", totals.count("run") ? totals.at("run").self_s : 0.0, "s"},
      {"trace.acquires", acquires, "count"},
      {"trace.misses", count(tc.misses), "count"},
      {"trace.evictions", count(tc.evictions), "count"},
      {"trace.grows", count(tc.grows), "count"},
      {"trace.hit_ratio", ratio(count(tc.hits), acquires), "ratio"},
      {"trace.materialize_s", total("trace.acquire"), "s"},
      {"trace.cached_mb", count(tc.bytes) / (1024.0 * 1024.0), "MB"},
      {"sim.construct_s", total("sim.construct"), "s"},
      {"sim.warmup_s", warm_s, "s"},
      {"sim.measure_s", meas_s, "s"},
      {"sim.warmup_share", ratio(warm_s, warm_s + meas_s), "ratio"},
      {"core.host_ns_per_cycle", ratio((warm_s + meas_s) * 1e9, cycles), "ns/cycle"},
      {"core.sim_cycles", cycles, "cycles"},
      {"core.ipc", c.ratio("core.committed", "core.cycles"), "inst/cycle"},
      {"core.fetch_per_commit", c.ratio("core.fetched", "core.committed"), "ratio"},
      {"core.iq_int_occ_mean", ratio(c.iq_int_occ_sum, count(c.runs)), "entries"},
      {"core.flush_events", count(c["core.flush_events"]), "count"},
      {"core.fetch_stall_frac", c.ratio("core.icache_stalls", "core.cycles"), "ratio"},
      {"mem.l1d_miss_per_kinst", c.per_kinst("l1d.misses"), "1/kinst"},
      {"mem.l2_miss_per_kinst", c.per_kinst("l2.misses"), "1/kinst"},
      {"mem.load_mshr_merges", count(c["mem.load_mshr_merges"]), "count"},
      {"imem.demand_miss_per_kinst", c.per_kinst("imem.demand_misses"), "1/kinst"},
      {"imem.itlb_miss_per_kinst", c.per_kinst("imem.itlb_misses"), "1/kinst"},
      {"imem.prefetch_late", count(c["imem.prefetch_late"]), "count"},
      {"bpred.mispredict_ratio", c.ratio("bpred.mispredicts", "bpred.lookups"), "ratio"},
      {"paper_err_pp", err_pp, "pp"},
  };
  const auto tput = policy_throughput(u.first.rs);
  auto lookup = [](const auto& map, const std::string& key) {
    const auto it = map.find(key);
    return it == map.end() ? 0.0 : it->second;
  };
  for (const dwarn::PolicyKind p : dwarn::kPaperPolicies) {
    const std::string name(dwarn::policy_name(p));
    out.push_back({"policy." + name + ".throughput", lookup(tput, name), "IPC"});
  }
  for (const dwarn::PolicyKind p : dwarn::kPaperPolicies) {
    if (p == dwarn::PolicyKind::DWarn) continue;
    const std::string name(dwarn::policy_name(p));
    std::vector<std::string> classes = {"ILP", "MIX", "MEM"};
    if (p == dwarn::PolicyKind::ICount) classes.push_back("avg");  // the paper's +18%
    const auto it = deltas.find(name);
    for (const std::string& cls : classes) {
      const double d = it == deltas.end() ? 0.0 : lookup(it->second, cls);
      out.push_back({"policy.dwarn_vs." + name + "." + cls + "_pct", d, "%"});
    }
  }
  out.push_back({"analysis.summary_s", u.median_of([](const Rep& r) { return r.analysis_s; }),
                 "s"});
  out.push_back({"tracing.wall_s", traced.wall_s, "s"});
  out.push_back({"tracing.overhead_s", traced.wall_s - wall_s, "s"});
  return out;
}

std::string result_json(const Checks& checks, const std::vector<Metric>& metrics) {
  std::ostringstream js;
  js << "{\"correct\": " << (checks.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << checks.attempted << ", \"failed\": " << checks.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    js << (i ? ", " : "") << "\"" << metrics[i].name
       << "\": {\"value\": " << fmt_value(metrics[i].value) << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  js << "}}";
  return js.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  // Both commits of a comparison on one host use the same pool width.
  const std::size_t workers = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  // Large buffers (trace buffers, simulator tables) map and unmap directly
  // instead of staying in per-thread malloc arenas after they are freed, so
  // peak_rss_mb follows live memory rather than arena fragmentation, which
  // varies with thread timing from one run to the next.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  std::vector<PaperRef> refs;
  try {
    refs = load_paper_refs(PERFBENCH_REFS);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  const Workload w = make_workload(args.workload, args.seed);
  std::cout << "perfbench workload=" << w.name << " grid=" << w.grid
            << " runs=" << w.spec.expand().size() << " base_seed=" << args.seed
            << " seeds=" << w.seeds.front() << ".." << w.seeds.back()
            << " windows=" << w.len.warmup_insts << ":" << w.len.measure_insts
            << " workers=" << workers << " trace=" << args.trace << "\n";

  Checks checks{w};
  const Untraced u = run_repetitions(args, workers, checks);
  std::cout << "repetitions " << u.reps.size() << "; wall_s each:";
  for (const Rep& r : u.reps) std::cout << " " << r.wall_s;
  std::cout << "; peak_rss_mb each:";
  for (const Rep& r : u.reps) std::cout << " " << r.peak_rss_mb;
  std::cout << "\n";

  const DeltaTable deltas = dwarn_deltas(u.first.rs);
  double err_pp = 0.0;
  try {
    err_pp = paper_err_pp(deltas, refs);
  } catch (const std::exception& e) {
    checks.fail(e.what());
  }

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = end_to_end(u);
    const TailPercentile& tail = u.reps.front().tail;
    std::cout << "run_us_per_kinst.tail is p" << tail.pct << " of " << tail.n << " runs ("
              << tail.beyond << " beyond it), median over " << u.reps.size()
              << " repetitions\n";
  } else {
    SpanLog log;
    const TracedPass traced = run_traced(w.name, args.seed, workers, log);
    checks.runs(traced.rs);
    for (const std::string& f : traced.failures) checks.fail(f);
    if (traced.snapshot != u.first.snapshot) {
      checks.same_records(u.first_records, traced.rs, "the traced pass");
    }
    const std::vector<Span> spans = log.spans();
    std::filesystem::create_directories(args.out_dir);
    const std::string span_path = args.out_dir + "/spans_" + w.name + "_seed" +
                                  std::to_string(args.seed) + ".json";
    if (!log.write_perfetto(span_path)) checks.fail("span file '" + span_path + "' not written");
    metrics = per_layer(u, traced, spans, workers, deltas, err_pp);

    std::cout << "span self times (traced pass, summed over " << spans.size() << " spans):\n";
    for (const auto& [name, t] : totals_by_name(spans)) {
      std::cout << "  " << name << ": n=" << t.count << " total=" << fmt_value(t.total_s)
                << " s self=" << fmt_value(t.self_s) << " s\n";
    }
    std::cout << "spans written to " << span_path << " (Chrome trace JSON; opens in Perfetto)\n"
              << "tracing overhead: traced wall " << fmt_value(traced.wall_s)
              << " s - untraced median wall "
              << fmt_value(u.median_of([](const Rep& r) { return r.wall_s; })) << " s\n";
  }

  std::cout << "sim_digest " << w.name << " seed=" << args.seed << " "
            << fnv1a_hex(u.first.snapshot) << "\n"
            << "paper_err_pp " << fmt_value(err_pp) << " pp (simulated, exact for the seed)\n"
            << "note: the model is validated only against the paper's 13 Figure 1 deltas "
               "(perfbench/paper_fig1_refs.csv); the repo holds no hardware reference\n";
  if (!w.paper_machine) {
    std::cout << "note: paper_err_pp here scores the 8K I-cache pressure machine, which the "
                 "paper never ran, against baseline-machine deltas: informative only\n";
  }
  if (w.len.warmup_insts < dwarn::RunLength{}.warmup_insts) {
    std::cout << "note: the " << w.len.warmup_insts << "-instruction warm-up leaves the "
              << "modelled caches cold; statistics start before they fill\n";
  }
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << fmt_value(m.value) << " " << m.unit << "\n";
  }
  for (const std::string& p : checks.problems) std::cout << "CHECK FAILED: " << p << "\n";
  std::cout << "runs attempted " << checks.attempted << ", runs_failed " << checks.failed << "\n"
            << result_json(checks, metrics) << std::endl;
  return checks.failed == 0 ? 0 : 1;
}
