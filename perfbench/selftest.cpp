// Unit tests of perfbench's metric arithmetic: the tail-percentile rule,
// span self time, paper_err_pp on a hand-built ResultSet, the per-run
// output checks and the digest hash. Exit code 0 when every check holds.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "spans.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b)); }

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));  // unsorted
  return v;
}

void test_median() {
  using perfbench::median;
  check(median({}) == 0.0, "median of nothing is 0");
  check(median({3, 1, 2}) == 2.0, "odd median");
  check(median({4, 1, 3, 2}) == 2.5, "even median interpolates");
}

void test_tail_percentile() {
  using perfbench::tail_percentile;
  struct Case {
    std::size_t n;
    double pct;
    std::size_t beyond;
  };
  // fig1 has 72 runs, seeds_short 672.
  for (const Case c : {Case{72, 75, 18}, Case{672, 95, 33}, Case{100, 90, 10},
                       Case{1000, 99, 10}, Case{20, 50, 10}, Case{10, 50, 5}}) {
    const auto t = tail_percentile(one_to(c.n));
    const std::string id = "tail of " + std::to_string(c.n);
    check(t.pct == c.pct, id + ": percentile " + std::to_string(t.pct));
    check(t.beyond == c.beyond, id + ": beyond " + std::to_string(t.beyond));
    check(t.n == c.n, id + ": sample count");
    // Nearest rank on 1..n: the value is the rank itself.
    check(t.value == static_cast<double>(c.n - c.beyond), id + ": value");
  }
  check(tail_percentile({}).n == 0, "empty sample");
}

perfbench::Span span(std::uint64_t id, std::uint64_t parent, std::int64_t t0, std::int64_t t1) {
  perfbench::Span s;
  s.name = id == 1 ? "run" : "child";
  s.id = id;
  s.parent = parent;
  s.t0_ns = t0;
  s.t1_ns = t1;
  return s;
}

void test_self_time() {
  // Parent [0,100]; children [10,30] and [20,50] overlap (40 ns covered
  // once), [90,120] is clipped to the parent (10 ns); a grandchild inside
  // child 2 does not count against the parent.
  const std::vector<perfbench::Span> spans = {
      span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 20, 50),
      span(4, 1, 90, 120), span(5, 3, 25, 45), span(6, 0, 200, 210)};
  const std::vector<std::int64_t> self = perfbench::self_times_ns(spans);
  check(self[0] == 50, "parent self time " + std::to_string(self[0]));
  check(self[1] == 20 && self[3] == 30, "leaf self time is its duration");
  check(self[2] == 10, "child self time minus its grandchild " + std::to_string(self[2]));
  check(self[5] == 10, "root without children");
  const auto totals = perfbench::totals_by_name(spans);
  check(totals.at("run").count == 1 && near(totals.at("run").self_s, 50e-9), "totals by name");
  check(totals.at("child").count == 5, "child span count");
}

dwarn::RunRecord rec(const std::string& workload, dwarn::WorkloadType type,
                     const std::string& policy, std::uint64_t seed, double throughput) {
  dwarn::RunRecord r;
  r.machine = "baseline";
  r.workload.name = workload;
  r.workload.type = type;
  r.workload.benchmarks.resize(2);
  r.policy = policy;
  r.seed = seed;
  r.result.throughput = throughput;
  r.result.thread_ipc = {throughput / 2, throughput / 2};
  return r;
}

void test_paper_err() {
  using dwarn::WorkloadType;
  // DWarn improves on ICOUNT by 10% (ILP, seed 1), 30% (ILP, seed 2) and
  // 50% (MEM, seed 1); on STALL by -45% (ILP, seed 1) only. A solo run
  // never pairs.
  std::vector<dwarn::RunRecord> rs = {
      rec("2-ILP", WorkloadType::ILP, "ICOUNT", 1, 1.0),
      rec("2-ILP", WorkloadType::ILP, "STALL", 1, 2.0),
      rec("2-ILP", WorkloadType::ILP, "DWarn", 1, 1.1),
      rec("2-ILP", WorkloadType::ILP, "ICOUNT", 2, 1.0),
      rec("2-ILP", WorkloadType::ILP, "DWarn", 2, 1.3),
      rec("2-MEM", WorkloadType::MEM, "ICOUNT", 1, 2.0),
      rec("2-MEM", WorkloadType::MEM, "DWarn", 1, 3.0),
  };
  dwarn::RunRecord solo = rec("gzip-solo", WorkloadType::ILP, "ICOUNT", 1, 9.0);
  solo.role = dwarn::RunRole::Solo;
  rs.push_back(solo);
  const dwarn::ResultSet set(rs);
  const perfbench::DeltaTable d = perfbench::dwarn_deltas(set);
  check(near(d.at("ICOUNT").at("ILP"), 20.0), "ILP class pools both seeds");
  check(near(d.at("ICOUNT").at("MEM"), 50.0), "MEM class");
  check(near(d.at("ICOUNT").at("avg"), 30.0), "avg pools every pair");
  check(near(d.at("STALL").at("ILP"), -45.0), "STALL ILP");
  check(d.at("ICOUNT").count("MIX") == 0, "no MIX pairs, no MIX class");

  const std::vector<perfbench::PaperRef> refs = {
      {"fig1", "ICOUNT", "avg", 18.0}, {"fig1", "ICOUNT", "MEM", 40.0},
      {"fig1", "STALL", "ILP", 2.0}};
  // |30-18| + |50-40| + |-45-2| = 12 + 10 + 47 = 69 over 3 refs.
  check(near(perfbench::paper_err_pp(d, refs), 23.0), "paper_err_pp mean absolute gap");
  bool threw = false;
  try {
    (void)perfbench::paper_err_pp(d, {{"fig1", "PDG", "MIX", 13.0}});
  } catch (const std::runtime_error&) {
    threw = true;
  }
  check(threw, "a reference without a simulated delta is an error");

  const auto tput = perfbench::policy_throughput(set);
  check(near(tput.at("ICOUNT"), (1.0 + 1.0 + 2.0) / 3.0), "policy throughput skips solo runs");
}

void test_committed_refs() {
  const std::vector<perfbench::PaperRef> refs = perfbench::load_paper_refs(PERFBENCH_REFS);
  check(refs.size() == 13, "13 Figure 1 references, got " + std::to_string(refs.size()));
  double sum = 0.0;
  for (const auto& r : refs) sum += r.ref_pct;
  // 18 + (2+6+7) + (3+8+9) + (5+13+30) + (3+6-3)
  check(near(sum, 107.0), "reference values");
  check(refs.front().opponent == "ICOUNT" && refs.front().cls == "avg", "first row");
}

void test_check_record() {
  dwarn::RunLength len;
  len.warmup_insts = 10;
  len.measure_insts = 100;
  dwarn::RunRecord r = rec("2-ILP", dwarn::WorkloadType::ILP, "DWarn", 1, 1.0);
  r.result.counters = {{"core.committed", 101}, {"core.committed.t0", 60},
                       {"core.committed.t1", 41}};
  check(perfbench::check_record(r, len).empty(), "sound record passes");
  check(perfbench::run_insts(r, len) == 111, "both windows counted");

  dwarn::RunRecord capped = r;
  capped.result.counters = {{"core.committed", 99}, {"core.committed.t0", 60},
                            {"core.committed.t1", 39}};
  check(perfbench::check_record(capped, len).size() == 1, "cycle-cap cut is caught");

  dwarn::RunRecord bad_ipc = r;
  bad_ipc.result.throughput = 1.5;
  check(perfbench::check_record(bad_ipc, len).size() == 1, "IPC sum mismatch is caught");

  dwarn::RunRecord bad_threads = r;
  bad_threads.result.counters["core.committed.t1"] = 40;
  check(perfbench::check_record(bad_threads, len).size() == 1,
        "per-thread committed mismatch is caught");
}

void test_fnv() {
  check(perfbench::fnv1a_hex("") == "cbf29ce484222325", "fnv1a of empty");
  check(perfbench::fnv1a_hex("a") == "af63dc4c8601ec8c", "fnv1a of 'a'");
}

}  // namespace

int main() {
  test_median();
  test_tail_percentile();
  test_self_time();
  test_paper_err();
  test_committed_refs();
  test_check_record();
  test_fnv();
  if (g_failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
