#!/usr/bin/env python3
"""Paired A/B perf gate: the repository benchmark between two git revisions.

    python3 ci/perf_ab.py [--base REV] [--head REV] [--workload fig1]
                          [--pairs 8] [--seconds 15] [--seed 1]
                          [--work DIR] [--json FILE]

Each revision is exported (git archive) into its own source tree under
--work and built by its own perfbench/run.py into its own CARGO_TARGET_DIR,
so the two builds share nothing. The two benchmarks then run in alternation
on one workload, --pairs times; the pair order flips every pair (ABBA...) so
a drifting host charges both sides alike.

The metrics are the end_to_end list of BENCHMARK.json: each one's name,
better direction and bound (a fraction of the base median). BENCHMARK.json
is only read. For every metric the tool prints every pair's head/base
ratio, the median ratio and a bootstrap 95% confidence interval of it, each
side's median and quartiles, how many pairs head won, whether a gain holds
(head won at least 9 in 10 pairs and the medians differ by more than the
base's interquartile range), and one verdict:

    regressed     the head median is worse than the base median by more
                  than the bound, and every head run is worse than every
                  base run;
    unresolved    the head median is worse by more than the bound without
                  that separation, or the base's interquartile range is
                  wider than the bound relative to its median and not every
                  head run is better than every base run: the runs cannot
                  tell a regression from noise;
    within bound  otherwise.

--base defaults to the merge-base of HEAD and the default branch
(origin/main, else main), or HEAD's first parent when HEAD is on that
branch; --head defaults to HEAD. To measure uncommitted work, stage it and
pass --head "$(git stash create)".

Exit status: 0 when every run succeeded, both revisions printed the same
sim_digest and no metric regressed; 1 when the digests differ (the
revisions do not simulate the same machine, so their timings are not
comparable) or a run failed; 3 when the runs are comparable and a metric
regressed; 2 on usage or build errors.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BOOTSTRAP_RESAMPLES = 4000


def fail(msg, code=2):
    print(f"perf_ab: {msg}", file=sys.stderr)
    sys.exit(code)


def end_to_end_metrics():
    """[(name, better, bound)] from BENCHMARK.json's end_to_end list."""
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
        return [(m["name"], m["better"], float(m["bound"])) for m in spec["end_to_end"]]
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail(f"cannot read the end_to_end metrics of {path}: {e}")


def git(*args):
    proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    if proc.returncode != 0:
        fail(f"git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def default_base(head):
    for branch in ("origin/main", "main"):
        if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "-q", branch],
                          capture_output=True).returncode == 0:
            base = git("merge-base", head, branch)
            return base if base != git("rev-parse", head) else git("rev-parse", f"{head}^")
    return git("rev-parse", f"{head}^")


def export(rev, work):
    """Export `rev` into work/<sha>/src; return (sha, that directory)."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    src = work / sha[:12] / "src"
    if not (src / "perfbench" / "run.py").is_file():
        shutil.rmtree(src, ignore_errors=True)
        src.mkdir(parents=True)
        archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", sha], stdout=subprocess.PIPE)
        rc = subprocess.run(["tar", "-x", "-C", str(src)], stdin=archive.stdout).returncode
        if archive.wait() != 0 or rc != 0:
            fail(f"could not export {rev} ({sha})")
    return sha, src


def run_bench(src, args, seconds):
    """One benchmark run through the revision's own perfbench/run.py."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(src.parent / "target"))
    cmd = [sys.executable, str(src / "perfbench" / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        return None
    digest = next((l.split()[-1] for l in lines if l.startswith("sim_digest")), None)
    values = {m: v["value"] for m, v in result["metrics"].items()}
    return {"digest": digest, "failed": result.get("failed", 0), **values}


def bootstrap_ci(ratios, rng):
    """95% percentile-bootstrap interval of the median ratio."""
    meds = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                  for _ in range(BOOTSTRAP_RESAMPLES))
    return meds[int(0.025 * len(meds))], meds[int(0.975 * len(meds)) - 1]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def worse_by(base, head, better):
    """How much worse `head` is than `base`, as a fraction of `base`."""
    return (head - base) / base if better == "lower" else (base - head) / base


def beats(runs, others, better):
    """Whether every run in `runs` is better than every run in `others`."""
    return max(runs) < min(others) if better == "lower" else min(runs) > max(others)


def verdict(base, head, better, bound):
    """One metric's verdict from each side's runs (rules in the module doc)."""
    q1, med, q3 = quartiles(base)
    gap = worse_by(med, statistics.median(head), better)
    if gap > bound and beats(base, head, better):
        return "regressed"
    if gap > bound or ((q3 - q1) / med > bound and not beats(head, base, better)):
        return "unresolved"
    return "within bound"


def judge(pairs, metrics):
    """Per-metric summary of completed pairs, verdict included."""
    rng = random.Random(0)
    summary = {}
    for name, better, bound in metrics:
        base = [pr["base"][name] for pr in pairs]
        head = [pr["head"][name] for pr in pairs]
        ratios = [h / b for b, h in zip(base, head)]
        base_q, head_q = quartiles(base), quartiles(head)
        wins = sum(1 for b, h in zip(base, head) if worse_by(b, h, better) < 0)
        summary[name] = {
            "better": better, "bound": bound, "median_ratio": statistics.median(ratios),
            "ci95": list(bootstrap_ci(ratios, rng)), "ratios": ratios,
            "base_q1_med_q3": base_q, "head_q1_med_q3": head_q, "head_wins": wins,
            "gain_holds": wins >= 0.9 * len(pairs)
                          and abs(head_q[1] - base_q[1]) > base_q[2] - base_q[0],
            "verdict": verdict(base, head, better, bound)}
    return summary


def digests(pairs):
    """(identical, description) of the sim_digest lines of both sides."""
    seen = {name: {pr[name]["digest"] for pr in pairs} for name in ("base", "head")}
    same = seen["base"] == seen["head"] and len(seen["base"]) == 1 and None not in seen["base"]
    if same:
        return True, f"identical {next(iter(seen['base']))}"
    return False, (f"DIFFERENT base={sorted(map(str, seen['base']))} "
                   f"head={sorted(map(str, seen['head']))}")


def print_summary(summary, n_pairs):
    rows = [("metric", "bound", "base median [q1, q3]", "head median [q1, q3]",
             "head/base [95% CI]", "wins", "gain", "verdict")]
    for m, s in summary.items():
        b, h = s["base_q1_med_q3"], s["head_q1_med_q3"]
        lo, hi = s["ci95"]
        rows.append((m, f"{s['bound']:.0%}", f"{b[1]:.4g} [{b[0]:.4g}, {b[2]:.4g}]",
                     f"{h[1]:.4g} [{h[0]:.4g}, {h[2]:.4g}]",
                     f"{s['median_ratio']:.3f}x [{lo:.3f}, {hi:.3f}]",
                     f"{s['head_wins']}/{n_pairs}", "yes" if s["gain_holds"] else "no",
                     s["verdict"]))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())


def gate(summary, same_digest, runs_ok):
    """Exit 1 when the runs are not comparable, 3 when a metric regressed."""
    if not same_digest:
        fail("sim_digest differs between the revisions", code=1)
    if not runs_ok:
        fail("a benchmark run failed", code=1)
    regressed = [m for m, s in summary.items() if s["verdict"] == "regressed"]
    if regressed:
        fail(f"regressed beyond the BENCHMARK.json bound: {', '.join(regressed)}", code=3)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", help="baseline revision (default: merge-base, see above)")
    p.add_argument("--head", default="HEAD", help="candidate revision (default HEAD)")
    p.add_argument("--workload", default="fig1")
    p.add_argument("--pairs", type=int, default=8)
    p.add_argument("--seconds", type=int, default=15, help="perfbench --seconds per run")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--work", default=str(ROOT / ".perf_ab"),
                   help="directory for the exported trees and their builds")
    p.add_argument("--json", help="also write the pairs and the summary to this file")
    args = p.parse_args()
    if args.pairs < 1:
        fail("--pairs must be at least 1")
    metrics = end_to_end_metrics()

    work = Path(args.work).resolve()
    base_sha, base_src = export(args.base or default_base(args.head), work)
    head_sha, head_src = export(args.head, work)
    print(f"base {base_sha[:12]}  head {head_sha[:12]}  workload {args.workload} "
          f"seed {args.seed}  {args.pairs} pairs x {args.seconds} s", flush=True)

    # The first run of each side builds it (cmake output goes to stderr);
    # it is kept out of the pairs so no build competes with a timed run.
    for name, src in (("base", base_src), ("head", head_src)):
        if run_bench(src, args, 1) is None:
            fail(f"{name} build or warm-up run failed")

    sides = {"base": base_src, "head": head_src}
    pairs = []
    runs_ok = True
    for i in range(args.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        pair = {name: run_bench(sides[name], args, args.seconds) for name in order}
        if pair["base"] is None or pair["head"] is None:
            runs_ok = False
            print(f"pair {i + 1}: a run failed", flush=True)
            continue
        runs_ok = runs_ok and pair["base"]["failed"] == 0 and pair["head"]["failed"] == 0
        pairs.append(pair)
        print(f"pair {i + 1}: " + "  ".join(
            f"{m} {pair['head'][m] / pair['base'][m]:.3f}x" for m, _, _ in metrics), flush=True)

    if not pairs:
        fail("no pair completed", code=1)
    summary = judge(pairs, metrics)
    same_digest, digest_line = digests(pairs)
    print_summary(summary, len(pairs))
    print(f"sim_digest: {digest_line}")
    if args.json:
        Path(args.json).write_text(json.dumps({
            "base": base_sha, "head": head_sha, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "pairs": pairs, "summary": summary,
            "sim_digest_identical": same_digest}, indent=2) + "\n")
    gate(summary, same_digest, runs_ok)


if __name__ == "__main__":
    main()
