#!/usr/bin/env python3
"""Paired A/B timing of the repository benchmark between two git revisions.

    python3 ci/perf_ab.py [--base REV] [--head REV] [--workload fig1]
                          [--pairs 8] [--seconds 15] [--seed 1]
                          [--work DIR] [--json FILE]

Each revision is exported (git archive) into its own source tree under
--work and built by its own perfbench/run.py into its own CARGO_TARGET_DIR,
so the two builds share nothing. The two benchmarks then run in alternation
on one workload, --pairs times; the pair order flips every pair (ABBA...) so
a drifting host charges both sides alike. For wall_s and sim_minsts_per_s
the tool prints every pair's head/base ratio, their median and a bootstrap
95% confidence interval of the median, each side's median and quartiles,
and how many pairs head won. "gain holds" means head won at least 9 in 10
pairs and the medians differ by more than the base's interquartile range.
For the benchmark's other end-to-end metrics it prints each side's median
and quartiles.

--base defaults to the merge-base of HEAD and the default branch
(origin/main, else main), or HEAD's first parent when HEAD is on that
branch; --head defaults to HEAD. To measure uncommitted work, stage it and
pass --head "$(git stash create)".

Exit status: 0 when every run succeeded and every run of both revisions
printed the same sim_digest; 1 when the digests differ (the revisions do
not simulate the same machine, so their timings are not comparable) or a
run failed; 2 on usage or build errors. The timing itself never fails the
tool: it reports, it does not gate.
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
METRICS = {"wall_s": "lower", "sim_minsts_per_s": "higher"}  # metric: better direction
BOOTSTRAP_RESAMPLES = 4000


def fail(msg, code=2):
    print(f"perf_ab: {msg}", file=sys.stderr)
    sys.exit(code)


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
    ok = True
    for i in range(args.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        pair = {}
        for name in order:
            pair[name] = run_bench(sides[name], args, args.seconds)
        if pair["base"] is None or pair["head"] is None:
            ok = False
            print(f"pair {i + 1}: a run failed", flush=True)
            continue
        ok = ok and pair["base"]["failed"] == 0 and pair["head"]["failed"] == 0
        ratio = {m: pair["head"][m] / pair["base"][m] for m in METRICS}
        pairs.append({"base": pair["base"], "head": pair["head"], "ratio": ratio})
        print(f"pair {i + 1}: " + "  ".join(
            f"{m} {pair['base'][m]:.4g} -> {pair['head'][m]:.4g} ({ratio[m]:.3f}x)"
            for m in METRICS), flush=True)

    if not pairs:
        fail("no pair completed", code=1)
    digests = {name: {pr[name]["digest"] for pr in pairs} for name in ("base", "head")}
    same_digest = digests["base"] == digests["head"] and len(digests["base"]) == 1 \
        and None not in digests["base"]
    rng = random.Random(0)
    summary = {}
    for m, better in METRICS.items():
        ratios = [pr["ratio"][m] for pr in pairs]
        if not ratios:
            continue
        lo, hi = bootstrap_ci(ratios, rng)
        base_q = quartiles([pr["base"][m] for pr in pairs])
        head_q = quartiles([pr["head"][m] for pr in pairs])
        wins = sum(1 for pr in pairs if (pr["head"][m] < pr["base"][m]) == (better == "lower")
                   and pr["head"][m] != pr["base"][m])
        holds = (wins >= 0.9 * len(pairs) and abs(head_q[1] - base_q[1]) > base_q[2] - base_q[0])
        summary[m] = {"median_ratio": statistics.median(ratios), "ci95": [lo, hi],
                      "ratios": ratios, "base_q1_med_q3": base_q, "head_q1_med_q3": head_q,
                      "head_wins": wins, "gain_holds": holds}
        print(f"{m}: median head/base {summary[m]['median_ratio']:.3f}x  "
              f"95% CI [{lo:.3f}, {hi:.3f}]  over {len(ratios)} pairs")
        print(f"  base median {base_q[1]:.4g} [q1 {base_q[0]:.4g}, q3 {base_q[2]:.4g}]  "
              f"head median {head_q[1]:.4g} [q1 {head_q[0]:.4g}, q3 {head_q[2]:.4g}]  "
              f"head better in {wins}/{len(pairs)} pairs; gain holds: {'yes' if holds else 'no'}")
    others = [m for m in pairs[0]["base"] if m not in METRICS and m not in ("digest", "failed")]
    for m in others:
        base_q = quartiles([pr["base"][m] for pr in pairs])
        head_q = quartiles([pr["head"][m] for pr in pairs])
        summary[m] = {"base_q1_med_q3": base_q, "head_q1_med_q3": head_q}
        print(f"{m}: base median {base_q[1]:.4g} [q1 {base_q[0]:.4g}, q3 {base_q[2]:.4g}]  "
              f"head median {head_q[1]:.4g} [q1 {head_q[0]:.4g}, q3 {head_q[2]:.4g}]")
    print("sim_digest: " + (f"identical {next(iter(digests['base']))}" if same_digest else
                            f"DIFFERENT base={sorted(map(str, digests['base']))} "
                            f"head={sorted(map(str, digests['head']))}"))
    if args.json:
        Path(args.json).write_text(json.dumps({
            "base": base_sha, "head": head_sha, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "pairs": pairs, "summary": summary,
            "sim_digest_identical": same_digest}, indent=2) + "\n")
    if not same_digest:
        fail("sim_digest differs between the revisions", code=1)
    if not ok:
        fail("a benchmark run failed", code=1)


if __name__ == "__main__":
    main()
