#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload fig1 --seed 1 --seconds 35 --trace 0

builds the simulator library and the perfbench binary from the sources of
the checkout it sits in (CMake, Release, into $CARGO_TARGET_DIR or
.bench_build), then runs the binary in place of this process. The binary
prints the metrics, and as its last stdout line one JSON object with the
keys correct, attempted, failed and metrics.

Other modes:
    --steady N     run one workload N times, seeds --seed .. --seed+N-1, and
                   print each metric's median, quartiles and IQR/median
                   (against its bound from BENCHMARK.json, when present)
    --selftest     build and run the unit tests of the metric arithmetic

SMT_* variables are removed from the benchmark's environment so that no
simulator knob can change what is measured.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("SMT_")}


def build(targets):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no simulator sources next to {HERE.name}/ (expected CMakeLists.txt and src/)")
    bdir = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs, "--target", *targets])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=clean_env()).returncode
        if rc != 0:
            fail(f"build step failed ({rc}): {' '.join(cmd)}", code=rc)
    return bdir


def bench_args(a, seed):
    return ["--workload", a.workload, "--seed", str(seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace), "--out", str(build_dir() / "out")]


def bounds():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def steady(a, binary):
    """Run one workload a.steady times on consecutive seeds; print spreads."""
    values = {}
    units = {}
    digests = []
    for i in range(a.steady):
        seed = a.seed + i
        proc = subprocess.run([str(binary), *bench_args(a, seed)], capture_output=True,
                              text=True, env=clean_env(), timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            fail(f"run with seed {seed} exited {proc.returncode}", code=1)
        result = json.loads(lines[-1])
        digest = next((l.split()[-1] for l in lines if l.startswith("sim_digest")), "?")
        digests.append(f"seed {seed}: {digest}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " +
              " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
    limit = bounds()
    print(f"\n{a.workload}, {a.steady} runs, trace={a.trace}, {a.seconds} s each")
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}  bound")
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        spread = (q3 - q1) / abs(med) if med else float("inf")
        bound = limit.get(name)
        flag = "" if bound is None else f"{bound:g}" + (" OVER 1/3" if spread > bound / 3 else "")
        print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}  {flag} {units[name]}")
    print("\n".join(["sim_digest per seed:", *digests]))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="fig1")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, default=0, metavar="N")
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()

    if a.selftest:
        bdir = build(["perfbench_selftest"])
        sys.exit(subprocess.run([str(bdir / "perfbench_selftest")], env=clean_env()).returncode)
    binary = build(["perfbench"]) / "perfbench"
    if a.steady > 0:
        steady(a, binary)
        return
    sys.stdout.flush()
    os.execve(str(binary), [str(binary), *bench_args(a, a.seed)], clean_env())


if __name__ == "__main__":
    main()
