#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload calls --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py aa [--runs 5] [--workloads calls,jobs,rpc]
    python3 perfbench/run.py spread [--seeds 10] [--workloads calls,jobs,rpc]

The first form builds the `perfbench` binary (into $CARGO_TARGET_DIR,
default `.bench_build`) and runs one workload; its last line of
standard output is the result JSON. `aa` runs two interleaved sets of
the same build and compares each side's median per (metric, workload)
against the bound in BENCHMARK.json. `spread` runs one seed after
another and reports each end-to-end metric's quartile spread as a
share of its median, next to a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    """Builds the binary; returns its path, or None when the build fails."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, cwd=ROOT)
    except OSError as e:
        print(f"run.py: cannot start cargo: {e}", file=sys.stderr)
        return None
    if r.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return None
    return os.path.join(target_dir(), "release", "perfbench")


def run_once(binary, workload, seed, seconds, trace):
    """One run; returns the parsed result line."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"run.py: {workload} seed {seed} failed: {out.strip()}")
    return result


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(metric, base, other):
    """How much worse `other` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0
    d = (other - base) / base
    return d if metric["better"] == "lower" else -d


def cmd_aa(args):
    spec = load_spec()
    binary = build()
    if binary is None:
        return 1
    workloads = args.workloads.split(",")
    seconds = args.seconds or spec["run_seconds"]
    samples = {}  # (side, workload, metric) -> [values]
    for i in range(args.runs):
        # Alternate which side goes first; both sides run the same seed.
        sides = ("A", "B") if i % 2 == 0 else ("B", "A")
        for side in sides:
            for w in workloads:
                res = run_once(binary, w, args.first_seed + i, seconds, 0)
                for name, m in res["metrics"].items():
                    samples.setdefault((side, w, name), []).append(m["value"])
        print(f"aa: pair {i + 1}/{args.runs} done", file=sys.stderr)
    failures = 0
    print(f"{'workload':<8} {'metric':<26} {'A q1/med/q3':>32} {'B q1/med/q3':>32} {'B vs A':>8} {'bound':>6} verdict")
    for w in workloads:
        for metric in spec["end_to_end"]:
            a = samples.get(("A", w, metric["name"]), [])
            b = samples.get(("B", w, metric["name"]), [])
            if len(a) < 2 or len(b) < 2:
                continue
            qa, qb = quartiles(a), quartiles(b)
            d = worse_by(metric, qa[1], qb[1])
            ok = d <= metric["bound"]
            failures += not ok
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
            print(f"{w:<8} {metric['name']:<26} {fmt(qa):>32} {fmt(qb):>32} {d:>+8.3f} {metric['bound']:>6} "
                  f"{'within bound' if ok else 'OUTSIDE BOUND'}")
    return 1 if failures else 0


def cmd_spread(args):
    spec = load_spec()
    binary = build()
    if binary is None:
        return 1
    seconds = args.seconds or spec["run_seconds"]
    worst = (0.0, "")
    for w in args.workloads.split(","):
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            res = run_once(binary, w, seed, seconds, 0)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for metric in spec["end_to_end"]:
            v = values[metric["name"]]
            q1, med, q3 = quartiles(v)
            share = (q3 - q1) / med if med else float("inf")
            target = metric["bound"] / 3
            flag = "ok" if share <= target else ("over 1/3 bound" if share <= metric["bound"] else "OVER BOUND")
            worst = max(worst, (share / metric["bound"], f"{w} {metric['name']}"))
            print(f"{w:<6} {metric['name']:<26} median {med:<12.5g} iqr/median {share:.4f} "
                  f"(bound/3 {target:.4f}) {flag}", flush=True)
    print(f"worst spread as a share of its bound: {worst[0]:.3f} ({worst[1]})")
    return 0


def main():
    argv = sys.argv[1:]
    if argv and argv[0] in ("aa", "spread"):
        p = argparse.ArgumentParser(prog=f"run.py {argv[0]}")
        p.add_argument("--workloads", default="calls,jobs,rpc")
        p.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
        p.add_argument("--first-seed", type=int, default=1)
        if argv[0] == "aa":
            p.add_argument("--runs", type=int, default=5, help="runs per side")
            return cmd_aa(p.parse_args(argv[1:]))
        p.add_argument("--seeds", type=int, default=10)
        return cmd_spread(p.parse_args(argv[1:]))
    binary = build()
    if binary is None:
        return 1
    try:
        return subprocess.run([binary] + argv, cwd=ROOT).returncode
    except OSError as e:
        print(f"run.py: cannot start the benchmark: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
