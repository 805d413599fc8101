#!/usr/bin/env python3
"""End-to-end benchmark driver: builds perfbench from source and runs it.

One run (prints the run record, then the result JSON as the last line):

    python3 perfbench/run.py --workload fm-wiki-low --seed 1 --seconds 36 --trace 0

Steadiness mode: runs each workload N times with seeds base..base+N-1 and
prints every metric's median, quartiles and spread (IQR / median), flagging
end-to-end metrics whose spread exceeds a third of their bound in
BENCHMARK.json:

    python3 perfbench/run.py --steady 10 --workload all --seconds 36

Run from the root of a full checkout: the benchmark compiles the engine's
sources from ./src into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) and exits non-zero without a result when they are
missing.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fm-wiki-low", "join-wiki-overlap", "fm-wiki-sharded4"]
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures and builds perfbench; returns the binary path or None."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bdir = os.path.join(ROOT if not os.path.isabs(target) else "", target,
                        "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", bdir, "-j", jobs],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  cwd=ROOT, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("perfbench: build step failed:", e)
            return None
        if done.returncode != 0:
            log("perfbench: build failed:", " ".join(cmd))
            return None
    binary = os.path.join(bdir, "perfbench")
    return binary if os.path.exists(binary) else None


def source_sha():
    """Git SHA when the checkout is a repository, else a digest of the
    sources the benchmark builds from."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, base))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "content-" + h.hexdigest()[:16]


def run_once(binary, workload, seed, seconds, trace, sha):
    """Runs the binary; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--sha", sha,
           "--out-dir", os.path.join(ROOT, ".bench_out")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 4, []
    return done.returncode, done.stdout.splitlines()


def steady(binary, args, sha):
    """Repeats runs and prints median / quartiles / spread per metric."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    except (OSError, ValueError, KeyError):
        bounds = {}
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    worst = 0
    for w in workloads:
        values = {}
        units = {}
        for k in range(args.steady):
            seed = args.seed + k
            started = time.monotonic()
            code, lines = run_once(binary, w, seed, args.seconds, args.trace,
                                   sha)
            took = time.monotonic() - started
            if code != 0 or not lines:
                log(f"{w} seed {seed}: exit {code}")
                worst = max(worst, code or 1)
                continue
            result = json.loads(lines[-1])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            log(f"{w} seed {seed}: correct={result['correct']} "
                f"failed={result['failed']}/{result['attempted']} "
                f"({took:.1f} s)")
        print(f"== {w} ({args.steady} runs, {args.seconds} s, "
              f"trace {args.trace})")
        for name in values:
            v = values[name]
            if len(v) >= 2:
                q1, med, q3 = statistics.quantiles(v, n=4)
            else:
                q1 = med = q3 = v[0]
            spread = (q3 - q1) / med if med else float("nan")
            flag = ""
            if name in bounds and name != "setup_s":
                flag = "  OK" if spread < bounds[name] / 3 else "  WIDE"
            print(f"{name:40s} {med:14.6g} {units[name]:12s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.4f}{flag}")
    return worst


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", type=int, default=0,
                   help="repeat N times per workload and print quartiles")
    args = p.parse_args()
    if args.workload == "all" and not args.steady:
        p.error("--workload all needs --steady")

    binary = build()
    if binary is None:
        return 2
    sha = source_sha()
    if args.steady:
        return steady(binary, args, sha)
    code, lines = run_once(binary, args.workload, args.seed, args.seconds,
                           args.trace, sha)
    for line in lines:
        print(line)
    if code == 0 and (not lines or not lines[-1].startswith("{\"correct\"")):
        log("perfbench: no result line")
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
