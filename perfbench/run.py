#!/usr/bin/env python3
"""Benchmark of nonlocal-lab: one workload, one seed, one line of results.

    python3 perfbench/run.py --workload many-data --seed 1 --seconds 35 --trace 0

Run from anywhere inside a checkout; the program measured is the one in
the checkout's src/.  Every measured process is a fresh interpreter with
one BLAS thread and NONLOCAL_LAB_THREADS unset.  With --trace 0 the last
line of stdout carries the end-to-end metrics, with --trace 1 the
per-layer metrics; perfbench/README.md describes both.  Exits 1 without a
result line when the program cannot be measured, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("many-data", "pointwise", "single-solve")
SIZES = ("full", "smoke")
SETUP_PROBES = 8  # extra fresh processes that only set up, for setup_s
TIME_LIMIT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(SRC))
    env.pop("NONLOCAL_LAB_THREADS", None)
    return env


def run_worker(args, extra: list, timeout: float) -> dict:
    """Run worker.py to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, *extra]
    proc = subprocess.run(cmd + ["--spawn-time", repr(time.monotonic())],
                          env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=max(timeout, 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          timeout=30)
    return proc.stdout.strip() or "unknown"


def source_digest() -> str:
    """sha256 over the program's source files, names and contents."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=SIZES, default="full",
                    help="smoke: reduced sizes for the smoke test")
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "nonlocal_lab" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'nonlocal_lab'}",
              file=sys.stderr)
        return 1

    began = time.monotonic()
    try:
        setup_runs = []
        if args.trace == 0:
            for _ in range(SETUP_PROBES):
                setup_runs.append(
                    run_worker(args, ["--setup-only"], TIME_LIMIT_S))
        res = run_worker(args, [], TIME_LIMIT_S - (time.monotonic() - began))
        setup_runs.append(res)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    env = dict(res["env"], workload=args.workload, seed=args.seed,
               seconds=args.seconds, trace=args.trace, size=args.size,
               commit=commit(), src_sha256=source_digest(),
               nproc=os.cpu_count(), cpus_usable=len(os.sched_getaffinity(0)),
               machine=platform.machine())
    setups = [r["setup_s"] for r in setup_runs]
    raw_setups = [r["raw_setup_s"] for r in setup_runs]
    if args.trace == 0:
        metrics = {
            "pass_s": (statistics.median(res["pass_s"]), "s"),
            "items_per_s": (res["items"] / res["timed_s"], "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
        notes = {"pass_s": f"median of {len(res['pass_s'])} passes, "
                           f"calibrated; raw median "
                           f"{statistics.median(res['raw_pass_s']):.4g} s",
                 "setup_s": f"median of {len(setups)} processes, "
                            f"calibrated; raw median "
                            f"{statistics.median(raw_setups):.4g} s"}
    else:
        metrics = {name: tuple(vu) for name, vu in res["layers"].items()}
        notes = {"trace.overhead_ratio": "median over pass pairs of traced "
                                          "over untraced pass_s, - 1"}

    attempted, failed = res["attempted"], res["failed"]
    print(json.dumps({"env": env}, sort_keys=True))
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    print(f"failed_ratio = {failed / attempted:.6g} ratio  "
          f"({failed} of {attempted} results failed their checks)")
    for msg in res["problems"]:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)

    record = {"env": env, "attempted": attempted, "failed": failed,
              "problems": res["problems"], "pass_s": res["pass_s"],
              "raw_pass_s": res["raw_pass_s"], "item_s": res["item_s"],
              "probe_s": res["probe_s"],
              "setup_s": setups, "raw_setup_s": raw_setups,
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
