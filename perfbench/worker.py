"""One measured process of the benchmark; started by run.py.

    worker.py --workload W --seed N --seconds T --trace 0|1 --size full
              --spawn-time MONOTONIC [--setup-only]

Builds the inputs of pass 0, notes the set-up time (from the parent's
spawn time to the first timed call), then runs passes until the next one
would end after T seconds; at least one pass runs.  Every pass times each
item's call alone and checks the item's output after the clock stops.

The host's CPU speed drifts by tens of percent over seconds to minutes,
and moves pure-Python and BLAS work alike.  So a calibration probe
(fixed Python and numpy work that calls nothing of the program) runs
before and after every item and, from a timer, every PROBE_EVERY_S
inside it.  Each stretch of an item between two probes is also reported
scaled by PROBE_REF_S over the mean of those two probes' readings: the
time the item would take on a machine whose probe reads PROBE_REF_S.
The probes' own time counts in neither time; raw times are kept too.
The set-up time is scaled the same way by one probe after set-up.

With --trace 1 every pass runs twice on the same inputs, untraced and
then traced, which gives the tracing overhead and the per-layer metrics.
The result is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_PROBLEMS = 20
# median probe reading on a shared 2-vCPU x86-64 virtual machine (Python
# 3.11, numpy 2.4, one BLAS thread); sets the scale of calibrated times
PROBE_REF_S = 0.007
# probes interrupt the program and cost it cache state, so only items
# longer than this (single-solve's) are probed inside
PROBE_EVERY_S = 1.0
_PROBE_X = np.linspace(0.0, 1.0, 15)
_PROBE_A = (np.random.default_rng(0).standard_normal((200, 200))
            + 200.0 * np.eye(200))


def probe() -> tuple[float, float, float]:
    """(start, end, speed) of one probe; speed is the median time of
    three rounds of fixed work that calls nothing of the program.

    Each round mixes what the workloads spend their time on: interpreted
    arithmetic, numpy calls on 15-point arrays and a dense BLAS solve.
    """
    times = []
    begin = time.perf_counter()
    for _ in range(3):
        start = time.perf_counter()
        acc = 0.0
        for i in range(20000):
            acc += math.sqrt(i)
        for _ in range(1000):
            acc += float(np.dot(np.exp(-_PROBE_X), _PROBE_X))
        np.linalg.solve(_PROBE_A, _PROBE_A)
        times.append(time.perf_counter() - start)
    return begin, time.perf_counter(), statistics.median(times)


class Clock:
    """Times calls, probing the machine's speed before, during and after.

    The probes inside a call run every ``every`` seconds (never if it is
    0) from a SIGALRM handler, between two bytecodes of the call (after a
    long C call returns).  After ``call``, ``raw_s`` and ``cal_s`` hold
    the call's raw and calibrated time and ``speeds`` gathers every
    probe's speed.
    """

    def __init__(self, every: float):
        self.every = every
        self.last = probe()
        self.speeds = [self.last[2]]
        self.inner = []
        self.armed = False
        self.raw_s = self.cal_s = 0.0

    def _on_alarm(self, signum, frame):
        if self.armed:
            self.inner.append(probe())
            signal.setitimer(signal.ITIMER_REAL, self.every)

    def call(self, fn):
        self.inner = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.armed = self.every > 0.0
        signal.setitimer(signal.ITIMER_REAL, self.every)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            end = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
            after = probe()
            probes = [self.last, *self.inner, after]
            starts = [start] + [p[1] for p in self.inner]
            ends = [p[0] for p in self.inner] + [end]
            self.raw_s = self.cal_s = 0.0
            for i, (a, b) in enumerate(zip(starts, ends)):
                self.raw_s += b - a
                self.cal_s += ((b - a) * 2.0 * PROBE_REF_S
                               / (probes[i][2] + probes[i + 1][2]))
            self.speeds += [p[2] for p in probes[1:]]
            self.last = after


def run_pass(items, tracer=None) -> dict:
    """Time every item; check outputs outside the timed region.

    Traced passes probe only between items, so that no probe runs inside
    a span and adds to a layer's time.
    """
    clock = Clock(PROBE_EVERY_S if tracer is None else 0.0)
    item_s = []
    item_cal_s = []
    failed = 0
    problems = []
    for item in items:
        if tracer is not None:
            tracer.install()
        try:
            out = clock.call(item.run)
        except Exception as exc:  # a raising call is a failed item
            failed += item.count
            problems.append(f"{item.label}: {type(exc).__name__}: {exc}")
            continue
        finally:
            item_s.append(clock.raw_s)
            item_cal_s.append(clock.cal_s)
            if tracer is not None:
                tracer.uninstall()
        try:
            found = item.check(out)
        except Exception as exc:  # a check that cannot run fails the item
            found = [f"{item.label}: check raised {type(exc).__name__}: {exc}"]
        failed += min(len(found), item.count)
        problems += found
    return {"pass_s": sum(item_cal_s), "raw_pass_s": sum(item_s),
            "item_s": item_s, "probe_s": clock.speeds,
            "items": sum(it.count for it in items),
            "failed": failed, "problems": problems}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    program = Path(workloads.H.__file__).resolve().parent
    if not program.is_relative_to(ROOT / "src"):
        print(f"worker: measuring {program}, not this checkout's src/",
              file=sys.stderr)
        return 1
    items = workloads.build(args.workload, args.size, args.seed, 0)
    raw_setup_s = time.monotonic() - args.spawn_time
    setup_s = raw_setup_s * PROBE_REF_S / probe()[2]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    plain, traced = [], []
    begin = time.monotonic()
    k = 0
    while True:
        plain.append(run_pass(items))
        if tracer is not None:
            tracer.passes += 1
            traced.append(run_pass(items, tracer))
        k += 1
        elapsed = time.monotonic() - begin
        if elapsed + elapsed / k > args.seconds:
            break
        items = workloads.build(args.workload, args.size, args.seed, k)

    passes = plain + traced
    result = {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "pass_s": [p["pass_s"] for p in plain],
        "raw_pass_s": [p["raw_pass_s"] for p in plain],
        "item_s": [p["item_s"] for p in plain],
        "probe_s": [p["probe_s"] for p in plain],
        "items": sum(p["items"] for p in plain),
        "timed_s": sum(p["pass_s"] for p in plain),
        "attempted": sum(p["items"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "problems": [msg for p in passes for msg in p["problems"]][:MAX_PROBLEMS],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": {name: os.environ.get(name, "unset")
                             for name in BLAS_ENV},
            "NONLOCAL_LAB_THREADS": os.environ.get("NONLOCAL_LAB_THREADS",
                                                   "unset"),
            "program": str(program),
        },
    }
    if tracer is not None:
        layers = tracer.metrics()
        # each traced pass right after its untraced twin, so the pair
        # shares the machine's state
        layers["trace.overhead_ratio"] = (statistics.median(
            t["pass_s"] / p["pass_s"] for p, t in zip(plain, traced)) - 1.0,
            "ratio")
        result["layers"] = layers
        OUT_DIR.mkdir(exist_ok=True)
        np.savez(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz",
                 **{key: np.asarray(val) for key, val in tracer.spans().items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
