"""One benchmark worker process: set up a workload, then run timed rounds or the traced run.

Started by ``run.py``; prints one JSON object as its last line. ``setup_s``
is measured by the parent from process start to ``first_case_at``, the
CLOCK_MONOTONIC time at which the first timed case begins.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer, metric_names  # noqa: E402

def run_case(workload, case) -> tuple[float, bool]:
    """CPU seconds of one case (the program's work only) and whether its answer checked out.

    CPU time, not wall time: on a shared virtual host the guest kernel leaves
    out of it the time the hypervisor stole and the time other processes held
    the CPU. Those stalls, not the program, set the wall-clock tail: on a
    2-vCPU shared VM its run-to-run spread on enum-spectra was 0.31.
    """
    start = process_time()
    try:
        answer = workload.run(case)
    except Exception:
        elapsed = process_time() - start
        traceback.print_exc(file=sys.stderr)
        return elapsed, False
    elapsed = process_time() - start
    try:
        ok = workload.check(case, answer)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    if not ok:
        print(f"wrong answer: {workload.name} case {case!r:.200}", file=sys.stderr)
    return elapsed, ok


# A fixed piece of work of the kind qcograph does, written here so that no
# change to the program changes it: Jacobi rotations on a small float matrix
# (scalar math, column copies and assignments) and a scan of vertex pairs of
# a small 0/1 adjacency matrix (fancy indexing, stacking and reductions), both
# dominated by the interpreter and numpy's per-call overhead. Its CPU time
# tells how fast the shared host runs such code at that moment; run.py scales
# case latencies by it. These two parts followed the case latencies of
# enum-spectra and two-main more closely than dict-and-list graph searches did.
_CAL_MATRIX = np.fromfunction(lambda i, j: ((i * 7 + j * 3) % 5 + (j * 7 + i * 3) % 5) / 4.0, (9, 9))
_CAL_BITS = np.fromfunction(lambda i, j: (i * 5 + j * 3) % 7 < 3, (14, 14)).astype(np.int8)
_CAL_BITS |= _CAL_BITS.T
CALIBRATE_EVERY_S = 0.02  # of case CPU time


def calibration() -> float:
    """CPU seconds of one run of the calibration kernel (about 1 ms on a quiet host)."""
    start = process_time()
    _calibration_kernel()
    return process_time() - start


def _calibration_kernel() -> None:
    a = _CAL_MATRIX.copy()
    n = a.shape[0]
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = a[p, q]
            if apq == 0.0:
                continue
            tau = (a[q, q] - a[p, p]) / (2.0 * apq)
            t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
            c = 1.0 / math.sqrt(1.0 + t * t)
            col_p = a[:, p].copy()
            col_q = a[:, q].copy()
            a[:, p] = c * col_p - t * c * col_q
            a[:, q] = t * c * col_p + c * col_q
    bits = _CAL_BITS
    m = bits.shape[0]
    for u in range(2):
        for v in range(u + 1, 6):
            xs, ys = np.triu_indices(m - v - 1, k=1)
            xs = xs + v + 1
            ys = ys + v + 1
            ux = bits[u, xs]
            vx = bits[v, xs]
            xy = bits[xs, ys]
            degs = np.stack([ux + vx, vx + xy, ux + xy])
            hit = (degs.max(axis=0) == 2) & (degs.min(axis=0) == 1)
            if hit.any():
                int(np.argmax(hit))


def run_round(
    workload, order: list[int], tracer: Tracer | None = None, calibrations: list[float] | None = None
) -> tuple[list[float], int]:
    """Run the cases in ``order``, returning their latencies and the failure count.

    Given a ``calibrations`` list, also run the calibration kernel before the
    first case, after every ``CALIBRATE_EVERY_S`` of case time and after the
    last case, and fill the list with each case's local calibration time: the
    mean of the calibrations just before and just after the stretch it ran in.
    """
    latencies = [0.0] * len(workload.cases)
    failed = 0
    kernel: list[float] = []
    stretch = [0] * len(workload.cases)
    since = math.inf
    for i in order:
        if calibrations is not None and since >= CALIBRATE_EVERY_S:
            kernel.append(calibration())
            since = 0.0
        if tracer is not None:
            tracer.case = i
        latencies[i], ok = run_case(workload, workload.cases[i])
        failed += not ok
        since += latencies[i]
        stretch[i] = len(kernel) - 1
    if calibrations is not None:
        kernel.append(calibration())
        calibrations[:] = [(kernel[k] + kernel[k + 1]) / 2 for k in stretch]
    return latencies, failed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(workload, seed: int, part: int, seconds: float) -> dict:
    """Whole rounds, each in a fresh seed-drawn order, while another fits in ``seconds`` (at least one).

    Each round reports its case latencies and their local calibration times.
    """
    n = len(workload.cases)
    rng = random.Random(f"{seed}/{part}")
    rounds: list[list[float]] = []
    calibration_s: list[list[float]] = []
    failed = 0
    last = 0.0
    start = perf_counter()
    while not rounds or perf_counter() - start + last < seconds:
        round_start = perf_counter()
        calibrations: list[float] = []
        latencies, round_failed = run_round(workload, rng.sample(range(n), n), calibrations=calibrations)
        last = perf_counter() - round_start
        rounds.append(latencies)
        calibration_s.append(calibrations)
        failed += round_failed
    return {
        "rounds": rounds,
        "calibration_s": calibration_s,
        "calibration_median_s": statistics.median(c for cal in calibration_s for c in cal),
        "failed": failed,
        "round_s": perf_counter() - start,
        "peak_rss_mb": peak_rss_mb(),
    }


def traced(name: str, seed: int, workdir: Path) -> dict:
    """Traced set-up and round, an untraced round, then a traced repeat whose counts must match."""
    rng = random.Random(seed)
    tracer = Tracer()
    tracer.install()
    try:
        start = perf_counter()
        workload = workloads.make(name, workdir)
        order = rng.sample(range(len(workload.cases)), len(workload.cases))
        traced_lat, failed = run_round(workload, order, tracer)
        wall = perf_counter() - start
    finally:
        tracer.remove()
    metrics = tracer.summary(wall)
    case_ids = set(range(len(workload.cases)))
    untraced_lat, _ = run_round(workload, order)

    repeat = Tracer()
    repeat.install()
    try:
        run_round(workload, order, repeat)
    finally:
        repeat.remove()
    first = (tracer.call_counts(case_ids), sum(v for k, v in tracer.order_cubed.items() if k != "setup"))
    second = (repeat.call_counts(case_ids), sum(repeat.order_cubed.values()))
    if first != second:
        raise RuntimeError(f"call counts differ between two traced rounds on seed {seed}: {first} vs {second}")
    metrics["trace.overhead_ratio"] = sum(untraced_lat) / sum(traced_lat)
    if set(metrics) != set(metric_names()):
        raise RuntimeError("per-layer metric set does not match tracing.metric_names()")
    return {
        "attempted": len(order),
        "failed": failed,
        "traced_wall_s": wall,
        "largest_inclusive_s": tracer.inclusive_s().most_common(3),
        "metrics": metrics,
    }


def host() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "nproc": os.cpu_count(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, default=0, help="index of this timed worker within the run")
    parser.add_argument("--seconds", type=float, default=0.0, help="how long this timed worker measures")
    parser.add_argument("--mode", choices=("timed", "traced"), required=True)
    args = parser.parse_args()
    build_dir = ROOT / ".bench_build"
    build_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build_dir))
    try:
        if args.mode == "traced":
            result = traced(args.workload, args.seed, workdir)
        else:
            workload = workloads.make(args.workload, workdir)
            result = {"first_case_at": time.monotonic(), "host": host()}
            result.update(timed(workload, args.seed, args.part, args.seconds))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
