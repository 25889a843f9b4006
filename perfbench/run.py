"""Benchmark of the cotree -> Q-spectrum pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

All four workloads, and the self-test of the answer checks:

    for w in enum-spectra family-grid two-main cli; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 25 --trace 0
    done
    python3 perfbench/selftest.py

Run from the root of a checkout; the package is imported from ``src``. With
``--trace 0`` it prints the end-to-end metrics of one workload, measured in
worker processes with tracing off; with ``--trace 1`` it prints the per-layer
metrics of a separate traced run. End-to-end times are scaled by the host's
speed at the moment they were taken, as measured by a calibration kernel
(see ``REFERENCE_CALIBRATION_S``). The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it print every metric with its unit, and ``failed_ratio``. The
workloads, their checks and the meaning of every metric are described in
``workloads.py``, ``worker.py`` and ``tracing.py``; ``baseline.json`` holds
the host record and the numbers measured at the seed commit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("enum-spectra", "family-grid", "two-main", "cli")
# The host is a few vCPUs of a shared machine whose neighbours slow it down,
# in bursts of milliseconds to minutes, by up to half; raw latencies, even
# each case's fastest of many repeats, moved by 15-50 % between runs a minute
# apart. The slow-down hits a fixed calibration kernel (``worker.calibration``,
# which runs no qcograph code) by about the same factor, so each case time is
# scaled by REFERENCE_CALIBRATION_S over the kernel's time measured just
# before and after it: times are stated for a host on which the kernel takes
# 1 ms, about this host's speed when it is quiet. A change to the program
# moves the case latencies and not the kernel. Scaled speed still differs by
# up to 15 % between processes (memory layout, and which vCPU and neighbour
# they land on), so a run pools the rounds of several worker processes; each
# sets the workload up once, so setup_s is a median.
REFERENCE_CALIBRATION_S = 1e-3
WORKERS = 6
WORKER_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "cases_per_s": "1/s",
    "case_p50_ms": "ms",
    "case_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}


def layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    return "ratio" if name == "trace.overhead_ratio" else "count"


def spawn(args, mode: str, env: dict, part: int = 0, seconds: float = 0.0) -> dict:
    """Run one worker to completion and return its result; ``setup_s`` is added here."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--part", str(part), "--mode", mode, "--seconds", str(seconds)]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"worker ({mode}) exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if "first_case_at" in result:
        result["setup_s"] = result.pop("first_case_at") - started
    return result


def percentile(values: list[float], pct: float) -> float:
    """Percentile by linear interpolation between the two nearest ranks."""
    ranked = sorted(values)
    pos = pct / 100.0 * (len(ranked) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ranked) - 1)
    return ranked[low] + (pos - low) * (ranked[high] - ranked[low])


def timed(args, env: dict) -> dict:
    """``WORKERS`` timed workers in turn, each measuring for its share of the ``--seconds`` left.

    Case latencies are CPU seconds (see ``worker.run_case``), each scaled by
    the reference over its local calibration time; a case's latency is the
    median of its scaled runs. ``cases_per_s`` is the case count over the sum
    of those latencies and ``case_p50_ms`` is their median. ``case_tail_ms``
    is the highest percentile of them (to 0.1) with at least 10 cases beyond
    it, but at least p90 (family-grid and cli have 18 and 7 cases); single
    runs are not pooled for it, as their top ten are the host's worst
    stalls. ``setup_s`` is the median of the workers' set-up times, each
    scaled by its worker's median calibration time.
    """
    runs = []
    start = time.monotonic()
    for part in range(WORKERS):  # a worker whose rounds did not fill its share leaves the rest to the next
        runs.append(spawn(args, "timed", env, part, (args.seconds - (time.monotonic() - start)) / (WORKERS - part)))
    scale = REFERENCE_CALIBRATION_S
    rounds = [
        [t * scale / c for t, c in zip(lat, cal)] for r in runs for lat, cal in zip(r["rounds"], r["calibration_s"])
    ]
    per_case = [statistics.median(ts) for ts in zip(*rounds)]
    pct = max(90.0, math.floor(1000 * (1 - 10 / len(per_case))) / 10)
    return {
        "host": runs[0]["host"],
        "workers": len(runs),
        "rounds": len(rounds),
        "cases": len(per_case),
        "timed_s": sum(r["round_s"] for r in runs),
        "calibration_ms": statistics.median(r["calibration_median_s"] for r in runs) * 1e3,
        "raw_setup_s": statistics.median(r["setup_s"] for r in runs),
        "attempted": len(rounds) * len(per_case),
        "failed": sum(r["failed"] for r in runs),
        "setup_s": statistics.median(r["setup_s"] * scale / r["calibration_median_s"] for r in runs),
        "cases_per_s": len(per_case) / sum(per_case),
        "case_p50_ms": statistics.median(per_case) * 1e3,
        "case_tail_ms": percentile(per_case, pct) * 1e3,
        "tail_percentile": pct,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "qcograph" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'qcograph'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1", PYTHONHASHSEED="0")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    if args.trace:
        result = spawn(args, "traced", env)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in result["metrics"].items()}
        print(f"  traced wall {result['traced_wall_s']:.3f} s (set-up and one round)")
        self_times = {k: v["value"] for k, v in metrics.items() if k.count(".") == 2 and k.endswith(".self_s")}
        largest = sorted(self_times, key=self_times.get, reverse=True)[:3]
        print("  largest self time: " + ", ".join(f"{k} {self_times[k]:.3f} s" for k in largest))
        print("  largest inclusive: " + ", ".join(f"{k} {v:.3f} s" for k, v in result["largest_inclusive_s"]))
        width = max(map(len, metrics))
        for name, m in metrics.items():
            print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")
    else:
        result = timed(args, env)
        metrics = {k: {"value": result[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        print(f"  host {json.dumps(result['host'])}")
        print(f"  {result['workers']} workers, {result['rounds']} rounds of {result['cases']} cases, {result['timed_s']:.2f} s timed")
        print(
            f"  a case's latency is the median of its {result['rounds']} runs; case_tail_ms is"
            f" p{result['tail_percentile']:g} over {result['cases']} cases;"
            f" setup_s is the median over the workers"
        )
        for name, m in metrics.items():
            print(f"  {name:<13} {m['value']:.6g} {m['unit']}")
        print(
            f"  times are scaled to a 1 ms calibration kernel (measured: median {result['calibration_ms']:.3f} ms;"
            f" unscaled setup_s {result['raw_setup_s']:.4g} s)"
        )
    failed_ratio = result["failed"] / result["attempted"]
    print(f"  failed_ratio  {failed_ratio:.6g} 1 ({result['failed']}/{result['attempted']})")
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
