"""Run the benchmark on a base commit and on this checkout, in alternating pairs on one host.

    python3 tools/bench_pair.py --base REV [--workloads W ...] [--pairs 3] [--seconds 25]

Run from anywhere in a checkout. The base is checked out with ``git worktree
add`` into a temporary directory, which is removed again when the tool ends,
also after a failed run; the change is this checkout as it stands, edits not
yet committed included. Each pair runs the unchanged

    python3 perfbench/run.py --workload W --seed 1 --seconds T --trace 0

in both checkouts, each from its own root (``tools/bench_record.py``'s
``run_workload``), the base first in even pairs and the change first in odd
ones, so that a drift of the host's speed weighs on both sides alike. For each
workload and each end-to-end metric of ``BENCHMARK.json`` it prints both sides'
median and range over the pairs, the change/base ratio of the medians, the
number of pairs in which the change read better, and the metric's bound and
better direction from ``BENCHMARK.json``. ``--seconds`` defaults to that file's
``run_seconds``. It exits 1 when any run had a failed case, or when a metric's
median moved the wrong way by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

from bench_record import ROOT, WORKLOADS, _git, run_workload

SIDES = ("base", "change")


@contextmanager
def base_checkout(rev: str) -> Iterator[Path]:
    """A detached worktree of rev in a temporary directory, removed on exit."""
    tmp = Path(tempfile.mkdtemp(prefix="bench_pair-"))
    path = tmp / "base"
    try:
        _git("worktree", "add", "--detach", str(path), rev)
        yield path
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(path)], cwd=ROOT, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)


def verdict(runs: dict[str, dict[str, list[dict]]], contract: dict) -> tuple[list[str], int]:
    """The report of paired runs, and the exit code.

    runs maps each workload to each side's ``perfbench/run.py`` results, one
    per pair and in pair order. The code is 1 when a run had a failed case or a
    metric's change median is worse than the base median by more than the
    metric's bound (its ``better`` direction decides what worse is), else 0.
    """
    lines, code = [], 0
    for workload, sides in runs.items():
        failed = {side: sum(r["failed"] for r in sides[side]) for side in SIDES}
        if any(failed.values()):
            code = 1
        lines.append(f"{workload}: {len(sides['base'])} pairs; failed cases base {failed['base']}, change {failed['change']}")
        lines.append(
            f"  {'metric':<13} {'better':<6} {'bound':>5}  {'base median [min, max]':<30}"
            f"  {'change median [min, max]':<30}  change/base    won  verdict"
        )
        for metric in contract["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            values = {side: [r["metrics"][name]["value"] for r in sides[side]] for side in SIDES}
            base, change = (statistics.median(values[side]) for side in SIDES)
            ratio = change / base
            worse = (ratio - 1) if lower else (1 - ratio)
            bad = worse > metric["bound"]
            if bad:
                code = 1
            wins = sum((c < b) if lower else (c > b) for b, c in zip(values["base"], values["change"]))
            won = f"{wins}/{len(values['base'])}"
            spread = {side: f"{statistics.median(v):.4g} [{min(v):.4g}, {max(v):.4g}]" for side, v in values.items()}
            lines.append(
                f"  {name:<13} {metric['better']:<6} {metric['bound']:>5.0%}  {spread['base']:<30}"
                f"  {spread['change']:<30}  {ratio:>11.3f}  {won:>5}"
                f"  {'WORSE past bound' if bad else 'ok'}"
            )
    return lines, code


def main(argv: list[str] | None = None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the commit to compare this checkout against")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seconds", type=int, default=contract["run_seconds"], help="per run, as perfbench/run.py takes it")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be at least 1")
    try:
        base_rev = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    except subprocess.CalledProcessError as exc:
        parser.error(f"--base {args.base!r}: {exc.stderr.strip()}")
    dirty = _git("status", "--porcelain", "--", "src", "perfbench").splitlines()
    print(f"base {base_rev}; change {_git('rev-parse', 'HEAD')}{' with uncommitted edits' if dirty else ''}")
    print(f"python3 perfbench/run.py --workload W --seed 1 --seconds {args.seconds} --trace 0, {args.pairs} pairs")
    runs = {w: {side: [] for side in SIDES} for w in args.workloads}
    with base_checkout(base_rev) as base_root:
        roots = {"base": base_root, "change": ROOT}
        for pair in range(args.pairs):
            for workload in args.workloads:
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    runs[workload][side].append(run_workload(workload, args.seconds, roots[side]))
    lines, code = verdict(runs, contract)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
