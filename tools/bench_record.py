"""Record the benchmark's four workloads at one commit, as BENCH_<label>.json.

    python3 tools/bench_record.py --label NAME [--seconds 25] [--out-dir .]

Run from anywhere in a checkout. For each workload it runs the unchanged

    python3 perfbench/run.py --workload W --seed 1 --seconds T --trace 0

from the root of the checkout and keeps the last line of its stdout, the JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics
keep the meaning ``perfbench/run.py`` gives them. To these it adds the commit
(``git rev-parse HEAD``), the files under ``src/`` and ``perfbench/`` that
differ from it (``git status --porcelain``; empty when the commit is what ran),
and the host: the Python and NumPy versions, the CPU count and
``OPENBLAS_NUM_THREADS``. Last it runs the acceptance tests,

    python -m pytest -q -s tests/test_acceptance.py

and keeps each ``ACCEPTANCE n (name): PASS - detail [x s]`` line it prints,
with the criterion's wall time, under ``acceptance``. One file per commit,
read in commit order, is the benchmark's trajectory; the seed is fixed so that
its points compare, and numbers from different hosts do not. It exits 1 when a
workload had a failed case or an acceptance test failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOADS  # noqa: E402  (perfbench is a directory of scripts, not a package)

ACCEPTANCE_LINE = re.compile(r"ACCEPTANCE \d+ \(.*?\): .* \[[0-9.]+s\]")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.rstrip("\n")


def run_workload(workload: str, seconds: int, root: Path = ROOT) -> dict:
    """The final JSON line of one ``perfbench/run.py --trace 0`` run in the checkout at root."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1"]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: perfbench/run.py exited {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_acceptance() -> tuple[list[str], bool]:
    """The ``ACCEPTANCE n ...`` lines of ``tests/test_acceptance.py``, and whether every test passed."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "pytest", "-q", "-s", "tests/test_acceptance.py"]
    done = subprocess.run(argv, cwd=ROOT, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
    return ACCEPTANCE_LINE.findall(done.stdout), done.returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--seconds", type=int, default=25, help="per workload, as perfbench/run.py takes it")
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    record = {
        "label": args.label,
        "commit": _git("rev-parse", "HEAD"),
        "uncommitted": _git("status", "--porcelain", "--", "src", "perfbench").splitlines(),
        "command": f"python3 perfbench/run.py --workload W --seed 1 --seconds {args.seconds} --trace 0",
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "workloads": {w: run_workload(w, args.seconds) for w in WORKLOADS},
    }
    record["acceptance"], accepted = run_acceptance()
    path = args.out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    failed = {w: r["failed"] for w, r in record["workloads"].items() if r["failed"]}
    verdict = "all passed" if accepted else "FAILED"
    print(f"{path}: {len(record['workloads'])} workloads, failed cases {failed or 0}; acceptance tests {verdict}")
    return 1 if failed or not accepted else 0


if __name__ == "__main__":
    sys.exit(main())
