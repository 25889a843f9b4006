"""Self-test of the benchmark's answer checks: a wrong reference must count as a failure.

    python3 perfbench/selftest.py

For each workload, one case is run and checked against its true reference
(it must pass), then against a deliberately wrong reference (it must be
counted as failed by the same round runner the timed runs use). Exits 0
when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import shutil
import sys
import tempfile
from pathlib import Path

import worker  # imported first: it puts the repository's src on sys.path
import workloads
from worker import run_round


def _one_case(workload, case, answer_fix=None) -> int:
    """Failures counted for a one-case round, with the answer altered by ``answer_fix``."""
    run = workload.run
    if answer_fix is not None:
        workload = copy.copy(workload)
        workload.run = lambda c: answer_fix(run(c))
    workload = copy.copy(workload)
    workload.cases = [case]
    return run_round(workload, [0])[1]


def _shifted(values: list[float]) -> list[float]:
    return [values[0] + 1e-3, *values[1:]]


def main() -> int:
    problems = []
    build_dir = worker.ROOT / ".bench_build"
    build_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-selftest-", dir=build_dir))
    try:
        enum = workloads.make("enum-spectra", workdir)
        case = "J(1,U(2))"
        wrong = lambda a: {**a, "condensed_mains": _shifted(a["condensed_mains"])}
        results = {"enum-spectra": (_one_case(enum, case), _one_case(enum, case, wrong))}

        two = workloads.make("two-main", workdir)
        case = "J(1,U(3))"  # a star: connected quasi-threshold with two mains
        results["two-main"] = (_one_case(two, case), _one_case(two, case, lambda a: (a[0] + 1, a[1])))

        fam = workloads.make("family-grid", workdir)
        case = fam.cases[0]
        results["family-grid"] = (_one_case(fam, case), _one_case(fam, case, lambda a: [*a, False]))

        cli = workloads.make("cli", workdir)
        for req in cli.cases:
            bad = copy.deepcopy(req)
            if isinstance(bad.ref, workloads.SpectrumRef):
                bad.ref.mains = _shifted(bad.ref.mains)
            elif req.name == "classify-edges":
                bad.ref["is_regular"] = not bad.ref["is_regular"]
            elif req.name == "condensed-json":
                bad.ref["mains"] = _shifted(bad.ref["mains"])
            elif req.name == "sweep":
                next(iter(bad.ref.values()))["m"] += 1
            else:
                bad.ref += 1
            results[f"cli {req.name}"] = (_one_case(cli, req), _one_case(cli, bad))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (true_ref, wrong_ref) in results.items():
        ok = true_ref == 0 and wrong_ref == 1
        print(f"{'ok  ' if ok else 'FAIL'} {name}: true reference {true_ref} failed, wrong reference {wrong_ref} failed")
        if not ok:
            problems.append(name)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
