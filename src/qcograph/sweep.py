"""Parameter sweeps over graph families, reported as CSV rows."""

from __future__ import annotations

import time
from itertools import product
from math import prod

from .cotree import bags
from .families import FamilySpec, build_cotree
from .recognition import FLAGS, classify
from .spectra import q_spectrum_cotree

__all__ = ["SWEEP_CAP", "sweep", "sweep_to_csv"]

SWEEP_CAP = 10000


def sweep(pattern: dict, cap: int = SWEEP_CAP) -> tuple[list[str], list[list[str]]]:
    """Evaluate a family over ranged parameters, from the cotree alone.

    The pattern is {"family": name, "params": {...}} where each parameter is
    an int or a list of ints, and a parameter the family does not declare is
    an error; the grid is their cartesian product, iterated
    lexicographically in parameter declaration order. Returns (header, rows).
    A cap that is not an int >= 1 (a bool included) is a ValueError.
    """
    if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
        raise ValueError(f"sweep cap must be an integer >= 1, got {cap!r}")
    if not isinstance(pattern, dict) or not isinstance(pattern.get("params", {}), dict):
        raise ValueError('sweep pattern must look like {"family": ..., "params": {...}}')
    if pattern.get("family") == "GeneralizedCoreSatellite":
        raise ValueError("sweep does not support nested satellite parameters")
    axes: dict[str, list] = {}
    for name, v in pattern.get("params", {}).items():
        try:
            # FamilySpec.make checks each value; only their order is needed here
            axes[name] = sorted(v) if isinstance(v, (list, tuple)) else [v]
        except TypeError:
            raise ValueError(f"sweep parameter {name!r} must be an integer or a list of integers") from None
        if not axes[name]:
            raise ValueError(f"sweep parameter {name!r} has an empty list of values")
    # the first point checks the family and parameter names and gives their declaration order
    first = FamilySpec.from_json_dict({"family": pattern.get("family"), "params": {k: a[0] for k, a in axes.items()}})
    family, names = first.family, [k for k, _ in first.params]
    points = prod(len(axis) for axis in axes.values())
    if points > cap:
        raise ValueError(f"sweep has {points} points, exceeding the cap of {cap}")

    header = [*names, "n", "m", "r", "main_count", "mains", *FLAGS, "runtime_ms"]
    rows: list[list[str]] = []
    for i, values in enumerate(product(*(axes[k] for k in names))):
        start = time.perf_counter()
        spec = FamilySpec.make(family, **dict(zip(names, values))) if i else first
        t = build_cotree(spec)
        b = bags(t)
        rep = q_spectrum_cotree(b)
        report = classify(t)
        ms = (time.perf_counter() - start) * 1000.0
        row = [str(v) for _, v in spec.params]
        row += [str(b.n), str(b.m), str(b.r), str(rep.main_count)]
        row.append(";".join(format(v, ".17g") for v in rep.main_values()))
        row += [str(getattr(report, flag)).lower() for flag in FLAGS]
        row.append(format(ms, ".17g"))
        rows.append(row)
    return header, rows


def sweep_to_csv(header: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"
