"""The benchmark's workloads: each one's case set, one case, and its answer check.

Every workload is a closed loop with one client: one process runs the cases
one after another. A round runs the whole case set once, in an order drawn
from the seed; each timed worker process runs as many rounds as fit its share
of the run. Where a population is too large for a round of about two seconds,
the case set is a fixed size-stratified subset of it (the middle element of
each run of ``stride`` consecutive cases in size order), so every round and
every seed measures the same mix; simulated from measured per-case costs, a
seed-drawn sample of these heavy-tailed populations moved ``cases_per_s`` by
2-10 % between seeds.

``run`` executes one case and returns what the program answered; ``check``
compares that answer with the library's independent answer (the other
spectral route, a closed form, the suite verdicts, the biconditional, or a
reference computed at set-up). Checks compare by meaning, never by bytes.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import qcograph.cli as cli
import qcograph.cotree as cotree
import qcograph.enumeration as enumeration
import qcograph.families as families
import qcograph.graph as graph
import qcograph.oracle as oracle
import qcograph.recognition as recognition
import qcograph.spectra as spectra
import qcograph.verify as verify

VALUE_TOL = 1e-7


@dataclass
class Workload:
    name: str
    cases: list
    run: Callable[[Any], Any]  # one case -> the program's answer
    check: Callable[[Any, Any], bool]  # (case, answer) -> correct


def stratified(population: list, stride: int) -> list:
    """The middle element of each run of ``stride`` consecutive items."""
    return population[stride // 2 :: stride]


def same_values(got: list[float], want: list[float]) -> bool:
    return len(got) == len(want) and all(
        abs(g - w) <= VALUE_TOL for g, w in zip(sorted(got), sorted(want))
    )


def _cographs(max_n: int) -> list[str]:
    return [s for n in range(1, max_n + 1) for s in enumeration.enumerate_cographs(n).strings]


# --- enum-spectra: the criterion-2/3 table pipeline on n <= 9 ---------------


def enum_spectra_run(s: str) -> dict:
    t = cotree.parse(s)
    g = cotree.to_graph(t)
    recovered = cotree.from_graph(g)
    rep = cotree.bags(recovered)
    dense = spectra.q_spectrum(g)
    cotree.complement_cotree(t)
    return {
        "round_trip": cotree.canonical_string(recovered),
        "dense_mains": dense.main_values(),
        "condensed_mains": [v for v, main in spectra.main_eigs_condensed(spectra.condensed(rep)) if main],
        "r": rep.r,
    }


def enum_spectra_check(s: str, answer: dict) -> bool:
    return (
        answer["round_trip"] == s
        and same_values(answer["dense_mains"], answer["condensed_mains"])
        and len(answer["dense_mains"]) <= answer["r"]
    )


# --- two-main: the criterion-4 step on n <= 10 ------------------------------


def two_main_run(s: str) -> tuple[int, bool] | None:
    g = cotree.to_graph(cotree.parse(s))
    rep = recognition.classify(g)
    if not (rep.is_connected and rep.is_quasi_threshold):
        return None
    k = spectra.q_spectrum(g).main_count
    return k, oracle.predict_two_main_forms(g) is not None


def two_main_check(s: str, answer: tuple[int, bool] | None) -> bool:
    """k == 2 iff a two-main structural form parses (connected quasi-threshold only)."""
    return answer is None or (answer[0] == 2) == answer[1]


# --- family-grid: one h-families verification per default-grid spec --------


def family_grid_run(case: tuple[str, dict, int]) -> list[bool]:
    family, params, _ = case
    return [c.passed for c in verify.run_verify("h-families", grid={"families": {family: [params]}})]


def family_grid_check(case, verdicts: list[bool]) -> bool:
    return bool(verdicts) and all(verdicts)


# --- cli: one qcograph CLI request per case ---------------------------------


@dataclass
class SpectrumRef:
    """Dense eigenvalues by LAPACK and main values by an independent route."""

    eigenvalues: list[float]
    mains: list[float]


@dataclass
class Request:
    name: str
    argv: list[str]
    ref: Any
    accepts: Callable[[str, Any], bool] = field(repr=False)


def _q_eigenvalues(g) -> list[float]:
    a = g.adj.astype(float)
    return sorted(np.linalg.eigvalsh(np.diag(a.sum(axis=1)) + a).tolist())


def _spectrum_matches(groups: list[tuple[float, int, bool]], main_count: int, ref: SpectrumRef) -> bool:
    values = sorted(v for v, mult, _ in groups for _ in range(mult))
    mains = [v for v, _, main in groups if main]
    return (
        main_count == len(mains) == len(ref.mains)
        and same_values(values, ref.eigenvalues)
        and same_values(mains, ref.mains)
    )


def _accept_spectrum_json(out: str, ref: SpectrumRef) -> bool:
    data = json.loads(out)
    groups = [(g["value"], g["multiplicity"], g["main"]) for g in data["groups"]]
    return _spectrum_matches(groups, data["main_count"], ref)


def _accept_spectrum_table(out: str, ref: SpectrumRef) -> bool:
    lines = out.strip().splitlines()
    main_count = int(lines[0].split("main_count =")[1])
    groups = []
    for line in lines[2:]:
        value, mult, main, _ = line.split()
        groups.append((float(value), int(mult), main == "true"))
    return _spectrum_matches(groups, main_count, ref)


def _accept_classify(out: str, ref: dict) -> bool:
    got = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(": ")
        got[key] = ast.literal_eval(value)
    flags = {k: v for k, v in got.items() if k != "witness"}
    want = {k: v for k, v in ref.items() if k != "witness"}
    return flags == want and (got.get("witness") is None) == (ref["witness"] is None)


def _accept_condensed(out: str, ref: dict) -> bool:
    data = json.loads(out)
    mains = [e["value"] for e in data["eigenvalues"] if e["main"]]
    return data["r"] == ref["r"] and same_values(mains, ref["mains"])


def _accept_sweep(out: str, ref: dict) -> bool:
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    if len(rows) != len(ref):
        return False
    for row in rows:
        want = ref.get(tuple(int(row[p]) for p in ("s", "p1", "p2", "p3")))
        if want is None:
            return False
        mains = [float(x) for x in row["mains"].split(";")] if row["mains"] else []
        if not (
            (int(row["n"]), int(row["m"]), int(row["r"])) == (want["n"], want["m"], want["r"])
            and int(row["main_count"]) == len(want["mains"])
            and same_values(mains, want["mains"])
            and all(row[flag] == str(value).lower() for flag, value in want["flags"].items())
        ):
            return False
    return True


def _accept_verify(out: str, ref: int) -> bool:
    passed, _, total = out.strip().splitlines()[-1].split(": ")[1].split()[0].partition("/")
    return int(passed) == int(total) == ref


H6_LARGEST = {"family": "H6", "params": {"s": 5, "p1": 2, "p2": 2, "p3": 2}}
DENSE_JOIN = "J(3, U(2*J(6,U(7,8)),2*J(17),2*J(7)))"  # n = 93
EDGE_GRAPH = "J(2, U(J(3,U(4)), J(U(2,J(3)),U(5)), 3*J(2), J(1,U(3,J(2,U(2))))))"
CONDENSED = "J(2,U(3,J(2,U(2))),U(J(3),J(1,U(2))))"
SWEEP = {"family": "H6", "params": {"s": [1, 3], "p1": [1, 2], "p2": 1, "p3": 1}}
FLAGS = ("is_cograph", "is_chordal", "is_quasi_threshold", "is_threshold", "is_bipartite", "is_regular", "is_complete", "is_connected")


def _condensed_mains(t) -> list[float]:
    return [v for v, main in spectra.main_eigs_condensed(spectra.condensed(cotree.bags(t))) if main]


def _relabelled(g):
    """The graph with its vertices in a fixed scrambled order, so edge input is not cotree order."""
    order = list(range(g.n))
    random.Random(0).shuffle(order)
    return graph.Graph(g.adj[np.ix_(order, order)])


def _edge_text(g) -> str:
    edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.adj[u, v]]
    return "\n".join([f"{g.n} {len(edges)}", *(f"{u} {v}" for u, v in edges)]) + "\n"


def cli_requests(workdir: Path) -> list[Request]:
    """The seven requests, with references computed here at set-up."""
    spec = families.FamilySpec.from_json_dict(H6_LARGEST)
    _, h6 = families.build(spec)
    dense_tree = cotree.parse(DENSE_JOIN)
    edge_tree = cotree.parse(EDGE_GRAPH)
    edge_graph = _relabelled(cotree.to_graph(edge_tree))
    edge_file = workdir / "graph.edges"
    edge_file.write_text(_edge_text(edge_graph))
    condensed_tree = cotree.parse(CONDENSED)
    sweep_ref = {}
    for s in SWEEP["params"]["s"]:
        for p1 in SWEEP["params"]["p1"]:
            point = families.FamilySpec.make("H6", s=s, p1=p1, p2=1, p3=1)
            t, g = families.build(point)
            report = recognition.classify(g)
            sweep_ref[(s, p1, 1, 1)] = {
                "n": g.n,
                "m": g.m,
                "r": cotree.bags(t).r,
                "mains": families.expected_mains(point),
                "flags": {flag: getattr(report, flag) for flag in FLAGS},
            }
    return [
        Request(
            "spectrum-family-json",
            ["spectrum", "--family", json.dumps(H6_LARGEST), "--json"],
            SpectrumRef(_q_eigenvalues(h6), families.expected_mains(spec)),
            _accept_spectrum_json,
        ),
        Request(
            "spectrum-cotree",
            ["spectrum", "--cotree", DENSE_JOIN],
            SpectrumRef(_q_eigenvalues(cotree.to_graph(dense_tree)), _condensed_mains(dense_tree)),
            _accept_spectrum_table,
        ),
        Request(
            "spectrum-edges",
            ["spectrum", "--edges", str(edge_file)],
            SpectrumRef(_q_eigenvalues(edge_graph), _condensed_mains(edge_tree)),
            _accept_spectrum_table,
        ),
        Request(
            "classify-edges",
            ["classify", "--edges", str(edge_file)],
            recognition.classify(edge_graph).to_json_dict(),
            _accept_classify,
        ),
        Request(
            "condensed-json",
            ["condensed", "--cotree", CONDENSED, "--json"],
            {
                "r": cotree.bags(condensed_tree).r,
                "mains": spectra.q_spectrum(cotree.to_graph(condensed_tree)).main_values(),
            },
            _accept_condensed,
        ),
        Request("sweep", ["sweep", "--family", json.dumps(SWEEP)], sweep_ref, _accept_sweep),
        Request(
            "verify",
            ["verify", "--theorem", "spectra-closed-forms"],
            len(verify.run_verify("spectra-closed-forms")),
            _accept_verify,
        ),
    ]


def cli_run(req: Request) -> tuple[int, str]:
    """The request through ``qcograph.cli.main`` in this process, stdout captured.

    In process, not as a ``python -m qcograph.cli`` child: a child's CPU time
    is mostly interpreter start and imports, which vary by 15-40 % with the
    vCPU it lands on, and the calibration in this process cannot follow
    that. Interpreter start and imports are measured by ``setup_s``.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(req.argv)
        except SystemExit as exc:  # argparse exits on usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def cli_check(req: Request, answer: tuple[int, str]) -> bool:
    code, out = answer
    return code == 0 and req.accepts(out, req.ref)


# --- the registry -----------------------------------------------------------


def _family_cases() -> list[tuple[str, dict, int]]:
    grids = families.default_grids()
    sized = [
        (fam, spec.param_dict(), families.build(spec)[1].n) for fam in sorted(grids) for spec in grids[fam]
    ]
    return sorted(sized, key=lambda case: case[2])  # stable: grid order within one size


def make(name: str, workdir: Path) -> Workload:
    """Set up one workload. This is the set-up that ``setup_s`` times."""
    if name == "enum-spectra":
        cases = stratified(_cographs(9), 8)
        return Workload(name, cases, enum_spectra_run, enum_spectra_check)
    if name == "two-main":
        cases = stratified(_cographs(10), 16)
        return Workload(name, cases, two_main_run, two_main_check)
    if name == "family-grid":
        cases = stratified(_family_cases(), 24)
        return Workload(name, cases, family_grid_run, family_grid_check)
    if name == "cli":
        return Workload(name, cli_requests(workdir), cli_run, cli_check)
    raise ValueError(f"unknown workload {name!r}")
