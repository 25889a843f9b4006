"""Command-line frontend.

Exit codes: 0 success / all cases pass, 1 any verification FAIL, 2 usage
error, 3 internal contradiction (a structural guarantee failed).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .cotree import (
    Cotree,
    _from_graph,
    _refuse_bags,
    bags,
    canonical_string,
    canonicalize,
    parse,
)
from .enumeration import enumerate_cographs
from .families import FamilySpec, _spec_bag_count, build, build_cotree
from .graph import Graph, format_edge_list, parse_edge_list
from .recognition import InternalContradiction, classify
from .spectra import condensed, dumps_17g, main_eigs_condensed, q_spectrum, q_spectrum_cotree, report_to_json
from .sweep import SWEEP_CAP, sweep, sweep_to_csv
from .verify import THEOREM_IDS, cases_to_csv, run_verify

__all__ = ["main"]


def _read_json_file(path: str):
    """The JSON value in a file; a file that does not parse is a usage error naming it."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _load_json_arg(value: str):
    """Accept inline JSON or a path to a JSON file."""
    try:
        return json.loads(value)
    except json.JSONDecodeError:
        pass
    if Path(value).exists():
        return _read_json_file(value)
    raise ValueError(f"not valid JSON and not an existing file: {value!r}")


def _load_config(path: str | None, command: str, allowed: set[str]) -> dict:
    """The config file's settings; a key the command does not use is a usage error."""
    if path is None:
        return {}
    cfg = _read_json_file(path)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(cfg) - allowed
    if unknown:
        raise ValueError(f"config keys not used by {command}: {sorted(unknown)} (it takes {sorted(allowed)})")
    for key in ("tol_group", "tol_main"):
        if key in cfg and (isinstance(cfg[key], bool) or not isinstance(cfg[key], (int, float))):
            raise ValueError(f"config {key} must be a number, got {cfg[key]!r}")
    return cfg


def _input_from_args(args) -> Cotree | Graph:
    """The cotree (--cotree, --family) or the graph (--edges) the arguments name."""
    sources = [s for s in ("cotree", "edges", "family") if getattr(args, s, None)]
    if len(sources) != 1:
        raise ValueError("exactly one of --cotree, --edges, --family is required")
    src = sources[0]
    if src == "cotree":
        return parse(args.cotree)
    if src == "edges":
        return parse_edge_list(Path(args.edges).read_text())
    # only spectrum takes --family, and its bags refuse a wide tree: count
    # them off the parameters before any node is built
    spec = FamilySpec.from_json_dict(_load_json_arg(args.family))
    _refuse_bags(_spec_bag_count(spec))
    return build_cotree(spec)


def _cmd_spectrum(args) -> int:
    cfg = _load_config(args.config, "spectrum", {"tol_group", "tol_main"})
    tol_group = args.tol_group if args.tol_group is not None else cfg.get("tol_group")
    tol_main = args.tol_main if args.tol_main is not None else cfg.get("tol_main")
    source = _input_from_args(args)
    recovered = _from_graph(source) if isinstance(source, Graph) and source.n else None
    if recovered is not None:
        # a cograph's report is that of its canonical cotree: it depends only on the isomorphism class
        source = canonicalize(recovered[0])
    if isinstance(source, Graph):  # not a cograph, or no vertex: the dense route
        rep = q_spectrum(source, tol_group=tol_group, tol_main=tol_main)
    else:
        rep = q_spectrum_cotree(source, tol_group=tol_group, tol_main=tol_main)
    if args.json:
        print(report_to_json(rep))
    else:
        print(f"n = {rep.n}, main_count = {rep.main_count}")
        print(f"{'value':>22}  {'mult':>4}  {'main':>5}  {'projection_norm':>18}")
        for grp in rep.groups:
            print(
                f"{grp.value:>22.12g}  {grp.multiplicity:>4}  {str(grp.main).lower():>5}"
                f"  {grp.projection_norm:>18.12g}"
            )
    return 0


def _cmd_classify(args) -> int:
    source = _input_from_args(args)
    report = classify(source)
    if args.json:
        print(dumps_17g(report.to_json_dict()))
    else:
        for key, value in report.to_json_dict().items():
            print(f"{key}: {value}")
    return 0


def _cmd_condensed(args) -> int:
    t = parse(args.cotree)
    b = bags(t)
    c = condensed(b)
    mains = main_eigs_condensed(c)
    if args.json:
        payload = {
            "r": c.r,
            "bags": [
                {"kind": bag.kind, "t": bag.t, "p": bag.p, "members": list(bag.members)}
                for bag in b.bags
            ],
            "entries": [[float(x) for x in row] for row in c.entries],
            "eigenvalues": [{"value": v, "main": flag} for v, flag in mains],
        }
        print(dumps_17g(payload))
    else:
        print(f"width r = {c.r}")
        for bag in b.bags:
            print(f"  {bag.kind}-bag t={bag.t} p={bag.p} members={list(bag.members)}")
        for row in c.entries:
            print("  [" + "  ".join(f"{x:10.6g}" for x in row) + "]")
        for v, flag in mains:
            print(f"  eigenvalue {v:.12g} {'main' if flag else 'non-main'}")
    return 0


def _cmd_build(args) -> int:
    spec = FamilySpec.from_json_dict(_load_json_arg(args.family))
    if args.emit == "cotree":
        print(canonical_string(build_cotree(spec)))
    else:
        sys.stdout.write(format_edge_list(build(spec)[1]))
    return 0


def _cmd_verify(args) -> int:
    grid = _load_json_arg(args.grid) if args.grid else None
    cases = run_verify(args.theorem, max_n=args.max_n, grid=grid)
    if args.report:
        Path(args.report).write_text(cases_to_csv(cases))
    failures = [c for c in cases if not c.passed]
    for c in failures:
        print(f"FAIL {c.case_id}: predicted {c.predicted}; computed {c.computed}")
    print(f"{args.theorem}: {len(cases) - len(failures)}/{len(cases)} cases pass")
    return 1 if failures else 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config, "sweep", {"sweep_cap"})
    pattern = _load_json_arg(args.family)
    header, rows = sweep(pattern, cap=cfg.get("sweep_cap", SWEEP_CAP))
    text = sweep_to_csv(header, rows)
    if args.out:
        Path(args.out).write_text(text)
        print(f"{len(rows)} rows -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_enumerate(args) -> int:
    index = enumerate_cographs(args.n)
    text = "\n".join(index.strings) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"n = {index.n}: {index.count} cographs -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


@functools.cache  # one build per process: parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qcograph",
        description="Cotree-built cographs, their signless Laplacian spectra and "
        "main eigenvalues, and verification of their structural laws.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_inputs(p, family: bool = True):
        p.add_argument("--cotree", help="cotree expression, e.g. 'J(2, U(J(1), J(2)))'")
        p.add_argument("--edges", help="path to an edge-list file ('n m' header, one 'u v' per line)")
        if family:
            p.add_argument("--family", help="family spec as inline JSON or a JSON file path")

    p = sub.add_parser("spectrum", help="grouped Q-spectrum with main flags")
    add_inputs(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--table", action="store_true", help="plain table output (default)")
    p.add_argument("--tol-group", type=float, default=None)
    p.add_argument("--tol-main", type=float, default=None)
    p.add_argument("--config", default=None, help="JSON config file (tol_group, tol_main)")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("classify", help="structural class flags")
    add_inputs(p, family=False)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("condensed", help="bag representation and condensed matrix")
    p.add_argument("--cotree", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_condensed)

    p = sub.add_parser("build", help="build a family instance")
    p.add_argument("--family", required=True)
    p.add_argument("--emit", choices=("cotree", "edges"), default="cotree")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="run a theorem verification suite")
    p.add_argument("--theorem", required=True, choices=THEOREM_IDS)
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--grid", default=None, help="JSON grid override (inline or file)")
    p.add_argument("--report", default=None, help="write cases to this CSV file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="sweep a family over ranged parameters")
    p.add_argument("--family", required=True, help="JSON with list-valued parameters")
    p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p.add_argument("--config", default=None, help="JSON config file (sweep_cap)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("enumerate", help="list all cographs on n vertices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_enumerate)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalContradiction as exc:
        print(f"internal contradiction: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
