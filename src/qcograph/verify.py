"""Theorem verification suites producing deterministic machine-readable cases."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator

from .cotree import JOIN, UNION, Cotree, Internal, Leaf, _from_graph, bags, parse, to_graph
from .enumeration import ENUMERATION_CAP, enumerate_cographs, enumerate_cotrees
from .families import (
    FamilySpec,
    build_cotree,
    default_grid,
    default_grids,
    expected_mains,
    mains_core_union,
    sigma_bipartite_join,
    sigma_complete,
)
from .graph import Graph, bipartition, complement, union
from .oracle import predict_main_count, predict_two_main_forms, zero_is_q_main
from .recognition import (
    NotApplicable,
    classify,
    connectivity_report,
    is_complete,
    is_connected,
    parse_generalized_core_satellite,
)
from .spectra import main_count_exact, q_spectrum, q_spectrum_cotree

__all__ = ["VerificationCase", "THEOREM_IDS", "run_verify", "cases_to_csv"]

VALUE_TOL = 1e-7
KAPPA_TOL = 1e-8
_SEED = 20230901


@dataclass(frozen=True)
class VerificationCase:
    case_id: str
    input: str
    predicted: str
    computed: str
    verdict: str  # PASS | FAIL
    residual: float

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"


# A suite yields one row per case: (key, input, predicted, computed, ok,
# residual); run_verify names the case "<prefix>[<key>]".
_Row = tuple[str, str, str, str, bool, float]


def _iter_enumerated(max_n: int) -> Iterator[tuple[str, Cotree]]:
    """Every cograph on 1..max_n vertices as (canonical string, canonical tree)."""
    for n in range(1, max_n + 1):
        yield from zip(enumerate_cographs(n).strings, enumerate_cotrees(n))


def _approx_subset(xs: list[float], ys: list[float]) -> float:
    """Worst distance from each x to its nearest y (inf if ys empty)."""
    worst = 0.0
    for x in xs:
        d = min((abs(x - y) for y in ys), default=float("inf"))
        worst = max(worst, d)
    return worst


def _set_distance(xs: list[float], ys: list[float]) -> float:
    """Symmetric matching distance between two value sets."""
    return max(_approx_subset(xs, ys), _approx_subset(ys, xs))


def _fmt_vals(vals: list[float]) -> str:
    return "{" + "; ".join(format(v, ".12g") for v in vals) + "}"


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _width_bound(max_n: int) -> Iterator[_Row]:
    """Number of main eigenvalues never exceeds the cotree width."""
    for s, t in _iter_enumerated(max_n):
        r = bags(t).r
        k = q_spectrum(to_graph(t)).main_count
        yield s, s, f"k <= {r}", f"k = {k}", k <= r, max(0, k - r)


def _complement_invariance(max_n: int) -> Iterator[_Row]:
    """A graph and its complement have the same number of main eigenvalues."""

    def row(key: str, input_: str, g: Graph) -> _Row:
        k = q_spectrum(g).main_count
        kc = q_spectrum(complement(g)).main_count
        return key, input_, f"k = {k}", f"k(complement) = {kc}", k == kc, abs(k - kc)

    for s, t in _iter_enumerated(max_n):
        yield row(s, s, to_graph(t))
    rng = random.Random(_SEED)
    found = 0
    while found < 200:
        n = rng.randint(4, 10)
        g = Graph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        )
        if _from_graph(g) is None:  # only non-cographs in this arm
            yield row(f"random-{found}", f"random n={n} m={g.m} #{found}", g)
            found += 1


def _zero_main_union(max_n: int) -> Iterator[_Row]:
    """Main eigenvalues of a disjoint union are the set union of each side's;
    adding isolated vertices always makes 0 a main eigenvalue."""
    rng = random.Random(_SEED)
    pool = list(_iter_enumerated(max_n))
    cache: dict[str, tuple[Graph, list[float]]] = {}

    def mains_of(s: str, t: Cotree) -> tuple[Graph, list[float]]:
        if s not in cache:
            g = to_graph(t)
            cache[s] = (g, q_spectrum(g).main_values())
        return cache[s]

    for i in range(200):
        (s1, t1), (s2, t2) = rng.choice(pool), rng.choice(pool)
        g1, m1 = mains_of(s1, t1)
        g2, m2 = mains_of(s2, t2)
        got = q_spectrum(union(g1, g2)).main_values()
        # collapse near-duplicates across the two sides before comparing
        merged: list[float] = []
        for v in sorted(m1 + m2, reverse=True):
            if not merged or abs(merged[-1] - v) > VALUE_TOL:
                merged.append(v)
        dist = _set_distance(got, merged)
        yield f"pair-{i}", f"{s1} | {s2}", _fmt_vals(merged), _fmt_vals(got), dist <= VALUE_TOL, dist
    for p in (1, 2, 3):
        for i in range(50):
            s, t = rng.choice(pool)
            g, _ = mains_of(s, t)
            mains = q_spectrum(union(Graph.empty(p), g)).main_values()
            dist = min(abs(v) for v in mains)
            yield f"kbar-{p}-{i}", f"E({p}) | {s}", "0 is main", _fmt_vals(mains), dist <= VALUE_TOL, dist


def _two_main_characterization(max_n: int) -> Iterator[_Row]:
    """Connected quasi-threshold graphs: exactly two mains iff clique-join of
    two distinct-order satellites or of t>=2 equal-order satellites. k is
    the exact count on the symmetry-class tree; acceptance criterion 4
    checks the same biconditional with the dense q_spectrum."""
    for s, t in _iter_enumerated(max_n):
        try:
            form = predict_two_main_forms(t)
        except NotApplicable:  # disconnected or not quasi-threshold
            continue
        k = main_count_exact(t)
        ok = (k == 2) == (form is not None)
        present = "present" if form is not None else "absent"
        yield s, s, f"form {present}: {form}", f"k = {k}", ok, 0.0 if ok else 1.0


def _gcs_count(specs: list[FamilySpec]) -> Iterator[_Row]:
    """Generalized core-satellite graphs have exactly the predicted main count."""
    for spec in specs:
        t = build_cotree(spec)
        pred = predict_main_count(t)
        k = main_count_exact(t)
        desc = str(spec.to_json_dict())
        yield desc, desc, f"k = {pred.k} ({pred.rule})", f"k = {k}", k == pred.k, abs(k - pred.k)


def _join_kc(max_n: int) -> Iterator[_Row]:
    """Joining K_c onto a cograph with k >= 2 mains gives k or k+1 mains,
    both counted exactly (acceptance criterion 9 checks the law densely).

    The zero-main form ("k+1 iff 0 is not a main eigenvalue of the
    complement") is the exact law and is checked on every graph. The
    bipartite form ("k+1 iff the complement is non-bipartite") is exact only
    where the complement is connected, so it is checked only there; it fails
    when the complement mixes a non-bipartite component with an unbalanced
    bipartite one (smallest case: the star on 4 vertices).
    """
    for s, t in _iter_enumerated(max_n):
        k = main_count_exact(t)
        if k < 2:
            continue
        comp = complement(to_graph(t))
        comp_connected = is_connected(comp)
        non_bip = bipartition(comp) is None
        zero_main = zero_is_q_main(comp)
        want_bip = k + 1 if non_bip else k
        want_zero = k if zero_main else k + 1
        bip_why = f"complement {'non-bipartite' if non_bip else 'bipartite'}"
        zero_why = f"0 {'is' if zero_main else 'is not'} a main of the complement"
        for c in (1, 2):
            got = main_count_exact(Internal(JOIN, (Leaf(),) * c + (t,)))
            if comp_connected:
                yield (f"bipartite-form,c={c},{s}", s, f"k = {want_bip} (k(g)={k}, {bip_why})", f"k = {got}",
                       got == want_bip, abs(got - want_bip))
            yield (f"zero-main-form,c={c},{s}", s, f"k = {want_zero} (k(g)={k}, {zero_why})", f"k = {got}",
                   got == want_zero and got in (k, k + 1), abs(got - want_zero))


def _closed_form_row(key: str, expr: str, want: list[tuple[float, int, bool]]) -> _Row:
    """The (value, multiplicity, main) groups of the cograph expr, read off
    its cotree's bags, against a closed-form spectrum."""
    got = [(grp.value, grp.multiplicity, grp.main) for grp in q_spectrum_cotree(parse(expr)).groups]
    if len(got) != len(want):
        ok, resid = False, abs(len(got) - len(want))
    elif any(gm != wm or gf != wf for (_, gm, gf), (_, wm, wf) in zip(got, want)):
        ok, resid = False, 1.0
    else:
        resid = max(abs(gv - wv) for (gv, _, _), (wv, _, _) in zip(got, want))
        ok = resid <= VALUE_TOL
    return key, expr, str(want), str(got), ok, resid


def _spectra_closed_forms() -> Iterator[_Row]:
    """Closed-form spectra and integer-eigenvalue families against the cotree
    route (acceptance criteria 1 and 7 check the dense route against them)."""
    for n in range(1, 9):
        yield _closed_form_row(f"K_{n}", f"K({n})", sigma_complete(n))
    for a in range(1, 6):
        for b in range(1, 6):
            yield _closed_form_row(f"bipartite-join-{a}-{b}", f"J(E({a}),E({b}))", sigma_bipartite_join(a, b))
    for a in range(1, 6):
        for b in range(2, 7):
            spec = FamilySpec.make("CompleteSplit", a=a, b=b)
            got = q_spectrum_cotree(build_cotree(spec)).main_values()
            want = expected_mains(spec)
            dist = _set_distance(got, want)
            yield (f"complete-split-{a}-{b}", f"CompleteSplit(a={a},b={b})", _fmt_vals(want), _fmt_vals(got),
                   dist <= VALUE_TOL and len(got) == len(want), dist)
    for c in range(1, 4):
        for a in range(1, 4):
            for b in range(1, 5):
                if a == b:
                    continue
                (q1, q2), nonmain, mult = mains_core_union(c, a, b)
                rep = q_spectrum_cotree(build_cotree(FamilySpec.make("CoreUnion", c=c, a=a, b=b)))
                got = rep.main_values()
                dist = _set_distance(got, [q1, q2])
                got_mult = sum(
                    grp.multiplicity
                    for grp in rep.groups
                    if abs(grp.value - nonmain) <= rep.tol_group and not grp.main
                )
                ok = dist <= VALUE_TOL and len(got) == 2 and got_mult == mult
                yield (
                    f"core-union-{c}-{a}-{b}",
                    f"CoreUnion(c={c},a={a},b={b})",
                    f"mains {_fmt_vals([q1, q2])}, non-main {nonmain} mult {mult}",
                    f"mains {_fmt_vals(got)}, mult {got_mult}",
                    ok,
                    dist,
                )
    # integer-spectrum parameter lines
    for s in range(1, 9):
        for label, spec, want in (
            (
                f"split-8s-4[s={s}]",
                FamilySpec.make("CompleteSplit", a=2 * s - 1, b=3 * s),
                [8 * s - 4, s - 1],
            ),
            (
                f"consecutive-5s+2[s={s}]",
                FamilySpec.make("CoreUnion", c=s, a=s + 1, b=s + 2),
                [5 * s + 2, 2 * s],
            ),
            (
                f"equal-5s-2[s={s}]",
                FamilySpec.make("CoreSatellite", c=s, t=2, a=s),
                [5 * s - 2, 2 * s - 2],
            ),
        ):
            got = q_spectrum_cotree(build_cotree(spec)).main_values()
            dist = _set_distance(got, [float(x) for x in want])
            int_resid = max((abs(v - round(v)) for v in got), default=0.0)
            ok = dist <= VALUE_TOL and int_resid <= VALUE_TOL and len(got) == 2
            yield (f"integer-{label}", str(spec.to_json_dict()), _fmt_vals([float(x) for x in want]), _fmt_vals(got),
                   ok, max(dist, int_resid))


def _h_families(specs: list[FamilySpec]) -> Iterator[_Row]:
    """Every configured H-family instance has its stated two mains, and joining
    K_c (c = 1..3) onto it yields exactly three mains."""
    for spec in specs:
        t = build_cotree(spec)
        desc = str(spec.to_json_dict())
        want = expected_mains(spec)
        rep = q_spectrum_cotree(t)
        got = rep.main_values()
        dist = _set_distance(got, want) if want is not None else float("nan")
        ok = want is not None and len(got) == len(want) and dist <= VALUE_TOL
        yield f"mains,{desc}", desc, _fmt_vals(want or []), _fmt_vals(got), ok, dist
        if rep.main_count != 2:
            continue  # join law below presumes two mains (grids ensure it)
        k_c_joins = [Internal(JOIN, (Leaf(),) * c + (t,)) for c in (1, 2, 3)]
        for c, k_c_join in enumerate(k_c_joins, start=1):
            kj = main_count_exact(k_c_join)
            yield f"join,c={c},{desc}", desc, "k = 3", f"k = {kj}", kj == 3, abs(kj - 3)
        # the K_1 join is generalized core-satellite iff every component
        # of the instance (the root, or each child of a U root) is
        # complete: each of its k vertices has degree k - 1
        sat = parse_generalized_core_satellite(k_c_joins[0])
        parts = t.children if isinstance(t, Internal) and t.kind == UNION else (t,)
        all_complete = all(part.degree == part.n - 1 for part in parts)
        ok = (sat is not None) == all_complete
        yield (
            f"gcs-parse,{desc}",
            desc,
            "parses as core-satellite" if all_complete else "not core-satellite",
            "parses" if sat is not None else "does not parse",
            ok,
            0.0 if ok else 1.0,
        )


def _kappa_eq_a(max_n: int) -> Iterator[_Row]:
    """Vertex connectivity equals algebraic connectivity on connected
    non-complete cographs (complete graphs have kappa = n-1 but a = n)."""
    for s, t in _iter_enumerated(max_n):
        g = to_graph(t)
        if not is_connected(g) or is_complete(g):
            continue
        rep = connectivity_report(g, tol=KAPPA_TOL)
        fiedler_ok = rep.algebraic <= rep.kappa + KAPPA_TOL
        yield (s, s, f"kappa = a(G) = {rep.kappa}", f"a(G) = {rep.algebraic!r}", rep.equal_flag and fiedler_ok,
               abs(rep.kappa - rep.algebraic))


def _regular_chordal_complete(max_n: int) -> Iterator[_Row]:
    """Connected regular chordal cographs are complete."""
    for s, t in _iter_enumerated(max_n):
        report = classify(t)
        if not (report.is_connected and report.is_regular and report.is_chordal):
            continue
        complete = report.is_complete
        yield s, s, "complete", "complete" if complete else "not complete", complete, 0.0 if complete else 1.0


def _nonmain_multiplicities(max_n: int) -> Iterator[_Row]:
    """Each J-bag forces eigenvalue p-1 (U-bag: p) with multiplicity >= t-1,
    and those eigenvalues are non-main when they exhaust the spectrum."""
    for s, t in _iter_enumerated(max_n):
        rep = q_spectrum(to_graph(t))
        shortfall = 0
        detail = []
        for bag in bags(t).bags:
            if bag.t < 2:
                continue
            target = bag.p - 1 if bag.kind == "J" else bag.p
            mult = sum(
                grp.multiplicity for grp in rep.groups if abs(grp.value - target) <= rep.tol_group
            )
            detail.append(f"{bag.kind}-bag(t={bag.t},p={bag.p}): mult({target}) = {mult}")
            shortfall = max(shortfall, (bag.t - 1) - mult)
        computed = "; ".join(detail) if detail else "no bags with t >= 2"
        yield s, s, "multiplicity floors t_i - 1", computed, shortfall <= 0, max(0, shortfall)


# ---------------------------------------------------------------------------
# grid parsers: None gives the built-in grid
# ---------------------------------------------------------------------------


def _gcs_grid(grid: object) -> list[FamilySpec]:
    if grid is None:
        return default_grid("GeneralizedCoreSatellite")
    specs = grid.get("specs") if isinstance(grid, dict) else None
    if not isinstance(specs, list) or not specs:
        raise ValueError('gcs-count grid must look like {"specs": [family spec, ...]} with at least one spec')
    return [FamilySpec.from_json_dict(d) for d in specs]


def _h_families_grid(grid: object) -> list[FamilySpec]:
    if grid is None:
        grids = default_grids()
        return [spec for family in sorted(grids) for spec in grids[family]]
    families = grid.get("families") if isinstance(grid, dict) else None
    shaped = isinstance(families, dict) and all(isinstance(p, list) for p in families.values())
    if not shaped or not any(families.values()):
        raise ValueError('h-families grid must look like {"families": {name: [params, ...]}} with at least one params dict')
    return [
        FamilySpec.from_json_dict({"family": family, "params": params})
        for family in sorted(families)
        for params in families[family]
    ]


@dataclass(frozen=True)
class _Suite:
    prefix: str  # case ids read "<prefix>[<key>]"
    rows: Callable[..., Iterator[_Row]]  # called with max_n, with the parsed grid, or with nothing
    max_n: int | None = None  # default --max-n; None: the suite takes no --max-n
    grid: Callable[[object], list[FamilySpec]] | None = None  # --grid parser; None: the suite takes no --grid


_SUITES: dict[str, _Suite] = {
    "width-bound": _Suite("width-bound", _width_bound, max_n=9),
    "complement-invariance": _Suite("complement-invariance", _complement_invariance, max_n=9),
    "zero-main-union": _Suite("zero-main-union", _zero_main_union, max_n=7),
    "two-main-characterization": _Suite("two-main", _two_main_characterization, max_n=10),
    "gcs-count": _Suite("gcs-count", _gcs_count, grid=_gcs_grid),
    "join-kc": _Suite("join-kc", _join_kc, max_n=8),
    "spectra-closed-forms": _Suite("closed-forms", _spectra_closed_forms),
    "h-families": _Suite("h-families", _h_families, grid=_h_families_grid),
    "kappa-eq-a": _Suite("kappa-eq-a", _kappa_eq_a, max_n=8),
    "regular-chordal-complete": _Suite("regular-chordal-complete", _regular_chordal_complete, max_n=8),
    "nonmain-multiplicities": _Suite("nonmain-multiplicities", _nonmain_multiplicities, max_n=9),
}

THEOREM_IDS = tuple(sorted(_SUITES))


def run_verify(
    theorem_id: str,
    max_n: int | None = None,
    grid: dict | None = None,
) -> list[VerificationCase]:
    """Run one theorem suite.

    max_n (1..ENUMERATION_CAP) overrides the enumeration bound of the
    suites that enumerate cographs. grid (parsed JSON) overrides the
    built-in grid of two suites: gcs-count takes {"specs": [family spec,
    ...]}, each spec shaped as {"family": name, "params": {...}};
    h-families takes {"families": {name: [params, ...]}}, each params a
    dict. Either needs at least one spec. Anything else is a ValueError,
    raised before the suite runs.
    """
    suite = _SUITES.get(theorem_id)
    if suite is None:
        raise ValueError(f"unknown theorem id {theorem_id!r}; valid: {', '.join(THEOREM_IDS)}")
    if max_n is not None:
        if suite.max_n is None:
            raise ValueError(f"{theorem_id} does not take --max-n")
        if isinstance(max_n, bool) or not isinstance(max_n, int) or not 1 <= max_n <= ENUMERATION_CAP:
            raise ValueError(f"--max-n must be an integer in 1..{ENUMERATION_CAP}, got {max_n!r}")
    if grid is not None and suite.grid is None:
        raise ValueError(f"{theorem_id} does not take --grid")
    if suite.max_n is not None:
        args: tuple = (suite.max_n if max_n is None else max_n,)
    elif suite.grid is not None:
        args = (suite.grid(grid),)
    else:
        args = ()
    return [
        VerificationCase(f"{suite.prefix}[{key}]", input_, predicted, computed, "PASS" if ok else "FAIL", float(residual))
        for key, input_, predicted, computed, ok, residual in suite.rows(*args)
    ]


def cases_to_csv(cases: list[VerificationCase]) -> str:
    """Deterministic CSV rendering (no volatile fields)."""
    lines = ["case_id,input,predicted,computed,verdict,residual"]
    for c in cases:
        fields = [c.case_id, c.input, c.predicted, c.computed, c.verdict, format(c.residual, ".17g")]
        lines.append(",".join(f.replace(",", ";") for f in fields[:-1]) + "," + fields[-1])
    return "\n".join(lines) + "\n"
