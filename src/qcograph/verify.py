"""Theorem verification suites producing deterministic machine-readable cases."""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from .cotree import JOIN, UNION, Cotree, Internal, Leaf, bags, normalize, parse, to_graph
from .enumeration import enumerate_cographs
from .families import FamilySpec, build, build_cotree, default_grid, default_grids, expected_mains
from .graph import Graph, bipartition, complement, join, union
from .oracle import (
    mains_complete_split,
    mains_core_union,
    predict_main_count,
    predict_two_main_forms,
    sigma_bipartite_join,
    sigma_complete,
    zero_is_q_main,
)
from .recognition import (
    classify,
    connectivity_report,
    is_complete,
    is_connected,
    is_regular,
    parse_generalized_core_satellite,
)
from .spectra import q_spectrum, q_spectrum_cotree

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


def _case(case_id: str, input_: str, predicted: str, computed: str, ok: bool, residual: float) -> VerificationCase:
    return VerificationCase(
        case_id=case_id,
        input=input_,
        predicted=predicted,
        computed=computed,
        verdict="PASS" if ok else "FAIL",
        residual=float(residual),
    )


def _iter_enumerated(max_n: int, min_n: int = 1) -> Iterator[tuple[str, Cotree, Graph]]:
    for n in range(min_n, max_n + 1):
        for s in enumerate_cographs(n).strings:
            t = parse(s)
            yield s, t, to_graph(t)


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


def _verify_width_bound(max_n: int = 9) -> list[VerificationCase]:
    """Number of main eigenvalues never exceeds the cotree width."""
    out = []
    for s, t, g in _iter_enumerated(max_n):
        r = bags(t).r
        k = q_spectrum(g).main_count
        out.append(
            _case(f"width-bound[{s}]", s, f"k <= {r}", f"k = {k}", k <= r, max(0, k - r))
        )
    return out


def _verify_complement_invariance(max_n: int = 9, random_graphs: int = 200) -> list[VerificationCase]:
    """A graph and its complement have the same number of main eigenvalues."""
    out = []
    for s, _, g in _iter_enumerated(max_n):
        k = q_spectrum(g).main_count
        kc = q_spectrum(complement(g)).main_count
        out.append(
            _case(f"complement-invariance[{s}]", s, f"k = {k}", f"k(complement) = {kc}", k == kc, abs(k - kc))
        )
    rng = random.Random(_SEED)
    found = 0
    while found < random_graphs:
        n = rng.randint(4, 10)
        g = Graph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        )
        from .cotree import NotCograph, from_graph

        try:
            from_graph(g)
            continue  # only non-cographs in this arm
        except NotCograph:
            pass
        k = q_spectrum(g).main_count
        kc = q_spectrum(complement(g)).main_count
        desc = f"random n={n} m={g.m} #{found}"
        out.append(
            _case(f"complement-invariance[random-{found}]", desc, f"k = {k}", f"k(complement) = {kc}", k == kc, abs(k - kc))
        )
        found += 1
    return out


def _verify_zero_main_union(max_n: int = 7, pair_samples: int = 200) -> list[VerificationCase]:
    """Main eigenvalues of a disjoint union are the set union of each side's;
    adding isolated vertices always makes 0 a main eigenvalue."""
    rng = random.Random(_SEED)
    pool = [s for n in range(1, max_n + 1) for s in enumerate_cographs(n).strings]
    cache: dict[str, tuple[Graph, list[float]]] = {}

    def mains_of(s: str) -> tuple[Graph, list[float]]:
        if s not in cache:
            g = to_graph(parse(s))
            cache[s] = (g, q_spectrum(g).main_values())
        return cache[s]

    out = []
    for i in range(pair_samples):
        s1, s2 = rng.choice(pool), rng.choice(pool)
        g1, m1 = mains_of(s1)
        g2, m2 = mains_of(s2)
        got = q_spectrum(union(g1, g2)).main_values()
        # collapse near-duplicates across the two sides before comparing
        merged: list[float] = []
        for v in sorted(m1 + m2, reverse=True):
            if not merged or abs(merged[-1] - v) > VALUE_TOL:
                merged.append(v)
        dist = _set_distance(got, merged)
        out.append(
            _case(
                f"zero-main-union[pair-{i}]",
                f"{s1} | {s2}",
                _fmt_vals(merged),
                _fmt_vals(got),
                dist <= VALUE_TOL,
                dist,
            )
        )
    for p in (1, 2, 3):
        for i in range(50):
            s = rng.choice(pool)
            g, _ = mains_of(s)
            padded = union(Graph.empty(p), g)
            mains = q_spectrum(padded).main_values()
            dist = min(abs(v) for v in mains)
            out.append(
                _case(
                    f"zero-main-union[kbar-{p}-{i}]",
                    f"E({p}) | {s}",
                    "0 is main",
                    _fmt_vals(mains),
                    dist <= VALUE_TOL,
                    dist,
                )
            )
    return out


def _verify_two_main_characterization(max_n: int = 10) -> list[VerificationCase]:
    """Connected quasi-threshold graphs: exactly two mains iff clique-join of
    two distinct-order satellites or of t>=2 equal-order satellites."""
    out = []
    for s, t, g in _iter_enumerated(max_n):
        report = classify(t)
        if not (report.is_connected and report.is_quasi_threshold):
            continue
        k = q_spectrum(g).main_count
        form = predict_two_main_forms(t)
        ok = (k == 2) == (form is not None)
        out.append(
            _case(
                f"two-main[{s}]",
                s,
                f"form {'present' if form is not None else 'absent'}: {form}",
                f"k = {k}",
                ok,
                0.0 if ok else 1.0,
            )
        )
    return out


def _verify_gcs_count(grid: list[FamilySpec] | None = None) -> list[VerificationCase]:
    """Generalized core-satellite graphs have exactly the predicted main count."""
    out = []
    for spec in grid if grid is not None else default_grid("GeneralizedCoreSatellite"):
        pred = predict_main_count(spec)
        k = q_spectrum_cotree(build_cotree(spec)).main_count
        desc = str(spec.to_json_dict())
        out.append(
            _case(
                f"gcs-count[{desc}]",
                desc,
                f"k = {pred.k} ({pred.rule})",
                f"k = {k}",
                k == pred.k,
                abs(k - pred.k),
            )
        )
    return out


def _verify_join_kc(max_n: int = 8) -> list[VerificationCase]:
    """Joining K_c onto a cograph with k >= 2 mains gives k or k+1 mains.

    The zero-main form ("k+1 iff 0 is not a main eigenvalue of the
    complement") is the exact law and is checked on every graph. The
    bipartite form ("k+1 iff the complement is non-bipartite") is exact only
    where the complement is connected, so it is checked only there; it fails
    when the complement mixes a non-bipartite component with an unbalanced
    bipartite one (smallest case: the star on 4 vertices).
    """
    out = []
    for s, _, g in _iter_enumerated(max_n):
        k = q_spectrum(g).main_count
        if k < 2:
            continue
        comp = complement(g)
        comp_connected = is_connected(comp)
        non_bip = bipartition(comp) is None
        zero_main = zero_is_q_main(comp)
        want_bip = k + 1 if non_bip else k
        want_zero = k if zero_main else k + 1
        for c in (1, 2):
            got = q_spectrum(join(Graph.complete(c), g)).main_count
            if comp_connected:
                out.append(
                    _case(
                        f"join-kc[bipartite-form,c={c},{s}]",
                        s,
                        f"k = {want_bip} (k(g)={k}, complement {'non-bipartite' if non_bip else 'bipartite'})",
                        f"k = {got}",
                        got == want_bip,
                        abs(got - want_bip),
                    )
                )
            out.append(
                _case(
                    f"join-kc[zero-main-form,c={c},{s}]",
                    s,
                    f"k = {want_zero} (k(g)={k}, 0 {'is' if zero_main else 'is not'} a main of the complement)",
                    f"k = {got}",
                    got == want_zero and got in (k, k + 1),
                    abs(got - want_zero),
                )
            )
    return out


def _spectrum_tuples(g: Graph) -> list[tuple[float, int, bool]]:
    rep = q_spectrum(g)
    return [(grp.value, grp.multiplicity, grp.main) for grp in rep.groups]


def _merge_oracle(entries: list[tuple[float, int, bool]]) -> list[tuple[float, int, bool]]:
    """Merge oracle entries with equal values (multiplicities add, main flags or)."""
    merged: dict[float, tuple[int, bool]] = {}
    for value, mult, main in entries:
        if mult <= 0:
            continue
        old = merged.get(value, (0, False))
        merged[value] = (old[0] + mult, old[1] or main)
    return sorted(((v, m, f) for v, (m, f) in merged.items()), key=lambda e: -e[0])


def _compare_spectra(
    got: list[tuple[float, int, bool]], want: list[tuple[float, int, bool]]
) -> tuple[bool, float]:
    if len(got) != len(want):
        return False, float(abs(len(got) - len(want)))
    worst = 0.0
    for (gv, gm, gf), (wv, wm, wf) in zip(got, want):
        if gm != wm or gf != wf:
            return False, 1.0
        worst = max(worst, abs(gv - wv))
    return worst <= VALUE_TOL, worst


def _verify_spectra_closed_forms() -> list[VerificationCase]:
    """Closed-form spectra and integer-eigenvalue families against the solver."""
    out = []
    for n in range(1, 9):
        got = _spectrum_tuples(Graph.complete(n))
        want = _merge_oracle(sigma_complete(n))
        ok, resid = _compare_spectra(got, want)
        out.append(_case(f"closed-forms[K_{n}]", f"K({n})", str(want), str(got), ok, resid))
    for a in range(1, 6):
        for b in range(1, 6):
            g = to_graph(parse(f"J(E({a}),E({b}))"))
            got = _spectrum_tuples(g)
            want = _merge_oracle(sigma_bipartite_join(a, b))
            ok, resid = _compare_spectra(got, want)
            out.append(
                _case(f"closed-forms[bipartite-join-{a}-{b}]", f"J(E({a}),E({b}))", str(want), str(got), ok, resid)
            )
    for a in range(1, 6):
        for b in range(2, 7):
            _, g = build(FamilySpec.make("CompleteSplit", a=a, b=b))
            got = q_spectrum(g).main_values()
            want = list(mains_complete_split(a, b))
            dist = _set_distance(got, want)
            out.append(
                _case(
                    f"closed-forms[complete-split-{a}-{b}]",
                    f"CompleteSplit(a={a},b={b})",
                    _fmt_vals(want),
                    _fmt_vals(got),
                    dist <= VALUE_TOL and len(got) == len(want),
                    dist,
                )
            )
    for c in range(1, 4):
        for a in range(1, 4):
            for b in range(1, 5):
                if a == b:
                    continue
                (q1, q2), nonmain, mult = mains_core_union(c, a, b)
                _, g = build(FamilySpec.make("CoreUnion", c=c, a=a, b=b))
                rep = q_spectrum(g)
                got = rep.main_values()
                dist = _set_distance(got, [q1, q2])
                got_mult = sum(
                    grp.multiplicity
                    for grp in rep.groups
                    if abs(grp.value - nonmain) <= rep.tol_group and not grp.main
                )
                ok = dist <= VALUE_TOL and len(got) == 2 and got_mult == mult
                out.append(
                    _case(
                        f"closed-forms[core-union-{c}-{a}-{b}]",
                        f"CoreUnion(c={c},a={a},b={b})",
                        f"mains {_fmt_vals([q1, q2])}, non-main {nonmain} mult {mult}",
                        f"mains {_fmt_vals(got)}, mult {got_mult}",
                        ok,
                        dist,
                    )
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
            _, g = build(spec)
            got = q_spectrum(g).main_values()
            dist = _set_distance(got, [float(x) for x in want])
            int_resid = max((abs(v - round(v)) for v in got), default=0.0)
            ok = dist <= VALUE_TOL and int_resid <= VALUE_TOL and len(got) == 2
            out.append(
                _case(
                    f"closed-forms[integer-{label}]",
                    str(spec.to_json_dict()),
                    _fmt_vals([float(x) for x in want]),
                    _fmt_vals(got),
                    ok,
                    max(dist, int_resid),
                )
            )
    return out


def _verify_h_families(grids: dict[str, list[FamilySpec]] | None = None) -> list[VerificationCase]:
    """Every configured H-family instance has its stated two mains, and joining
    K_c (c = 1..3) onto it yields exactly three mains."""
    out = []
    all_grids = grids if grids is not None else default_grids()
    for family in sorted(all_grids):
        for spec in all_grids[family]:
            t = build_cotree(spec)
            desc = str(spec.to_json_dict())
            want = expected_mains(spec)
            rep = q_spectrum_cotree(t)
            got = rep.main_values()
            dist = _set_distance(got, want) if want is not None else float("nan")
            ok = want is not None and len(got) == len(want) and dist <= VALUE_TOL
            out.append(
                _case(f"h-families[mains,{desc}]", desc, _fmt_vals(want or []), _fmt_vals(got), ok, dist)
            )
            if rep.main_count != 2:
                continue  # join law below presumes two mains (grids ensure it)
            k_c_joins = [normalize(Internal(JOIN, (Leaf(),) * c + (t,))) for c in (1, 2, 3)]
            for c, k_c_join in enumerate(k_c_joins, start=1):
                kj = q_spectrum_cotree(k_c_join).main_count
                out.append(
                    _case(
                        f"h-families[join,c={c},{desc}]",
                        desc,
                        "k = 3",
                        f"k = {kj}",
                        kj == 3,
                        abs(kj - 3),
                    )
                )
            # the K_1 join is generalized core-satellite iff every component
            # of the instance (the root, or each child of a U root) is
            # complete: of order k with sum t*p = k(k-1) over its bags
            sat = parse_generalized_core_satellite(k_c_joins[0])
            parts = t.children if isinstance(t, Internal) and t.kind == UNION else (t,)
            all_complete = all(sum(x.t * x.p for x in b.bags) == b.n * (b.n - 1) for b in map(bags, parts))
            ok = (sat is not None) == all_complete
            out.append(
                _case(
                    f"h-families[gcs-parse,{desc}]",
                    desc,
                    "parses as core-satellite" if all_complete else "not core-satellite",
                    "parses" if sat is not None else "does not parse",
                    ok,
                    0.0 if ok else 1.0,
                )
            )
    return out


def _verify_kappa_eq_a(max_n: int = 8) -> list[VerificationCase]:
    """Vertex connectivity equals algebraic connectivity on connected
    non-complete cographs (complete graphs have kappa = n-1 but a = n)."""
    out = []
    for s, _, g in _iter_enumerated(max_n, min_n=2):
        if not is_connected(g) or is_complete(g):
            continue
        rep = connectivity_report(g, tol=KAPPA_TOL)
        resid = abs(rep.kappa - rep.algebraic)
        fiedler_ok = rep.algebraic <= rep.kappa + KAPPA_TOL
        out.append(
            _case(
                f"kappa-eq-a[{s}]",
                s,
                f"kappa = a(G) = {rep.kappa}",
                f"a(G) = {rep.algebraic!r}",
                rep.equal_flag and fiedler_ok,
                resid,
            )
        )
    return out


def _verify_regular_chordal_complete(max_n: int = 8) -> list[VerificationCase]:
    """Connected regular chordal cographs are complete."""
    out = []
    for s, t, _ in _iter_enumerated(max_n):
        report = classify(t)
        if not (report.is_connected and report.is_regular and report.is_chordal):
            continue
        out.append(
            _case(
                f"regular-chordal-complete[{s}]",
                s,
                "complete",
                "complete" if report.is_complete else "not complete",
                report.is_complete,
                0.0 if report.is_complete else 1.0,
            )
        )
    return out


def _verify_nonmain_multiplicities(max_n: int = 9) -> list[VerificationCase]:
    """Each J-bag forces eigenvalue p-1 (U-bag: p) with multiplicity >= t-1,
    and those eigenvalues are non-main when they exhaust the spectrum."""
    out = []
    for s, t, g in _iter_enumerated(max_n):
        rep = q_spectrum(g)
        b = bags(t)
        shortfall = 0
        detail = []
        for bag in b.bags:
            if bag.t < 2:
                continue
            target = bag.p - 1 if bag.kind == "J" else bag.p
            mult = sum(
                grp.multiplicity for grp in rep.groups if abs(grp.value - target) <= rep.tol_group
            )
            detail.append(f"{bag.kind}-bag(t={bag.t},p={bag.p}): mult({target}) = {mult}")
            shortfall = max(shortfall, (bag.t - 1) - mult)
        ok = shortfall <= 0
        out.append(
            _case(
                f"nonmain-multiplicities[{s}]",
                s,
                "multiplicity floors t_i - 1",
                "; ".join(detail) if detail else "no bags with t >= 2",
                ok,
                max(0, shortfall),
            )
        )
    return out


_SUITES: dict[str, Callable[..., list[VerificationCase]]] = {
    "width-bound": _verify_width_bound,
    "complement-invariance": _verify_complement_invariance,
    "zero-main-union": _verify_zero_main_union,
    "two-main-characterization": _verify_two_main_characterization,
    "gcs-count": _verify_gcs_count,
    "join-kc": _verify_join_kc,
    "spectra-closed-forms": _verify_spectra_closed_forms,
    "h-families": _verify_h_families,
    "kappa-eq-a": _verify_kappa_eq_a,
    "regular-chordal-complete": _verify_regular_chordal_complete,
    "nonmain-multiplicities": _verify_nonmain_multiplicities,
}

THEOREM_IDS = tuple(sorted(_SUITES))

_MAX_N_SUITES = {tid for tid, fn in _SUITES.items() if "max_n" in inspect.signature(fn).parameters}


def run_verify(
    theorem_id: str,
    max_n: int | None = None,
    grid: dict | None = None,
) -> list[VerificationCase]:
    """Run one theorem suite.

    grid (parsed JSON) overrides the built-in grid of two suites:
    gcs-count takes {"specs": [family spec, ...]}, each spec shaped as
    {"family": name, "params": {...}}; h-families takes
    {"families": {name: [params, ...]}}, each params a dict. Any other
    shape is a ValueError.
    """
    if theorem_id not in _SUITES:
        raise ValueError(f"unknown theorem id {theorem_id!r}; valid: {', '.join(THEOREM_IDS)}")
    suite = _SUITES[theorem_id]
    kwargs: dict = {}
    if max_n is not None:
        if theorem_id not in _MAX_N_SUITES:
            raise ValueError(f"{theorem_id} does not take --max-n")
        kwargs["max_n"] = max_n
    if grid is not None:
        if theorem_id == "gcs-count":
            specs = grid.get("specs") if isinstance(grid, dict) else None
            if not isinstance(specs, list):
                raise ValueError('gcs-count grid must look like {"specs": [family spec, ...]}')
            kwargs["grid"] = [FamilySpec.from_json_dict(d) for d in specs]
        elif theorem_id == "h-families":
            families = grid.get("families") if isinstance(grid, dict) else None
            if not isinstance(families, dict) or not all(isinstance(p, list) for p in families.values()):
                raise ValueError('h-families grid must look like {"families": {name: [params, ...]}}')
            kwargs["grids"] = {
                fam: [FamilySpec.from_json_dict({"family": fam, "params": params}) for params in plist]
                for fam, plist in families.items()
            }
        else:
            raise ValueError(f"{theorem_id} does not take --grid")
    return suite(**kwargs)


def cases_to_csv(cases: list[VerificationCase]) -> str:
    """Deterministic CSV rendering (no volatile fields)."""
    lines = ["case_id,input,predicted,computed,verdict,residual"]
    for c in cases:
        fields = [c.case_id, c.input, c.predicted, c.computed, c.verdict, format(c.residual, ".17g")]
        lines.append(",".join(f.replace(",", ";") for f in fields[:-1]) + "," + fields[-1])
    return "\n".join(lines) + "\n"
