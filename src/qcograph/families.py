"""Every named graph family as a cotree plus graph, with its closed forms.

Each family is one row of ``_FAMILIES``: its parameters and their clauses, its
cotree, its closed-form main eigenvalues and its default verification grid.

Every quadratic here is solved in the cancellation-safe form: the larger
root from the usual formula, the smaller one from the product, so constant
terms that vanish (complete splits with a=1) still give an exact zero root.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Sequence

from .cotree import JOIN, MAX_CHILDREN, UNION, Cotree, Leaf, _normal_step, canonicalize, to_graph
from .graph import MAX_EDGE_LIST_N, Graph

__all__ = [
    "FamilySpec",
    "FAMILY_PARAMS",
    "build",
    "build_cotree",
    "expected_mains",
    "default_grid",
    "default_grids",
    "quadratic_roots",
    "sigma_complete",
    "sigma_bipartite_join",
    "mains_complete_split",
    "mains_core_union",
    "mains_core_satellite_pair",
]


@dataclass(frozen=True)
class FamilySpec:
    """A family tag plus its parameters; validated on construction."""

    family: str
    params: tuple[tuple[str, object], ...]  # name -> value, in declaration order

    @classmethod
    def make(cls, family: str, **params) -> "FamilySpec":
        row = _FAMILIES.get(family)
        if row is None:
            raise ValueError(f"unknown family {family!r}")
        names = row.params
        missing = [p for p in names if p not in params]
        extra = [p for p in params if p not in names]
        if missing or extra:
            raise ValueError(
                f"{family} takes parameters {list(names)}; missing {missing}, unexpected {extra}"
            )
        values = {
            k: _satellites(family, params[k]) if k == "satellites" else _integer(family, k, params[k])
            for k in names
        }
        clause = _broken_clause(row, values)
        if clause is not None:
            raise ValueError(f"{family}: parameter invariant violated: {clause}")
        return cls(family=family, params=tuple(values.items()))

    def param_dict(self) -> dict:
        return dict(self.params)

    @classmethod
    def from_json_dict(cls, data: dict) -> "FamilySpec":
        params = data.get("params", {}) if isinstance(data, dict) else None
        if not isinstance(params, dict) or not isinstance(data.get("family"), str):
            raise ValueError('family spec must look like {"family": ..., "params": {...}}')
        return cls.make(data["family"], **params)

    def to_json_dict(self) -> dict:
        params = {
            k: ([list(pair) for pair in v] if k == "satellites" else v)
            for k, v in self.params
        }
        return {"family": self.family, "params": params}


def _integer(family: str, name: str, value) -> int:
    """The parameter as an int, where it is one exactly (3 or 3.0, not 2.7,
    "3" or true). Each parameter sets how many children some node has, so
    one above MAX_CHILDREN is refused before any node is built."""
    exact = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (exact or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{family}: parameter {name} must be an integer, got {value!r}")
    if value > MAX_CHILDREN:
        raise ValueError(f"{family}: parameter {name} = {int(value)} exceeds the limit of {MAX_CHILDREN}")
    return int(value)


def _satellites(family: str, value) -> tuple[tuple[int, int], ...]:
    try:
        pairs = [(count, order) for count, order in value]
    except (TypeError, ValueError):
        raise ValueError(
            f"{family}: parameter satellites must be a list of [count, order] pairs, got {value!r}"
        ) from None
    return tuple((_integer(family, "satellites", a), _integer(family, "satellites", n)) for a, n in pairs)


def _broken_clause(row: "_Family", params: dict) -> str | None:
    """The first clause broken: an integer parameter below 1, then the row's own."""
    for name, value in params.items():
        if name != "satellites" and value < 1:
            return f"{name} >= 1"
    return next((text for text, holds in row.clauses if not holds(params)), None)


# Each builder node is made in normal form, so build_cotree's canonicalize never normalizes.


def _J(*kids: Cotree) -> Cotree:
    return _normal_step(JOIN, list(kids))


def _U(*kids: Cotree) -> Cotree:
    return _normal_step(UNION, list(kids))


def _K(n: int) -> Cotree:
    return _J(*[Leaf()] * n)


def _E(n: int) -> Cotree:
    return _U(*[Leaf()] * n)


def _star(b: int) -> Cotree:
    """K_1 joined with b isolated vertices."""
    return _J(Leaf(), _E(b))


def _core(c: int, orders: list[int]) -> Cotree:
    """K_c joined with the disjoint union of cliques of the given orders,
    one shared clique per order, so t copies of K_a cost one K_a."""
    cliques = {a: _K(a) for a in set(orders)}
    return _J(_K(c), _U(*[cliques[a] for a in orders]))


def _tiered(block: Cotree, x: int, y: int, p1: int, p2: int, p3: int) -> Cotree:
    """p1 copies of block, p2 copies of K_x and p3 copies of K_y (H6, H7, H8)."""
    return _U(*[block] * p1, *[_K(x)] * p2, *[_K(y)] * p3)


# spectrum entries are (eigenvalue, multiplicity, is_main), descending


def quadratic_roots(b: float, c: float) -> tuple[float, float]:
    """Roots of q^2 - b q + c = 0, descending; assumes real roots and b >= 0."""
    disc = b * b - 4.0 * c
    if disc < 0:
        raise ValueError(f"complex roots for q^2 - {b}q + {c}")
    big = (b + math.sqrt(disc)) / 2.0
    small = c / big if big != 0.0 else 0.0
    return big, small


def sigma_complete(n: int) -> list[tuple[float, int, bool]]:
    """Spectrum of the complete graph: 2n-2 simple and main, n-2 with
    multiplicity n-1 non-main; the one-vertex graph has the single main 0."""
    if n < 1:
        raise ValueError("n >= 1 required")
    if n == 1:
        return [(0.0, 1, True)]
    return [(float(2 * n - 2), 1, True), (float(n - 2), n - 1, False)]


def sigma_bipartite_join(a: int, b: int) -> list[tuple[float, int, bool]]:
    """Spectrum of the join of two edgeless graphs.

    For a != b: a+b and 0 are main, b (mult a-1) and a (mult b-1) are not.
    For a == b the graph is regular: only 2a is main.
    """
    if a < 1 or b < 1:
        raise ValueError("a, b >= 1 required")
    if a == b:
        out = [(float(2 * a), 1, True)]
        if 2 * a - 2 > 0:
            out.append((float(a), 2 * a - 2, False))
        out.append((0.0, 1, False))
        return out
    out = [(float(a + b), 1, True)]
    mids = []
    if a - 1 > 0:
        mids.append((float(b), a - 1, False))
    if b - 1 > 0:
        mids.append((float(a), b - 1, False))
    mids.sort(key=lambda e: -e[0])
    out.extend(mids)
    out.append((0.0, 1, True))
    return out


def mains_complete_split(a: int, b: int) -> tuple[float, float]:
    """Main eigenvalues of the clique-on-a joined with b isolated vertices,
    descending: the roots of q^2 - (b+3a-2)q + (2a^2-2a)."""
    if a < 1 or b <= 1:
        raise ValueError("a >= 1 and b > 1 required")
    return quadratic_roots(float(b + 3 * a - 2), float(2 * a * a - 2 * a))


def mains_core_union(c: int, a: int, b: int) -> tuple[tuple[float, float], float, int]:
    """Main eigenvalues of K_c joined with (K_a union K_b), a != b.

    Returns ((q1, q2) descending, the non-main value a+b+c-2, its exact
    multiplicity c in the full spectrum).
    """
    if c < 1 or a < 1 or b < 1:
        raise ValueError("a, b, c >= 1 required")
    if a == b:
        raise ValueError("a != b required; use mains_core_satellite_pair")
    return tuple(_core_pair_mains(c, a, b)), float(a + b + c - 2), c


def mains_core_satellite_pair(c: int, a: int) -> tuple[float, float]:
    """Main eigenvalues of K_c joined with two disjoint copies of K_a,
    descending (the a == b case of the three-bag quotient)."""
    if c < 1 or a < 1:
        raise ValueError("a, c >= 1 required")
    return tuple(_core_pair_mains(c, a, a))


def _core_pair_mains(c: int, a: int, b: int) -> list[float]:
    """Mains of K_c joined with (K_a union K_b), descending: the roots of the
    three-bag quotient's quadratic, which holds at a == b too."""
    bq = float(3 * c + 2 * b + 2 * a - 4)
    cq = float(2 * c * c + (2 * b + 2 * a - 6) * c + (4 * a - 4) * b - 4 * a + 4)
    return list(quadratic_roots(bq, cq))


def _satellite_mains(c: int, t: int, a: int) -> list[float] | None:
    """Mains of K_c joined with t copies of K_a (complete at t = 1; unknown for t >= 3)."""
    if t == 1:
        return [float(2 * (c + a) - 2)]
    if t == 2:
        return _core_pair_mains(c, a, a)
    return None


_Clause = tuple[str, Callable[[dict], bool]]


@dataclass(frozen=True)
class _Family:
    """A family's parameter names (in declaration order); its (text, holds)
    clauses beyond each integer parameter being >= 1; its cotree and
    closed-form mains (descending, or None), both taking the parameters as
    keywords; and its default grid, one axis per parameter, without the
    points that break a clause or that `trim` names."""

    params: tuple[str, ...]
    cotree: Callable[..., Cotree]
    mains: Callable[..., list[float] | None]
    clauses: tuple[_Clause, ...] = ()
    grid: tuple[Sequence, ...] | None = None
    trim: Callable[[dict], bool] | None = None


def _at_least_2(name: str) -> _Clause:
    return f"{name} >= 2", lambda p: p[name] >= 2


# The criterion-5 grid: cores K_1..K_3 with one to three satellite classes of
# distinct orders 1..4, each class holding 1..3 satellites.
_GCS_SATELLITES = tuple(
    tuple(zip(counts, orders))
    for size in (1, 2, 3)
    for orders in combinations((1, 2, 3, 4), size)
    for counts in product((1, 2, 3), repeat=size)
)

# H grids: p-style parameters run over {1,2,3} and sizes over small ranges,
# so that every grid point lies where the family's stated mains hold. H4
# starts at a=3: at a=2 the family collapses to copies of K_2 (the star
# blocks need 2a-3 >= 2). H6/H7/H8 use p_i in {1,2}; sizes there grow fast
# and {1,2} already covers the single/multiple-copy distinction.
_P3 = range(1, 4)
_P2 = (1, 2)


_FAMILIES: dict[str, _Family] = {
    "Complete": _Family(("n",), lambda n: _K(n), lambda n: [float(2 * n - 2)]),
    "Empty": _Family(("n",), lambda n: _E(n), lambda n: [0.0]),
    "CompleteSplit": _Family(
        ("a", "b"),
        lambda a, b: _J(_K(a), _E(b)),
        lambda a, b: [float(2 * a)] if b == 1 else list(mains_complete_split(a, b)),  # b=1: K_{a+1}
    ),
    "BipartiteJoin": _Family(
        ("a", "b"),
        lambda a, b: _J(_E(a), _E(b)),
        lambda a, b: [float(2 * a)] if a == b else [float(a + b), 0.0],
    ),
    "CoreUnion": _Family(("c", "a", "b"), lambda c, a, b: _core(c, [a, b]), _core_pair_mains),
    "CoreSatellite": _Family(("c", "t", "a"), lambda c, t, a: _core(c, [a] * t), _satellite_mains),
    "Windmill": _Family(("t", "a"), lambda t, a: _core(1, [a] * t), lambda t, a: _satellite_mains(1, t, a)),
    "GeneralizedCoreSatellite": _Family(
        ("n0", "satellites"),
        lambda n0, satellites: _core(n0, [order for count, order in satellites for _ in range(count)]),
        lambda n0, satellites: None,
        clauses=(
            ("at least one satellite class", lambda p: len(p["satellites"]) >= 1),
            ("satellite counts and orders >= 1", lambda p: all(min(pair) >= 1 for pair in p["satellites"])),
            (f"at most {MAX_CHILDREN} satellites", lambda p: sum(a for a, _ in p["satellites"]) <= MAX_CHILDREN),
            (
                "satellite orders pairwise distinct",
                lambda p: len({n for _, n in p["satellites"]}) == len(p["satellites"]),
            ),
        ),
        grid=((1, 2, 3), _GCS_SATELLITES),
    ),
    "H1": _Family(
        ("a", "b", "p"),
        lambda a, b, p: _U(_E(a), *[_K(b)] * p),
        lambda a, b, p: [float(2 * b - 2), 0.0],
        clauses=(_at_least_2("b"),),
        grid=(range(1, 6), range(2, 6), _P3),
        # K_1 u K_b is a union of two complete graphs: a clique joined onto it gives two mains, not three
        trim=lambda p: p["a"] == 1 and p["p"] == 1,
    ),
    "H2": _Family(
        ("a", "b", "p"),  # a=1 is accepted and coincides with H2p(b, p)
        lambda a, b, p: _U(*[_J(_K(a), _E(b))] * p),
        lambda a, b, p: list(mains_complete_split(a, b)),
        clauses=(_at_least_2("b"), _at_least_2("p")),
        grid=(range(2, 6), range(2, 6), range(2, 4)),
    ),
    "H2p": _Family(
        ("b", "p"),
        lambda b, p: _U(*[_star(b)] * p),
        lambda b, p: [float(1 + b), 0.0],
        clauses=(_at_least_2("b"), _at_least_2("p")),
        grid=(range(2, 6), range(2, 4)),
    ),
    "H2pp": _Family(
        ("b", "p1", "p2"),
        lambda b, p1, p2: _U(_E(p1), *[_star(b)] * p2),
        lambda b, p1, p2: [float(1 + b), 0.0],
        clauses=(_at_least_2("b"), ("p1 >= 2 or p2 >= 2", lambda p: p["p1"] >= 2 or p["p2"] >= 2)),
        grid=(range(2, 6), _P3, _P3),
    ),
    "H3": _Family(
        ("s", "a1", "a2", "p"),
        lambda s, a1, a2, p: _U(*[_core(s, [a1, a2])] * p),
        lambda s, a1, a2, p: _core_pair_mains(s, a1, a2),
        clauses=(_at_least_2("p"), ("a1 >= 2 or a2 >= 2", lambda p: p["a1"] >= 2 or p["a2"] >= 2)),
        grid=(range(1, 4), range(1, 5), range(1, 5), range(2, 4)),
    ),
    "H4": _Family(
        ("a", "p1", "p2"),
        lambda a, p1, p2: _U(*[_K(a)] * p1, *[_star(2 * a - 3)] * p2),
        lambda a, p1, p2: [2.0] if a == 2 else [float(2 * a - 2), 0.0],  # a=2: every block is K_2
        clauses=(_at_least_2("a"),),
        grid=(range(3, 6), _P3, _P3),
    ),
    "H5": _Family(
        ("a", "p1", "p2", "p3"),
        lambda a, p1, p2, p3: _U(*[_K(a)] * p1, *[_star(2 * a - 3)] * p2, _E(p3)),
        lambda a, p1, p2, p3: [float(2 * a - 2), 0.0],
        clauses=(_at_least_2("a"),),
        grid=(range(2, 6), _P3, _P3, _P3),
    ),
    "H6": _Family(
        ("s", "p1", "p2", "p3"),
        lambda s, p1, p2, p3: _tiered(_J(_K(2 * s - 1), _E(3 * s)), 4 * s - 1, (s + 1) // 2, p1, p2, p3),
        lambda s, p1, p2, p3: [float(8 * s - 4), float(s - 1)],
        clauses=(("s odd", lambda p: p["s"] % 2 == 1),),
        grid=(range(1, 6), _P2, _P2, _P2),
    ),
    "H7": _Family(
        ("s", "p1", "p2", "p3"),
        lambda s, p1, p2, p3: _tiered(_core(s, [s + 1, s + 2]), (5 * s + 4) // 2, s + 1, p1, p2, p3),
        lambda s, p1, p2, p3: [float(5 * s + 2), float(2 * s)],
        clauses=(("s even", lambda p: p["s"] % 2 == 0),),
        grid=(range(2, 7), _P2, _P2, _P2),
    ),
    "H8": _Family(
        ("s", "p1", "p2", "p3"),
        lambda s, p1, p2, p3: _tiered(_core(s, [s, s]), 5 * s // 2, s, p1, p2, p3),
        lambda s, p1, p2, p3: [float(5 * s - 2), float(2 * s - 2)],
        clauses=(("s even", lambda p: p["s"] % 2 == 0),),
        grid=(range(2, 7), _P2, _P2, _P2),
    ),
}


FAMILY_PARAMS: dict[str, tuple[str, ...]] = {name: row.params for name, row in _FAMILIES.items()}


def _raw_cotree(spec: FamilySpec) -> Cotree:
    """The instance's cotree as its family row makes it: normal, not yet in canonical order."""
    return _FAMILIES[spec.family].cotree(**spec.param_dict())


def build_cotree(spec: FamilySpec) -> Cotree:
    return canonicalize(_raw_cotree(spec))


def build(spec: FamilySpec) -> tuple[Cotree, Graph]:
    """Canonical cotree and its graph, refused (ValueError) beyond
    ``MAX_EDGE_LIST_N`` vertices, where the dense n x n routes stop."""
    t = build_cotree(spec)
    n = t.n
    if n > MAX_EDGE_LIST_N:
        raise ValueError(
            f"{spec.family}: n = {n} exceeds the {MAX_EDGE_LIST_N}-vertex limit of the dense graph"
        )
    return t, to_graph(t)


def expected_mains(spec: FamilySpec) -> list[float] | None:
    """Closed-form main eigenvalues (descending) where one is known, else None.

    Degenerate parameter choices that change the structure are folded in:
    a complete-split graph with b=1 is complete, and H4 with a=2 collapses to
    a disjoint union of K_2's whose only main eigenvalue is 2.
    """
    return _FAMILIES[spec.family].mains(**spec.param_dict())


def default_grid(family: str) -> list[FamilySpec]:
    """The family's default verification grid, in lexicographic axis order."""
    row = _FAMILIES.get(family)
    if row is None or row.grid is None:
        raise ValueError(f"no default grid for family {family!r}")
    specs = []
    for values in product(*row.grid):
        params = dict(zip(row.params, values))
        if _broken_clause(row, params) is None and not (row.trim and row.trim(params)):
            specs.append(FamilySpec.make(family, **params))
    return specs


def default_grids() -> dict[str, list[FamilySpec]]:
    """The configured grids for the eight H families (ten with H2p, H2pp)."""
    return {f: default_grid(f) for f in _FAMILIES if f.startswith("H")}
