"""Constructors for every named graph family, as cotrees plus graphs.

Each family builds a canonical cotree and its graph in one call, so callers
can use either the condensed or the full spectral path without re-derivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .cotree import (
    Cotree,
    Internal,
    JOIN,
    Leaf,
    UNION,
    canonicalize,
    normalize,
    to_graph,
)
from .graph import Graph
from . import oracle

__all__ = [
    "FamilySpec",
    "FAMILY_PARAMS",
    "build",
    "build_cotree",
    "expected_mains",
    "default_grid",
    "default_grids",
]

# parameter names, in declaration order, per family
FAMILY_PARAMS: dict[str, tuple[str, ...]] = {
    "Complete": ("n",),
    "Empty": ("n",),
    "CompleteSplit": ("a", "b"),
    "BipartiteJoin": ("a", "b"),
    "CoreUnion": ("c", "a", "b"),
    "CoreSatellite": ("c", "t", "a"),
    "Windmill": ("t", "a"),
    "GeneralizedCoreSatellite": ("n0", "satellites"),
    "H1": ("a", "b", "p"),
    "H2": ("a", "b", "p"),
    "H2p": ("b", "p"),
    "H2pp": ("b", "p1", "p2"),
    "H3": ("s", "a1", "a2", "p"),
    "H4": ("a", "p1", "p2"),
    "H5": ("a", "p1", "p2", "p3"),
    "H6": ("s", "p1", "p2", "p3"),
    "H7": ("s", "p1", "p2", "p3"),
    "H8": ("s", "p1", "p2", "p3"),
}


@dataclass(frozen=True)
class FamilySpec:
    """A family tag plus its parameters; validated on construction."""

    family: str
    params: tuple[tuple[str, object], ...]  # name -> value, in declaration order

    @classmethod
    def make(cls, family: str, **params) -> "FamilySpec":
        if family not in FAMILY_PARAMS:
            raise ValueError(f"unknown family {family!r}")
        names = FAMILY_PARAMS[family]
        missing = [p for p in names if p not in params]
        extra = [p for p in params if p not in names]
        if missing or extra:
            raise ValueError(
                f"{family} takes parameters {list(names)}; missing {missing}, unexpected {extra}"
            )
        if family == "GeneralizedCoreSatellite":
            sats = tuple(tuple(int(x) for x in pair) for pair in params["satellites"])
            params = {"n0": int(params["n0"]), "satellites": sats}
        else:
            params = {k: int(v) for k, v in params.items()}
        spec = cls(family=family, params=tuple((k, params[k]) for k in names))
        _validate(spec)
        return spec

    def __getitem__(self, name: str):
        for k, v in self.params:
            if k == name:
                return v
        raise KeyError(name)

    def param_dict(self) -> dict:
        return dict(self.params)

    @classmethod
    def from_json_dict(cls, data: dict) -> "FamilySpec":
        if not isinstance(data, dict) or "family" not in data:
            raise ValueError('family spec must look like {"family": ..., "params": {...}}')
        return cls.make(data["family"], **data.get("params", {}))

    def to_json_dict(self) -> dict:
        params = {
            k: ([list(pair) for pair in v] if k == "satellites" else v)
            for k, v in self.params
        }
        return {"family": self.family, "params": params}


def _require(cond: bool, family: str, clause: str) -> None:
    if not cond:
        raise ValueError(f"{family}: parameter invariant violated: {clause}")


def _validate(spec: FamilySpec) -> None:
    f = spec.family
    for name, value in spec.params:
        if name == "satellites":
            _require(len(value) >= 1, f, "at least one satellite class")
            for a, n in value:
                _require(a >= 1 and n >= 1, f, "satellite counts and orders >= 1")
            orders = [n for _, n in value]
            _require(len(set(orders)) == len(orders), f, "satellite orders pairwise distinct")
        else:
            _require(isinstance(value, int) and value >= 1, f, f"{name} >= 1")
    if f == "H1":
        _require(spec["b"] >= 2, f, "b >= 2")
    elif f == "H2":
        # a=1 is accepted and coincides with H2p(b, p)
        _require(spec["b"] >= 2, f, "b >= 2")
        _require(spec["p"] >= 2, f, "p >= 2")
    elif f == "H2p":
        _require(spec["b"] >= 2, f, "b >= 2")
        _require(spec["p"] >= 2, f, "p >= 2")
    elif f == "H2pp":
        _require(spec["b"] >= 2, f, "b >= 2")
        _require(spec["p1"] >= 2 or spec["p2"] >= 2, f, "p1 >= 2 or p2 >= 2")
    elif f == "H3":
        _require(spec["p"] >= 2, f, "p >= 2")
        _require(spec["a1"] >= 2 or spec["a2"] >= 2, f, "a1 >= 2 or a2 >= 2")
    elif f in ("H4", "H5"):
        _require(spec["a"] >= 2, f, "a >= 2")
    elif f == "H6":
        _require(spec["s"] % 2 == 1, f, "s odd")
    elif f in ("H7", "H8"):
        _require(spec["s"] % 2 == 0, f, "s even")


def _K(n: int) -> Cotree:
    return Leaf() if n == 1 else Internal(JOIN, tuple(Leaf() for _ in range(n)))


def _E(n: int) -> Cotree:
    return Leaf() if n == 1 else Internal(UNION, tuple(Leaf() for _ in range(n)))


def _node(kind: str, parts: list[Cotree]) -> Cotree:
    return normalize(Internal(kind, tuple(parts)))


def _star(b: int) -> Cotree:
    """K_1 joined with b isolated vertices."""
    return _node(JOIN, [Leaf(), _E(b)])


def build_cotree(spec: FamilySpec) -> Cotree:
    f = spec.family
    s = spec
    if f == "Complete":
        t = _K(s["n"])
    elif f == "Empty":
        t = _E(s["n"])
    elif f == "CompleteSplit":
        t = _node(JOIN, [_K(s["a"]), _E(s["b"])])
    elif f == "BipartiteJoin":
        t = _node(JOIN, [_E(s["a"]), _E(s["b"])])
    elif f == "CoreUnion":
        t = _node(JOIN, [_K(s["c"]), _node(UNION, [_K(s["a"]), _K(s["b"])])])
    elif f in ("CoreSatellite", "Windmill"):
        c = 1 if f == "Windmill" else s["c"]
        t = _node(JOIN, [_K(c), _node(UNION, [_K(s["a"])] * s["t"])])
    elif f == "GeneralizedCoreSatellite":
        sats: list[Cotree] = []
        for count, order in s["satellites"]:
            sats.extend([_K(order)] * count)
        t = _node(JOIN, [_K(s["n0"]), _node(UNION, sats)])
    elif f == "H1":
        t = _node(UNION, [_E(s["a"])] + [_K(s["b"])] * s["p"])
    elif f == "H2":
        block = _node(JOIN, [_K(s["a"]), _E(s["b"])])
        t = _node(UNION, [block] * s["p"])
    elif f == "H2p":
        t = _node(UNION, [_star(s["b"])] * s["p"])
    elif f == "H2pp":
        t = _node(UNION, [_E(s["p1"])] + [_star(s["b"])] * s["p2"])
    elif f == "H3":
        block = _node(JOIN, [_K(s["s"]), _node(UNION, [_K(s["a1"]), _K(s["a2"])])])
        t = _node(UNION, [block] * s["p"])
    elif f == "H4":
        t = _node(UNION, [_K(s["a"])] * s["p1"] + [_star(2 * s["a"] - 3)] * s["p2"])
    elif f == "H5":
        t = _node(
            UNION,
            [_K(s["a"])] * s["p1"] + [_star(2 * s["a"] - 3)] * s["p2"] + [_E(s["p3"])],
        )
    elif f == "H6":
        ss = s["s"]
        block = _node(JOIN, [_K(2 * ss - 1), _E(3 * ss)])
        t = _node(
            UNION,
            [block] * s["p1"] + [_K(4 * ss - 1)] * s["p2"] + [_K((ss + 1) // 2)] * s["p3"],
        )
    elif f == "H7":
        ss = s["s"]
        block = _node(JOIN, [_K(ss), _node(UNION, [_K(ss + 1), _K(ss + 2)])])
        t = _node(
            UNION,
            [block] * s["p1"] + [_K((5 * ss + 4) // 2)] * s["p2"] + [_K(ss + 1)] * s["p3"],
        )
    elif f == "H8":
        ss = s["s"]
        block = _node(JOIN, [_K(ss), _node(UNION, [_K(ss), _K(ss)])])
        t = _node(
            UNION,
            [block] * s["p1"] + [_K(5 * ss // 2)] * s["p2"] + [_K(ss)] * s["p3"],
        )
    else:  # pragma: no cover - guarded by FamilySpec.make
        raise ValueError(f"unknown family {f!r}")
    return canonicalize(t)


def build(spec: FamilySpec) -> tuple[Cotree, Graph]:
    """Canonical cotree and its graph."""
    t = build_cotree(spec)
    return t, to_graph(t)


def expected_mains(spec: FamilySpec) -> list[float] | None:
    """Closed-form main eigenvalues (descending) where one is known, else None.

    Degenerate parameter choices that change the structure are folded in:
    a complete-split graph with b=1 is complete, and H4 with a=2 collapses to
    a disjoint union of K_2's whose only main eigenvalue is 2.
    """
    f = spec.family
    s = spec
    if f == "Complete":
        return [float(2 * s["n"] - 2)]
    if f == "Empty":
        return [0.0]
    if f == "CompleteSplit":
        if s["b"] == 1:
            return [float(2 * s["a"])]  # K_{a+1}
        return list(oracle.mains_complete_split(s["a"], s["b"]))
    if f == "BipartiteJoin":
        a, b = s["a"], s["b"]
        if a == b:
            return [float(2 * a)]
        return [float(a + b), 0.0]
    if f == "CoreUnion":
        if s["a"] == s["b"]:
            return list(oracle.mains_core_satellite_pair(s["c"], s["a"]))
        return list(oracle.mains_core_union(s["c"], s["a"], s["b"])[0])
    if f in ("CoreSatellite", "Windmill"):
        c = 1 if f == "Windmill" else s["c"]
        t, a = s["t"], s["a"]
        if t == 1:
            return [float(2 * (c + a) - 2)]
        if t == 2:
            return list(oracle.mains_core_satellite_pair(c, a))
        return None
    if f == "GeneralizedCoreSatellite":
        return None
    if f == "H1":
        return [float(2 * s["b"] - 2), 0.0]
    if f == "H2":
        return list(oracle.mains_complete_split(s["a"], s["b"]))
    if f in ("H2p", "H2pp"):
        return [float(1 + s["b"]), 0.0]
    if f == "H3":
        if s["a1"] == s["a2"]:
            return list(oracle.mains_core_satellite_pair(s["s"], s["a1"]))
        return list(oracle.mains_core_union(s["s"], s["a1"], s["a2"])[0])
    if f == "H4":
        if s["a"] == 2:
            return [2.0]  # every block is K_2; the union is 1-regular
        return [float(2 * s["a"] - 2), 0.0]
    if f == "H5":
        return [float(2 * s["a"] - 2), 0.0]
    if f == "H6":
        return [float(8 * s["s"] - 4), float(s["s"] - 1)]
    if f == "H7":
        return [float(5 * s["s"] + 2), float(2 * s["s"])]
    if f == "H8":
        return [float(5 * s["s"] - 2), float(2 * s["s"] - 2)]
    return None


# ---------------------------------------------------------------------------
# Default parameter grids for verification sweeps.
#
# p-style parameters run over {1,2,3} and sizes over small ranges, trimmed to
# each family's invariants. Two boundary trims keep every grid point inside
# the regime where the families' stated main eigenvalues hold:
#   * H1 drops (a=1, p=1): K_1 u K_b is a union of two complete graphs, so
#     joining a clique onto it yields two mains, not three.
#   * H4 starts at a=3: at a=2 the family collapses to copies of K_2 (the
#     second block kind requires 2a-3 >= 2).
# H6/H7/H8 use p_i in {1,2}; sizes there grow fast and {1,2} already covers
# the single/multiple-copy distinction.
# ---------------------------------------------------------------------------


def default_grid(family: str) -> list[FamilySpec]:
    specs: list[FamilySpec] = []
    if family == "H1":
        for a, b, p in product(range(1, 6), range(2, 6), range(1, 4)):
            if a == 1 and p == 1:
                continue
            specs.append(FamilySpec.make("H1", a=a, b=b, p=p))
    elif family == "H2":
        for a, b, p in product(range(2, 6), range(2, 6), range(2, 4)):
            specs.append(FamilySpec.make("H2", a=a, b=b, p=p))
    elif family == "H2p":
        for b, p in product(range(2, 6), range(2, 4)):
            specs.append(FamilySpec.make("H2p", b=b, p=p))
    elif family == "H2pp":
        for b, p1, p2 in product(range(2, 6), range(1, 4), range(1, 4)):
            if p1 < 2 and p2 < 2:
                continue
            specs.append(FamilySpec.make("H2pp", b=b, p1=p1, p2=p2))
    elif family == "H3":
        for s, a1, a2, p in product(range(1, 4), range(1, 5), range(1, 5), range(2, 4)):
            if a1 < 2 and a2 < 2:
                continue
            specs.append(FamilySpec.make("H3", s=s, a1=a1, a2=a2, p=p))
    elif family == "H4":
        for a, p1, p2 in product(range(3, 6), range(1, 4), range(1, 4)):
            specs.append(FamilySpec.make("H4", a=a, p1=p1, p2=p2))
    elif family == "H5":
        for a, p1, p2, p3 in product(range(2, 6), range(1, 4), range(1, 4), range(1, 4)):
            specs.append(FamilySpec.make("H5", a=a, p1=p1, p2=p2, p3=p3))
    elif family in ("H6", "H7", "H8"):
        svals = (1, 3, 5) if family == "H6" else (2, 4, 6)
        for s, p1, p2, p3 in product(svals, (1, 2), (1, 2), (1, 2)):
            specs.append(FamilySpec.make(family, s=s, p1=p1, p2=p2, p3=p3))
    else:
        raise ValueError(f"no default grid for family {family!r}")
    return specs


def default_grids() -> dict[str, list[FamilySpec]]:
    """The configured grids for the eight H families."""
    return {f: default_grid(f) for f in ("H1", "H2", "H2p", "H2pp", "H3", "H4", "H5", "H6", "H7", "H8")}
