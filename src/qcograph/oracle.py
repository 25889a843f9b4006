"""Main-count predictors read off a cotree, used as ground truth."""

from __future__ import annotations

from dataclasses import dataclass

from .cotree import JOIN, UNION, Cotree, Internal, Leaf, _classes, _from_graph, complement_cotree, normalize
from .families import FamilySpec, build_cotree
# re-exported: the closed forms live in families, and qcograph.oracle still names them
from .families import mains_complete_split, mains_core_satellite_pair, mains_core_union, quadratic_roots
from .families import sigma_bipartite_join, sigma_complete
from .graph import Graph, bipartition, components, induced_subgraph
from .recognition import (
    NotApplicable,
    SatelliteSpec,
    _core_split,
    cotree_flags,
    is_regular,
    parse_generalized_core_satellite,
)
from .spectra import main_count_exact

__all__ = [
    "quadratic_roots",
    "sigma_complete",
    "sigma_bipartite_join",
    "mains_complete_split",
    "mains_core_union",
    "mains_core_satellite_pair",
    "zero_is_q_main",
    "MainCountPrediction",
    "predict_main_count",
    "FormA",
    "FormB",
    "predict_two_main_forms",
]


def zero_is_q_main(g: Graph | Cotree) -> bool:
    """Whether 0 is a main Q-eigenvalue of g, decided without a spectrum.

    The 0-eigenspace of Q is spanned by one vector per bipartite component,
    +1 on one colour class and -1 on the other; its sum is the difference of
    the class sizes. So 0 is main iff some bipartite component has classes
    of unequal size. An isolated vertex counts, with classes of size 1 and 0.

    A graph is read densely (components, then a two-colouring of each): the
    independent reference. A cotree is read in normal form: the components
    are the children of a U root, else the tree itself, and a component that
    is not a leaf is bipartite (``cotree_flags``) iff it is a J-node over
    its two colour classes. Each distinct component object is read once.
    """
    if isinstance(g, Graph):
        for block in components(g):
            sides = bipartition(induced_subgraph(g, block))
            if sides is not None and len(sides[0]) != len(sides[1]):
                return True
        return False
    t = normalize(g)
    distinct = {id(c): c for c in (t.children if isinstance(t, Internal) and t.kind == UNION else (t,))}
    return any(
        isinstance(c, Leaf) or (cotree_flags(c)["is_bipartite"] and len({x.n for x in c.children}) == 2)
        for c in distinct.values()
    )


@dataclass(frozen=True)
class MainCountPrediction:
    """Predicted number of main eigenvalues with the rule that produced it.

    For rule WidthBoundOnly the value k is only an upper bound (the cotree
    width, or the order for non-cographs); every other rule is exact.
    """

    k: int
    rule: str
    premises: str

    @property
    def exact(self) -> bool:
        return self.rule != "WidthBoundOnly"

    def to_json_dict(self) -> dict:
        return {"k": self.k, "rule": self.rule, "premises": self.premises, "exact": self.exact}


def predict_main_count(obj) -> MainCountPrediction:
    """Decision ladder over the structural theorems, read off one normalized
    cotree: that of a cotree, of a FamilySpec (``build_cotree``, no graph)
    or of a graph (``from_graph``'s split, once, with no P4 searched).

    1. regular graphs (complete included) have exactly one main eigenvalue;
    2-4. generalized core-satellite shapes by satellite pattern;
    5. the universal vertices are the leaf children of a J root: if the
       remainder h (its other children) has k' >= 2 mains (counted exactly by
       ``main_count_exact``) the join adds one
       iff 0 is not a main eigenvalue of complement(h) (see zero_is_q_main);
       "adds one iff complement(h) is non-bipartite" is exact only when
       complement(h) is connected;
    6. otherwise only the cotree-width bound is asserted.

    A graph that is not a cograph gets rule 1 or the order bound only: rule 5
    would need a dense eigensolve of h, as costly as one of the graph.
    """
    if isinstance(obj, FamilySpec):
        obj = build_cotree(obj)
    elif isinstance(obj, Graph):
        recovered = _from_graph(obj)
        if recovered is None:
            if is_regular(obj):
                return MainCountPrediction(k=1, rule="Regular", premises=f"{int(obj.degrees()[0])}-regular graph")
            return MainCountPrediction(k=obj.n, rule="WidthBoundOnly", premises="not a cograph; trivial order bound")
        obj = recovered[0]
    elif not isinstance(obj, (Leaf, Internal)):
        raise TypeError(f"expected Cotree, FamilySpec or Graph, got {type(obj)!r}")
    t = normalize(obj)
    if t.degree == t.n - 1:
        return MainCountPrediction(k=1, rule="CompleteGraph", premises=f"K_{t.n} is complete")
    if t.degree is not None:
        return MainCountPrediction(k=1, rule="Regular", premises=f"{t.degree}-regular graph")
    sat = parse_generalized_core_satellite(t)
    if sat is not None:
        form, head = _two_main_form(sat), f"core K_{sat.n0} with"
        if isinstance(form, FormB):
            return MainCountPrediction(2, "CoreSatelliteP1", f"{head} {form.t} satellites all of order {form.a}")
        if isinstance(form, FormA):
            orders = (form.a, form.b)
            return MainCountPrediction(2, "TwoMainFormA", f"{head} exactly two satellites of distinct orders {orders}")
        total = sum(a for a, _ in sat.satellites)
        return MainCountPrediction(sat.p + 1, "GcsPplus1", f"{head} {total} satellites in {sat.p} order classes")
    leaves, rest = _core_split(t)
    if leaves and rest:
        h = rest[0] if len(rest) == 1 else Internal(JOIN, tuple(rest))
        k_h = main_count_exact(h)
        if k_h >= 2:
            head = f"K_{len(leaves)} joined to a remainder with {k_h} mains"
            # complement(h) is the union of the complements of rest, and 0 is
            # main in a union iff it is main in some part
            if any(zero_is_q_main(complement_cotree(c)) for c in {id(c): c for c in rest}.values()):
                return MainCountPrediction(k_h, "JoinKcZeroMain", f"{head}; 0 is main in its complement")
            return MainCountPrediction(k_h + 1, "JoinKcZeroNotMain", f"{head}; 0 is not main in its complement")
    width = _classes(t)[-1][3]  # bags(t).r, the root class's, without walking out shared subtrees
    return MainCountPrediction(k=width, rule="WidthBoundOnly", premises=f"cotree width {width} (upper bound only)")


@dataclass(frozen=True)
class FormA:
    """Core clique joined with two complete satellites of distinct orders."""

    c: int
    a: int
    b: int  # a < b


@dataclass(frozen=True)
class FormB:
    """Core clique joined with t >= 2 complete satellites of one order."""

    c: int
    t: int
    a: int


def predict_two_main_forms(source: Graph | Cotree) -> FormA | FormB | None:
    """Structural parse of the two-main characterization for connected
    quasi-threshold graphs; None when the graph matches neither shape.

    A graph is read through its cotree. Raises NotApplicable for an empty
    graph, a non-cograph (not quasi-threshold, even when disconnected), and
    disconnected or non-quasi-threshold cographs.
    """
    if isinstance(source, Graph):
        if source.n < 1:
            raise NotApplicable("empty graph")
        recovered = _from_graph(source)
        if recovered is None:
            raise NotApplicable("graph is not quasi-threshold")
        source = recovered[0]
    flags = cotree_flags(source)
    if not flags["is_connected"]:
        raise NotApplicable("graph is disconnected")
    if not flags["is_quasi_threshold"]:
        raise NotApplicable("graph is not quasi-threshold")
    sat = parse_generalized_core_satellite(source)
    return None if sat is None else _two_main_form(sat)


def _two_main_form(sat: SatelliteSpec) -> FormA | FormB | None:
    """The paper's two shapes of a two-main core-satellite graph: two
    satellites of distinct orders (FormA), or t >= 2 of one order (FormB),
    which in normal form is any lone order class; else None."""
    if sat.p == 1:
        t, a = sat.satellites[0]
        return FormB(c=sat.n0, t=t, a=a)
    if sat.p == 2 and all(a == 1 for a, _ in sat.satellites):
        (_, a), (_, b) = sat.satellites
        return FormA(c=sat.n0, a=a, b=b)
    return None
