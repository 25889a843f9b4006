"""Structural predicates: forbidden subgraphs, chordality, threshold classes,
vertex connectivity, and the universal-clique decomposition."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cotree import NotCograph, from_graph
from .graph import Graph, bipartition, components, induced_subgraph
from .spectra import algebraic_connectivity

__all__ = [
    "NotApplicable",
    "InternalContradiction",
    "find_induced",
    "perfect_elimination_ordering",
    "is_chordal",
    "is_quasi_threshold",
    "is_regular",
    "is_complete",
    "is_connected",
    "universal_vertices",
    "ClassificationReport",
    "classify",
    "vertex_connectivity",
    "ConnectivityReport",
    "connectivity_report",
    "UniversalCliqueDecomposition",
    "universal_clique_decomposition",
    "SatelliteSpec",
    "parse_generalized_core_satellite",
]


class NotApplicable(ValueError):
    """Input outside an operation's structural preconditions."""


class InternalContradiction(RuntimeError):
    """A structural guarantee failed; something believed impossible happened."""


def find_induced(g: Graph, pattern: str) -> tuple[int, int, int, int] | None:
    """First 4-tuple (lexicographic over 4-subsets) inducing P4, C4 or 2K2.

    Dispatch is by degree profile of the induced subgraph: P4 has degrees
    (1,1,2,2) with 3 edges, C4 is 2-regular with 4 edges, 2K2 has 2 edges
    all of degree 1. P4 witnesses come back in path order.

    The scan runs per (a, b) prefix with the (c, d) tail vectorized, which
    preserves the lexicographic order of the full 4-subset scan.
    """
    if pattern not in ("P4", "C4", "2K2"):
        raise ValueError(f"unknown pattern {pattern!r}")
    n = g.n
    if n < 4:
        return None
    adj = g.adj
    bits = adj.astype(np.int8)
    for a in range(n - 3):
        for b in range(a + 1, n - 2):
            cs, ds = np.triu_indices(n - b - 1, k=1)
            cs = cs + b + 1
            ds = ds + b + 1
            ab = int(bits[a, b])
            ac = bits[a, cs]
            ad = bits[a, ds]
            bc = bits[b, cs]
            bd = bits[b, ds]
            cd = bits[cs, ds]
            da = ab + ac + ad
            db = ab + bc + bd
            dc = ac + bc + cd
            dd = ad + bd + cd
            edges = (da + db + dc + dd) >> 1
            degs = np.stack([da, db, dc, dd])
            if pattern == "P4":
                hit = (edges == 3) & (degs.max(axis=0) == 2) & (degs.min(axis=0) == 1)
            elif pattern == "C4":
                hit = (edges == 4) & (degs.max(axis=0) == 2) & (degs.min(axis=0) == 2)
            else:  # 2K2
                hit = (edges == 2) & (degs.max(axis=0) == 1)
            if not hit.any():
                continue
            i = int(np.argmax(hit))
            quad = (a, b, int(cs[i]), int(ds[i]))
            if pattern != "P4":
                return quad
            return _order_as_path(g, quad)
    return None


def _order_as_path(g: Graph, quad: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    degs = [sum(bool(g.adj[u, v]) for v in quad if v != u) for u in quad]
    a, d = (i for i in range(4) if degs[i] == 1)
    b = next(i for i in range(4) if g.adj[quad[a], quad[i]])
    c = next(i for i in range(4) if g.adj[quad[b], quad[i]] and i != a)
    return (quad[a], quad[b], quad[c], quad[d])


def perfect_elimination_ordering(g: Graph) -> list[int] | None:
    """A perfect elimination ordering via maximum-cardinality search, or None.

    MCS numbers vertices from the back; the graph is chordal iff in the
    resulting order every vertex's later neighbors form a clique.
    """
    n = g.n
    if n == 0:
        return []
    weight = [0] * n
    numbered = [False] * n
    order = [0] * n
    for slot in range(n - 1, -1, -1):
        best = max((v for v in range(n) if not numbered[v]), key=lambda v: (weight[v], -v))
        numbered[best] = True
        order[slot] = best
        for w in g.neighbors(best):
            if not numbered[w]:
                weight[w] += 1
    position = {v: i for i, v in enumerate(order)}
    for i, v in enumerate(order):
        later = [w for w in g.neighbors(v) if position[w] > i]
        if not later:
            continue
        u = min(later, key=lambda w: position[w])
        for w in later:
            if w != u and not g.adj[u, w]:
                return None
    return order


def is_chordal(g: Graph) -> bool:
    return perfect_elimination_ordering(g) is not None


def is_quasi_threshold(g: Graph) -> bool:
    """Chordal cograph: ``classify``'s flag without its witness search, 2K2
    scan and other flags. Non-chordal input skips the cotree recursion."""
    if not is_chordal(g):
        return False
    try:
        from_graph(g)
    except NotCograph:
        return False
    return True


def is_regular(g: Graph) -> bool:
    if g.n < 1:
        raise ValueError("regularity needs at least one vertex")
    degs = g.degrees()
    return bool(np.all(degs == degs[0]))


def is_complete(g: Graph) -> bool:
    if g.n < 1:
        raise ValueError("completeness needs at least one vertex")
    return g.m == g.n * (g.n - 1) // 2


def is_connected(g: Graph) -> bool:
    return g.n >= 1 and len(components(g)) == 1


def universal_vertices(g: Graph) -> list[int]:
    degs = g.degrees()
    return [v for v in range(g.n) if degs[v] == g.n - 1]


@dataclass(frozen=True)
class ClassificationReport:
    is_cograph: bool
    is_chordal: bool
    is_quasi_threshold: bool
    is_threshold: bool
    is_bipartite: bool
    is_regular: bool
    is_complete: bool
    is_connected: bool
    witness: tuple[int, int, int, int] | None  # forbidden induced subgraph, if any

    def to_json_dict(self) -> dict:
        return {
            "is_cograph": self.is_cograph,
            "is_chordal": self.is_chordal,
            "is_quasi_threshold": self.is_quasi_threshold,
            "is_threshold": self.is_threshold,
            "is_bipartite": self.is_bipartite,
            "is_regular": self.is_regular,
            "is_complete": self.is_complete,
            "is_connected": self.is_connected,
            "witness": list(self.witness) if self.witness else None,
        }


def classify(g: Graph) -> ClassificationReport:
    """All structural flags at once.

    Cograph membership comes from the cotree recursion; quasi-threshold is
    cograph plus C4-free (equivalent to chordal for cographs); threshold
    additionally excludes 2K2. The witness is the first forbidden pattern
    ruled on: P4, then C4, then 2K2.
    """
    if g.n < 1:
        raise ValueError("classification needs at least one vertex")
    try:
        from_graph(g)
        cograph = True
        witness = None
    except NotCograph as exc:
        cograph = False
        witness = exc.witness
    chordal = is_chordal(g)
    if not chordal and witness is None:
        witness = find_induced(g, "C4")  # guaranteed for non-chordal cographs
    qt = cograph and chordal
    threshold = False
    if qt:
        two_k2 = find_induced(g, "2K2")
        threshold = two_k2 is None
        if witness is None and two_k2 is not None:
            witness = two_k2
    return ClassificationReport(
        is_cograph=cograph,
        is_chordal=chordal,
        is_quasi_threshold=qt,
        is_threshold=threshold,
        is_bipartite=bipartition(g) is not None,
        is_regular=is_regular(g),
        is_complete=is_complete(g),
        is_connected=is_connected(g),
        witness=witness,
    )


def vertex_connectivity(g: Graph) -> int:
    """kappa(G): n-1 for complete graphs, 0 when disconnected, otherwise the
    minimum over non-adjacent pairs of the vertex-split max-flow (Menger)."""
    if g.n < 2:
        raise ValueError("vertex connectivity needs at least two vertices")
    if is_complete(g):
        return g.n - 1
    if not is_connected(g):
        return 0
    best = g.n - 1
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.adj[u, v]:
                best = min(best, _min_vertex_cut(g, u, v))
    return best


def _min_vertex_cut(g: Graph, source: int, sink: int) -> int:
    """Max flow from source to sink in the vertex-split network with unit
    capacities on internal vertices (Edmonds-Karp on an adjacency-dict residual)."""
    n = g.n
    inf = n + 1
    # node 2v = v_in, 2v+1 = v_out
    cap: list[dict[int, int]] = [dict() for _ in range(2 * n)]

    def add(a: int, b: int, c: int) -> None:
        cap[a][b] = cap[a].get(b, 0) + c
        cap[b].setdefault(a, 0)

    for v in range(n):
        add(2 * v, 2 * v + 1, inf if v in (source, sink) else 1)
    for u in range(n):
        for w in g.neighbors(u):
            add(2 * u + 1, 2 * w, inf)
    s, t = 2 * source + 1, 2 * sink
    flow = 0
    while True:
        parent = {s: -1}
        queue = [s]
        qi = 0
        while qi < len(queue) and t not in parent:
            a = queue[qi]
            qi += 1
            for b, c in cap[a].items():
                if c > 0 and b not in parent:
                    parent[b] = a
                    queue.append(b)
        if t not in parent:
            return flow
        path = []
        b = t
        while b != s:
            a = parent[b]
            path.append((a, b))
            b = a
        push = min(cap[a][b] for a, b in path)
        for a, b in path:
            cap[a][b] -= push
            cap[b][a] += push
        flow += push


@dataclass(frozen=True)
class ConnectivityReport:
    kappa: int
    algebraic: float
    equal_flag: bool  # |kappa - a(G)| <= 1e-8

    def to_json_dict(self) -> dict:
        return {"kappa": self.kappa, "algebraic": self.algebraic, "equal_flag": self.equal_flag}


def connectivity_report(g: Graph, tol: float = 1e-8) -> ConnectivityReport:
    if g.n < 2:
        raise ValueError("connectivity report needs at least two vertices")
    kappa = vertex_connectivity(g)
    a = algebraic_connectivity(g)
    return ConnectivityReport(kappa=kappa, algebraic=a, equal_flag=abs(kappa - a) <= tol)


@dataclass(frozen=True)
class UniversalCliqueDecomposition:
    c: int  # order of the universal clique
    clique_vertices: tuple[int, ...]
    h: Graph  # induced on the rest, relabeled in ascending vertex order
    h_vertices: tuple[int, ...]


def universal_clique_decomposition(g: Graph) -> UniversalCliqueDecomposition:
    """Split a connected non-complete quasi-threshold graph as (all universal
    vertices) joined with the rest; the rest is guaranteed disconnected.

    Raises NotApplicable when preconditions fail and InternalContradiction if
    the structural guarantees do not hold (they cannot, for valid inputs).
    """
    if g.n < 2:
        raise NotApplicable("decomposition needs at least two vertices")
    if is_complete(g):
        raise NotApplicable("graph is complete")
    if not is_connected(g):
        raise NotApplicable("graph is disconnected")
    if not is_quasi_threshold(g):
        raise NotApplicable("graph is not quasi-threshold")
    clique = universal_vertices(g)
    if not clique:
        raise InternalContradiction(
            "connected non-complete quasi-threshold graph without a universal vertex"
        )
    rest = [v for v in range(g.n) if v not in set(clique)]
    h = induced_subgraph(g, rest)
    if len(components(h)) < 2:
        raise InternalContradiction(
            "remainder of the universal-clique decomposition is connected"
        )
    return UniversalCliqueDecomposition(
        c=len(clique), clique_vertices=tuple(clique), h=h, h_vertices=tuple(rest)
    )


@dataclass(frozen=True)
class SatelliteSpec:
    """Parsed core-satellite structure: core order and (count, order) classes."""

    n0: int
    satellites: tuple[tuple[int, int], ...]  # (a_i, n_i), ascending n_i

    @property
    def p(self) -> int:
        return len(self.satellites)

    @property
    def total_satellites(self) -> int:
        return sum(a for a, _ in self.satellites)


def parse_generalized_core_satellite(g: Graph) -> SatelliteSpec | None:
    """Recognize K_{n0} joined with a union of complete satellites.

    The core is the set of universal vertices; every component of the rest
    must be complete. Returns None otherwise: for graphs without a universal
    vertex (disconnected ones among them), for complete graphs (a
    one-satellite reading is rejected), and whenever some component of the
    remainder is not complete. Every graph recognized is quasi-threshold.
    """
    core = universal_vertices(g)
    if not core or len(core) == g.n:
        return None
    core_set = set(core)
    h = induced_subgraph(g, [v for v in range(g.n) if v not in core_set])
    degs = h.degrees()
    orders: dict[int, int] = {}
    for block in components(h):
        if any(degs[v] != len(block) - 1 for v in block):
            return None
        orders[len(block)] = orders.get(len(block), 0) + 1
    satellites = tuple(sorted(((count, order) for order, count in orders.items()), key=lambda x: x[1]))
    return SatelliteSpec(n0=len(core), satellites=satellites)
