"""Structural predicates: forbidden subgraphs, chordality, threshold classes,
vertex connectivity, and the universal-clique decomposition."""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Callable

import numpy as np

from .cotree import JOIN, UNION, Cotree, Internal, Leaf, _from_graph, _post_order, find_p4, normalize
from .graph import Graph, bipartition, components, induced_subgraph
from .spectra import algebraic_connectivity

__all__ = [
    "NotApplicable",
    "InternalContradiction",
    "find_induced",
    "perfect_elimination_ordering",
    "is_chordal",
    "is_regular",
    "is_complete",
    "is_connected",
    "universal_vertices",
    "ClassificationReport",
    "FLAGS",
    "cotree_flags",
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


# cells of find_induced's scan per block: a block's codes and their bytes
# copies stay near 4 MB each
_SCAN_CELLS = 1 << 22


def _pattern_table(profile: list[int]) -> bytes:
    """Hit byte (1 or 0) per code of a 4-subset a < b < c < d whose induced
    degrees, sorted, are profile; as a bytes.translate table.

    The code packs the six adjacencies as bits ab ac bc ad bd cd, from bit 5
    down to bit 0; codes 64..255 mark (c, d) pairs outside the scan.
    """
    table = bytearray(256)
    for code in range(64):
        ab, ac, bc, ad, bd, cd = ((code >> k) & 1 for k in range(5, -1, -1))
        degrees = sorted((ab + ac + ad, ab + bc + bd, ac + bc + cd, ad + bd + cd))
        table[code] = degrees == profile
    return bytes(table)


_TABLES = {
    pattern: _pattern_table(profile)
    for pattern, profile in (("P4", [1, 1, 2, 2]), ("C4", [2, 2, 2, 2]), ("2K2", [1, 1, 1, 1]))
}


def find_induced(g: Graph, pattern: str) -> tuple[int, int, int, int] | None:
    """First 4-tuple (lexicographic over 4-subsets) inducing P4, C4 or 2K2.

    Dispatch is by degree profile of the induced subgraph: P4 has degrees
    (1,1,2,2) with 3 edges, C4 is 2-regular with 4 edges, 2K2 has 2 edges
    all of degree 1. P4 witnesses come back in path order.

    The scan runs per a over blocks of consecutive b, each block one uint8
    array over (b, c, d) with c and d in the tail after the block's first b:
    a cell's code is the sum of a (b, c) term (ab, ac, bc), a (b, d) term
    (ad, bd) and the (c, d) adjacency, looked up in the pattern's table.
    Cells with c <= b or d <= c carry 64 in their terms, which the table
    maps to no hit, so the first hit in C order is the first 4-subset in
    lexicographic order. bytes.translate maps a block's codes through the
    table in one C pass and bytes.find returns the first hit.
    """
    if pattern not in _TABLES:
        raise ValueError(f"unknown pattern {pattern!r}")
    n = g.n
    if n < 4:
        return None
    table = _TABLES[pattern]
    bits = g.adj.astype(np.uint8)
    pair = np.where(np.tri(n, dtype=bool), np.uint8(64), bits)  # cd, or 64 where d <= c
    for a in range(n - 3):
        b = a + 1
        while b < n - 2:
            m = n - b - 1  # the tail: vertices b + 1 .. n - 1
            stop = min(n - 2, b + max(1, _SCAN_CELLS // (m * m)))
            kinds = 2 * bits[a, b + 1 :] + bits[b:stop, b + 1 :]  # 2ac + bc per (b, c)
            left = 32 * bits[a, b:stop, None] + 8 * kinds + np.tri(stop - b, m, -1, dtype=np.uint8) * 64
            code = left[:, :, None] + (2 * kinds)[:, None, :]
            code += pair[b + 1 :, b + 1 :]
            first = code.tobytes().translate(table).find(1)
            if first >= 0:
                i, j = divmod(first, m * m)
                quad = (a, b + i, b + 1 + j // m, b + 1 + j % m)
                return _order_as_path(g, quad) if pattern == "P4" else quad
            b = stop
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


Witness = tuple[int, int, int, int]


@dataclass(frozen=True, eq=False)
class ClassificationReport:
    """Structural flags plus the first forbidden induced subgraph, if any.

    ``witness`` is found on its first read, by calling ``search_witness``;
    two reports are equal iff their flags (``FLAGS``, in field order) and
    witnesses are.
    """

    is_cograph: bool
    is_chordal: bool
    is_quasi_threshold: bool
    is_threshold: bool
    is_bipartite: bool
    is_regular: bool
    is_complete: bool
    is_connected: bool
    search_witness: Callable[[], Witness | None] = field(repr=False)

    @cached_property
    def witness(self) -> Witness | None:
        """Forbidden induced subgraph: P4, then C4, then 2K2, else None."""
        return self.search_witness()

    def to_json_dict(self) -> dict:
        flags = {name: getattr(self, name) for name in FLAGS}
        return flags | {"witness": list(self.witness) if self.witness else None}

    def _key(self) -> tuple:
        return (*(getattr(self, name) for name in FLAGS), self.witness)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassificationReport):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


FLAGS = tuple(f.name for f in fields(ClassificationReport) if f.name != "search_witness")


def cotree_flags(t: Cotree) -> dict[str, bool]:
    """The flags of ``classify`` for the cograph of a cotree, read off the tree.

    In normal form (Corneil, Lerchs and Stewart Burlingham 1981; Yan, Chen
    and Chang 1996) the graph is quasi-threshold, which for a cograph is
    chordal, iff every J-node has at most one non-leaf child; threshold iff
    every U-node has too; bipartite iff every J-node has two children, each
    a leaf or an all-leaf U-node; connected iff the root is a J-node or a
    leaf. It is regular iff the root records a common degree, complete iff
    that degree is n - 1.

    One pass over the nodes of the normal form, in any order, each read with
    its children and grandchildren.
    """
    t = normalize(t)
    crowded = {JOIN: False, UNION: False}  # kind -> some node has two non-leaf children
    odd_join = False  # some J-node breaks the bipartite rule
    for node in _post_order(t):
        inner = [c for c in node.children if isinstance(c, Internal)]
        crowded[node.kind] |= len(inner) > 1
        odd_join = odd_join or node.kind == JOIN and (
            len(node.children) != 2 or any(isinstance(x, Internal) for c in inner for x in c.children)
        )
    qt = not crowded[JOIN]
    return {
        "is_chordal": qt,
        "is_quasi_threshold": qt,
        "is_threshold": qt and not crowded[UNION],
        "is_bipartite": not odd_join,
        "is_regular": t.degree is not None,
        "is_complete": t.degree == t.n - 1,
        "is_connected": isinstance(t, Leaf) or t.kind == JOIN,
    }


def _first_quad(t: Internal, quad_kind: str, labels: dict[int, int] | None) -> Witness | None:
    """The first four leaves of t, as a sorted tuple of labels, that induce
    C4 (quad_kind J: two non-adjacent pairs under two children of a J-node,
    a non-adjacent pair being two leaves under two children of a U-node) or
    2K2 (quad_kind U: the same with the kinds swapped); None if none do.

    A leaf's label is labels[id(leaf)], or else its to_graph position, kept
    relative to each node's first leaf so that a shared subtree is walked
    once. Either way a subtree's first leaf has its smallest label and
    siblings come in that order, so a node's first cross pair is its first
    two children's first leaves; merging disjoint sorted pairs is monotone
    in each, so its first cross quad merges its children's two first pairs.
    """
    pair_kind = UNION if quad_kind == JOIN else JOIN
    # id(node) -> (first label, first pair, first quad); a leaf labelled by position is (0, None, None)
    done = {leaf: (v, None, None) for leaf, v in (labels or {}).items()}
    for node in _post_order(t):
        firsts, pairs, quads, offset = [], [], [], 0
        for c in node.children:
            shift = offset if labels is None else 0
            first, pair, quad = done.get(id(c), (0, None, None))
            firsts.append(first + shift)
            pairs += [tuple(x + shift for x in pair)] if pair else []
            quads += [tuple(x + shift for x in quad)] if quad else []
            offset += c.n
        if node.kind == pair_kind:
            pairs.append((firsts[0], firsts[1]))
        elif len(pairs) > 1:
            p, q = heapq.nsmallest(2, pairs)
            quads.append(tuple(sorted(p + q)))
        done[id(node)] = firsts[0], min(pairs, default=None), min(quads, default=None)
    return done[id(t)][2]


def classify(source: Graph | Cotree) -> ClassificationReport:
    """All structural flags of a graph, or of the cograph of a cotree, at once.

    A cotree, or the cotree ``from_graph`` recovers from a cograph, gives
    every flag through ``cotree_flags``. A graph that is not a cograph keeps
    the dense route: maximum-cardinality search for chordality,
    two-colouring, degrees, components.

    The witness is the first forbidden pattern ruled on: the induced P4 of a
    non-cograph, else the first C4 of a non-chordal graph, else the first
    2K2 of a non-threshold one, else None, first as in ``find_induced``. It
    is searched when ``report.witness`` is first read: for a cograph by one
    walk of the same cotree, with no graph built, for a non-cograph by
    ``find_p4``.
    """
    if isinstance(source, Graph):
        if source.n < 1:
            raise ValueError("classification needs at least one vertex")
        recovered = _from_graph(source)
        if recovered is None:
            return _classify_dense(source)
        t, labels = recovered
    else:
        t, labels = normalize(source), None
    flags = cotree_flags(t)

    def search_witness() -> Witness | None:
        if flags["is_threshold"]:
            return None
        return _first_quad(t, JOIN if not flags["is_chordal"] else UNION, labels)

    return ClassificationReport(is_cograph=True, **flags, search_witness=search_witness)


def _classify_dense(g: Graph) -> ClassificationReport:
    """Flags of a graph that is not a cograph; its first induced P4 is
    searched when ``report.witness`` is first read."""
    return ClassificationReport(
        is_cograph=False,
        is_chordal=is_chordal(g),
        is_quasi_threshold=False,
        is_threshold=False,
        is_bipartite=bipartition(g) is not None,
        is_regular=is_regular(g),
        is_complete=is_complete(g),
        is_connected=is_connected(g),
        search_witness=lambda: find_p4(g),
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
    if not classify(g).is_quasi_threshold:
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


def parse_generalized_core_satellite(source: Graph | Cotree) -> SatelliteSpec | None:
    """Recognize K_{n0} joined with a union of complete satellites, on the cotree.

    The normal form of the cotree must be a J root with n0 >= 1 leaf
    children (the core) and exactly one other child, which the normal form
    makes a U-node; each child of that U-node must be a leaf or a J-node of
    leaves (a satellite). Returns None otherwise: for non-cographs,
    disconnected and complete graphs (a one-satellite reading is rejected),
    and whenever some satellite is not complete. Every graph recognized is
    quasi-threshold. A graph is read through ``from_graph``'s split, whose
    cotree may nest to any depth; a non-cograph's P4 is not searched.
    """
    if isinstance(source, Graph):
        recovered = _from_graph(source)
        if recovered is None:
            return None
        source = recovered[0]
    t = normalize(source)
    if not (isinstance(t, Internal) and t.kind == JOIN):
        return None
    rest = [c for c in t.children if isinstance(c, Internal)]
    n0 = len(t.children) - len(rest)
    if n0 == 0 or len(rest) != 1:
        return None
    sats = rest[0].children
    if not all(isinstance(c, Leaf) or all(isinstance(x, Leaf) for x in c.children) for c in sats):
        return None
    orders = Counter(1 if isinstance(c, Leaf) else len(c.children) for c in sats)
    satellites = tuple(sorted(((count, order) for order, count in orders.items()), key=lambda x: x[1]))
    return SatelliteSpec(n0=n0, satellites=satellites)
