"""Cotrees: the union/join expression DSL, normalization, and bag representation.

A cotree is a rooted tree whose leaves are graph vertices and whose internal
nodes are labeled U (disjoint union) or J (join). In normalized form every
internal node has at least two children and no child of its own kind, which
makes the representation canonical up to child order.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .graph import Graph, neighbourhood_masks, split_components

__all__ = [
    "Leaf",
    "Internal",
    "Cotree",
    "UNION",
    "JOIN",
    "MAX_DEPTH",
    "CotreeSyntaxError",
    "NotCograph",
    "parse",
    "normalize",
    "canonicalize",
    "canonical_string",
    "leaf_count",
    "to_graph",
    "from_graph",
    "complement_cotree",
    "Bag",
    "BagRepresentation",
    "bags",
]

UNION = "U"
JOIN = "J"


@dataclass(frozen=True)
class Leaf:
    pass


@dataclass(frozen=True)
class Internal:
    kind: str  # UNION or JOIN
    children: tuple  # of Leaf | Internal


Cotree = Leaf | Internal


class CotreeSyntaxError(ValueError):
    """Raised on malformed cotree expressions; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class NotCograph(Exception):
    """Raised when a graph contains an induced P4; carries the witness vertices."""

    def __init__(self, witness: tuple[int, int, int, int]):
        super().__init__(f"not a cograph; induced P4 on vertices {witness}")
        self.witness = witness


def _leaf_counts(t: Cotree) -> dict[int, int]:
    """Leaf count of every internal node under t, keyed by id(node).

    A leaf, absent from the dict, counts 1: read counts with sizes.get(id(node), 1).
    Each distinct node is counted once, so repeated subtrees (those of
    "k*expr" share one object) cost nothing extra.
    """
    sizes: dict[int, int] = {}
    stack = [t] if isinstance(t, Internal) else []
    while stack:
        node = stack[-1]
        pending = [c for c in node.children if isinstance(c, Internal) and id(c) not in sizes]
        if pending:
            stack.extend(pending)
            continue
        sizes[id(node)] = sum(sizes.get(id(c), 1) for c in node.children)
        stack.pop()
    return sizes


def leaf_count(t: Cotree) -> int:
    if isinstance(t, Leaf):
        return 1
    return sum(leaf_count(c) for c in t.children)


def _walk(t: Cotree) -> tuple[list[tuple[int, int, str]], list[tuple[tuple[int, ...], str, int]]]:
    """Walk a normalized cotree with an explicit stack, parents before children.

    Leaves are numbered in DFS order. Returns the (lo, hi, kind) leaf range
    of every internal node, parents first, and per bag (the leaf children of
    one node) its (members, parent kind, degree). The degree is t - 1 under a
    J-parent plus, for each join ancestor A, the leaves of A outside A's
    child on the path.
    """
    sizes = _leaf_counts(t)
    ranges: list[tuple[int, int, str]] = []
    records: list[tuple[tuple[int, ...], str, int]] = []
    # (node, first leaf, degree its bag gets from join ancestors)
    stack = [(t, 0, 0)] if isinstance(t, Internal) else []
    while stack:
        node, lo, acc = stack.pop()
        total = sizes[id(node)]
        join = node.kind == JOIN
        ranges.append((lo, lo + total, node.kind))
        members = []
        for c in node.children:
            size = sizes.get(id(c), 1)
            if isinstance(c, Leaf):
                members.append(lo)
            else:
                stack.append((c, lo, acc + total - size if join else acc))
            lo += size
        if members:
            records.append((tuple(members), node.kind, acc + total - 1 if join else acc))
    return ranges, records


def _block_fill(size: int, blocks) -> np.ndarray:
    """Adjacency of a cotree from its nodes' (lo, hi, kind) ranges, parents first.

    Each range's block is set to kind == JOIN and later, deeper ranges
    overwrite their sub-blocks, so each pair ends up set by its LCA.
    """
    a = np.zeros((size, size), dtype=bool)
    for lo, hi, kind in blocks:
        a[lo:hi, lo:hi] = kind == JOIN
    np.fill_diagonal(a, False)
    return a


# ---------------------------------------------------------------------------
# DSL parser
#
#   expr  := node | "K(" INT ")" | "E(" INT ")"
#   node  := ("U" | "J") "(" item ("," item)* ")"
#   item  := expr | INT "*" expr | INT
#
# Bare INT n inside a node stands for n leaf children; k*expr for k sibling
# copies; K(n)/E(n) are the complete/edgeless graphs on n vertices. All
# integers must be >= 1. The result is returned in normalized form.
#
# U/J nodes nest at most MAX_DEPTH deep. The parser and the tree walks
# normalize (which to_graph and bags call first), _canon, leaf_count and
# recognition.cotree_flags recurse once or more per level, and the cap keeps
# them well inside Python's recursion limit. from_graph, and the to_graph and
# bags walks, use an explicit stack; from_graph still applies the cap to graph
# input, because the cotree it returns goes on to the recursive walks.
# ---------------------------------------------------------------------------

MAX_DEPTH = 256


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message: str) -> CotreeSyntaxError:
        return CotreeSyntaxError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def parse_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an integer")
        value = int(self.text[start : self.pos])
        if value < 1:
            self.pos = start
            raise self.error("integers must be >= 1")
        return value

    def parse_expr(self) -> Cotree:
        c = self.peek()
        if c in (UNION, JOIN):
            return self.parse_node(c)
        if c in ("K", "E"):
            self.pos += 1
            self.expect("(")
            n = self.parse_int()
            self.expect(")")
            if n == 1:
                return Leaf()
            kind = JOIN if c == "K" else UNION
            return Internal(kind, tuple(Leaf() for _ in range(n)))
        raise self.error("expected 'U', 'J', 'K' or 'E'")

    def parse_node(self, kind: str) -> Cotree:
        if self.depth == MAX_DEPTH:
            raise self.error(f"nodes nested deeper than {MAX_DEPTH} levels")
        self.depth += 1
        self.pos += 1
        self.expect("(")
        if self.peek() == ")":
            raise self.error("node needs at least one item")
        children: list[Cotree] = []
        while True:
            children.extend(self.parse_item())
            if self.peek() == ",":
                self.pos += 1
                continue
            break
        self.expect(")")
        self.depth -= 1
        return Internal(kind, tuple(children))

    def parse_item(self) -> list[Cotree]:
        c = self.peek()
        if c.isdigit():
            n = self.parse_int()
            if self.peek() == "*":
                self.pos += 1
                sub = self.parse_expr()
                return [sub] * n
            return [Leaf() for _ in range(n)]
        return [self.parse_expr()]


def parse(text: str) -> Cotree:
    """Parse a cotree expression and return it normalized."""
    p = _Parser(text)
    tree = p.parse_expr()
    p.skip_ws()
    if p.pos != len(p.text):
        raise p.error("unexpected trailing input")
    return normalize(tree)


def normalize(t: Cotree) -> Cotree:
    """Collapse same-kind parent/child chains and elide single-child internals."""
    if isinstance(t, Leaf):
        return t
    kids: list[Cotree] = []
    for c in t.children:
        c = normalize(c)
        if isinstance(c, Internal) and c.kind == t.kind:
            kids.extend(c.children)
        else:
            kids.append(c)
    if len(kids) == 1:
        return kids[0]
    return Internal(t.kind, tuple(kids))


def _canon(t: Cotree) -> tuple[Cotree, str, int]:
    """Return (reordered tree, canonical string, leaf count) for a normalized tree."""
    if isinstance(t, Leaf):
        return t, "1", 1
    leaves = sum(1 for c in t.children if isinstance(c, Leaf))
    internals = sorted(
        (_canon(c) for c in t.children if isinstance(c, Internal)),
        key=lambda item: (item[2], item[1]),
    )
    parts: list[str] = []
    if leaves:
        parts.append(str(leaves))
    parts.extend(s for _, s, _ in internals)
    tree = Internal(t.kind, tuple([Leaf()] * leaves + [sub for sub, _, _ in internals]))
    return tree, f"{t.kind}({','.join(parts)})", leaves + sum(k for _, _, k in internals)


def canonicalize(t: Cotree) -> Cotree:
    """Reorder children into canonical order: leaves first, then by (size, string)."""
    return _canon(normalize(t))[0]


def canonical_string(t: Cotree) -> str:
    """Deterministic text form; equal strings iff the cographs are isomorphic.

    The one-vertex cotree prints as "J(1)", which parses back to a single leaf.
    """
    t = normalize(t)
    if isinstance(t, Leaf):
        return "J(1)"
    return _canon(t)[1]


def to_graph(t: Cotree) -> Graph:
    """Build the graph of a cotree: leaves in DFS order, adjacency iff the LCA is a join."""
    ranges, _ = _walk(normalize(t))
    return Graph(_block_fill(ranges[0][1] if ranges else 1, ranges))


def from_graph(g: Graph) -> Cotree:
    """Recover a normalized cotree by complement-reducibility.

    Single vertex -> leaf; disconnected -> union over components; complement
    disconnected -> join over co-components. Vertex sets are int bitmasks
    split with the neighbourhood masks of g and of its complement, in DFS
    order, so children keep the order of their smallest vertices. Raises
    NotCograph with the first induced-P4 witness (find_p4) otherwise, and
    ValueError when the cotree would nest deeper than MAX_DEPTH internal
    nodes (the parser's cap), whichever the DFS meets first.
    """
    if g.n < 1:
        raise ValueError("from_graph requires at least one vertex")
    nbr = neighbourhood_masks(g.adj)
    full = (1 << g.n) - 1
    co = [full & ~m & ~(1 << v) for v, m in enumerate(nbr)]
    root: list[Cotree | None] = [None]
    stack = [(full, 0, root, 0)]  # (vertex mask, depth, parent's child slots, slot)
    internals = []  # (kind, child slots, parent's child slots, slot), in pre-order
    while stack:
        verts, depth, slots, i = stack.pop()
        if verts & (verts - 1) == 0:
            slots[i] = Leaf()
            continue
        kind, parts = UNION, split_components(nbr, verts)
        if len(parts) == 1:
            kind, parts = JOIN, split_components(co, verts)
            if len(parts) == 1:
                witness = find_p4(g)
                assert witness is not None, "connected, co-connected graph must contain a P4"
                raise NotCograph(witness)
        if depth == MAX_DEPTH:
            raise ValueError(f"cotree nests deeper than MAX_DEPTH = {MAX_DEPTH} levels")
        kids: list[Cotree | None] = [None] * len(parts)
        internals.append((kind, kids, slots, i))
        stack.extend((parts[j], depth + 1, kids, j) for j in reversed(range(len(parts))))
    for kind, kids, slots, i in reversed(internals):
        slots[i] = Internal(kind, tuple(kids))
    return root[0]


def find_p4(g: Graph) -> tuple[int, int, int, int] | None:
    """First induced P4 over lexicographic 4-subsets, returned in path order."""
    from .recognition import find_induced  # deferred: recognition imports this module

    return find_induced(g, "P4")


def complement_cotree(t: Cotree) -> Cotree:
    """Cotree of the complement graph: swap all U/J labels, then renormalize."""

    def swap(node: Cotree) -> Cotree:
        if isinstance(node, Leaf):
            return node
        kind = UNION if node.kind == JOIN else JOIN
        return Internal(kind, tuple(swap(c) for c in node.children))

    return normalize(swap(normalize(t)))


# ---------------------------------------------------------------------------
# Bag representation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bag:
    """A maximal group of sibling leaves.

    kind is the parent's label (J or U), t the number of leaves, p their
    common degree in the represented graph, members the vertex indices in
    to_graph order.
    """

    id: int
    kind: str
    t: int
    p: int
    members: tuple[int, ...]


@dataclass(frozen=True)
class BagRepresentation:
    bags: tuple[Bag, ...]
    z: np.ndarray  # r x r bag adjacency; diagonal unused (False)

    @property
    def r(self) -> int:
        return len(self.bags)

    @property
    def n(self) -> int:
        return sum(b.t for b in self.bags)


def bags(t: Cotree) -> BagRepresentation:
    """Group the leaves of a normalized cotree into bags with per-bag degrees.

    Bags are ordered by their first vertex in to_graph leaf order. The bags
    under a node are contiguous in that order, so the bag adjacency is the
    same block fill as to_graph's over bag ranges. Leaf counts are computed
    once per distinct node (repeated subtrees such as those of "k*expr"
    share one object). The one-leaf cotree yields a single J-bag with t=1
    and p=0 by convention.
    """
    t = normalize(t)
    if isinstance(t, Leaf):
        return BagRepresentation(
            bags=(Bag(0, JOIN, 1, 0, (0,)),), z=np.zeros((1, 1), dtype=bool)
        )

    ranges, records = _walk(t)
    records.sort(key=lambda rec: rec[0][0])
    firsts = [members[0] for members, _, _ in records]
    blocks = [(bisect_left(firsts, lo), bisect_left(firsts, hi), kind) for lo, hi, kind in ranges]
    z = _block_fill(len(records), blocks)
    blist = tuple(
        Bag(i, kind, len(members), p, members) for i, (members, kind, p) in enumerate(records)
    )
    return BagRepresentation(bags=blist, z=z)
