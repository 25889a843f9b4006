"""Cotrees: the union/join expression DSL, normalization, and bag representation.

A cotree is a rooted tree whose leaves are graph vertices and whose internal
nodes are labeled U (disjoint union) or J (join). In normalized form every
internal node has at least two children and no child of its own kind, which
makes the representation canonical up to child order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, complement, components, induced_subgraph

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


class _NoCotree(Exception):
    pass


def leaf_count(t: Cotree) -> int:
    if isinstance(t, Leaf):
        return 1
    return sum(leaf_count(c) for c in t.children)


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
# U/J nodes nest at most MAX_DEPTH deep. The parser and the tree walks after
# it (normalize, to_graph, bags, ...) recurse once or more per level, and the
# cap keeps them well inside Python's recursion limit. from_graph applies the
# same cap to graph input.
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
    t = normalize(t)

    def build(node: Cotree) -> Graph:
        if isinstance(node, Leaf):
            return Graph.complete(1)
        parts = [build(c) for c in node.children]
        total = sum(p.n for p in parts)
        a = np.zeros((total, total), dtype=bool)
        if node.kind == JOIN:
            a[:, :] = True
        off = 0
        for p in parts:
            a[off : off + p.n, off : off + p.n] = p.adj
            off += p.n
        if node.kind == JOIN:
            np.fill_diagonal(a, False)
        return Graph(a)

    return build(t)


def from_graph(g: Graph) -> Cotree:
    """Recover a normalized cotree by complement-reducibility recursion.

    Single vertex -> leaf; disconnected -> union over components; complement
    disconnected -> join over co-components. Raises NotCograph with an
    induced-P4 witness otherwise, and ValueError when the cotree would nest
    deeper than MAX_DEPTH internal nodes (the parser's cap).
    """
    if g.n < 1:
        raise ValueError("from_graph requires at least one vertex")

    def build(sub: Graph, depth: int) -> Cotree:
        if sub.n == 1:
            return Leaf()
        kind, parts = UNION, components(sub)
        if len(parts) == 1:
            kind, parts = JOIN, components(complement(sub))
            if len(parts) == 1:
                raise _NoCotree
        if depth == MAX_DEPTH:
            raise ValueError(f"cotree nests deeper than MAX_DEPTH = {MAX_DEPTH} levels")
        return Internal(kind, tuple(build(induced_subgraph(sub, c), depth + 1) for c in parts))

    try:
        return build(g, 0)
    except _NoCotree:
        witness = find_p4(g)
        assert witness is not None, "connected, co-connected graph must contain a P4"
        raise NotCograph(witness) from None


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

    Bags are ordered by their first vertex in to_graph leaf order. The degree
    of a bag's vertices is accumulated over join ancestors: each join ancestor
    A contributes leafcount(A) minus the leafcount of A's child on the path.
    Leaf counts are computed once per distinct node (repeated subtrees such as
    those of "k*expr" share one object). The one-leaf cotree yields a single
    J-bag with t=1 and p=0 by convention.
    """
    t = normalize(t)
    if isinstance(t, Leaf):
        return BagRepresentation(
            bags=(Bag(0, JOIN, 1, 0, (0,)),), z=np.zeros((1, 1), dtype=bool)
        )

    # per bag: (first vertex, parent kind, degree, members,
    #           child-index path root->parent, kinds of nodes root->parent)
    records: list[tuple[int, str, int, tuple[int, ...], tuple[int, ...], tuple[str, ...]]] = []
    counter = [0]
    sizes: dict[int, int] = {}  # id(node) -> leaf count

    def size(node: Cotree) -> int:
        key = id(node)
        if key not in sizes:
            sizes[key] = 1 if isinstance(node, Leaf) else sum(size(c) for c in node.children)
        return sizes[key]

    def walk(node: Internal, acc: int, pos: tuple[int, ...], kinds: tuple[str, ...]):
        here_kinds = kinds + (node.kind,)
        total = size(node)
        members: list[int] = []
        for i, c in enumerate(node.children):
            if isinstance(c, Leaf):
                members.append(counter[0])
                counter[0] += 1
            else:
                extra = total - size(c) if node.kind == JOIN else 0
                walk(c, acc + extra, pos + (i,), here_kinds)
        if members:
            p = acc + total - 1 if node.kind == JOIN else acc
            records.append((members[0], node.kind, p, tuple(members), pos, here_kinds))

    walk(t, 0, (), ())
    records.sort(key=lambda rec: rec[0])

    blist = tuple(
        Bag(i, kind, len(members), p, members)
        for i, (_, kind, p, members, _, _) in enumerate(records)
    )
    r = len(blist)
    z = np.zeros((r, r), dtype=bool)
    for i in range(r):
        _, _, _, _, pos_i, kinds_i = records[i]
        for j in range(i + 1, r):
            _, _, _, _, pos_j, _ = records[j]
            # LCA of two leaves in distinct bags is the node where the
            # parents' root paths diverge (or the shallower parent itself)
            depth = 0
            limit = min(len(pos_i), len(pos_j))
            while depth < limit and pos_i[depth] == pos_j[depth]:
                depth += 1
            z[i, j] = z[j, i] = kinds_i[depth] == JOIN
    return BagRepresentation(bags=blist, z=z)
