"""Cotrees: the union/join expression DSL, normalization, and bag representation.

A cotree is a rooted tree whose leaves are graph vertices and whose internal
nodes are labeled U (disjoint union) or J (join). In normalized form every
internal node has at least two children and no child of its own kind, which
makes the representation canonical up to child order. Each node records at
construction whether it is normal, its leaf count ``n`` and the degree its
leaves share in its graph, so every walk calls ``normalize`` once, free on a
normal tree, and then reads ``node.children`` and these facts directly.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .graph import (
    MAX_EDGE_LIST_N,
    Graph,
    _mask_members,
    find_induced,
    induced_subgraph,
    neighbourhood_masks,
    split_components,
)

__all__ = [
    "Leaf",
    "Internal",
    "Cotree",
    "UNION",
    "JOIN",
    "MAX_DEPTH",
    "MAX_CHILDREN",
    "CotreeSyntaxError",
    "NotCograph",
    "parse",
    "normalize",
    "canonicalize",
    "canonical_string",
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
    n = 1  # leaf count
    degree = 0  # degree of the vertex in its own one-vertex graph


@dataclass(frozen=True)
class Internal:
    """A U or J node. Three facts are derived from the children alone, without
    recursion, and take no part in ``==`` or ``hash``:

    - ``normal``: at least two children, each a leaf or a normal node of the
      other kind;
    - ``n``: the number of leaves below;
    - ``degree``: the degree every leaf has in the subtree's graph, or None
      if they differ.

    ``n`` and ``degree`` are facts of the subtree's graph, so they are the
    same for a tree and its normal form. More than MAX_CHILDREN children
    are refused with ValueError.
    """

    kind: str  # UNION or JOIN
    children: tuple  # of Leaf | Internal
    normal: bool = field(init=False, repr=False, compare=False)
    n: int = field(init=False, repr=False, compare=False)
    degree: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        kind, children = self.kind, self.children
        if len(children) > MAX_CHILDREN:
            raise ValueError(f"a node of more than {MAX_CHILDREN} children")
        join = kind == JOIN
        normal, n, shifts = len(children) > 1, 0, set()
        for c in children:
            n += c.n
            # under a J-node a leaf of c gains the n - c.n leaves outside c
            shifts.add(c.degree - c.n if join and c.degree is not None else c.degree)
            if normal and isinstance(c, Internal) and (c.kind == kind or not c.normal):
                normal = False
        shift = shifts.pop() if len(shifts) == 1 else None
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "degree", shift + n if join and shift is not None else shift)

    def __repr__(self) -> str:
        """``Internal(n=<leaves>, <DSL>)``: the tree as ``parse`` reads it, a
        run of leaves as their count and a run of one repeated child as
        ``k*expr``. It is written top-down with an explicit stack and cut
        after _REPR_LIMIT characters, and each run is scanned once, so a deep
        or widely shared tree prints in bounded time and space."""
        ends: dict[tuple[int, int], int] = {}  # (id(node), i) -> end of the run that starts at child i
        out, size, stack = [], 0, [(self, 0)]
        while stack and size < _REPR_LIMIT:
            node, i = stack.pop()
            kids = node.children
            if i == len(kids):
                out.append(")")
                size += 1
                continue
            c, j = kids[i], ends.get((id(node), i))
            if j is None:
                j = i + 1
                if isinstance(c, Leaf):
                    while j < len(kids) and isinstance(kids[j], Leaf):
                        j += 1
                else:
                    while j < len(kids) and kids[j] is c:
                        j += 1
                ends[id(node), i] = j
            stack.append((node, j))
            if isinstance(c, Leaf):
                item = str(j - i)
            else:
                stack.append((c, 0))
                item = f"{j - i}*" if j > i + 1 else ""
            out.append(("," if i else f"{node.kind}(") + item)
            size += len(out[-1])
        text = "".join(out)
        return f"Internal(n={self.n}, {text[:_REPR_LIMIT] + '...' if stack else text})"


_REPR_LIMIT = 4096  # characters of DSL text in the repr of an Internal


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


def _post_order(t: Cotree) -> list[Internal]:
    """The distinct internal nodes of t, each after all of its children: the
    order of every bottom-up walk, which keys its results by id(node). Nodes
    are listed once per level they occur on, so a subtree object that recurs
    (as in "k*expr") costs nothing extra, and kept at the deepest of them."""
    order, level = [], [t] if isinstance(t, Internal) else []
    while level:
        order += level
        level = {id(c): c for node in level for c in node.children if isinstance(c, Internal)}.values()
    return list({id(node): node for node in reversed(order)}.values())


def _normal_step(kind: str, kids: list[Cotree]) -> Cotree:
    """The normal form of a node of this kind over children in normal form:
    their merge (``_merged_children``), and a lone child in place of the node."""
    flat = _merged_children(kind, kids)
    return flat[0] if len(flat) == 1 else Internal(kind, tuple(flat))


def _merged_children(kind: str, children) -> list[Cotree]:
    """The children of the normal form of a node of this kind over these
    children, each still to be normalized: the children, read left to right
    through every node of the same kind and every lone-child node, which the
    normal form merges into the node. A normal node of the same kind gives
    its children whole. A node of more than MAX_CHILDREN children is refused
    with ValueError as soon as the merge passes that many."""
    kids: list[Cotree] = []
    stack = [iter(children)]
    while stack:
        for c in stack[-1]:
            # the common case first: a leaf, or a node of the other kind with two or more children
            if type(c) is Leaf or c.kind != kind and (c.normal or len(c.children) > 1):
                kids.append(c)
            elif c.normal:  # of the same kind
                kids += c.children
            else:
                stack.append(iter(c.children))
                break
            if len(kids) > MAX_CHILDREN:
                raise ValueError(f"a node of more than {MAX_CHILDREN} children")
        else:
            stack.pop()
    return kids


def _walk(t: Cotree) -> tuple[list[tuple[int, int, str]], list[tuple[int, str, int, int]]]:
    """Walk the normal form of a cotree with an explicit stack, parents before children.

    Leaves are numbered in DFS order. Returns the (lo, hi, kind) leaf range
    of every internal node, parents first, and per bag (the leaf children of
    one node, or a lone leaf as a J-bag) its (first vertex, parent kind, t,
    degree p), in walk order. The degree is t - 1 under a J-parent plus, for
    each join ancestor A, the leaves of A outside A's child on the path.
    """
    t = normalize(t)
    ranges: list[tuple[int, int, str]] = []
    records: list[tuple[int, str, int, int]] = [] if isinstance(t, Internal) else [(0, JOIN, 1, 0)]
    # (node, first leaf, degree its bag gets from join ancestors)
    stack = [(t, 0, 0)] if isinstance(t, Internal) else []
    while stack:
        node, lo, acc = stack.pop()
        total = node.n
        join = node.kind == JOIN
        ranges.append((lo, lo + total, node.kind))
        if total == len(node.children):  # leaves alone: a normal internal child has two or more
            first, size = lo, total
        else:
            first = size = 0
            for c in node.children:
                if type(c) is Leaf:
                    if not size:
                        first = lo
                    size += 1
                    lo += 1
                else:
                    stack.append((c, lo, acc + total - c.n if join else acc))
                    lo += c.n
        if size:
            records.append((first, node.kind, size, acc + total - 1 if join else acc))
    return ranges, records


def _bag_records(
    t: Cotree,
) -> tuple[list[tuple[int, int, str]], list[tuple[int, str, int, int]], list[tuple[int, int, str]]]:
    """``_walk`` of t, its bags ordered by first vertex, and each internal
    node's (lo, hi, kind) range of bag indices, parents first: the bags under
    a node are contiguous in that order. More than ``MAX_EDGE_LIST_N`` bags
    are refused first (``_refuse_wide``)."""
    _refuse_wide(t)
    ranges, records = _walk(t)
    records.sort()  # by first vertex, which no two bags share
    firsts = [first for first, _, _, _ in records]
    return ranges, records, [(bisect_left(firsts, lo), bisect_left(firsts, hi), kind) for lo, hi, kind in ranges]


def _classes(t: Cotree) -> list[tuple[bool, int, list[tuple[int, int]], int, int]]:
    """The symmetry classes of t's normal form, children before parents and
    the root last. Nodes are interned bottom-up by (kind, leaf children,
    sorted child classes), so two nodes share a class iff their subtrees are
    isomorphic. Per class: whether it is a J-node, its leaf children, its
    (child class, copies) pairs, and its two widths, each counted once from
    its child classes: its bags and its positions with leaves. The one-leaf
    tree is one J-class with one leaf."""
    t = normalize(t)
    if isinstance(t, Leaf):
        return [(True, 1, [], 1, 1)]
    classes: dict[tuple, int] = {}  # (kind, leaf children, *sorted child classes) -> class
    rows: list[tuple[bool, int, list[tuple[int, int]], int, int]] = []
    of: dict[int, int] = {}  # id(node) -> class
    for node in _post_order(t):
        children = node.children
        kids = sorted([of[id(c)] for c in children if isinstance(c, Internal)])
        key = (node.kind, len(children) - len(kids), *kids)
        c = classes.get(key)
        if c is None:
            c = classes[key] = len(rows)
            copies = dict.fromkeys(kids, 0)
            bag_count = positions = key[1] > 0
            for k in kids:
                copies[k] += 1
                bag_count += rows[k][3]
            for k in copies:
                positions += rows[k][4]
            rows.append((node.kind == JOIN, key[1], list(copies.items()), bag_count, positions))
        of[id(node)] = c
    return rows


def _refuse_wide(t: Cotree) -> None:
    """Refuse with ValueError a tree of more than ``MAX_EDGE_LIST_N`` bags
    (``_refuse_bags``). Bags are read off the root class only when there are
    more leaves than that, since no tree has more bags than leaves."""
    if t.n > MAX_EDGE_LIST_N:
        _refuse_bags(_classes(t)[-1][3])


def _refuse_bags(r: int) -> None:
    """Refuse with ValueError r > ``MAX_EDGE_LIST_N`` bags, too many for a dense r x r bag adjacency."""
    if r > MAX_EDGE_LIST_N:
        raise ValueError(f"r = {r} bags exceeds the limit of {MAX_EDGE_LIST_N} for the dense bag adjacency")


def _class_tree(t: Cotree) -> list[tuple[int, bool, int, int]]:
    """The symmetry-class tree of t's normal form: per position, parents
    first, (parent position, -1 at the root; whether it is a J-node; its
    leaf children; its copies under one node of the parent position).

    A position stands for the nodes reached by one path of classes from the
    root: equal sibling classes are one position, with their number as its
    copies. Automorphisms permute the copies, so the leaf sets of the
    positions are an equitable partition of the vertices. More than
    ``MAX_EDGE_LIST_N`` positions with leaves are refused with ValueError,
    read off the root class when there are more leaves than that (no tree
    has more such positions than bags, nor bags than leaves).
    """
    rows = _classes(t)
    if t.n > MAX_EDGE_LIST_N and (r := rows[-1][4]) > MAX_EDGE_LIST_N:
        raise ValueError(f"r = {r} bag classes exceeds the limit of {MAX_EDGE_LIST_N} for the exact main count")
    tree: list[tuple[int, bool, int, int]] = []
    queue = [(-1, len(rows) - 1, 1)]
    for parent, c, copies in queue:  # breadth first: the queue grows as it is read
        join, leaves, groups, _, _ = rows[c]
        queue += [(len(tree), d, m) for d, m in groups]
        tree.append((parent, join, leaves, copies))
    return tree


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
# integers must be >= 1. Each node is built in normal form from its children's.
#
# Every integer counts the children of one node, and one node has at most
# MAX_CHILDREN children, so a larger integer, or a node whose items or
# merged same-kind children add up to more, is refused as soon as its list
# of children passes that many.
#
# U/J nodes nest at most MAX_DEPTH deep: the parser recurses once per level,
# and the cap keeps it inside Python's recursion limit. Only the DSL has it;
# the tree walks use no recursion, and from_graph nests as deep as it needs.
# ---------------------------------------------------------------------------

MAX_DEPTH = 256
MAX_CHILDREN = 1_000_000


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
        # ASCII only: a digit such as "²" passes str.isdigit but not int()
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an integer")
        value = int(self.text[start : self.pos])
        if not 1 <= value <= MAX_CHILDREN:
            self.pos = start
            raise self.error("integers must be >= 1" if value < 1 else f"integers must be <= {MAX_CHILDREN}")
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
            return _normal_step(JOIN if c == "K" else UNION, [Leaf()] * n)
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
            if len(children) > MAX_CHILDREN:
                raise self.error(f"a node of more than {MAX_CHILDREN} children")
            if self.peek() == ",":
                self.pos += 1
                continue
            break
        self.expect(")")
        self.depth -= 1
        return _normal_step(kind, children)

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
    return tree


def normalize(t: Cotree) -> Cotree:
    """Collapse same-kind parent/child chains and elide single-child internals;
    a leaf or a normal tree is returned as it is.

    The nodes that head a node of the normal form are read top-down, each
    collecting its final children once, so a same-kind chain costs its
    length and each result node is built once, bottom-up. A normal subtree
    is its own normal form and is kept as it is.
    """
    while isinstance(t, Internal) and len(t.children) == 1:
        t = t.children[0]
    if isinstance(t, Leaf) or t.normal:
        return t
    order = _post_order(t)
    kids = {id(t): _merged_children(t.kind, t.children)}
    for node in reversed(order):  # parents first
        for c in kids.get(id(node), ()):
            if isinstance(c, Internal) and not c.normal and id(c) not in kids:
                kids[id(c)] = _merged_children(c.kind, c.children)
    done: dict[int, Internal] = {}
    for node in order:
        if id(node) in kids:
            done[id(node)] = Internal(node.kind, tuple(done.get(id(c), c) for c in kids[id(node)]))
    return done[id(t)]


_LEAF = (1, "J(1)", Leaf())  # the canonical record of a leaf
_SIZE, _STRING, _TREE, _SIZE_STRING = itemgetter(0), itemgetter(1), itemgetter(2), itemgetter(0, 1)


def _canonical_node(kind: str, n: int, subs, with_tree: bool = True) -> tuple:
    """The canonical record (leaf count, string, tree or None unless
    with_tree) of a normal node of this kind with n leaves, over its
    children's records. Children are ordered by (leaf count, string), so
    leaves, the only children with one leaf, come first and are written as
    their number: the string is ``kind(<leaves>,<child strings>...)``."""
    subs = sorted(subs, key=_SIZE_STRING)
    leaves = bisect_right(subs, 1, key=_SIZE)
    parts = [str(leaves)] * (leaves > 0) + list(map(_STRING, subs[leaves:]))
    tree = Internal(kind, tuple(map(_TREE, subs))) if with_tree else None
    return n, f"{kind}({','.join(parts)})", tree


def _canon(t: Cotree, with_tree: bool) -> tuple:
    """The canonical record of the normal form of t (see ``_canonical_node``)."""
    t = normalize(t)
    done: dict[int, tuple] = {}
    for node in _post_order(t):
        subs = [done.get(id(c), _LEAF) for c in node.children]
        done[id(node)] = _canonical_node(node.kind, node.n, subs, with_tree)
    return done.get(id(t), _LEAF)


def canonicalize(t: Cotree) -> Cotree:
    """Reorder children into canonical order: leaves first, then by (size, string)."""
    return _canon(t, with_tree=True)[2]


def canonical_string(t: Cotree) -> str:
    """Deterministic text form; equal strings iff the cographs are isomorphic.

    The one-vertex cotree prints as "J(1)", which parses back to a single leaf.
    """
    return _canon(t, with_tree=False)[1]


def to_graph(t: Cotree) -> Graph:
    """Build the graph of a cotree: leaves in DFS order, adjacency iff the LCA is a join."""
    ranges, _ = _walk(t)
    return Graph(_block_fill(t.n, ranges))


def from_graph(g: Graph) -> Cotree:
    """Recover a normalized cotree by complement-reducibility (``_split``).

    Single vertex -> leaf; disconnected -> union over components; complement
    disconnected -> join over co-components; children keep the order of
    their smallest vertices. Raises NotCograph with the first induced-P4
    witness (find_p4) otherwise: only this function searches it. The cotree
    may nest to any depth: MAX_DEPTH limits only the DSL.
    """
    recovered = _from_graph(g)
    if recovered is None:
        raise NotCograph(find_p4(g))
    return recovered[0]


def _split(g: Graph) -> Iterator[tuple[int, str | None, list[int]]]:
    """The complement-reducibility split of g (Corneil, Lerchs and Stewart
    Burlingham, 1981), read lazily in DFS pre-order: each set of two or more
    vertices as (mask, kind, parts), kind UNION over its components, JOIN
    over its co-components, or None with no parts for a prime set, connected
    in g and in its complement. Parts are bitmasks ordered by smallest vertex."""
    nbr = neighbourhood_masks(g.adj)
    full = (1 << g.n) - 1
    co = [full & ~m & ~(1 << v) for v, m in enumerate(nbr)]
    stack = [full]
    while stack:
        verts = stack.pop()
        if verts & (verts - 1) == 0:
            continue
        kind, parts = UNION, split_components(nbr, verts)
        if len(parts) == 1:
            kind, parts = JOIN, split_components(co, verts)
            if len(parts) == 1:
                kind, parts = None, []
        yield verts, kind, parts
        stack += reversed(parts)


def _from_graph(g: Graph) -> tuple[Cotree, dict[int, int]] | None:
    """``from_graph``'s cotree, which shares no node, and each leaf's vertex
    keyed by id(leaf); None as soon as the split meets a prime set. No
    witness is searched, so a caller that only asks whether g is a cograph
    pays for the split alone."""
    if g.n < 1:
        raise ValueError("from_graph requires at least one vertex")
    internals = []
    for verts, kind, parts in _split(g):
        if kind is None:
            return None
        internals.append((verts, kind, parts))
    labels: dict[int, int] = {}
    done: dict[int, Internal] = {}

    def node(verts: int) -> Cotree:
        if verts & (verts - 1):
            return done.pop(verts)
        labels[id(leaf := Leaf())] = verts.bit_length() - 1
        return leaf

    for verts, kind, parts in reversed(internals):  # children before parents
        done[verts] = Internal(kind, tuple(node(part) for part in parts))
    return node((1 << g.n) - 1), labels


def find_p4(g: Graph) -> tuple[int, int, int, int] | None:
    """First induced P4 over lexicographic 4-subsets, returned in path order.

    An induced P4 is connected and so is its complement, so it lies inside
    one prime set of ``_split``. Each such set is scanned alone, on its
    induced subgraph in ascending vertex order, which keeps lexicographic
    order; the first of their witnesses is the first in g.
    """
    first = None
    for verts, kind, _ in _split(g):
        if kind is None:
            members = _mask_members(verts)
            path = tuple(members[v] for v in find_induced(induced_subgraph(g, members), "P4"))
            if first is None or sorted(path) < sorted(first):
                first = path
    return first


def complement_cotree(t: Cotree) -> Cotree:
    """Cotree of the complement graph: every U/J label of the normal form swapped.

    Swapping the labels of a normal form keeps it normal.
    """
    t = normalize(t)
    swap = {UNION: JOIN, JOIN: UNION}
    done: dict[int, Internal] = {}
    for node in _post_order(t):
        done[id(node)] = Internal(swap[node.kind], tuple(done.get(id(c), c) for c in node.children))
    return done.get(id(t), t)


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

    kind: str
    t: int
    p: int
    members: tuple[int, ...]


@dataclass(frozen=True)
class BagRepresentation:
    bags: tuple[Bag, ...]
    blocks: list[tuple[int, int, str]]  # each internal node's (lo, hi, kind) range of bag indices, parents first

    @property
    def z(self) -> np.ndarray:
        """The r x r bag adjacency, filled as to_graph fills the graph's over
        the blocks; diagonal unused (False)."""
        return _block_fill(self.r, self.blocks)

    @property
    def r(self) -> int:
        return len(self.bags)

    @property
    def n(self) -> int:
        return sum(b.t for b in self.bags)

    @property
    def m(self) -> int:
        return sum(b.t * b.p for b in self.bags) // 2


def bags(t: Cotree) -> BagRepresentation:
    """Group the leaves of a cotree, read in normal form, into bags with per-bag degrees.

    Bags are ordered by their first vertex in to_graph leaf order. The bags
    under a node are contiguous in that order, so the bag adjacency is the
    same block fill as to_graph's over bag ranges. The one-leaf cotree
    yields a single J-bag with t=1 and p=0 by convention. A tree of more than
    ``MAX_EDGE_LIST_N`` leaves has its bags counted first, and more bags than
    that, too many for a dense r x r adjacency, are refused with ValueError.
    """
    ranges, records, blocks = _bag_records(t)
    owner = [0] * t.n  # the node each vertex is a leaf child of: deeper ranges overwrite
    for k, (lo, hi, _) in enumerate(ranges):
        owner[lo:hi] = [k] * (hi - lo)
    members: dict[int, list[int]] = {owner[first]: [] for first, _, _, _ in records}  # in bag order
    for v, k in enumerate(owner):
        members[k].append(v)
    bag_list = zip(records, members.values())
    return BagRepresentation(tuple(Bag(kind, size, p, tuple(m)) for (_, kind, size, p), m in bag_list), blocks)
