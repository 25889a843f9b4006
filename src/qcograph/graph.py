"""Dense simple undirected graphs, their union/join/complement algebra and induced 4-vertex scan."""

from __future__ import annotations

import numpy as np

__all__ = [
    "Graph",
    "union",
    "join",
    "complement",
    "induced_subgraph",
    "components",
    "neighbourhood_masks",
    "split_components",
    "bipartition",
    "find_induced",
    "MAX_EDGE_LIST_N",
    "parse_edge_list",
    "format_edge_list",
]

# Largest n parse_edge_list accepts. Its n x n adjacency is allocated before
# any edge is read, and at this order the dense Q and the Jacobi eigenvector
# matrix take 128 MiB each.
MAX_EDGE_LIST_N = 4096


class Graph:
    """Immutable simple graph on vertices 0..n-1 with a boolean adjacency matrix.

    The adjacency matrix is symmetric with a false diagonal; the edge count
    ``m`` is derived from it. ``n == 0`` is permitted as the empty graph used
    internally by decompositions.
    """

    __slots__ = ("n", "adj", "m")

    def __init__(self, adj: np.ndarray):
        a = np.asarray(adj, dtype=bool)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {a.shape}")
        if a.size and not np.array_equal(a, a.T):
            raise ValueError("adjacency must be symmetric")
        if a.size and a.diagonal().any():
            raise ValueError("self-loops are not allowed")
        a = a.copy()
        a.flags.writeable = False
        self.n = a.shape[0]
        self.adj = a
        self.m = int(np.count_nonzero(a)) // 2

    @classmethod
    def empty(cls, n: int) -> "Graph":
        """Edgeless graph on n vertices."""
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        return cls(np.zeros((n, n), dtype=bool))

    @classmethod
    def complete(cls, n: int) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        a = np.ones((n, n), dtype=bool)
        if n:
            np.fill_diagonal(a, False)
        return cls(a)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        a = np.zeros((n, n), dtype=bool)
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise IndexError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            a[u, v] = a[v, u] = True
        return cls(a)

    def edges(self) -> list[tuple[int, int]]:
        """Edges as sorted (u, v) pairs with u < v."""
        iu, iv = np.nonzero(np.triu(self.adj, 1))
        return list(zip(iu.tolist(), iv.tolist()))

    def degree(self, v: int) -> int:
        return int(np.count_nonzero(self.adj[v]))

    def degrees(self) -> np.ndarray:
        return self.adj.sum(axis=0, dtype=np.int64)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u, v])

    def neighbors(self, v: int) -> list[int]:
        return np.nonzero(self.adj[v])[0].tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.adj, other.adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# list of blocks, each a sorted list of vertex indices
VertexPartition = list[list[int]]


def union(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union; g1's vertices keep their labels, g2's are shifted by g1.n."""
    n1, n2 = g1.n, g2.n
    a = np.zeros((n1 + n2, n1 + n2), dtype=bool)
    a[:n1, :n1] = g1.adj
    a[n1:, n1:] = g2.adj
    return Graph(a)


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus all n1*n2 cross edges."""
    n1, n2 = g1.n, g2.n
    a = np.zeros((n1 + n2, n1 + n2), dtype=bool)
    a[:n1, :n1] = g1.adj
    a[n1:, n1:] = g2.adj
    a[:n1, n1:] = True
    a[n1:, :n1] = True
    return Graph(a)


def complement(g: Graph) -> Graph:
    """Invert the edge set off the diagonal."""
    a = ~g.adj
    if g.n:
        a = a.copy()
        np.fill_diagonal(a, False)
    return Graph(a)


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Subgraph induced by the given vertex indices, relabeled in the given order."""
    idx = list(vertices)
    for v in idx:
        if not (0 <= v < g.n):
            raise IndexError(f"vertex {v} out of range for n={g.n}")
    if len(set(idx)) != len(idx):
        raise ValueError("duplicate vertices in selection")
    sel = np.asarray(idx, dtype=np.intp)
    return Graph(g.adj[np.ix_(sel, sel)])


def neighbourhood_masks(adj: np.ndarray) -> list[int]:
    """Row v of a boolean adjacency matrix as the int whose bit u is adj[v, u]."""
    rows = np.packbits(adj, axis=1, bitorder="little")
    width = rows.shape[1]
    data = rows.tobytes()
    return [int.from_bytes(data[i * width : (i + 1) * width], "little") for i in range(len(rows))]


def _mask_members(mask: int) -> list[int]:
    """Set bits of a vertex mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def split_components(nbr: list[int], verts: int) -> list[int]:
    """Components of the subgraph induced by the vertex mask verts, as masks.

    nbr[v] is the neighbourhood mask of v; bits outside verts are ignored.
    Blocks are ordered by smallest member.
    """
    blocks = []
    while verts:
        block = frontier = verts & -verts
        verts ^= block
        while frontier:
            reach = 0
            for v in _mask_members(frontier):
                reach |= nbr[v]
            frontier = reach & verts
            verts ^= frontier
            block |= frontier
        blocks.append(block)
    return blocks


def components(g: Graph) -> VertexPartition:
    """Connected components as blocks of sorted vertex indices, ordered by smallest member."""
    if g.n < 1:
        raise ValueError("components requires at least one vertex")
    blocks = split_components(neighbourhood_masks(g.adj), (1 << g.n) - 1)
    return [_mask_members(b) for b in blocks]


def bipartition(g: Graph) -> VertexPartition | None:
    """Two color classes from a 2-coloring, or None if some component has an odd cycle.

    Colors are assigned per component, with each component's smallest vertex
    in class 0. Edgeless graphs are bipartite with an empty second class.
    """
    color = np.full(g.n, -1, dtype=np.int8)
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            cv = color[v]
            for w in g.neighbors(v):
                if color[w] == -1:
                    color[w] = 1 - cv
                    queue.append(w)
                elif color[w] == cv:
                    return None
    return [np.nonzero(color == 0)[0].tolist(), np.nonzero(color == 1)[0].tolist()]


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: first line "n m", then m lines "u v" with u < v.

    Rejects self-loops, duplicate edges, reversed or out-of-range endpoints,
    and n above MAX_EDGE_LIST_N. Blank lines are skipped. A bad edge line is
    reported by its line number: the first bad line, and on it the first of
    these checks it fails: two fields, integers, no self-loop, 0 <= u < v < n,
    not a duplicate.
    """
    numbered = [(i + 1, ln) for i, ln in enumerate(map(str.strip, text.splitlines())) if ln]
    if not numbered:
        raise ValueError("empty edge-list input")
    (lineno, header), body = numbered[0], numbered[1:]
    if len(header.split()) != 2:
        raise ValueError(f"line {lineno}: header must be 'n m'")
    try:
        n, m = map(int, header.split())
    except ValueError:
        raise ValueError(f"line {lineno}: header must be two integers") from None
    if n < 0 or m < 0:
        raise ValueError("n and m must be non-negative")
    if n > MAX_EDGE_LIST_N:
        raise ValueError(f"n = {n} exceeds the edge-list limit of {MAX_EDGE_LIST_N} vertices")
    if len(body) != m:
        raise ValueError(f"expected {m} edge lines, found {len(body)}")
    a = np.zeros((n, n), dtype=bool)
    for lineno, ln in body:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: endpoints must be integers") from None
        if u == v:
            raise ValueError(f"line {lineno}: self-loop at {u}")
        if not 0 <= u < v < n:
            raise ValueError(f"line {lineno}: edge ({u}, {v}) violates 0 <= u < v < n")
        if a[u, v]:
            raise ValueError(f"line {lineno}: duplicate edge ({u}, {v})")
        a[u, v] = a[v, u] = True
    return Graph(a)


def format_edge_list(g: Graph) -> str:
    """Serialize to the edge-list format with LF line endings."""
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(out) + "\n"


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
