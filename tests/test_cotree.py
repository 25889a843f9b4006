import random
import time
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qcograph.cotree import (
    Bag,
    Cotree,
    CotreeSyntaxError,
    Internal,
    JOIN,
    Leaf,
    MAX_CHILDREN,
    MAX_DEPTH,
    NotCograph,
    UNION,
    _bag_count,
    _class_tree,
    _from_graph,
    bags,
    canonical_string,
    canonicalize,
    complement_cotree,
    find_p4,
    from_graph,
    normalize,
    parse,
    to_graph,
)
from qcograph.enumeration import enumerate_cographs, enumerate_cotrees
from qcograph.graph import Graph, complement, induced_subgraph, join, union
from qcograph.recognition import cotree_flags, find_induced


def alternating(depth: int) -> str:
    """J(1,U(1,J(1,...))) with depth nested nodes; normalization keeps them all."""
    s = "1"
    for i in range(depth):
        s = f"{'J' if (depth - i) % 2 else 'U'}(1,{s})"
    return s


def threshold_chain(n: int) -> Graph:
    """Vertex v joined to every earlier vertex when v is odd: n - 1 nested cotree nodes."""
    return Graph.from_edges(n, [(u, v) for v in range(1, n, 2) for u in range(v)])


class TestParser:
    def test_k3(self):
        t = parse("J(3)")
        assert isinstance(t, Internal) and t.kind == JOIN and len(t.children) == 3

    def test_paw(self):
        t = parse("J(1, U(J(1), J(2)))")
        g = to_graph(t)
        assert (g.n, g.m) == (4, 4)
        assert sorted(g.degrees()) == [1, 2, 2, 3]

    def test_multiplicity(self):
        t = parse("U(3*J(2))")
        g = to_graph(t)
        assert (g.n, g.m) == (6, 3)

    def test_k_and_e_shorthand(self):
        assert canonical_string(parse("K(4)")) == "J(4)"
        assert canonical_string(parse("E(4)")) == "U(4)"
        assert canonical_string(parse("K(1)")) == "J(1)"

    def test_whitespace_insensitive(self):
        assert parse(" J ( 2 , U( 2 ) ) ") == parse("J(2,U(2))")

    def test_syntax_error_offset(self):
        with pytest.raises(CotreeSyntaxError) as exc:
            parse("J(2,,3)")
        assert exc.value.offset == 4

    def test_rejects_non_ascii_digits(self):
        # "²" passes str.isdigit, but only ASCII digits make an integer
        for text in ("U(²)", "K(²)", "U(٣)"):
            with pytest.raises(CotreeSyntaxError, match="expected an integer") as exc:
                parse(text)
            assert exc.value.offset == 2

    def test_rejects_empty_node(self):
        with pytest.raises(CotreeSyntaxError):
            parse("U()")

    def test_rejects_zero_multiplicity(self):
        with pytest.raises(CotreeSyntaxError):
            parse("U(0*J(2))")
        with pytest.raises(CotreeSyntaxError):
            parse("J(0)")

    def test_rejects_trailing_garbage(self):
        with pytest.raises(CotreeSyntaxError):
            parse("J(2))")

    def test_nesting_capped(self):
        t = parse(alternating(MAX_DEPTH))
        assert t.n == MAX_DEPTH + 1
        with pytest.raises(CotreeSyntaxError, match="nested deeper"):
            parse(alternating(MAX_DEPTH + 1))
        with pytest.raises(CotreeSyntaxError, match="nested deeper"):
            parse(alternating(1500))

    def test_children_per_node_capped(self):
        # every count names children of one node: a literal, k copies, or a same-kind merge
        assert len(parse(f"U(1000*U({MAX_CHILDREN // 1000}*J(2)))").children) == MAX_CHILDREN
        for text in (f"K({MAX_CHILDREN + 1})", f"U({MAX_CHILDREN + 1}*J(2))"):
            with pytest.raises(CotreeSyntaxError, match=f"integers must be <= {MAX_CHILDREN}"):
                parse(text)
        with pytest.raises(CotreeSyntaxError, match=f"a node of more than {MAX_CHILDREN} children"):
            parse(f"U({MAX_CHILDREN}*J(2),{MAX_CHILDREN}*J(2),{MAX_CHILDREN}*J(2))")
        with pytest.raises(ValueError, match=f"a node of more than {MAX_CHILDREN} children"):
            parse(f"U(1001*U({MAX_CHILDREN // 1000}*J(2)))")


class TestNormalize:
    def test_same_kind_chain_collapses(self):
        assert canonical_string(parse("J(2, J(3))")) == "J(5)"

    def test_union_chain(self):
        assert canonical_string(parse("U(U(2), 1)")) == "U(3)"

    def test_single_child_elision(self):
        assert canonical_string(parse("J(U(J(2)))")) == "J(2)"

    def test_idempotent(self):
        t = parse("J(2, U(J(2), 1))")
        assert normalize(t) == t

    def test_normalized_invariants(self):
        def check(node):
            if isinstance(node, Leaf):
                return
            assert len(node.children) >= 2
            for c in node.children:
                if isinstance(c, Internal):
                    assert c.kind != node.kind
                check(c)

        for expr in ("J(1, U(J(1), J(2)))", "U(3*J(2))", "J(U(2),U(2))"):
            check(parse(expr))


class TestCanonicalString:
    def test_k3(self):
        assert canonical_string(parse("J(3)")) == "J(3)"

    def test_symmetric_forms_agree(self):
        a = parse("J(1, U(J(2), J(1)))")
        b = parse("J(1, U(J(1), J(2)))")
        assert canonical_string(a) == canonical_string(b)

    def test_c4(self):
        c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert canonical_string(from_graph(c4)) == canonical_string(parse("J(U(2),U(2))"))

    def test_parse_round_trip(self):
        for expr in ("J(1)", "U(2,J(3))", "J(1,U(1,J(2)))"):
            t = parse(expr)
            assert canonicalize(parse(canonical_string(t))) == canonicalize(t)


class TestToGraph:
    def test_complete(self):
        assert to_graph(parse("J(4)")) == Graph.complete(4)

    def test_bipartite_join(self):
        g = to_graph(parse("J(U(2),U(3))"))
        assert (g.n, g.m) == (5, 6)

    def test_union_of_cliques(self):
        g = to_graph(parse("U(J(2),J(3))"))
        assert (g.n, g.m) == (5, 4)

    def test_adjacency_iff_join_lca(self):
        g = to_graph(parse("J(1, U(J(1), J(2)))"))
        # vertex 0 is the universal apex; 1 is isolated inside the union
        assert g.neighbors(0) == [1, 2, 3]
        assert g.neighbors(1) == [0]


class TestFromGraph:
    def test_p4_witness(self):
        p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(NotCograph) as exc:
            from_graph(p4)
        assert exc.value.witness == (0, 1, 2, 3)

    def test_c4(self):
        c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert canonical_string(from_graph(c4)) == "J(U(2),U(2))"

    def test_paw(self):
        paw = to_graph(parse("J(1, U(J(1), J(2)))"))
        assert canonical_string(from_graph(paw)) == "J(1,U(1,J(2)))"

    def test_single_vertex(self):
        assert from_graph(Graph.complete(1)) == Leaf()

    def test_witness_is_induced_path(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)])
        with pytest.raises(NotCograph) as exc:
            from_graph(g)
        a, b, c, d = exc.value.witness
        assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d)
        assert not (g.has_edge(a, c) or g.has_edge(a, d) or g.has_edge(b, d))


    def test_witness_is_first_induced_p4(self):
        rng = random.Random(9)
        seen = 0
        while seen < 100:
            n = rng.randint(4, 9)
            g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
            try:
                from_graph(g)
            except NotCograph as exc:
                assert exc.witness == find_induced(g, "P4")
                seen += 1

    def test_find_p4_is_the_first_p4_across_prime_sets(self):
        # unions and joins of random parts, relabelled: several connected,
        # co-connected sets, each holding P4s, and none crossing between them
        rng = random.Random(11)

        def composed(depth: int) -> Graph:
            if depth == 0 or rng.random() < 0.3:
                n = rng.randint(1, 7)
                return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
            g = composed(depth - 1)
            for _ in range(rng.randint(1, 2)):
                g = (union if rng.random() < 0.5 else join)(g, composed(depth - 1))
            order = list(range(g.n))
            rng.shuffle(order)
            return Graph(g.adj[np.ix_(order, order)])

        found = 0
        for _ in range(400):
            g = composed(3)
            witness = find_induced(g, "P4")
            assert find_p4(g) == witness
            found += witness is not None
        assert found > 200

    def test_split_alone_searches_no_witness(self, monkeypatch):
        import qcograph.cotree as cotree

        calls = []
        monkeypatch.setattr(cotree, "find_p4", lambda g: calls.append(g))
        p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert _from_graph(p4) is None and _from_graph(union(Graph.complete(3), p4)) is None
        assert calls == []
        t, labels = _from_graph(Graph.complete(2))
        assert t == parse("J(2)") and sorted(labels.values()) == [0, 1]

    def test_deep_threshold_chain(self):
        # 599 nested nodes, deeper than the DSL's MAX_DEPTH: graph input has no depth cap
        g = threshold_chain(600)
        t = from_graph(g)
        assert t.n == 600
        assert bags(t).r == 599  # one leaf per node, two under the innermost
        assert to_graph(t) == g
        assert canonical_string(t).count("(") == 599
        assert canonical_string(complement_cotree(t)) == canonical_string(from_graph(complement(g)))


def reference_to_graph(t: Cotree) -> Graph:
    """Recursive to_graph: one Graph per node, children's blocks on the diagonal."""
    t = reference_normalize(t)

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


def reference_components(g: Graph) -> list[list[int]]:
    """Components by breadth-first search, sorted blocks ordered by smallest member."""
    seen = np.zeros(g.n, dtype=bool)
    blocks = []
    for start in range(g.n):
        if seen[start]:
            continue
        queue = [start]
        seen[start] = True
        block = []
        while queue:
            v = queue.pop()
            block.append(v)
            for w in np.nonzero(g.adj[v] & ~seen)[0]:
                seen[w] = True
                queue.append(int(w))
        blocks.append(sorted(block))
    return blocks


def reference_from_graph(g: Graph) -> Cotree:
    """Recursive from_graph: components, else co-components, else the first P4."""

    class NoCotree(Exception):
        pass

    def build(sub: Graph) -> Cotree:
        if sub.n == 1:
            return Leaf()
        kind, parts = UNION, reference_components(sub)
        if len(parts) == 1:
            kind, parts = JOIN, reference_components(complement(sub))
            if len(parts) == 1:
                raise NoCotree
        return Internal(kind, tuple(build(induced_subgraph(sub, c)) for c in parts))

    try:
        return build(g)
    except NoCotree:
        raise NotCograph(find_induced(g, "P4")) from None


class TestConversionsPinned:
    """to_graph and from_graph agree with the recursive one-Graph-per-node reference."""

    def test_every_cograph_up_to_10(self):
        for n in range(1, 11):
            for t in enumerate_cotrees(n):
                g = to_graph(t)
                assert g == reference_to_graph(t), canonical_string(t)
                assert from_graph(g) == reference_from_graph(g), canonical_string(t)

    def test_random_graphs_up_to_10(self):
        rng = random.Random(10)
        cographs = 0
        for _ in range(1000):
            n = rng.randint(1, 10)
            density = rng.random()
            g = Graph.from_edges(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
            )
            try:
                expected = reference_from_graph(g)
            except NotCograph as exc:
                with pytest.raises(NotCograph) as got:
                    from_graph(g)
                assert got.value.witness == exc.witness
                continue
            t = from_graph(g)
            assert t == expected
            assert to_graph(t) == reference_to_graph(t)
            cographs += 1
        assert 200 < cographs < 800


class TestBags:
    def test_core_union_degrees(self):
        # clique core c joined onto two cliques a, b: three J-bags
        c, a, b = 2, 3, 4
        rep = bags(parse(f"J({c}, U(J({a}), J({b})))"))
        info = sorted((bag.kind, bag.t, bag.p) for bag in rep.bags)
        assert info == sorted(
            [("J", c, a + b + c - 1), ("J", a, a + c - 1), ("J", b, b + c - 1)]
        )

    def test_bipartite_join_bags(self):
        rep = bags(parse("J(U(2),U(3))"))
        assert [(bag.kind, bag.t, bag.p) for bag in rep.bags] == [("U", 2, 3), ("U", 3, 2)]
        assert rep.z[0, 1]

    def test_complete_single_bag(self):
        rep = bags(parse("J(6)"))
        assert rep.r == 1
        assert rep.bags[0] == Bag(kind="J", t=6, p=5, members=(0, 1, 2, 3, 4, 5))

    def test_single_leaf_convention(self):
        rep = bags(Leaf())
        assert rep.r == 1 and rep.bags[0].kind == JOIN
        assert rep.bags[0].t == 1 and rep.bags[0].p == 0

    def test_repeated_subtrees(self):
        # "3*J(...)" shares one subtree object three times
        rep = bags(parse("U(3*J(1,U(2)), J(2))"))
        assert [(bag.kind, bag.t, bag.p) for bag in rep.bags] == [
            ("J", 1, 2), ("U", 2, 1), ("J", 1, 2), ("U", 2, 1), ("J", 1, 2), ("U", 2, 1), ("J", 2, 1)
        ]

    def test_sizes_partition_order(self):
        for expr in ("J(1, U(J(1), J(2)))", "U(2, J(3), J(1, U(2)))"):
            t = parse(expr)
            rep = bags(t)
            assert sum(bag.t for bag in rep.bags) == t.n

    def test_degrees_match_graph(self):
        for n in range(1, 8):
            for s in enumerate_cographs(n).strings:
                t = parse(s)
                g = to_graph(t)
                for bag in bags(t).bags:
                    for v in bag.members:
                        assert g.degree(v) == bag.p, (s, bag)

    def test_bag_adjacency_matches_graph(self):
        for s in enumerate_cographs(6).strings:
            t = parse(s)
            g = to_graph(t)
            rep = bags(t)
            for i, bi in enumerate(rep.bags):
                for j, bj in enumerate(rep.bags):
                    if i >= j:
                        continue
                    actual = g.has_edge(bi.members[0], bj.members[0])
                    assert rep.z[i, j] == actual, (s, i, j)


class TestInvariants:
    def test_round_trip_enumerated(self):
        for n in range(1, 8):
            for s in enumerate_cographs(n).strings:
                t = parse(s)
                assert canonical_string(from_graph(to_graph(t))) == s

    def test_complement_duality(self):
        # each bag reappears in the complement cotree with the same members
        # and complementary degree (kinds flip except the one-leaf convention)
        for n in range(1, 7):
            for s in enumerate_cographs(n).strings:
                t = parse(s)
                total = t.n
                direct = {(bag.members, total - 1 - bag.p) for bag in bags(t).bags}
                co = {(bag.members, bag.p) for bag in bags(complement_cotree(t)).bags}
                assert direct == co, s
                if total > 1:
                    kinds = sorted((bag.t, bag.kind) for bag in bags(t).bags)
                    flipped = sorted(
                        (bag.t, UNION if bag.kind == JOIN else JOIN)
                        for bag in bags(complement_cotree(t)).bags
                    )
                    assert kinds == flipped, s

    def test_hereditary_under_induced_subgraphs(self):
        import random

        rng = random.Random(4)
        pool = enumerate_cographs(7).strings
        for _ in range(60):
            g = to_graph(parse(rng.choice(pool)))
            k = rng.randint(1, g.n)
            sub = induced_subgraph(g, sorted(rng.sample(range(g.n), k)))
            from_graph(sub)  # must not raise NotCograph


@given(st.integers(1, 6), st.data())
def test_canonical_string_is_isomorphism_invariant(n, data):
    pool = enumerate_cotrees(n)
    t = data.draw(st.sampled_from(pool))
    # shuffling children anywhere must not change the canonical string
    import random

    rng = random.Random(data.draw(st.integers(0, 2**16)))

    def shuffled(node):
        if isinstance(node, Leaf):
            return node
        kids = [shuffled(c) for c in node.children]
        rng.shuffle(kids)
        return Internal(node.kind, tuple(kids))

    assert canonical_string(shuffled(t)) == canonical_string(t)


# Recursive references for the tree walks: one call per node.


def reference_normalize(t: Cotree) -> Cotree:
    if isinstance(t, Leaf):
        return t
    kids: list[Cotree] = []
    for c in t.children:
        c = reference_normalize(c)
        if isinstance(c, Internal) and c.kind == t.kind:
            kids.extend(c.children)
        else:
            kids.append(c)
    if len(kids) == 1:
        return kids[0]
    return Internal(t.kind, tuple(kids))


def reference_leaf_count(t: Cotree) -> int:
    if isinstance(t, Leaf):
        return 1
    return sum(reference_leaf_count(c) for c in t.children)


def reference_canon(t: Cotree) -> tuple[Cotree, str, int]:
    """(reordered tree, canonical string, leaf count) of a normalized tree."""
    if isinstance(t, Leaf):
        return t, "1", 1
    leaves = sum(1 for c in t.children if isinstance(c, Leaf))
    internals = sorted(
        (reference_canon(c) for c in t.children if isinstance(c, Internal)),
        key=lambda item: (item[2], item[1]),
    )
    parts: list[str] = []
    if leaves:
        parts.append(str(leaves))
    parts.extend(s for _, s, _ in internals)
    tree = Internal(t.kind, tuple([Leaf()] * leaves + [sub for sub, _, _ in internals]))
    return tree, f"{t.kind}({','.join(parts)})", leaves + sum(k for _, _, k in internals)


def reference_canonical_string(t: Cotree) -> str:
    t = reference_normalize(t)
    return "J(1)" if isinstance(t, Leaf) else reference_canon(t)[1]


def reference_complement_cotree(t: Cotree) -> Cotree:
    def swap(node: Cotree) -> Cotree:
        if isinstance(node, Leaf):
            return node
        kind = UNION if node.kind == JOIN else JOIN
        return Internal(kind, tuple(swap(c) for c in node.children))

    return reference_normalize(swap(reference_normalize(t)))


def reference_cotree_flags(t: Cotree) -> dict[str, bool]:
    t = reference_normalize(t)
    crowded = {JOIN: False, UNION: False}

    def walk(node: Cotree) -> tuple[int, int | None]:
        if isinstance(node, Leaf):
            return 1, 0
        if sum(isinstance(c, Internal) for c in node.children) > 1:
            crowded[node.kind] = True
        kids = [walk(c) for c in node.children]
        size = sum(k for k, _ in kids)
        join = node.kind == JOIN
        degs = {d + size - k if join and d is not None else d for k, d in kids}
        return size, degs.pop() if len(degs) == 1 else None

    def flat(node: Cotree, kind: str) -> bool:
        return isinstance(node, Leaf) or (node.kind == kind and all(isinstance(c, Leaf) for c in node.children))

    def bipartite_component(node: Cotree) -> bool:
        return isinstance(node, Leaf) or (
            node.kind == JOIN and len(node.children) == 2 and all(flat(c, UNION) for c in node.children)
        )

    regular = walk(t)[1] is not None
    qt = not crowded[JOIN]
    is_join = isinstance(t, Internal) and t.kind == JOIN
    components = t.children if isinstance(t, Internal) and t.kind == UNION else (t,)
    return {
        "is_chordal": qt,
        "is_quasi_threshold": qt,
        "is_threshold": qt and not crowded[UNION],
        "is_bipartite": all(map(bipartite_component, components)),
        "is_regular": regular,
        "is_complete": flat(t, JOIN),
        "is_connected": isinstance(t, Leaf) or is_join,
    }


def random_cotree(rng: random.Random, leaves: int, pool: dict[int, list[Cotree]]) -> Cotree:
    """A random cotree on `leaves` leaves, usually not normalized.

    It has single-child nodes, same-kind parent/child chains, sibling copies
    of one subtree object (as "k*expr" makes) and subtrees reused from `pool`
    at other depths (as the enumeration's shared pools make).
    """
    if pool.get(leaves) and rng.random() < 0.1:
        return rng.choice(pool[leaves])
    if leaves == 1 and rng.random() < 0.7:
        return Leaf()
    kind = rng.choice((UNION, JOIN))
    if leaves == 1 or rng.random() < 0.15:
        node = Internal(kind, (random_cotree(rng, leaves, pool),))
    else:
        parts: list[Cotree] = []
        remaining = leaves
        while remaining:
            m = rng.randint(1, remaining)
            copies = rng.randint(2, remaining // m) if remaining >= 2 * m and rng.random() < 0.25 else 1
            parts += [random_cotree(rng, m, pool)] * copies
            remaining -= m * copies
        node = Internal(kind, tuple(parts))
    pool.setdefault(leaves, []).append(node)
    return node


def assert_walks_match(t: Cotree) -> None:
    label = repr(t)
    norm = reference_normalize(t)
    assert normalize(t) == norm, label
    assert t.n == reference_leaf_count(t), label
    want = Leaf() if isinstance(norm, Leaf) else reference_canon(norm)[0]
    assert canonicalize(t) == want, label
    assert canonical_string(t) == reference_canonical_string(t), label
    assert complement_cotree(t) == reference_complement_cotree(t), label
    assert cotree_flags(t) == reference_cotree_flags(t), label


def class_tree_weights(t: Cotree) -> tuple[int, int]:
    """The positions with leaves of ``_class_tree(t)`` and their leaves, each
    weighted by its number of nodes: the product of copies on its path."""
    tree = _class_tree(t)
    nodes = []
    for parent, _, _, copies in tree:
        nodes.append(copies * (nodes[parent] if parent >= 0 else 1))
    return (
        sum(m for m, (_, _, leaves, _) in zip(nodes, tree) if leaves),
        sum(m * leaves for m, (_, _, leaves, _) in zip(nodes, tree)),
    )


class TestWalksPinned:
    """normalize, canonicalize, canonical_string, complement_cotree,
    the leaf count n and cotree_flags agree with the recursive references;
    the bag count and the weighted class tree agree with ``bags``."""

    def test_every_cograph_up_to_10(self):
        count = 0
        for n in range(1, 11):
            for t in enumerate_cotrees(n):
                assert_walks_match(t)
                assert _bag_count(t) == bags(t).r
                assert class_tree_weights(t) == (bags(t).r, t.n)
                count += 1
        assert count == 6965

    def test_random_unnormalized_trees(self):
        rng = random.Random(11)
        unnormalized = 0
        for _ in range(3000):
            pool: dict[int, list[Cotree]] = {}
            t = random_cotree(rng, rng.randint(1, 12), pool)
            assert_walks_match(t)
            assert to_graph(t) == reference_to_graph(t)
            rep, want = bags(t), bags(reference_normalize(t))
            assert rep.bags == want.bags and np.array_equal(rep.z, want.z)
            assert _bag_count(t) == rep.r
            assert class_tree_weights(t) == (rep.r, t.n)
            unnormalized += reference_normalize(t) != t
        assert unnormalized > 2000


def subtrees(t: Cotree) -> list[Internal]:
    """Every internal node under t, t included."""
    out, todo = [], [t]
    while todo:
        node = todo.pop()
        if isinstance(node, Internal):
            out.append(node)
            todo.extend(node.children)
    return out


class TestNormalFlag:
    """Internal.normal holds exactly when the subtree is its own normal form,
    and normalize returns such a tree itself."""

    @staticmethod
    def check(t: Cotree) -> None:
        for node in subtrees(t):
            assert node.normal == (reference_normalize(node) == node), repr(node)
            if node.normal:
                assert normalize(node) is node
        norm = normalize(t)
        assert isinstance(norm, Leaf) or norm.normal

    def test_parsed_and_recovered_cographs_up_to_10(self):
        count = 0
        for n in range(1, 11):
            for s in enumerate_cographs(n).strings:
                parsed = parse(s)
                for t in (parsed, from_graph(to_graph(parsed))):
                    self.check(t)
                    assert normalize(t) is t
                count += 1
        assert count == 6965

    def test_random_unnormalized_trees(self):
        rng = random.Random(11)
        flagged = unflagged = 0
        for _ in range(3000):
            pool: dict[int, list[Cotree]] = {}
            t = random_cotree(rng, rng.randint(1, 12), pool)
            self.check(t)
            if isinstance(t, Internal):
                flagged += t.normal
                unflagged += not t.normal
        assert flagged > 100 and unflagged > 2000

    def test_repr_hash_and_equality_ignore_the_flag(self):
        t = parse("J(1,U(2,K(2)))")
        assert repr(t) == "Internal(n=5, J(1,U(2,J(2))))"
        assert hash(t) == hash((t.kind, t.children))
        lone = Internal(UNION, (Leaf(),))
        assert not lone.normal and lone == Internal(UNION, (Leaf(),))
        assert hash(lone) == hash((UNION, (Leaf(),)))

    def test_deep_hand_built_chain(self):
        depth = 20000
        t: Cotree = Leaf()
        u: Cotree = Internal(UNION, (Leaf(),))  # the same chain over a lone-child node
        for i in range(depth):
            kind = JOIN if i % 2 else UNION
            t, u = Internal(kind, (Leaf(), t)), Internal(kind, (Leaf(), u))
        assert t.normal and not u.normal
        assert normalize(t) is t
        v = normalize(u)
        assert v.normal and v.n == t.n == u.n == depth + 1
        want = {
            "is_chordal": True,
            "is_quasi_threshold": True,
            "is_threshold": True,
            "is_bipartite": False,
            "is_regular": False,
            "is_complete": False,
            "is_connected": True,
        }
        assert cotree_flags(t) == cotree_flags(u) == cotree_flags(v) == want

    def test_same_kind_chain_is_linear(self):
        # each level of J(1, J(1, ...)) merges into the root: the normal form
        # is one J-node over every leaf, built once
        t: Cotree = Leaf()
        for _ in range(3000):
            t = Internal(JOIN, (Leaf(), t))
        start = time.perf_counter()
        flags = cotree_flags(t)
        norm = normalize(t)
        co = complement_cotree(t)
        elapsed = time.perf_counter() - start
        assert norm == Internal(JOIN, (Leaf(),) * 3001) and co == Internal(UNION, (Leaf(),) * 3001)
        assert flags["is_complete"] and flags["is_regular"]
        assert elapsed < 1.0, f"{elapsed:.2f} s"


class TestNodeFacts:
    """Internal.n and Internal.degree, set at construction, agree with the
    recursive leaf count and with the degrees of the subtree's graph, on every
    node, normal or not."""

    @staticmethod
    def check(t: Cotree) -> None:
        for node in subtrees(t) or [t]:
            assert node.n == reference_leaf_count(node), repr(node)
            degrees = set(reference_to_graph(node).degrees().tolist())
            assert node.degree == (degrees.pop() if len(degrees) == 1 else None), repr(node)

    def test_parsed_and_recovered_cographs_up_to_10(self):
        count = 0
        for n in range(1, 11):
            for s in enumerate_cographs(n).strings:
                parsed = parse(s)
                for t in (parsed, from_graph(to_graph(parsed))):
                    self.check(t)
                count += 1
        assert count == 6965

    def test_random_unnormalized_trees(self):
        rng = random.Random(11)
        regular = irregular = 0
        for _ in range(3000):
            pool: dict[int, list[Cotree]] = {}
            t = random_cotree(rng, rng.randint(1, 12), pool)
            self.check(t)
            regular += t.degree is not None
            irregular += t.degree is None
        assert regular > 100 and irregular > 1000

    def test_repr_hash_and_equality_ignore_the_facts(self):
        assert (Leaf.n, Leaf.degree) == (1, 0) and repr(Leaf()) == "Leaf()"
        t, k = parse("J(1,U(2,K(2)))"), parse("U(2*K(3))")
        assert (t.n, t.degree, k.n, k.degree) == (5, None, 6, 2)
        assert repr(k) == "Internal(n=6, U(2*J(3)))"
        assert hash(t) == hash((t.kind, t.children)) and hash(k) == hash((k.kind, k.children))
        assert k == Internal(UNION, k.children) and k != Internal(JOIN, k.children)
        derived = [f.name for f in fields(Internal) if not (f.init or f.repr or f.compare or f.hash)]
        assert derived == ["normal", "n", "degree"]


class TestRepr:
    """repr(Internal) writes the tree in DSL form, top-down and cut at a
    fixed length, so a shared or deep tree prints in bounded time."""

    @staticmethod
    def dsl(t: Internal) -> str:
        text = repr(t)
        head = f"Internal(n={t.n}, "
        assert text.startswith(head) and text.endswith(")")
        return text[len(head) : -1]

    def test_dsl_parses_back_to_the_tree(self):
        count = 0
        for n in range(2, 9):
            for s in enumerate_cographs(n).strings:
                for t in (parse(s), from_graph(to_graph(parse(s)))):
                    assert parse(self.dsl(t)) == t, s
                count += 1
        assert count == 808
        assert repr(Internal(UNION, (Leaf(),))) == "Internal(n=1, U(1))"

    def test_shared_and_deep_trees_print_bounded(self):
        wide = parse("U(1000*J(1000*U(2)))")
        chain: Cotree = Leaf()
        for i in range(3000):
            chain = Internal(JOIN if i % 2 else UNION, (Leaf(), chain))
        texts = []
        for t in (wide, chain):
            start = time.perf_counter()
            texts.append(repr(t))
            elapsed = time.perf_counter() - start
            assert elapsed < 1.0 and len(texts[-1]) < 10_000, (elapsed, len(texts[-1]))
        assert texts[0] == "Internal(n=2000000, U(1000*J(1000*U(2))))"
        assert texts[1].startswith("Internal(n=3001, J(1,U(1,J(1,U(1,") and texts[1].endswith("...)")
