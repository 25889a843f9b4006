import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qcograph.graph import (
    Graph,
    bipartition,
    complement,
    components,
    format_edge_list,
    induced_subgraph,
    join,
    parse_edge_list,
    union,
)


def K(n):
    return Graph.complete(n)


def E(n):
    return Graph.empty(n)


@st.composite
def graphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(0, 2 ** len(pairs) - 1))
    return Graph.from_edges(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


class TestConstruction:
    def test_rejects_asymmetric(self):
        a = np.zeros((2, 2), dtype=bool)
        a[0, 1] = True
        with pytest.raises(ValueError, match="symmetric"):
            Graph(a)

    def test_rejects_self_loop(self):
        a = np.eye(3, dtype=bool)
        with pytest.raises(ValueError, match="self-loop"):
            Graph(a)

    def test_adjacency_immutable(self):
        g = K(3)
        with pytest.raises(ValueError):
            g.adj[0, 1] = False

    def test_empty_graph_allowed(self):
        g = E(0)
        assert g.n == 0 and g.m == 0


class TestOperations:
    def test_union_k2_k1(self):
        g = union(K(2), K(1))
        assert (g.n, g.m) == (3, 1)

    def test_union_two_triangles(self):
        g = union(K(3), K(3))
        assert (g.n, g.m) == (6, 6)
        assert len(components(g)) == 2

    def test_union_with_empty_is_identity(self):
        assert union(E(0), K(2)) == K(2)

    def test_join_star(self):
        g = join(K(1), E(3))
        assert (g.n, g.m) == (4, 3)
        assert g.degree(0) == 3

    def test_join_c4(self):
        g = join(E(2), E(2))
        assert (g.n, g.m) == (4, 4)
        assert sorted(g.degrees()) == [2, 2, 2, 2]
        assert bipartition(g) is not None

    def test_join_completes(self):
        assert join(K(2), K(3)) == K(5)

    def test_complement_complete(self):
        assert complement(K(4)) == E(4)

    def test_complement_c4_is_2k2(self):
        c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        g = complement(c4)
        assert g.m == 2 and len(components(g)) == 2

    def test_complement_paw(self):
        # the complement of K_1 join (K_1 union K_2) is K_1 union P_3
        paw = join(K(1), union(K(1), K(2)))
        g = complement(paw)
        blocks = components(g)
        assert sorted(len(b) for b in blocks) == [1, 3]
        path = induced_subgraph(g, max(blocks, key=len))
        assert path.m == 2 and sorted(path.degrees()) == [1, 1, 2]

    def test_induced_triangle_from_k5(self):
        assert induced_subgraph(K(5), [0, 1, 2]) == K(3)

    def test_induced_p3_from_c4(self):
        c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        sub = induced_subgraph(c4, [0, 1, 2])
        assert sub.m == 2

    def test_induced_empty_selection(self):
        assert induced_subgraph(K(5), []).n == 0

    def test_induced_out_of_range(self):
        with pytest.raises(IndexError):
            induced_subgraph(K(3), [0, 5])

    def test_components(self):
        assert len(components(K(5))) == 1
        assert [len(b) for b in components(E(4))] == [1, 1, 1, 1]

    def test_bipartition_c4(self):
        c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        blocks = bipartition(c4)
        assert sorted(len(b) for b in blocks) == [2, 2]

    def test_bipartition_triangle_absent(self):
        assert bipartition(K(3)) is None

    def test_bipartition_bipartite_join(self):
        g = join(E(2), E(3))
        blocks = bipartition(g)
        assert sorted(len(b) for b in blocks) == [2, 3]


class TestAlgebraProperties:
    @given(graphs(max_n=6), graphs(max_n=6))
    def test_complement_of_union_is_join_of_complements(self, g1, g2):
        lhs = complement(union(g1, g2))
        rhs = join(complement(g1), complement(g2))
        assert lhs == rhs

    @given(graphs(max_n=6), graphs(max_n=6))
    def test_join_order_and_size(self, g1, g2):
        g = join(g1, g2)
        assert g.n == g1.n + g2.n
        assert g.m == g1.m + g2.m + g1.n * g2.n

    @given(graphs(max_n=6), graphs(max_n=6))
    def test_join_connected(self, g1, g2):
        assert len(components(join(g1, g2))) == 1

    @given(graphs(max_n=6), graphs(max_n=6))
    def test_join_degree_identity(self, g1, g2):
        g = join(g1, g2)
        for v in range(g1.n):
            assert g.degree(v) == g1.degree(v) + g2.n

    @given(graphs(max_n=7))
    def test_complement_involution(self, g):
        assert complement(complement(g)) == g


class TestEdgeListFormat:
    def test_round_trip(self):
        g = Graph.from_edges(5, [(0, 1), (0, 4), (2, 3)])
        assert parse_edge_list(format_edge_list(g)) == g

    def test_parse_example(self):
        g = parse_edge_list("3 2\n0 1\n1 2\n")
        assert (g.n, g.m) == (3, 2)

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_edge_list("3 2\n0 1\n0 1\n")

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            parse_edge_list("3 1\n1 1\n")

    def test_rejects_reversed_endpoints(self):
        with pytest.raises(ValueError, match="u < v"):
            parse_edge_list("3 1\n2 1\n")

    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError, match="edge lines"):
            parse_edge_list("3 2\n0 1\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty edge-list input"),
            ("3\n", "line 1: header must be 'n m'"),
            ("a b\n", "line 1: header must be two integers"),
            ("\n\n3 x\n", "line 3: header must be two integers"),
            ("-1 0\n", "n and m must be non-negative"),
        ],
    )
    def test_rejects_bad_header(self, text, message):
        with pytest.raises(ValueError) as err:
            parse_edge_list(text)
        assert str(err.value) == message

    @given(graphs(min_n=1, max_n=7))
    def test_round_trip_random(self, g):
        assert parse_edge_list(format_edge_list(g)) == g

    @pytest.mark.parametrize(
        "text, message",
        [
            ("4 3\n0 1\n2 2\nx 3\n", "line 3: self-loop at 2"),
            ("4 3\n0 1\n1 x\n0 1\n", "line 3: endpoints must be integers"),
            ("4 3\n0 1\n0 1\n3 2\n", "line 3: duplicate edge (0, 1)"),
            ("4 3\n0 5\n0 1 2\n0 1\n", "line 2: edge (0, 5) violates 0 <= u < v < n"),
            ("4 3\n\n0 1 2\n\n1 1\n2 3\n", "line 3: expected 'u v'"),
            (
                "4 3\n0 1\n0 99999999999999999999\n1 1\n",
                "line 3: edge (0, 99999999999999999999) violates 0 <= u < v < n",
            ),
            ("4 3\n1 2\n3 1\n1 2\n", "line 3: edge (3, 1) violates 0 <= u < v < n"),
        ],
    )
    def test_two_faults_report_the_earlier_line(self, text, message):
        with pytest.raises(ValueError) as err:
            parse_edge_list(text)
        assert str(err.value) == message

    def test_matches_per_line_reference(self):
        # random edge lists with a few lines corrupted: the same graph, or
        # the same message for the same first bad line, as a line-by-line parse
        rng = random.Random(5)
        junk = ["x", "-1", "+2", "1_0", "007", "1.0", "99999999999999999999", "-99999999999999999999", "\t", "3 4"]
        for _ in range(3000):
            n = rng.choice([0, 1, 2, 3, 5, 8])
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            lines = [f"{u} {v}" for u, v in rng.sample(pairs, rng.randint(0, len(pairs)))]
            for _ in range(rng.choice([0, 1, 2, 3])):
                k = rng.randrange(len(lines) + 1)
                copy = rng.choice(lines) if lines else ""
                lines.insert(k, rng.choice([f"{rng.randrange(-1, n + 2)} {rng.randrange(-1, n + 2)}", copy, "", " "]))
                if lines and rng.random() < 0.5:
                    k = rng.randrange(len(lines))
                    bad = [lines[k] + rng.choice(junk), rng.choice(junk) + " " + lines[k], lines[k][::-1]]
                    lines[k] = rng.choice(bad)
            m = sum(1 for ln in lines if ln.strip()) + rng.choice([0, 0, 0, 1])
            text = f"{n} {m}" + rng.choice(["\n", "\r\n"]) + "\n".join(lines) + "\n"
            try:
                want = reference_parse_edge_list(text)
            except ValueError as exc:
                with pytest.raises(ValueError) as err:
                    parse_edge_list(text)
                assert str(err.value) == str(exc), text
            else:
                assert parse_edge_list(text) == want, text


def reference_parse_edge_list(text: str) -> Graph:
    """parse_edge_list line by line: each line's checks in order, and the
    duplicate check read off the adjacency built so far."""
    numbered = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines()) if ln.strip()]
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
        if not (0 <= u < v < n):
            raise ValueError(f"line {lineno}: edge ({u}, {v}) violates 0 <= u < v < n")
        if a[u, v]:
            raise ValueError(f"line {lineno}: duplicate edge ({u}, {v})")
        a[u, v] = a[v, u] = True
    return Graph(a)
