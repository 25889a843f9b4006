import math
import random
import time
from collections import Counter
from itertools import combinations

import pytest

import qcograph.cotree as cotree_module
import qcograph.recognition as recognition
from qcograph.cotree import JOIN, UNION, Internal, Leaf, NotCograph, from_graph, normalize, parse, to_graph
from qcograph.enumeration import enumerate_cographs
from qcograph.families import build_cotree, default_grids
from qcograph.graph import Graph, bipartition, components, induced_subgraph, join, union
from qcograph.recognition import (
    NotApplicable,
    classify,
    cotree_flags,
    connectivity_report,
    find_induced,
    is_chordal,
    is_complete,
    is_connected,
    is_regular,
    parse_generalized_core_satellite,
    perfect_elimination_ordering,
    universal_clique_decomposition,
    vertex_connectivity,
)
from qcograph.oracle import MainCountPrediction, predict_main_count, predict_two_main_forms
from test_cotree import random_cotree


def graph_of(expr):
    return to_graph(parse(expr))


def random_graph(rng, n):
    return Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    )


def find_induced_brute_force(g, pattern):
    """First 4-subset in itertools.combinations order whose induced degrees
    (sorted) are the pattern's."""
    profile = {"P4": [1, 1, 2, 2], "C4": [2, 2, 2, 2], "2K2": [1, 1, 1, 1]}[pattern]
    for quad in combinations(range(g.n), 4):
        if sorted(sum(bool(g.adj[u, v]) for v in quad) for u in quad) == profile:
            return quad
    return None


class TestFindInduced:
    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(24)
        for _ in range(300):
            n = rng.randint(1, 12)
            density = rng.random()
            g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density])
            for pattern in ("P4", "C4", "2K2"):
                want = find_induced_brute_force(g, pattern)
                got = find_induced(g, pattern)
                if pattern == "P4" and got is not None:
                    assert all(g.adj[u, v] for u, v in zip(got, got[1:]))  # path order
                    got = tuple(sorted(got))
                assert got == want, (n, pattern)

    def test_p4_itself(self):
        p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert find_induced(p4, "P4") == (0, 1, 2, 3)

    def test_complete_has_nothing(self):
        k5 = Graph.complete(5)
        for pattern in ("P4", "C4", "2K2"):
            assert find_induced(k5, pattern) is None

    def test_c4_found_in_bipartite_join(self):
        c4 = graph_of("J(U(2),U(2))")
        assert find_induced(c4, "C4") is not None
        assert find_induced(c4, "P4") is None

    def test_2k2(self):
        g = graph_of("U(J(2),J(2))")
        assert find_induced(g, "2K2") == (0, 1, 2, 3)

    def test_unknown_pattern(self):
        with pytest.raises(ValueError):
            find_induced(Graph.complete(3), "K3")

    def test_induced_not_just_subgraph(self):
        # a 4-cycle with a chord contains P4 but no induced C4
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        assert find_induced(g, "C4") is None
        assert find_induced(g, "P4") is None


def chordal_brute_force(g):
    """No induced cycle of length >= 4: check all vertex subsets."""
    for k in range(4, g.n + 1):
        for sub in combinations(range(g.n), k):
            h = induced_subgraph(g, sub)
            degs = sorted(h.degrees())
            if degs == [2] * k and len(components(h)) == 1:
                return False
    return True


class TestChordal:
    def test_c4_not_chordal(self):
        assert not is_chordal(graph_of("J(U(2),U(2))"))

    def test_clique_join_of_cliques(self):
        assert is_chordal(graph_of("J(2, U(J(1), J(3)))"))

    def test_two_isolated_joined_onto_cliques_not_chordal(self):
        assert not is_chordal(graph_of("J(U(2), U(J(1), J(2)))"))

    def test_elimination_ordering_is_perfect(self):
        g = graph_of("J(2, U(J(1), J(3)))")
        order = perfect_elimination_ordering(g)
        pos = {v: i for i, v in enumerate(order)}
        for v in order:
            later = [w for w in g.neighbors(v) if pos[w] > pos[v]]
            for a, b in combinations(later, 2):
                assert g.has_edge(a, b)

    def test_against_brute_force(self):
        rng = random.Random(11)
        for _ in range(120):
            g = random_graph(rng, rng.randint(1, 7))
            assert is_chordal(g) == chordal_brute_force(g)


class TestFlags:
    def test_regular_not_complete(self):
        g = graph_of("J(U(2),U(2))")
        assert is_regular(g) and not is_complete(g)

    def test_k4_both(self):
        assert is_regular(Graph.complete(4)) and is_complete(Graph.complete(4))

    def test_paw_neither(self):
        paw = graph_of("J(1, U(J(1), J(2)))")
        assert not is_regular(paw) and not is_complete(paw)


class TestClassify:
    def test_threshold_example(self):
        rep = classify(graph_of("J(2, U(J(1), J(3)))"))
        assert rep.is_quasi_threshold and rep.is_threshold

    def test_quasi_threshold_not_threshold(self):
        rep = classify(graph_of("J(1, U(J(2), J(3)))"))
        assert rep.is_quasi_threshold and not rep.is_threshold
        assert rep.witness is not None  # the 2K2 inside the satellites

    def test_c4_cograph_not_chordal(self):
        rep = classify(graph_of("J(U(2),U(2))"))
        assert rep.is_cograph and not rep.is_chordal and not rep.is_quasi_threshold

    def test_p4_witness(self):
        rep = classify(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))
        assert not rep.is_cograph and rep.witness == (0, 1, 2, 3)

    def test_flag_implications_on_enumeration(self):
        for n in range(1, 7):
            for s in enumerate_cographs(n).strings:
                rep = classify(graph_of(s))
                assert rep.is_cograph
                assert rep.is_quasi_threshold == (rep.is_cograph and rep.is_chordal)
                if rep.is_threshold:
                    assert rep.is_quasi_threshold
                if rep.is_complete:
                    assert rep.is_regular and rep.is_chordal

    def test_json_round_trip(self):
        import json

        rep = classify(graph_of("J(3)"))
        data = json.loads(json.dumps(rep.to_json_dict()))
        assert data["is_complete"] is True and data["witness"] is None


def reference_report(g):
    """classify's report by the dense rule order: P4, then C4, then 2K2."""
    p4, c4, two_k2 = (find_induced(g, pattern) for pattern in ("P4", "C4", "2K2"))
    chordal = is_chordal(g)
    qt = p4 is None and chordal
    return {
        "is_cograph": p4 is None,
        "is_chordal": chordal,
        "is_quasi_threshold": qt,
        "is_threshold": qt and two_k2 is None,
        "is_bipartite": bipartition(g) is not None,
        "is_regular": is_regular(g),
        "is_complete": is_complete(g),
        "is_connected": is_connected(g),
        "witness": list(p4 or c4 or two_k2) if (p4 or c4 or two_k2) else None,
    }


class TestCotreeFlags:
    def test_every_cograph_to_ten_against_dense_definitions(self):
        count = 0
        for n in range(1, 11):
            for s in enumerate_cographs(n).strings:
                g = graph_of(s)
                chordal = is_chordal(g)
                dense = {
                    "is_chordal": chordal,
                    "is_quasi_threshold": chordal,
                    "is_threshold": chordal and find_induced(g, "2K2") is None,
                    "is_bipartite": bipartition(g) is not None,
                    "is_regular": is_regular(g),
                    "is_complete": is_complete(g),
                    "is_connected": is_connected(g),
                }
                assert cotree_flags(parse(s)) == dense, s
                count += 1
        assert count == 6965

    def test_random_graphs_match_dense_rule_order(self):
        rng = random.Random(29)
        for _ in range(1000):
            n = rng.randint(1, 10)
            p = rng.random()
            g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
            assert classify(g).to_json_dict() == reference_report(g), g.edges()

    def test_witness_searched_only_when_read(self, monkeypatch):
        calls = []
        walk = recognition._first_quad

        def counting(t, quad_kind, labels):
            calls.append(quad_kind)
            return walk(t, quad_kind, labels)

        def dense_scan(g, pattern):
            raise AssertionError(f"dense {pattern} scan on a cograph")

        monkeypatch.setattr(recognition, "_first_quad", counting)
        monkeypatch.setattr(recognition, "find_induced", dense_scan)
        g = graph_of("J(1, U(J(2), J(3)))")  # quasi-threshold, not threshold
        for source in (g, parse("J(1, U(J(2), J(3)))")):
            rep = classify(source)
            assert rep.is_quasi_threshold and not rep.is_threshold
            assert calls == []
            assert rep.witness == find_induced(g, "2K2") == (1, 2, 3, 4)
            assert rep.witness == (1, 2, 3, 4)
            assert calls == [UNION]
            calls.clear()

    def test_cotree_input_equals_graph_input(self):
        for n in range(1, 9):
            for s in enumerate_cographs(n).strings:
                t = parse(s)
                assert classify(t) == classify(to_graph(t)), s

    def test_reports_equal_iff_flags_and_witness_equal(self):
        c4 = classify(graph_of("J(U(2),U(2))"))
        assert c4 == classify(parse("J(U(2),U(2))")) and hash(c4) == hash(classify(parse("J(U(2),U(2))")))
        # the same flags, with the C4 on other vertices
        a, b = classify(graph_of("U(J(U(2),U(2)),1)")), classify(graph_of("U(1,J(U(2),U(2)))"))
        assert a.to_json_dict() | {"witness": None} == b.to_json_dict() | {"witness": None}
        assert a.witness == (0, 1, 2, 3) and b.witness == (1, 2, 3, 4) and a != b
        with pytest.raises(AttributeError):
            c4.is_chordal = True


def ruled_pattern(g, rep):
    """The first C4 of a non-chordal cograph, else its first 2K2, by the dense scan.

    The flags that pick the pattern are checked against the dense
    definitions by TestCotreeFlags."""
    if rep.is_threshold:
        return None
    return find_induced(g, "C4" if not rep.is_chordal else "2K2")


class TestCotreeWitness:
    """The witness of a cograph, read off its cotree, is the dense scan's."""

    def test_every_cograph_to_ten_from_cotree_and_relabelled_graph(self):
        rng = random.Random(41)
        count = 0
        for n in range(1, 11):
            for s in enumerate_cographs(n).strings:
                t = parse(s)
                g = to_graph(t)
                perm = rng.sample(range(n), n)
                h = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])
                for source, graph in ((t, g), (h, h)):
                    rep = classify(source)
                    assert rep.witness == ruled_pattern(graph, rep), (s, perm)
                count += 1
        assert count == 6965

    def test_random_unnormalized_trees(self):
        rng = random.Random(43)
        for _ in range(3000):
            t = random_cotree(rng, rng.randint(1, 12), {})
            g = to_graph(t)
            rep = classify(t)
            assert rep.witness == ruled_pattern(g, rep), repr(t)
            assert classify(g).witness == rep.witness, repr(t)

    def test_wide_cographs_answer_fast(self):
        start = time.process_time()
        # vertex 0 is universal and lies in no 2K2, which the dense scan tries first
        assert classify(parse("J(1,U(2*K(750)))")).witness == (1, 2, 751, 752)
        assert time.process_time() - start < 1.0
        # 4 * 10^9 vertices, one visit per distinct node
        assert classify(parse("U(2*J(1000*U(1000*J(1000*U(2)))))")).witness == (0, 1, 2, 3)
        assert classify(parse("U(1,J(1000*U(1000*K(1000))))")).witness == (1, 1001, 1000001, 1001001)


def adversarial_graph() -> Graph:
    """A 320-vertex cograph and a P4 on four more vertices, n = 324: the dense
    scan tries every 4-subset of the cograph before the only P4."""
    return union(graph_of("J(1, U(80*J(2), J(U(80), U(79))))"), Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))


class TestWitnessFreeRecognition:
    """Callers that only ask whether a graph is a cograph search no P4."""

    @pytest.fixture
    def p4_calls(self, monkeypatch):
        calls = []
        search = cotree_module.find_p4

        def counting(g):
            calls.append(g.n)
            return search(g)

        for module in (cotree_module, recognition):
            monkeypatch.setattr(module, "find_p4", counting)
        return calls

    def test_flags_and_predictions_are_fast(self, p4_calls):
        g = adversarial_graph()
        flags = dict.fromkeys(recognition.FLAGS, False)
        for answer, want in (
            (lambda: {name: getattr(classify(g), name) for name in recognition.FLAGS}, flags),
            (lambda: predict_main_count(g), MainCountPrediction(324, "WidthBoundOnly", "not a cograph; trivial order bound")),
            (lambda: parse_generalized_core_satellite(g), None),
        ):
            start = time.process_time()
            assert answer() == want
            assert time.process_time() - start < 1.0
        start = time.process_time()
        with pytest.raises(NotApplicable, match="not quasi-threshold"):
            predict_two_main_forms(g)
        assert time.process_time() - start < 1.0
        assert p4_calls == []

    @pytest.mark.slow
    def test_witness_is_the_first_p4_on_first_read(self, p4_calls):
        g = adversarial_graph()
        rep = classify(g)
        assert p4_calls == []
        witness = find_induced(g, "P4")  # the dense scan over all 4-subsets
        assert rep.witness == witness == (320, 321, 322, 323)
        assert p4_calls == [324]
        with pytest.raises(NotCograph) as exc:
            from_graph(g)
        assert exc.value.witness == witness and p4_calls == [324, 324]


def kappa_brute_force(g):
    if is_complete(g):
        return g.n - 1
    for k in range(g.n - 1):
        for cut in combinations(range(g.n), k):
            rest = [v for v in range(g.n) if v not in cut]
            if len(components(induced_subgraph(g, rest))) > 1:
                return k
    return g.n - 1


class TestVertexConnectivity:
    def test_complete(self):
        assert vertex_connectivity(Graph.complete(4)) == 3

    def test_paw(self):
        assert vertex_connectivity(graph_of("J(1, U(J(1), J(2)))")) == 1

    def test_bipartite_join(self):
        assert vertex_connectivity(graph_of("J(U(2),U(3))")) == 2

    def test_disconnected(self):
        assert vertex_connectivity(graph_of("U(J(3),J(2))")) == 0

    def test_needs_two_vertices(self):
        with pytest.raises(ValueError):
            vertex_connectivity(Graph.complete(1))

    def test_against_brute_force(self):
        rng = random.Random(23)
        for _ in range(80):
            g = random_graph(rng, rng.randint(2, 7))
            assert vertex_connectivity(g) == kappa_brute_force(g), g.edges()


class TestConnectivityReport:
    def test_cograph_equality(self):
        # complete graphs are excluded: kappa = n-1 there while a = n
        for s in enumerate_cographs(6).strings:
            g = graph_of(s)
            if len(components(g)) != 1 or g.n < 2 or is_complete(g):
                continue
            assert connectivity_report(g).equal_flag, s

    def test_p4(self):
        rep = connectivity_report(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))
        assert rep.kappa == 1
        assert rep.algebraic == pytest.approx(2 - math.sqrt(2))
        assert not rep.equal_flag

    def test_complete_flag_false(self):
        rep = connectivity_report(Graph.complete(5))
        assert rep.kappa == 4 and rep.algebraic == pytest.approx(5.0)
        assert not rep.equal_flag


class TestUniversalCliqueDecomposition:
    def test_paw(self):
        dec = universal_clique_decomposition(graph_of("J(1, U(J(1), J(2)))"))
        assert dec.c == 1
        assert sorted(len(b) for b in components(dec.h)) == [1, 2]

    def test_core_satellite(self):
        dec = universal_clique_decomposition(graph_of("J(2, U(3*J(2)))"))
        assert dec.c == 2
        assert sorted(len(b) for b in components(dec.h)) == [2, 2, 2]

    def test_complete_not_applicable(self):
        with pytest.raises(NotApplicable, match="complete"):
            universal_clique_decomposition(Graph.complete(4))

    def test_disconnected_not_applicable(self):
        with pytest.raises(NotApplicable, match="disconnected"):
            universal_clique_decomposition(graph_of("U(J(2),J(2))"))

    def test_non_quasi_threshold_not_applicable(self):
        with pytest.raises(NotApplicable, match="quasi-threshold"):
            universal_clique_decomposition(graph_of("J(U(2),U(2))"))

    def test_reconstruction(self):
        for s in enumerate_cographs(6).strings:
            g = graph_of(s)
            rep = classify(g)
            if not (rep.is_connected and rep.is_quasi_threshold) or rep.is_complete:
                continue
            dec = universal_clique_decomposition(g)
            rebuilt = join(Graph.complete(dec.c), dec.h)
            # the decomposition lists clique vertices first, so relabel g the same way
            relabeled = induced_subgraph(g, list(dec.clique_vertices) + list(dec.h_vertices))
            assert rebuilt == relabeled, s


def reference_core_satellite(g):
    """The parser's former route: QT check, universal-clique split, then
    every component of the remainder complete."""
    if g.n < 2 or not is_connected(g) or is_complete(g) or not classify(g).is_quasi_threshold:
        return None
    dec = universal_clique_decomposition(g)
    orders = {}
    for block in components(dec.h):
        if not is_complete(induced_subgraph(dec.h, block)):
            return None
        orders[len(block)] = orders.get(len(block), 0) + 1
    return dec.c, tuple(sorted(((count, order) for order, count in orders.items()), key=lambda x: x[1]))


def normalized_reading(t):
    """The parser's former cotree reading: normalize the whole tree, then read
    the root, its one internal child and the satellites."""
    t = normalize(t)
    if not (isinstance(t, Internal) and t.kind == JOIN):
        return None
    rest = [c for c in t.children if isinstance(c, Internal)]
    n0 = len(t.children) - len(rest)
    if n0 == 0 or len(rest) != 1:
        return None
    kids = rest[0].children
    if not all(isinstance(c, Leaf) or all(isinstance(x, Leaf) for x in c.children) for c in kids):
        return None
    orders = Counter(1 if isinstance(c, Leaf) else len(c.children) for c in kids)
    return n0, tuple(sorted(((count, order) for order, count in orders.items()), key=lambda x: x[1]))


class TestParseGeneralizedCoreSatellite:
    @staticmethod
    def _parsed(g):
        sat = parse_generalized_core_satellite(g)
        return None if sat is None else (sat.n0, sat.satellites)

    def test_matches_reference_on_enumeration(self):
        for n in range(1, 11):
            for s in enumerate_cographs(n).strings:
                t = parse(s)
                g = to_graph(t)
                assert self._parsed(t) == self._parsed(g) == reference_core_satellite(g), s

    def test_top_down_reading_matches_normalized_reading(self):
        trees = [from_graph(graph_of(s)) for n in range(1, 11) for s in enumerate_cographs(n).strings]
        for specs in default_grids().values():
            for spec in specs:
                # K1 joined on, not normalized, bare and with lone-child wrappers
                t = build_cotree(spec)
                joined = Internal(JOIN, (Leaf(), t))
                trees += [joined, Internal(UNION, (joined,)), Internal(JOIN, (Internal(UNION, (Leaf(),)), t))]
        recognized = 0
        for t in trees:
            want = normalized_reading(t)
            assert self._parsed(t) == want
            recognized += want is not None
        assert recognized > 300

    def test_matches_reference_on_kc_joins(self):
        rng = random.Random(3)
        recognized = 0
        for _ in range(300):
            if rng.random() < 0.5:
                h = random_graph(rng, rng.randint(1, 8))
            else:  # a union of cliques, so that the join parses
                h = Graph.complete(rng.randint(1, 3))
                for _ in range(rng.randint(0, 3)):
                    h = union(h, Graph.complete(rng.randint(1, 3)))
            g = join(Graph.complete(rng.randint(1, 3)), h)
            want = reference_core_satellite(g)
            assert self._parsed(g) == want
            recognized += want is not None
        assert recognized > 50

    def test_two_order_classes(self):
        g = graph_of("J(1, U(J(2), 2*J(3)))")
        spec = parse_generalized_core_satellite(g)
        assert spec.n0 == 1
        assert spec.satellites == ((1, 2), (2, 3))

    def test_star_satellite_rejected(self):
        g = graph_of("J(2, U(J(1), J(1, U(2))))")
        assert parse_generalized_core_satellite(g) is None

    def test_c4_rejected(self):
        assert parse_generalized_core_satellite(graph_of("J(U(2),U(2))")) is None

    def test_complete_rejected(self):
        assert parse_generalized_core_satellite(Graph.complete(5)) is None

    def test_round_trip_against_family_builder(self):
        from qcograph.families import FamilySpec, build
        from qcograph.cotree import canonical_string, from_graph

        spec = FamilySpec.make("GeneralizedCoreSatellite", n0=2, satellites=[(2, 1), (1, 4)])
        _, g = build(spec)
        parsed = parse_generalized_core_satellite(g)
        assert (parsed.n0, parsed.satellites) == (2, ((2, 1), (1, 4)))
        rebuilt = build(
            FamilySpec.make(
                "GeneralizedCoreSatellite", n0=parsed.n0, satellites=list(parsed.satellites)
            )
        )[1]
        assert canonical_string(from_graph(rebuilt)) == canonical_string(from_graph(g))


class TestHereditaryClosure:
    def test_quasi_threshold_closed_under_induced(self):
        rng = random.Random(5)
        pool = [s for s in enumerate_cographs(7).strings]
        qt_pool = [s for s in pool if classify(graph_of(s)).is_quasi_threshold]
        for _ in range(60):
            g = graph_of(rng.choice(qt_pool))
            k = rng.randint(1, g.n)
            sub = induced_subgraph(g, sorted(rng.sample(range(g.n), k)))
            assert classify(sub).is_quasi_threshold
