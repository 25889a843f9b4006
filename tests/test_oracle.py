import hashlib
import json
import math
import time

import pytest

import qcograph.oracle as oracle
from qcograph.cotree import complement_cotree, parse, to_graph
from qcograph.enumeration import enumerate_cographs
from qcograph.families import FamilySpec
from qcograph.graph import Graph
from qcograph.oracle import (
    FormA,
    FormB,
    MainCountPrediction,
    mains_complete_split,
    mains_core_satellite_pair,
    mains_core_union,
    predict_main_count,
    predict_two_main_forms,
    quadratic_roots,
    sigma_bipartite_join,
    sigma_complete,
    zero_is_q_main,
)
from qcograph.recognition import NotApplicable
from qcograph.spectra import main_count_exact, q_spectrum


def graph_of(expr):
    return to_graph(parse(expr))


class TestQuadraticRoots:
    def test_vanishing_constant_term_is_exact(self):
        big, small = quadratic_roots(5.0, 0.0)
        assert big == 5.0 and small == 0.0

    def test_roots_multiply_to_constant(self):
        big, small = quadratic_roots(7.0, 10.0)
        assert big * small == pytest.approx(10.0)
        assert big == 5.0 and small == 2.0


class TestSigmaComplete:
    def test_n4(self):
        assert sigma_complete(4) == [(6.0, 1, True), (2.0, 3, False)]

    def test_n1(self):
        assert sigma_complete(1) == [(0.0, 1, True)]

    def test_n2(self):
        assert sigma_complete(2) == [(2.0, 1, True), (0.0, 1, False)]


class TestSigmaBipartiteJoin:
    def test_2_3(self):
        assert sigma_bipartite_join(2, 3) == [
            (5.0, 1, True),
            (3.0, 1, False),
            (2.0, 2, False),
            (0.0, 1, True),
        ]

    def test_equal_sides(self):
        assert sigma_bipartite_join(2, 2) == [(4.0, 1, True), (2.0, 2, False), (0.0, 1, False)]

    def test_1_1_is_k2(self):
        assert sigma_bipartite_join(1, 1) == [(2.0, 1, True), (0.0, 1, False)]
        assert sigma_bipartite_join(1, 1) == sigma_complete(2)


class TestMainsClosedForms:
    def test_split_integer_family(self):
        # a = 2s-1, b = 3s gives integer mains 8s-4 and s-1
        for s in range(1, 6):
            q1, q2 = mains_complete_split(2 * s - 1, 3 * s)
            assert q1 == pytest.approx(8 * s - 4)
            assert q2 == pytest.approx(s - 1)

    def test_split_a1(self):
        assert mains_complete_split(1, 3) == (4.0, 0.0)

    def test_split_2_3(self):
        q1, q2 = mains_complete_split(2, 3)
        assert q1 == pytest.approx((7 + math.sqrt(33)) / 2)
        assert q2 == pytest.approx((7 - math.sqrt(33)) / 2)

    def test_split_rejects_b1(self):
        with pytest.raises(ValueError):
            mains_complete_split(3, 1)

    def test_core_union_paw(self):
        (q1, q2), nonmain, mult = mains_core_union(1, 1, 2)
        assert q1 == pytest.approx((5 + math.sqrt(17)) / 2)
        assert q2 == pytest.approx((5 - math.sqrt(17)) / 2)
        assert nonmain == 2.0 and mult == 1

    def test_core_union_consecutive_integer_family(self):
        for s in range(1, 6):
            (q1, q2), nonmain, mult = mains_core_union(s, s + 1, s + 2)
            assert q1 == pytest.approx(5 * s + 2)
            assert q2 == pytest.approx(2 * s)
            assert nonmain == 3 * s + 1 and mult == s

    def test_core_union_rejects_equal_orders(self):
        with pytest.raises(ValueError):
            mains_core_union(2, 3, 3)

    def test_core_satellite_pair_integer_family(self):
        for s in range(1, 6):
            q1, q2 = mains_core_satellite_pair(s, s)
            assert q1 == pytest.approx(5 * s - 2)
            assert q2 == pytest.approx(2 * s - 2)

    def test_closed_forms_match_solver(self):
        for c, a, b in [(1, 1, 2), (2, 1, 3), (3, 2, 4), (1, 3, 2)]:
            (q1, q2), _, _ = mains_core_union(c, a, b)
            g = graph_of(f"J({c}, U(J({a}), J({b})))")
            assert q_spectrum(g).main_values() == pytest.approx([q1, q2], abs=1e-8)


class TestPredictMainCount:
    def test_regular(self):
        pred = predict_main_count(Graph.complete(7))
        assert pred.k == 1 and pred.rule == "CompleteGraph"

    def test_core_satellite(self):
        pred = predict_main_count(graph_of("J(2, U(3*J(2)))"))
        assert pred.k == 2 and pred.rule == "CoreSatelliteP1"

    def test_gcs_three_orders(self):
        pred = predict_main_count(graph_of("J(1, U(J(1), J(2), J(3)))"))
        assert pred.k == 4 and pred.rule == "GcsPplus1"

    def test_two_distinct_satellites(self):
        pred = predict_main_count(graph_of("J(1, U(J(1), J(2)))"))
        assert pred.k == 2 and pred.rule == "TwoMainFormA"

    def test_spec_input(self):
        spec = FamilySpec.make("GeneralizedCoreSatellite", n0=1, satellites=[(1, 2), (2, 3)])
        pred = predict_main_count(spec)
        assert pred.k == 3 and pred.rule == "GcsPplus1"

    def test_spec_complete_degenerations(self):
        assert predict_main_count(FamilySpec.make("CompleteSplit", a=3, b=1)).k == 1
        assert predict_main_count(FamilySpec.make("CoreSatellite", c=2, t=1, a=3)).k == 1
        assert predict_main_count(FamilySpec.make("Empty", n=4)).rule == "Regular"

    def test_spec_agrees_with_built_graph(self):
        from qcograph.families import build, default_grid, default_grids

        specs = default_grid("GeneralizedCoreSatellite") + [spec for grid in default_grids().values() for spec in grid]
        for a in range(1, 4):
            for b in range(1, 4):
                specs.append(FamilySpec.make("CompleteSplit", a=a, b=b))
                specs.append(FamilySpec.make("Windmill", t=a, a=b))
                for c in range(1, 3):
                    specs.append(FamilySpec.make("CoreUnion", c=c, a=a, b=b))
                    specs.append(FamilySpec.make("CoreSatellite", c=c, t=a, a=b))
        for spec in specs:
            by_spec = predict_main_count(spec)
            by_graph = predict_main_count(build(spec)[1])
            assert (by_spec.k, by_spec.rule) == (by_graph.k, by_graph.rule), spec

    def test_join_rule(self):
        # K_2 joined onto the union of a triangle and an edge plus C4's complement...
        # use K_1 join C5-free cograph: J(1, J(U(2),U(2))) has a universal vertex
        # over C_4, whose complement 2K_2 is bipartite and k(C_4) = 1, so the
        # ladder falls through to the width bound
        pred = predict_main_count(graph_of("J(1, U(2), U(2))"))
        assert pred.rule == "WidthBoundOnly"

    def test_join_rule_applies_on_nonregular_remainder(self):
        # remainder h = K_2bar join K_3bar has k=2, complement K_2 u K_3 has
        # no unbalanced bipartite component, so 0 is not main there
        g = graph_of("J(1, U(2), U(3))")
        pred = predict_main_count(g)
        assert pred.rule == "JoinKcZeroNotMain" and pred.k == 3
        assert q_spectrum(g).main_count == 3

    def test_join_rule_bipartite_side(self):
        # remainder paw-minus... use h = K_1 u K_2 (complement = bipartite join)
        # with core stripped: J(1, U(1, J(2))) is TwoMainFormA first, so craft a
        # non-core-satellite graph: h = C_4 u K_1 has k = 2, complement bipartite?
        # complement(C_4 u K_1) = K_1 join 2K_2: contains a triangle, non-bipartite.
        g = graph_of("J(2, U(1, J(U(2),U(2))))")
        pred = predict_main_count(g)
        k_true = q_spectrum(g).main_count
        if pred.exact:
            assert pred.k == k_true
        else:
            assert k_true <= pred.k

    def test_exact_predictions_match_spectrum(self, spectral_table):
        # every prediction called exact, and the zero-main predicate behind the
        # join rule, agree with the spectrum over the n <= 9 enumeration, and
        # every exact prediction with the exact main count over n <= 10
        table, _ = spectral_table
        wrong = []
        exact = 0
        for s, entry in table.items():
            pred = predict_main_count(entry.graph)
            if pred.exact:
                exact += 1
                if pred.k != entry.report.main_count:
                    wrong.append(f"{s}: {pred.rule} predicts {pred.k}, spectrum {entry.report.main_count}")
            zero_main = any(abs(grp.value) <= entry.report.tol_group and grp.main for grp in entry.report.groups)
            if zero_is_q_main(entry.graph) != zero_main:
                wrong.append(f"{s}: zero_is_q_main {not zero_main}, spectrum {zero_main}")
        counted = 0
        for n in range(1, 11):
            for s in enumerate_cographs(n).strings:
                t = parse(s)
                pred = predict_main_count(t)
                if pred.exact:
                    counted += 1
                    if pred.k != main_count_exact(t):
                        wrong.append(f"{s}: {pred.rule} predicts {pred.k}, exact count {main_count_exact(t)}")
        assert exact > 0 and counted > exact and not wrong, wrong[:5]

    def test_prediction_serializes(self):
        pred = predict_main_count(Graph.complete(3))
        data = pred.to_json_dict()
        assert data["k"] == 1 and data["rule"] == "CompleteGraph" and data["exact"]


# sha1 of "<canonical string> <prediction json, sorted keys>\n" over the
# n <= 10 enumeration, as the graph-input ladder answered it before the
# ladder moved onto the cotree
PREDICTIONS_N10_SHA1 = "4524db7a3c79c7675600a4393854bf4d30a8df33"

# one cograph per rule of the ladder
RULE_EXAMPLES = [
    ("K(5)", "CompleteGraph", 1),
    ("U(2*K(3))", "Regular", 1),
    ("J(2, U(3*J(2)))", "CoreSatelliteP1", 2),
    ("J(1, U(J(1), J(2)))", "TwoMainFormA", 2),
    ("J(1, U(J(1), J(2), J(3)))", "GcsPplus1", 4),
    ("J(1, U(2), U(1, J(2)))", "JoinKcZeroMain", 3),
    ("J(1, U(2), U(3))", "JoinKcZeroNotMain", 3),
    ("U(1, J(2))", "WidthBoundOnly", 2),
]


class TestPredictOnCotree:
    def test_predictions_pinned_over_n10(self):
        digest = hashlib.sha1()
        for n in range(1, 11):
            for s in enumerate_cographs(n).strings:
                pred = predict_main_count(parse(s))
                digest.update(f"{s} {json.dumps(pred.to_json_dict(), sort_keys=True)}\n".encode())
        assert digest.hexdigest() == PREDICTIONS_N10_SHA1

    def test_cotree_and_graph_input_agree(self, spectral_table):
        table, _ = spectral_table
        for s, entry in table.items():
            assert predict_main_count(parse(s)) == predict_main_count(entry.graph), s

    def test_zero_main_reading_matches_dense(self):
        for n in range(1, 11):
            for s in enumerate_cographs(n).strings:
                t = parse(s)
                for u in (t, complement_cotree(t)):
                    assert zero_is_q_main(u) == zero_is_q_main(to_graph(u)), s

    def test_zero_main_reads_each_distinct_component_once(self, monkeypatch):
        # a U root over two shared components, each repeated 100,000 times;
        # neither is bipartite, so no component ends the search early
        walks = []

        def counted(t):
            walks.append(t)
            return flags(t)

        flags = oracle.cotree_flags
        monkeypatch.setattr(oracle, "cotree_flags", counted)
        assert not zero_is_q_main(parse("U(100000*J(3),100000*J(2,U(2)))"))
        assert len(walks) == 2

    def test_builds_no_graph(self, monkeypatch):
        trees = [(parse(expr), rule, k) for expr, rule, k in RULE_EXAMPLES]
        big = FamilySpec.make("GeneralizedCoreSatellite", n0=100_000, satellites=[(3, 5), (2, 7)])

        def refuse(self, adj):
            raise AssertionError("a Graph was built")

        monkeypatch.setattr(Graph, "__init__", refuse)
        for t, rule, k in trees:
            pred = predict_main_count(t)
            assert (pred.rule, pred.k) == (rule, k)
        pred = predict_main_count(big)
        assert (pred.rule, pred.k) == ("GcsPplus1", 3)
        assert pred.premises == "core K_100000 with 5 satellites in 2 order classes"

    def test_non_cographs_keep_regular_and_order_bound(self):
        c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        pred = predict_main_count(c5)
        assert (pred.rule, pred.k, pred.premises) == ("Regular", 1, "2-regular graph")
        # K_1 joined with P4: not a cograph, not regular
        k1_p4 = Graph.from_edges(5, [(1, 2), (2, 3), (3, 4)] + [(0, v) for v in range(1, 5)])
        pred = predict_main_count(k1_p4)
        assert (pred.rule, pred.k, pred.exact) == ("WidthBoundOnly", 5, False)

    def test_width_of_shared_wide_tree_is_counted_not_walked(self):
        # 2,000,001 bags from a few distinct nodes
        start = time.perf_counter()
        pred = predict_main_count(parse("U(1,2*J(1000*U(1000*J(2))))"))
        assert time.perf_counter() - start < 1.0
        assert (pred.rule, pred.k) == ("WidthBoundOnly", 2_000_001)

    def test_rejects_other_input(self):
        with pytest.raises(TypeError, match="expected Cotree, FamilySpec or Graph"):
            predict_main_count("J(2)")


class TestDecompositionDichotomy:
    def test_bipartite_remainder_complement_forces_two_mains(self):
        # over connected non-complete quasi-threshold graphs with k >= 2:
        # whenever the universal-stripped remainder has bipartite complement,
        # the graph has exactly two mains
        from qcograph.enumeration import enumerate_cographs
        from qcograph.graph import bipartition, complement
        from qcograph.recognition import classify, universal_clique_decomposition

        hits = 0
        for n in range(2, 9):
            for s in enumerate_cographs(n).strings:
                g = graph_of(s)
                rep = classify(g)
                if not (rep.is_connected and rep.is_quasi_threshold) or rep.is_complete:
                    continue
                k = q_spectrum(g).main_count
                if k < 2:
                    continue
                dec = universal_clique_decomposition(g)
                if bipartition(complement(dec.h)) is not None:
                    hits += 1
                    assert k == 2, s
        assert hits > 0


class TestPredictTwoMainForms:
    def test_paw(self):
        assert predict_two_main_forms(graph_of("J(1, U(J(1), J(2)))")) == FormA(c=1, a=1, b=2)

    def test_form_b(self):
        assert predict_two_main_forms(graph_of("J(3, U(J(2), J(2)))")) == FormB(c=3, t=2, a=2)

    def test_three_order_classes_absent(self):
        assert predict_two_main_forms(graph_of("J(1, U(J(1), J(2), J(3)))")) is None

    def test_complete_absent(self):
        assert predict_two_main_forms(Graph.complete(4)) is None

    def test_disconnected_not_applicable(self):
        with pytest.raises(NotApplicable):
            predict_two_main_forms(graph_of("U(J(2), J(2))"))

    def test_non_qt_not_applicable(self):
        with pytest.raises(NotApplicable):
            predict_two_main_forms(graph_of("J(U(2),U(2))"))

    def test_disconnected_non_cograph_reads_not_quasi_threshold(self):
        p4_and_k1 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(NotApplicable, match="not quasi-threshold"):
            predict_two_main_forms(p4_and_k1)

    def test_cotree_matches_graph(self):
        from qcograph.enumeration import enumerate_cographs

        def outcome(source):
            try:
                return predict_two_main_forms(source)
            except NotApplicable as exc:
                return f"NotApplicable: {exc}"

        for n in range(1, 10):
            for s in enumerate_cographs(n).strings:
                t = parse(s)
                assert outcome(t) == outcome(to_graph(t)), s
