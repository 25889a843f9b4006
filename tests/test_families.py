import math

import pytest

from qcograph.cotree import MAX_CHILDREN, Leaf, canonical_string, to_graph
from qcograph.families import (
    _FAMILIES,
    FAMILY_PARAMS,
    FamilySpec,
    build,
    build_cotree,
    default_grid,
    default_grids,
    expected_mains,
)
from qcograph.graph import MAX_EDGE_LIST_N, Graph
from qcograph.oracle import predict_main_count
from qcograph.recognition import classify
from qcograph.spectra import q_spectrum

# one instance per family: its canonical cotree string
GOLDEN = [
    ("Complete", {"n": 4}, "J(4)"),
    ("Empty", {"n": 3}, "U(3)"),
    ("CompleteSplit", {"a": 2, "b": 3}, "J(2,U(3))"),
    ("BipartiteJoin", {"a": 2, "b": 3}, "J(U(2),U(3))"),
    ("CoreUnion", {"c": 2, "a": 1, "b": 3}, "J(2,U(1,J(3)))"),
    ("CoreSatellite", {"c": 2, "t": 2, "a": 3}, "J(2,U(J(3),J(3)))"),
    ("Windmill", {"t": 3, "a": 2}, "J(1,U(J(2),J(2),J(2)))"),
    ("GeneralizedCoreSatellite", {"n0": 2, "satellites": [[1, 1], [2, 3]]}, "J(2,U(1,J(3),J(3)))"),
    ("H1", {"a": 2, "b": 3, "p": 2}, "U(2,J(3),J(3))"),
    ("H2", {"a": 2, "b": 3, "p": 2}, "U(J(2,U(3)),J(2,U(3)))"),
    ("H2p", {"b": 3, "p": 2}, "U(J(1,U(3)),J(1,U(3)))"),
    ("H2pp", {"b": 2, "p1": 2, "p2": 2}, "U(2,J(1,U(2)),J(1,U(2)))"),
    ("H3", {"s": 1, "a1": 1, "a2": 2, "p": 2}, "U(J(1,U(1,J(2))),J(1,U(1,J(2))))"),
    ("H4", {"a": 3, "p1": 2, "p2": 1}, "U(J(3),J(3),J(1,U(3)))"),
    ("H5", {"a": 3, "p1": 1, "p2": 1, "p3": 2}, "U(2,J(3),J(1,U(3)))"),
    ("H6", {"s": 1, "p1": 1, "p2": 2, "p3": 1}, "U(1,J(3),J(3),J(1,U(3)))"),
    ("H7", {"s": 2, "p1": 1, "p2": 1, "p3": 2}, "U(J(3),J(3),J(7),J(2,U(J(3),J(4))))"),
    ("H8", {"s": 2, "p1": 2, "p2": 1, "p3": 1}, "U(J(2),J(5),J(2,U(J(2),J(2))),J(2,U(J(2),J(2))))"),
]


class TestSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            FamilySpec.make("H9", s=1)

    def test_wrong_params(self):
        with pytest.raises(ValueError, match="missing"):
            FamilySpec.make("H1", a=1, b=2)

    def test_violated_clause_named(self):
        with pytest.raises(ValueError, match="b >= 2"):
            FamilySpec.make("H1", a=1, b=1, p=1)
        with pytest.raises(ValueError, match="s odd"):
            FamilySpec.make("H6", s=2, p1=1, p2=1, p3=1)
        with pytest.raises(ValueError, match="s even"):
            FamilySpec.make("H7", s=1, p1=1, p2=1, p3=1)
        with pytest.raises(ValueError, match="p1 >= 2 or p2 >= 2"):
            FamilySpec.make("H2pp", b=2, p1=1, p2=1)
        with pytest.raises(ValueError, match="pairwise distinct"):
            FamilySpec.make("GeneralizedCoreSatellite", n0=1, satellites=[(1, 2), (2, 2)])
        with pytest.raises(ValueError, match=">= 1"):
            FamilySpec.make("Complete", n=0)

    def test_counts_capped(self):
        # each parameter counts children of one node, as does the satellite total
        with pytest.raises(ValueError, match=f"n = {MAX_CHILDREN + 1} exceeds the limit"):
            FamilySpec.make("Complete", n=float(MAX_CHILDREN + 1))
        with pytest.raises(ValueError, match=f"satellites = {10**12} exceeds the limit"):
            FamilySpec.make("GeneralizedCoreSatellite", n0=1, satellites=[(10**12, 2)])
        with pytest.raises(ValueError, match=f"at most {MAX_CHILDREN} satellites"):
            FamilySpec.make("GeneralizedCoreSatellite", n0=1, satellites=[(MAX_CHILDREN, 1), (1, 2)])
        # t copies of K_a share one K_a, so an accepted spec builds its cotree at once
        t = build_cotree(FamilySpec.make("CoreSatellite", c=1, t=1000, a=MAX_CHILDREN // 1000))
        assert t.n == 1 + MAX_CHILDREN

    def test_json_round_trip(self):
        spec = FamilySpec.make("H6", s=3, p1=1, p2=2, p3=1)
        assert FamilySpec.from_json_dict(spec.to_json_dict()) == spec
        gcs = FamilySpec.make("GeneralizedCoreSatellite", n0=1, satellites=[(2, 3)])
        assert FamilySpec.from_json_dict(gcs.to_json_dict()) == gcs


class TestBuild:
    def test_paw(self):
        t, g = build(FamilySpec.make("CoreUnion", c=1, a=1, b=2))
        assert (g.n, g.m) == (4, 4)
        assert canonical_string(t) == "J(1,U(1,J(2)))"

    def test_windmill(self):
        spec = FamilySpec.make("GeneralizedCoreSatellite", n0=1, satellites=[(2, 3)])
        t, g = build(spec)
        assert (g.n, g.m) == (7, 12)

    def test_h1(self):
        _, g = build(FamilySpec.make("H1", a=2, b=3, p=2))
        assert (g.n, g.m) == (8, 6)

    def test_complete_split_b1_collapses(self):
        t, g = build(FamilySpec.make("CompleteSplit", a=3, b=1))
        assert g == Graph.complete(4)
        assert canonical_string(t) == "J(4)"

    def test_core_satellite_t1_collapses(self):
        _, g = build(FamilySpec.make("CoreSatellite", c=2, t=1, a=3))
        assert g == Graph.complete(5)
        assert expected_mains(FamilySpec.make("CoreSatellite", c=2, t=1, a=3)) == [8.0]

    def test_h2_a1_matches_h2p(self):
        a = build(FamilySpec.make("H2", a=1, b=3, p=2))[0]
        b = build(FamilySpec.make("H2p", b=3, p=2))[0]
        assert canonical_string(a) == canonical_string(b)

    def test_windmill_equals_core_satellite_c1(self):
        a = build(FamilySpec.make("Windmill", t=3, a=2))[0]
        b = build(FamilySpec.make("CoreSatellite", c=1, t=3, a=2))[0]
        assert canonical_string(a) == canonical_string(b)


    def test_dense_graph_capped(self):
        spec = FamilySpec.make("Complete", n=MAX_EDGE_LIST_N + 1)
        with pytest.raises(ValueError, match=f"Complete: n = {MAX_EDGE_LIST_N + 1}"):
            build(spec)
        pred = predict_main_count(spec)  # read off the cotree: no cap
        assert (pred.rule, pred.k) == ("CompleteGraph", 1)
        assert canonical_string(build_cotree(spec)) == f"J({MAX_EDGE_LIST_N + 1})"


class TestGolden:
    def test_one_instance_per_family(self):
        assert sorted(f for f, _, _ in GOLDEN) == sorted(FAMILY_PARAMS)

    def test_builders_emit_normal_trees(self):
        # build_cotree's canonicalize then has nothing to normalize
        specs = [FamilySpec.make(f, **params) for f, params, _ in GOLDEN]
        specs += default_grid("GeneralizedCoreSatellite") + [s for grid in default_grids().values() for s in grid]
        for spec in specs:
            raw = _FAMILIES[spec.family].cotree(**spec.param_dict())
            assert isinstance(raw, Leaf) or raw.normal, spec

    @pytest.mark.parametrize("family, params, cotree", GOLDEN, ids=[f for f, _, _ in GOLDEN])
    def test_cotree_and_mains(self, family, params, cotree):
        spec = FamilySpec.make(family, **params)
        t = build_cotree(spec)
        assert canonical_string(t) == cotree
        want = expected_mains(spec)
        if want is not None:
            assert q_spectrum(to_graph(t)).main_values() == pytest.approx(want, abs=1e-7)


class TestExpectedMains:
    def test_h6_s1(self):
        assert expected_mains(FamilySpec.make("H6", s=1, p1=1, p2=1, p3=1)) == [4.0, 0.0]

    def test_h7_s2(self):
        assert expected_mains(FamilySpec.make("H7", s=2, p1=1, p2=1, p3=1)) == [12.0, 4.0]

    def test_h8_s2(self):
        assert expected_mains(FamilySpec.make("H8", s=2, p1=1, p2=1, p3=1)) == [8.0, 2.0]

    def test_h4_degenerate_a2(self):
        # 2a-3 = 1 collapses every block to K_2: one main eigenvalue
        spec = FamilySpec.make("H4", a=2, p1=1, p2=2)
        assert expected_mains(spec) == [2.0]
        _, g = build(spec)
        assert q_spectrum(g).main_values() == pytest.approx([2.0])

    def test_h5_a2_still_two_mains(self):
        spec = FamilySpec.make("H5", a=2, p1=1, p2=1, p3=2)
        assert expected_mains(spec) == [2.0, 0.0]
        _, g = build(spec)
        assert q_spectrum(g).main_values() == pytest.approx([2.0, 0.0])

    def test_no_closed_form_cases(self):
        assert expected_mains(FamilySpec.make("GeneralizedCoreSatellite", n0=1, satellites=[(2, 3)])) is None
        assert expected_mains(FamilySpec.make("CoreSatellite", c=1, t=3, a=2)) is None

    def test_bipartite_join(self):
        assert expected_mains(FamilySpec.make("BipartiteJoin", a=2, b=3)) == [5.0, 0.0]
        assert expected_mains(FamilySpec.make("BipartiteJoin", a=3, b=3)) == [6.0]

    def test_complete_split_quadratic(self):
        q1, q2 = expected_mains(FamilySpec.make("CompleteSplit", a=2, b=3))
        assert q1 == pytest.approx((7 + math.sqrt(33)) / 2)
        assert q2 == pytest.approx((7 - math.sqrt(33)) / 2)

    def test_core_union_equal_orders_matches_core_satellite(self):
        cu = expected_mains(FamilySpec.make("CoreUnion", c=2, a=3, b=3))
        cs = expected_mains(FamilySpec.make("CoreSatellite", c=2, t=2, a=3))
        assert cu == pytest.approx(cs)


class TestGrids:
    def test_h1_grid_skips_two_complete_components(self):
        grid = default_grid("H1")
        assert all(not (p["a"] == 1 and p["p"] == 1) for p in map(FamilySpec.param_dict, grid))
        assert len(grid) == 5 * 4 * 3 - 4

    def test_h4_grid_starts_at_three(self):
        assert all(p["a"] >= 3 for p in map(FamilySpec.param_dict, default_grid("H4")))

    def test_h6_grid_matches_documented_size(self):
        assert len(default_grid("H6")) == 24

    def test_all_grid_points_build_as_disconnected_quasi_threshold(self):
        for family, grid in default_grids().items():
            for spec in grid:
                _, g = build(spec)
                rep = classify(g)
                assert rep.is_quasi_threshold and not rep.is_connected, spec

    def test_grid_mains_spot_check(self):
        # one midsize instance per family against the full solver
        for family, grid in default_grids().items():
            spec = grid[len(grid) // 2]
            want = expected_mains(spec)
            _, g = build(spec)
            got = q_spectrum(g).main_values()
            assert got == pytest.approx(want, abs=1e-7), spec

    def test_core_satellite_builds_connected_quasi_threshold(self):
        for satellites in ([(2, 3)], [(1, 1), (2, 3)], [(3, 1), (1, 2), (2, 4)]):
            for n0 in (1, 3):
                spec = FamilySpec.make("GeneralizedCoreSatellite", n0=n0, satellites=satellites)
                _, g = build(spec)
                rep = classify(g)
                assert rep.is_quasi_threshold and rep.is_connected, spec
