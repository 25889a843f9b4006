import hashlib
import math
import random
import sys
import threading
import time
from itertools import accumulate, compress

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcograph import spectra
from qcograph.cotree import JOIN, UNION, BagRepresentation, Internal, Leaf, bags, from_graph, normalize, parse, to_graph
from qcograph.enumeration import enumerate_cographs, enumerate_cotrees
from qcograph.families import FamilySpec, build, build_cotree, default_grids
from qcograph.graph import MAX_EDGE_LIST_N, Graph, bipartition, components, induced_subgraph, join
from qcograph.spectra import (
    EigenDecomposition,
    QSpectrumReport,
    SolverError,
    SpectrumGroup,
    _grouped,
    algebraic_connectivity,
    condensed,
    default_tol_group,
    default_tol_main,
    dumps_17g,
    jacobi_eigh,
    laplacian,
    main_count_exact,
    main_eigs_condensed,
    q_spectrum,
    q_spectrum_cotree,
    report_to_json,
    signless_laplacian,
)
from test_cotree import alternating, random_cotree

SQRT6 = math.sqrt(6.0)


def graph_of(expr):
    return to_graph(parse(expr))


class TestMatrices:
    def test_q_of_k2(self):
        assert np.array_equal(signless_laplacian(Graph.complete(2)), [[1, 1], [1, 1]])

    def test_q_of_empty3(self):
        assert np.array_equal(signless_laplacian(Graph.empty(3)), np.zeros((3, 3)))

    def test_q_trace_is_twice_size(self):
        paw = graph_of("J(1, U(J(1), J(2)))")
        q = signless_laplacian(paw)
        assert np.trace(q) == 2 * paw.m == 8

    def test_q_row_sums(self):
        g = graph_of("J(2, U(2))")
        q = signless_laplacian(g)
        assert np.array_equal(q.sum(axis=1), 2 * g.degrees())

    def test_l_of_k2(self):
        assert np.array_equal(laplacian(Graph.complete(2)), [[1, -1], [-1, 1]])

    def test_l_annihilates_ones(self):
        g = graph_of("U(J(3), J(2, U(2)))")
        assert np.allclose(laplacian(g) @ np.ones(g.n), 0.0)

    def test_c4_laplacian_spectrum(self):
        c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        vals = jacobi_eigh(laplacian(c4)).values
        assert np.allclose(vals, [0, 2, 2, 4], atol=1e-10)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            signless_laplacian(Graph.empty(0))
        with pytest.raises(ValueError):
            laplacian(Graph.empty(0))


# graphs whose Q has exact zeros and large eigenspaces, which random dense
# matrices rarely give
GRAPH_Q_CASES = {
    "dense-join-93": lambda: graph_of("J(3, U(2*J(6,U(7,8)),2*J(17),2*J(7)))"),
    "K30": lambda: Graph.complete(30),
    "H3": lambda: build(FamilySpec.make("H3", s=3, a1=4, a2=4, p=3))[1],
    "H5": lambda: build(FamilySpec.make("H5", a=5, p1=3, p2=3, p3=3))[1],
}


class TestJacobi:
    def test_identity(self):
        dec = jacobi_eigh(np.eye(3))
        assert np.allclose(dec.values, [1, 1, 1])

    def test_swap_matrix(self):
        dec = jacobi_eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(dec.values, [-1, 1])

    def test_q_of_k4(self):
        dec = jacobi_eigh(signless_laplacian(Graph.complete(4)))
        assert np.allclose(dec.values, [2, 2, 2, 6], atol=1e-10)

    @given(st.integers(1, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_against_lapack(self, n, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(n, n))
        m = m + m.T
        dec = jacobi_eigh(m)
        assert np.allclose(dec.values, np.linalg.eigvalsh(m), atol=1e-9 * max(1, np.linalg.norm(m)))

    @given(st.integers(1, 10), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_decomposition_invariants(self, n, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(n, n))
        m = m + m.T
        dec = jacobi_eigh(m)
        norm = np.linalg.norm(m)
        assert np.all(np.diff(dec.values) >= 0)
        assert np.linalg.norm(m @ dec.vectors - dec.vectors * dec.values) <= 1e-10 * max(1, norm)
        assert np.linalg.norm(dec.vectors.T @ dec.vectors - np.eye(n)) <= 1e-12 * n

    @pytest.mark.parametrize("label", sorted(GRAPH_Q_CASES))
    def test_graph_q_with_zeros_and_large_eigenspaces(self, label):
        # exact zeros exercise the skipped rotations, twins the repeated values
        m = signless_laplacian(GRAPH_Q_CASES[label]())
        n = m.shape[0]
        norm = np.linalg.norm(m)
        dec = jacobi_eigh(m)
        assert np.max(np.abs(dec.values - np.linalg.eigvalsh(m))) <= 1e-9 * norm
        assert np.linalg.norm(m @ dec.vectors - dec.vectors * dec.values) <= 1e-10 * norm
        assert np.linalg.norm(dec.vectors.T @ dec.vectors - np.eye(n)) <= 1e-12 * n

    @pytest.mark.parametrize(
        "matrix",
        [
            [[1.0, 2.0], [0.0, 1.0]],  # true eigenvalues 1, 1; an upper-triangle solve says -1, 3
            [[1.0, np.nextafter(1.0, 2.0)], [1.0, 1.0]],
            [[math.nan, 1.0], [1.0, 0.0]],
            [[0.0, math.inf], [math.inf, 0.0]],
            [[-math.inf]],
            # finite entries whose Frobenius norm overflows; numpy warns of the overflow
            pytest.param([[0.0, 1e200], [1e200, 0.0]], marks=pytest.mark.filterwarnings("ignore:overflow")),
        ],
        ids=["asymmetric", "asymmetric-by-one-ulp", "nan", "inf", "inf-1x1", "norm-overflows"],
    )
    def test_rejects_non_finite_or_asymmetric(self, matrix):
        with pytest.raises(ValueError):
            jacobi_eigh(np.array(matrix))

    @pytest.mark.parametrize(
        "matrix, message",
        [
            ([[math.nan, 1.0], [2.0, 0.0]], "finite matrix"),
            pytest.param(
                [[0.0, 1e200], [2e200, 0.0]], "exactly symmetric", marks=pytest.mark.filterwarnings("ignore:overflow")
            ),
            pytest.param(
                [[0.0, 1e200], [1e200, 0.0]], "norm is finite", marks=pytest.mark.filterwarnings("ignore:overflow")
            ),
        ],
        ids=["nan-and-asymmetric", "norm-overflows-and-asymmetric", "norm-overflows"],
    )
    def test_error_order(self, matrix, message):
        # finiteness first, then symmetry, then the norm: the entries are scanned only when the norm is not finite
        with pytest.raises(ValueError, match=message):
            jacobi_eigh(np.array(matrix))

    def test_deterministic(self):
        m = signless_laplacian(graph_of("J(3, U(J(2), J(4)))"))
        a = jacobi_eigh(m)
        b = jacobi_eigh(m)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    @pytest.mark.parametrize(
        "matrix",
        [signless_laplacian(graph_of("J(3, U(J(2), J(4)))")), np.zeros((3, 3)), np.array([[2.5]])],
        ids=["q", "zero", "1x1"],
    )
    def test_results_own_their_memory(self, matrix):
        given_matrix = matrix.copy()
        dec = jacobi_eigh(matrix)
        values, vectors = dec.values.copy(), dec.vectors.copy()
        assert not np.shares_memory(dec.values, dec.vectors)
        dec.values[:] = math.nan
        dec.vectors[:] = math.nan
        assert np.array_equal(matrix, given_matrix)
        again = jacobi_eigh(matrix)
        assert np.array_equal(again.values, values)
        assert np.array_equal(again.vectors, vectors)
        # a solve of another matrix of the same order reuses this thread's workspace
        other = np.random.default_rng(0).normal(size=matrix.shape)
        jacobi_eigh(other + other.T)
        assert np.array_equal(again.values, values)
        assert np.array_equal(again.vectors, vectors)

    def test_workspace_per_thread_gives_the_serial_bits(self):
        # 4 threads solve the same orders at once; a workspace shared between
        # threads would mix their rotations
        matrices = [signless_laplacian(to_graph(parse(s))) for n in range(1, 8) for s in enumerate_cographs(n).strings]

        def solve_all():
            return [jacobi_eigh(m) for m in matrices]

        def digest(decompositions):
            return [(d.values.tobytes(), d.vectors.tobytes()) for d in decompositions]

        serial = digest(solve_all())
        start = threading.Barrier(4, timeout=60)
        results = [None] * 4

        def run(i):
            start.wait()
            results[i] = digest(solve_all())

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads within a solve, not only between them
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(matrices) == 287
        assert all(result == serial for result in results)

    def test_workspace_store_is_bounded(self):
        # a thread keeps the workspaces of orders up to the bound, and builds a larger one per solve
        kept = []

        def run():
            for n in range(1, 65):
                m = np.diag(np.arange(n, dtype=float))
                if n > 1:
                    m[0, 1] = m[1, 0] = 1.0  # one rotation: through the workspace
                jacobi_eigh(m)
            kept.extend(spectra._workspaces.by_order)

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert spectra._KEPT_ORDER == 32
        assert sorted(kept) == list(range(2, 33))

    def test_group_signatures_pinned(self):
        # per cograph with n <= 8: group multiplicities and main flags by the
        # dense, cotree and condensed routes; no floats, so a change of solver
        # float noise passes and a changed group or flag does not
        def signature(groups):
            return ",".join(f"{grp.multiplicity}{'m' if grp.main else '-'}" for grp in groups)

        lines = []
        for n in range(1, 9):
            for s in enumerate_cographs(n).strings:
                t = parse(s)
                dense = signature(q_spectrum(to_graph(t)).groups)
                cotree = signature(q_spectrum_cotree(bags(t)).groups)
                cond = "".join("m" if main else "-" for _, main in main_eigs_condensed(condensed(bags(t))))
                lines.append(f"{s}|{dense}|{cotree}|{cond}")
        assert len(lines) == 809
        digest = hashlib.sha1("\n".join(lines).encode()).hexdigest()
        assert digest == "22ec09576d58bc7917a84565b56381e84ddf03bd"


# References for jacobi_eigh and _grouped: the same arithmetic, one NumPy
# library call per step (np.linalg.norm, np.mean, np.array_equal, the
# diagonal read back from the array). The library cuts the calls around the
# arithmetic, so its results must equal these bit for bit.


def reference_jacobi_eigh(matrix: np.ndarray) -> EigenDecomposition:
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    if n == 0 or a.shape != (n, n):
        raise ValueError(f"need a non-empty square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("need a finite matrix, got a NaN or infinite entry")
    if not np.array_equal(a, a.T):
        raise ValueError("need an exactly symmetric matrix")
    av = np.vstack([a, np.eye(n)])
    a, v = av[:n], av[n:]
    norm = float(np.linalg.norm(a))
    if norm == 0.0 or n == 1:
        return reference_sorted_decomposition(np.diag(a).copy(), v)
    rot = np.empty((2, 2))
    tol = 1e-12 * norm
    skip = tol / (2.0 * n)
    for _ in range(100):
        off = a.flatten()
        off[:: n + 1] = 0.0
        if float(np.linalg.norm(off)) <= tol:
            return reference_sorted_decomposition(np.diag(a).copy(), v)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a.item(p, q)
                if abs(apq) <= skip:
                    continue
                app = a.item(p, p)
                aqq = a.item(q, q)
                tau = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rot[0, 0] = rot[1, 1] = c
                rot[0, 1] = s
                rot[1, 0] = -s
                pq = slice(p, q + 1, q - p)
                cols = av[:, pq] @ rot
                av[:, pq] = cols
                a[pq, :] = cols[:n].T
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = a[q, p] = 0.0
    raise SolverError("sweep cap exceeded")


def reference_sorted_decomposition(values: np.ndarray, vectors: np.ndarray) -> EigenDecomposition:
    order = np.argsort(values, kind="stable")
    return EigenDecomposition(values=values[order], vectors=vectors[:, order])


def reference_grouped(values, vectors, weights, tol_group, tol_main, columns=None) -> list[SpectrumGroup]:
    columns = range(len(values) + 1) if columns is None else columns
    spans, start = [], 0
    for i in range(1, len(values)):
        if values[i] - values[i - 1] > tol_group:
            spans.append((start, i))
            start = i
    spans.append((start, len(values)))
    groups = []
    for start, stop in spans:
        norm = float(np.linalg.norm(vectors[:, columns[start] : columns[stop]].T @ weights))
        value = float(np.mean(values[start:stop]))
        groups.append(SpectrumGroup(value, stop - start, norm > tol_main, norm))
    groups.reverse()
    return groups


def assert_bit_identical(matrix: np.ndarray, weights: np.ndarray, label: str) -> None:
    """jacobi_eigh and _grouped on matrix, with weights as the all-ones
    vector, equal their references exactly."""
    want = reference_jacobi_eigh(matrix)
    got = jacobi_eigh(matrix)
    assert np.array_equal(got.values, want.values) and np.array_equal(got.vectors, want.vectors), label
    tols = (default_tol_group(matrix), default_tol_main(matrix.shape[0]))
    groups = _grouped(want.values, want.vectors, weights, range(len(weights) + 1), *tols)
    assert list(groups) == reference_grouped(want.values, want.vectors, weights, *tols), label


class TestBitIdentity:
    def test_q_l_and_condensed_of_every_cograph_up_to_8(self):
        count = 0
        for n in range(1, 9):
            for s in enumerate_cographs(n).strings:
                t = parse(s)
                g = to_graph(t)
                assert_bit_identical(signless_laplacian(g), np.ones(n), f"Q {s}")
                assert_bit_identical(laplacian(g), np.ones(n), f"L {s}")
                c = condensed(bags(t))
                assert_bit_identical(c.entries, c.weights, f"C {s}")
                count += 1
        assert count == 809

    @pytest.mark.parametrize("label", sorted(GRAPH_Q_CASES))
    def test_graph_q_with_large_eigenspaces(self, label):
        # groups of 8 or more values, which np.mean sums pairwise
        g = GRAPH_Q_CASES[label]()
        assert_bit_identical(signless_laplacian(g), np.ones(g.n), label)

    def test_seeded_random_symmetric(self):
        rng = np.random.default_rng(2024)
        for n in range(1, 41):
            m = rng.normal(size=(n, n))
            m = m + m.T
            assert_bit_identical(m, rng.normal(size=n), f"random {n}")

    def test_seeded_random_symmetric_wider(self):
        rng = np.random.default_rng(2026)
        for n in range(41, 65):
            m = rng.normal(size=(n, n))
            m = m + m.T
            assert_bit_identical(m, rng.normal(size=n), f"random {n}")

    def test_condensed_of_the_64_deep_alternating_chain(self):
        c = condensed(bags(parse(alternating(64))))
        assert c.r == 64
        assert_bit_identical(c.entries, c.weights, "alternating 64")

    @pytest.mark.parametrize(
        "matrix", [np.zeros((4, 4)), np.array([[2.5]]), np.zeros((1, 1))], ids=["zero", "1x1", "zero-1x1"]
    )
    def test_zero_and_1x1(self, matrix):
        assert_bit_identical(matrix, np.ones(matrix.shape[0]), "small")


class TestQSpectrum:
    def test_bipartite_join_2_3(self):
        rep = q_spectrum(graph_of("J(U(2),U(3))"))
        got = [(round(g.value, 8), g.multiplicity, g.main) for g in rep.groups]
        assert got == [(5.0, 1, True), (3.0, 1, False), (2.0, 2, False), (0.0, 1, True)]
        assert rep.main_count == 2

    def test_bipartite_join_regular(self):
        rep = q_spectrum(graph_of("J(U(2),U(2))"))
        got = [(round(g.value, 8), g.multiplicity, g.main) for g in rep.groups]
        assert got == [(4.0, 1, True), (2.0, 2, False), (0.0, 1, False)]
        assert rep.main_count == 1

    def test_paw(self):
        rep = q_spectrum(graph_of("J(1, U(J(1), J(2)))"))
        mains = rep.main_values()
        assert mains == pytest.approx([(5 + math.sqrt(17)) / 2, (5 - math.sqrt(17)) / 2])
        non_mains = sorted(g.value for g in rep.groups if not g.main)
        assert non_mains == pytest.approx([1.0, 2.0])

    def test_k1(self):
        rep = q_spectrum(Graph.complete(1))
        assert rep.main_count == 1 and rep.groups[0].value == 0.0

    def test_multiplicities_sum_to_n(self):
        for expr in ("J(5)", "U(2, J(3))", "J(2, U(J(2), J(3)))"):
            rep = q_spectrum(graph_of(expr))
            assert sum(g.multiplicity for g in rep.groups) == rep.n

    def test_parseval(self):
        for expr in ("J(4)", "U(J(2), J(3), 1)", "J(U(3), U(2), 2)"):
            rep = q_spectrum(graph_of(expr))
            total = sum(g.projection_norm**2 for g in rep.groups)
            assert abs(total - rep.n) <= 1e-8 * rep.n

    def test_positive_semidefinite(self):
        for n in range(1, 8):
            for s in enumerate_cographs(n).strings:
                rep = q_spectrum(graph_of(s))
                assert rep.groups[-1].value >= -rep.tol_group

    def test_largest_main_when_connected(self):
        for s in enumerate_cographs(6).strings:
            g = graph_of(s)
            if len(components(g)) != 1:
                continue
            rep = q_spectrum(g)
            assert rep.groups[0].main
            assert rep.groups[0].multiplicity == 1

    def test_zero_multiplicity_counts_bipartite_components(self):
        for n in range(1, 8):
            for s in enumerate_cographs(n).strings:
                g = graph_of(s)
                rep = q_spectrum(g)
                zero_mult = sum(
                    grp.multiplicity for grp in rep.groups if abs(grp.value) <= rep.tol_group
                )
                expected = sum(
                    1
                    for block in components(g)
                    if bipartition(induced_subgraph(g, block)) is not None
                )
                assert zero_mult == expected, s

    def test_json_serialization(self):
        rep = q_spectrum(graph_of("J(U(2),U(3))"))
        text = report_to_json(rep)
        import json

        data = json.loads(text)
        assert data["n"] == 5 and data["main_count"] == 2
        assert len(data["groups"]) == 4
        assert set(data["tolerances"]) == {"tol_group", "tol_main"}

    def test_17_digit_floats(self):
        assert dumps_17g({"x": 1 / 3}) == '{"x":0.33333333333333331}'


class TestCondensed:
    def test_bipartite_join_matrix(self):
        c = condensed(bags(parse("J(U(2),U(3))")))
        assert np.allclose(c.entries, [[3, SQRT6], [SQRT6, 2]])

    def test_complete_split_matrix(self):
        c = condensed(bags(parse("J(2, U(3))")))
        assert np.allclose(c.entries, [[5, SQRT6], [SQRT6, 2]])

    def test_complete_graph(self):
        c = condensed(bags(parse("J(7)")))
        assert np.allclose(c.entries, [[12.0]])
        assert main_eigs_condensed(c) == [(12.0, True)]

    def test_bipartite_join_mains(self):
        mains = main_eigs_condensed(condensed(bags(parse("J(U(2),U(3))"))))
        assert [(round(v, 9), f) for v, f in mains] == [(5.0, True), (0.0, True)]

    def test_core_union_middle_not_main(self):
        # three bags; the eigenvalue a+b+c-2 = 2 is not main
        mains = main_eigs_condensed(condensed(bags(parse("J(1, U(J(1), J(2)))"))))
        flags = {round(v, 6): f for v, f in mains}
        assert flags[2.0] is False
        assert sum(flags.values()) == 2

    def test_single_vertex_degenerates_to_zero(self):
        from qcograph.cotree import Leaf

        c = condensed(bags(Leaf()))
        assert np.allclose(c.entries, [[0.0]])
        assert main_eigs_condensed(c) == [(0.0, True)]

    def test_matches_full_route_small(self):
        for n in range(1, 8):
            for s in enumerate_cographs(n).strings:
                g = graph_of(s)
                full = q_spectrum(g).main_values()
                cond = [v for v, f in main_eigs_condensed(condensed(bags(from_graph(g)))) if f]
                assert len(full) == len(cond), s
                assert full == pytest.approx(cond, abs=1e-8), s


def assert_same_report(got, want, label):
    """Grouping, flags and tolerances exactly; values to 1e-9."""
    assert (got.n, got.main_count, len(got.groups)) == (want.n, want.main_count, len(want.groups)), label
    assert (got.tol_group, got.tol_main) == (want.tol_group, want.tol_main), label
    for a, b in zip(got.groups, want.groups):
        assert (a.multiplicity, a.main) == (b.multiplicity, b.main), label
        assert abs(a.value - b.value) <= 1e-9, label


class TestCotreeRoute:
    def test_matches_dense_on_enumeration(self, spectral_table):
        table, _ = spectral_table
        for s, entry in table.items():
            rep = q_spectrum_cotree(parse(s))
            assert rep.route == "cotree" and entry.report.route == "dense"
            assert_same_report(rep, entry.report, s)

    def test_matches_dense_on_default_grids_and_k1_joins(self):
        for specs in default_grids().values():
            for spec in specs:
                t, g = build(spec)
                label = str(spec.to_json_dict())
                assert_same_report(q_spectrum_cotree(t), q_spectrum(g), label)
                joined = normalize(Internal(JOIN, (Leaf(), t)))
                assert_same_report(q_spectrum_cotree(joined), q_spectrum(join(Graph.complete(1), g)), label)

    def test_twin_values_carry_no_projection(self):
        # K_2 joined onto E_3: J-bag (t=2, p=4) gives 3 once, U-bag (t=3, p=2) gives 2 twice
        rep = q_spectrum_cotree(parse("J(2,U(3))"))
        twins = {(grp.value, grp.multiplicity, grp.projection_norm) for grp in rep.groups if not grp.main}
        assert twins == {(3.0, 1, 0.0), (2.0, 2, 0.0)}

    def test_twin_heavy_report(self):
        # r = 2,000 bags of 500 twins: the 998,000 twin values are carried as
        # values, with no eigenvector column built for them
        start = time.perf_counter()
        rep = q_spectrum_cotree(parse("U(2000*K(500))"))
        elapsed = time.perf_counter() - start
        got = [(grp.value, grp.multiplicity, grp.main) for grp in rep.groups]
        assert got == [(998.0, 2000, True), (498.0, 998000, False)]
        assert rep.groups[1].projection_norm == 0.0 and rep.main_count == 1
        assert elapsed < 5.0, f"{elapsed:.2f} s"

    @pytest.mark.parametrize("expr", ["U(J(2),J(2,U(1,J(2))))", "U(2,J(1,U(2,J(1,U(2)))))", "U(2,J(3,U(1,J(2))))"])
    def test_mixed_groups_match_dense(self, expr):
        # groups that hold condensed and twin values take their projection
        # from the condensed columns alone; groups of twin values alone read 0
        t = parse(expr)
        rep, dense = q_spectrum_cotree(t), q_spectrum(to_graph(t))
        condensed_values = jacobi_eigh(condensed(bags(t)).entries).values
        kinds = set()
        for grp, want in zip(rep.groups, dense.groups, strict=True):
            inside = int(np.sum(np.abs(condensed_values - grp.value) <= rep.tol_group))
            assert abs(grp.projection_norm - want.projection_norm) <= 1e-12, (grp, want)
            if inside == 0:
                assert grp.projection_norm == 0.0 and not grp.main, grp
            kinds.add("twin" if inside == 0 else "condensed" if inside == grp.multiplicity else f"mixed {grp.main}")
        assert kinds == {"twin", "condensed", "mixed True", "mixed False"}, kinds


def reference_q_spectrum_cotree(t, tol_group=None, tol_main=None) -> QSpectrumReport:
    """q_spectrum_cotree with every bag expanded to one value per vertex: the
    t - 1 twin values of each bag listed after C's values, sorted stably,
    with the prefix count of C's values, grouped by reference_grouped."""
    b = t if isinstance(t, BagRepresentation) else bags(t)
    c = condensed(b)
    n = b.n
    if tol_group is None:
        tol_group = 1e-7 * max(1.0, float(2 * max(bag.p for bag in b.bags)))
    if tol_main is None:
        tol_main = default_tol_main(n)
    dec = jacobi_eigh(c.entries)
    twins = [bag.p - 1 if bag.kind == JOIN else bag.p for bag in b.bags for _ in range(bag.t - 1)]
    values = np.concatenate([dec.values, np.array(twins, dtype=float)])
    order = np.argsort(values, kind="stable")
    before = list(accumulate(map(b.r.__gt__, order.tolist()), initial=0))
    groups = reference_grouped(values[order], dec.vectors, c.weights, tol_group, tol_main, before)
    return QSpectrumReport(n, tuple(groups), sum(grp.main for grp in groups), tol_group, tol_main, "cotree")


TWIN_HEAVY = ["U(200*K(50))", "J(1,U(E(2),K(500)))", "U(40*K(25),3*J(2,U(7)),E(9))"]


class TestCotreeReportReference:
    """q_spectrum_cotree, which sorts one item per twin run, equals the
    per-vertex reference bit for bit: dataclass equality compares every float."""

    def test_per_vertex_reference_every_cograph_up_to_8(self):
        count = 0
        for n in range(1, 9):
            for s in enumerate_cographs(n).strings:
                b = bags(parse(s))
                assert q_spectrum_cotree(b) == reference_q_spectrum_cotree(b), s
                count += 1
        assert count == 809

    def test_per_vertex_reference_default_grids(self):
        for specs in default_grids().values():
            for spec in specs:
                t = build_cotree(spec)
                assert q_spectrum_cotree(t) == reference_q_spectrum_cotree(t), spec.to_json_dict()

    @pytest.mark.parametrize("expr", TWIN_HEAVY)
    def test_per_vertex_reference_twin_heavy(self, expr):
        t = parse(expr)
        assert q_spectrum_cotree(t) == reference_q_spectrum_cotree(t)

    @pytest.mark.parametrize("tol_group", [0.0, 0.5, 1.5, 4.0])
    def test_per_vertex_reference_coarse_groups(self, tol_group):
        # wide groups hold runs of several twin values beside condensed ones
        trees = [parse(s) for n in range(1, 8) for s in enumerate_cographs(n).strings]
        trees += [parse(expr) for expr in TWIN_HEAVY]
        for t in trees:
            got = q_spectrum_cotree(t, tol_group=tol_group, tol_main=1e-6)
            assert got == reference_q_spectrum_cotree(t, tol_group, 1e-6), repr(t)


class TestReportFromRecords:
    """q_spectrum_cotree reads a cotree's bags as records off its walk and
    builds no Bag; its report equals the one read off ``bags(t)``."""

    def test_records_equal_bags_every_cograph_up_to_9(self):
        count = 0
        for n in range(1, 10):
            for t in enumerate_cotrees(n):
                assert q_spectrum_cotree(t) == q_spectrum_cotree(bags(t)), repr(t)
                count += 1
        assert count == 2341

    def test_records_equal_bags_on_random_unnormalized_trees(self):
        rng = random.Random(11)  # the trees of TestWalksPinned
        apart = 0
        for _ in range(3000):
            t = random_cotree(rng, rng.randint(1, 12), {})
            b = bags(t)
            assert q_spectrum_cotree(t) == q_spectrum_cotree(b), repr(t)
            apart += any(bag.members[-1] - bag.members[0] >= bag.t for bag in b.bags)
        assert apart > 100  # bags whose leaves another child's leaves split

    @pytest.mark.parametrize("expr", ["U(1,J(2),1)", "J(U(J(2),1),3,U(2,J(3)),1)", "U(J(2),1,J(1,U(2)),2)"])
    def test_records_equal_bags_on_split_bags(self, expr):
        t = parse(expr)
        b = bags(t)
        assert any(bag.members[-1] - bag.members[0] >= bag.t for bag in b.bags)
        assert q_spectrum_cotree(t) == q_spectrum_cotree(b)

    def test_builds_no_bag(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("Bag built")

        monkeypatch.setattr("qcograph.cotree.Bag", refuse)
        rep = q_spectrum_cotree(parse("U(2000*K(500))"))
        assert (rep.n, [(grp.value, grp.multiplicity) for grp in rep.groups]) == (10**6, [(998.0, 2000), (498.0, 998000)])


def reference_main_count(t) -> int:
    """The main count as the Krylov rank of the r x r integer bag quotient B
    (diagonal p + t - 1 on a J-bag and p on a U-bag, entry (i, j) t_j when
    bags i and j are adjacent), with B read off ``bags(t)``."""
    b = bags(t)
    sizes = [bag.t for bag in b.bags]
    diag = [bag.p + bag.t - 1 if bag.kind == JOIN else bag.p for bag in b.bags]
    adjacency = b.z.tolist()
    basis: list[tuple[int, list[int]]] = []
    v = [1] * b.r
    while True:
        for pivot, row in basis:
            if v[pivot]:
                g = math.gcd(row[pivot], v[pivot])
                a, c = row[pivot] // g, v[pivot] // g
                v = [a * x - c * y for x, y in zip(v, row)]
        g = math.gcd(*v)
        if g == 0:
            return len(basis)
        v = [x // g for x in v]
        basis.append((next(i for i, x in enumerate(v) if x), v))
        weighted = [size * x for size, x in zip(sizes, v)]
        v = [d * x + sum(compress(weighted, adjacent)) for d, x, adjacent in zip(diag, v, adjacency)]


def found_tree() -> Internal:
    """J over 1,000 nodes U(i % 7 + 1, J(i % 5 + 2)): 2,000 bags, 70 positions of its class tree."""
    return Internal(JOIN, tuple(parse(f"U({i % 7 + 1},J({i % 5 + 2}))") for i in range(1000)))


class TestMainCountExact:
    """The Krylov rank on the symmetry-class tree counts the mains that the
    float routes flag, and keeps counting where their tolerance drops one."""

    def test_matches_cotree_route_up_to_10(self):
        count = 0
        for n in range(1, 11):
            for s in enumerate_cographs(n).strings:
                t = parse(s)
                assert main_count_exact(t) == q_spectrum_cotree(t).main_count, s
                count += 1
        assert count == 6965

    def test_matches_dense_route(self, spectral_table):
        table, _ = spectral_table
        for s, entry in table.items():
            assert main_count_exact(parse(s)) == entry.report.main_count, s

    def test_matches_cotree_route_on_default_grids_and_kc_joins(self):
        for specs in default_grids().values():
            for spec in specs:
                t, _ = build(spec)
                label = str(spec.to_json_dict())
                assert main_count_exact(t) == q_spectrum_cotree(t).main_count, label
                for c in (1, 2, 3):
                    joined = Internal(JOIN, (Leaf(),) * c + (t,))
                    assert main_count_exact(joined) == q_spectrum_cotree(joined).main_count, (c, label)

    @pytest.mark.parametrize("b", [500, 4095])
    def test_counts_a_main_below_the_float_tolerance(self, b):
        # K_1 joined to E_2 and K_b: the main value near b + 1 projects below tol_main
        t = parse(f"J(1,U(E(2),K({b})))")
        assert main_count_exact(t) == 3

    @pytest.mark.xfail(
        strict=True,
        reason="the group at 500.99998 projects 1.6016e-5, below tol_main 2.2428e-5, so the float "
        "flag drops a main; exact main flags (ROADMAP direction 1) mend it",
    )
    def test_cotree_route_counts_the_main_below_the_float_tolerance(self):
        t = parse("J(1,U(E(2),K(500)))")
        assert q_spectrum_cotree(t).main_count == main_count_exact(t)

    def test_bags_input_and_leaf(self):
        # main_count_exact takes a cotree only; the one-leaf tree has one main
        assert main_count_exact(Leaf()) == 1


class TestMainCountOnClassTree:
    """The class-tree count equals the bag-quotient count of ``reference_main_count``."""

    def test_matches_bag_quotient_up_to_10(self):
        count = 0
        for n in range(1, 11):
            for s in enumerate_cographs(n).strings:
                t = parse(s)
                assert main_count_exact(t) == reference_main_count(t), s
                count += 1
        assert count == 6965

    def test_matches_bag_quotient_on_random_unnormalized_trees(self):
        rng = random.Random(11)  # the trees of TestWalksPinned
        for _ in range(3000):
            t = random_cotree(rng, rng.randint(1, 12), {})
            assert main_count_exact(t) == reference_main_count(t), repr(t)

    def test_matches_bag_quotient_on_default_grids_and_kc_joins(self):
        for specs in default_grids().values():
            for spec in specs:
                t = build_cotree(spec)
                label = str(spec.to_json_dict())
                assert main_count_exact(t) == reference_main_count(t), label
                for c in (1, 2, 3):
                    joined = Internal(JOIN, (Leaf(),) * c + (t,))
                    assert main_count_exact(joined) == reference_main_count(joined), (c, label)

    def test_found_tree_pinned(self):
        # k = 63 from the bag quotient (r = 2,000); the class tree has 70 positions
        t = found_tree()
        start = time.perf_counter()
        assert main_count_exact(t) == 63
        assert time.perf_counter() - start < 2.0

    def test_builds_no_bags(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("bags called")

        for target in ("qcograph.spectra._bag_records", "qcograph.cotree.bags", "qcograph.cotree._walk"):
            monkeypatch.setattr(target, refuse)
        assert main_count_exact(parse("J(1,U(E(2),K(500)))")) == 3
        assert main_count_exact(found_tree()) == 63

    def test_more_bag_classes_than_the_limit_are_refused(self):
        # J(a leaves, E(b)) for 64 x 64 pairs (a, b): 8,192 bags, each its own class
        pairs = [(a, b) for a in range(1, 65) for b in range(2, 66)]
        parts = [Internal(JOIN, (Leaf(),) * a + (Internal(UNION, (Leaf(),) * b),)) for a, b in pairs]
        with pytest.raises(ValueError, match=f"r = 8192 bag classes exceeds the limit of {MAX_EDGE_LIST_N}"):
            main_count_exact(Internal(UNION, tuple(parts)))


class TestToleranceValidation:
    @pytest.mark.parametrize("route", ["dense", "cotree"])
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol_group": -1.0},
            {"tol_group": math.nan},
            {"tol_group": math.inf},
            {"tol_main": -1e-6},
            {"tol_main": math.nan},
            {"tol_main": math.inf},
        ],
    )
    def test_rejects_negative_or_non_finite(self, route, kwargs):
        t = parse("J(2,U(3))")
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            if route == "dense":
                q_spectrum(to_graph(t), **kwargs)
            else:
                q_spectrum_cotree(t, **kwargs)

    def test_zero_is_accepted(self):
        assert q_spectrum(graph_of("J(3)"), tol_group=0.0, tol_main=0.0).main_count >= 1


class TestAlgebraicConnectivity:
    def test_complete(self):
        for n in range(2, 7):
            assert algebraic_connectivity(Graph.complete(n)) == pytest.approx(n)

    def test_disconnected_is_zero(self):
        assert algebraic_connectivity(graph_of("U(J(3),J(3))")) == pytest.approx(0.0)

    def test_paw_equals_one(self):
        assert algebraic_connectivity(graph_of("J(1, U(J(1), J(2)))")) == pytest.approx(1.0)

    def test_needs_two_vertices(self):
        with pytest.raises(ValueError):
            algebraic_connectivity(Graph.complete(1))
