"""Signless Laplacian spectra, main-eigenvalue detection, and the condensed matrix.

An eigenvalue is *main* when its eigenspace is non-orthogonal to the all-ones
vector. Main flags are decided per eigenvalue group (not per solver vector):
a group is main iff the projection of the all-ones vector onto its eigenspace
has norm above tolerance, which is independent of the basis the solver picks.
``main_count_exact`` counts the main eigenvalues of a cotree with no
eigensolve and no tolerance, on its symmetry-class tree.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .cotree import BagRepresentation, Cotree, JOIN, _bag_records, _class_tree
from .graph import Graph

__all__ = [
    "SolverError",
    "EigenDecomposition",
    "jacobi_eigh",
    "signless_laplacian",
    "laplacian",
    "SpectrumGroup",
    "QSpectrumReport",
    "default_tol_group",
    "default_tol_main",
    "q_spectrum",
    "q_spectrum_cotree",
    "main_count_exact",
    "CondensedMatrix",
    "condensed",
    "main_eigs_condensed",
    "algebraic_connectivity",
    "report_to_json",
    "dumps_17g",
]

_MAX_SWEEPS = 100
_CONVERGENCE = 1e-12  # of the Frobenius norm
_KEPT_ORDER = 32  # each thread keeps its Jacobi workspaces of orders up to this


class SolverError(RuntimeError):
    """Eigensolver failed to converge within the sweep cap (indicates a bug)."""


@dataclass(frozen=True)
class EigenDecomposition:
    values: np.ndarray  # ascending
    vectors: np.ndarray  # orthonormal columns aligned with values


def jacobi_eigh(matrix: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a dense symmetric matrix by cyclic Jacobi rotations.

    Sweeps the strict upper triangle in row order until the off-diagonal
    Frobenius norm drops below 1e-12 of the matrix norm. Deterministic:
    fixed sweep order, no pivot search. The input must be finite, with a
    finite Frobenius norm, and exactly symmetric (ValueError otherwise, in
    that order of precedence; a finite norm already shows every entry
    finite, so the entries are scanned only when it is not): each rotation
    writes rows p and q as the transpose of the rotated columns p and q, so
    A stays exactly symmetric. An input with no nonzero off-diagonal entry
    turns no rotation and is answered without a copy of it.

    A and the accumulated rotations V are kept transposed, as one n x 2n
    C-contiguous work array W whose row j is column j of A followed by column
    j of V. A rotation turns rows p and q of W with one np.dot(rot.T, W[pq])
    and copies the first n columns back as rows p and q of A; scalars go
    through a flat memoryview of W. The diagonal is kept as Python floats
    beside W and never read from it: the rotated entries at (p, p) and
    (q, q) are left in W unused. Each element is c*x - s*y or s*x + c*y
    of the same two entries as in the column form (A over V) @ rot, and
    OpenBLAS rounds the transposed 2 x 2n product element for element as it
    rounds the 2n x 2 one, so the output is the column form's, bit for bit.
    The tests pin that against a reference that does the matmul; CI runs
    them with one BLAS thread too, as the benchmark runs.

    W and its buffers and views depend on n alone, so each thread keeps them
    per order (``_workspace``), up to order ``_KEPT_ORDER``; a larger order
    builds them for its one solve. A solve overwrites all of W before it
    reads it, and the values and vectors it returns are fresh arrays.
    """
    a = np.asarray(matrix, dtype=float)  # read only: W gets the copy
    n = a.shape[0]
    if n == 0 or a.shape != (n, n):
        raise ValueError(f"need a non-empty square matrix, got shape {a.shape}")
    norm = _norm(a)  # NaN or infinite with any such entry
    symmetric = (a == a.T).all()
    if not math.isfinite(norm):  # an infinite tol would pass the first convergence check
        if not np.isfinite(a).all():
            raise ValueError("need a finite matrix, got a NaN or infinite entry")
        if symmetric:
            raise ValueError("need a matrix whose Frobenius norm is finite, got one that overflows")
    if not symmetric:
        raise ValueError("need an exactly symmetric matrix")
    # the diagonal as Python floats: a rotation changes only a[p, p] and a[q, q]
    diag = a.diagonal().tolist()
    if np.count_nonzero(a) == n - diag.count(0.0):  # no nonzero off the diagonal, so no copy of A: V = I
        return _sorted_decomposition(diag)
    tol = _CONVERGENCE * norm
    w, w_a, v, v_diagonal, flat, r, rot_t, turned, turned_a, views, off, off_diagonal = _workspace(n)
    if _off_diagonal_norm(a, off, off_diagonal) <= tol:  # no rotation to run: V = I
        return _sorted_decomposition(diag)
    w_a[...] = a  # W = [A^T | V^T], with V = I to start
    v.fill(0.0)
    v_diagonal.fill(1.0)
    width = 2 * n
    sqrt, copysign, dot = math.sqrt, math.copysign, np.dot
    # if every rotation in a sweep falls below this, the off-diagonal norm
    # is already below tol, so skipping them cannot stall convergence
    skip = tol / (2.0 * n)
    for _ in range(_MAX_SWEEPS):
        for p, pairs in enumerate(views):
            app = diag[p]
            row_p = p * width
            for q in range(p + 1, n):
                apq = flat[row_p + q]
                if abs(apq) <= skip:
                    continue
                aqq = diag[q]
                tau = (aqq - app) / (2.0 * apq)
                t = copysign(1.0, tau) / (abs(tau) + sqrt(1.0 + tau * tau))
                c = 1.0 / sqrt(1.0 + t * t)
                s = t * c
                r[0] = r[3] = c
                r[1] = s
                r[2] = -s
                pair = pairs[q]
                if pair is None:
                    pq = slice(p, q + 1, q - p)
                    pair = pairs[q] = (w[pq], w[:, pq])
                rows, cols = pair
                dot(rot_t, rows, turned)  # out=turned: rot.T @ rows, written in place
                rows[...] = turned
                cols[...] = turned_a
                app -= t * apq
                diag[q] = aqq + t * apq
                flat[row_p + q] = flat[q * width + p] = 0.0
            diag[p] = app
        if _off_diagonal_norm(w_a, off, off_diagonal) <= tol:
            return _sorted_decomposition(diag, v)
    raise SolverError(f"Jacobi sweep cap ({_MAX_SWEEPS}) exceeded for order {n}")


class _Workspaces(threading.local):
    def __init__(self) -> None:
        self.by_order: dict[int, tuple] = {}  # this thread's workspaces, by matrix order


_workspaces = _Workspaces()


def _workspace(n: int) -> tuple:
    """This thread's work arrays and views for a Jacobi solve of order n.

    W (n x 2n), its A half, its V half and the V half's diagonal, a flat
    memoryview of W; the rotation rot = [[c, s], [-s, c]] as a flat memoryview
    and transposed; the 2 x 2n buffer of rotated rows and its A half as
    columns; per row p, by q, the views (rows p and q of W, columns p and q
    of A), each made at the first rotation of its pair; and an n x n buffer
    for the off-diagonal norm with its diagonal. Kept for n <= _KEPT_ORDER.
    """
    workspace = _workspaces.by_order.get(n)
    if workspace is None:
        width = 2 * n
        w = np.empty((n, width))
        w_flat = w.reshape(-1)  # w[i, j] is w_flat[i * width + j]
        rot = np.empty((2, 2))
        turned = np.empty((2, width))
        off = np.empty((n, n))
        workspace = (
            w,
            w[:, :n],
            w[:, n:],
            w_flat[n :: width + 1],
            memoryview(w_flat),
            memoryview(rot.reshape(-1)),
            rot.T,
            turned,
            turned[:, :n].T,
            [[None] * n for _ in range(n - 1)],
            off,
            off.reshape(-1)[:: n + 1],
        )
        if n <= _KEPT_ORDER:
            _workspaces.by_order[n] = workspace
    return workspace


def _norm(x: np.ndarray) -> float:
    """The 2-norm of x raveled, as np.linalg.norm computes it, without its dispatch."""
    x = x.ravel()
    return math.sqrt(x.dot(x))


def _off_diagonal_norm(a: np.ndarray, off: np.ndarray, off_diagonal: np.ndarray) -> float:
    """The 2-norm of a raveled with its diagonal zeroed, computed in off
    (C-contiguous, of a's shape), whose diagonal off_diagonal views."""
    off[...] = a
    off_diagonal.fill(0.0)
    return _norm(off)


def _sorted_decomposition(values: list[float], vectors_t: np.ndarray | None = None) -> EigenDecomposition:
    """Values ascending (stable), with the eigenvectors given as the rows of
    vectors_t (the identity if None) returned as columns: the F-contiguous
    transpose of a fresh array."""
    n = len(values)
    order = sorted(range(n), key=values.__getitem__)
    if vectors_t is None:  # the identity's rows in that order, with no identity built
        rows = np.zeros((n, n))
        rows[range(n), order] = 1.0
    else:
        rows = vectors_t[order]
    return EigenDecomposition(values=np.array([values[i] for i in order]), vectors=rows.T)


def signless_laplacian(g: Graph) -> np.ndarray:
    """Q = D + A as a dense float matrix."""
    return _degrees_with(np.add, g)


def laplacian(g: Graph) -> np.ndarray:
    """L = D - A as a dense float matrix."""
    return _degrees_with(np.subtract, g)


def _degrees_with(op: np.ufunc, g: Graph) -> np.ndarray:
    """op(D, A) as a dense float matrix, for the degree matrix D and adjacency A of g."""
    if g.n < 1:
        raise ValueError("spectral operations require at least one vertex")
    return op(np.diag(g.degrees().astype(float)), g.adj.astype(float))


def default_tol_group(matrix: np.ndarray) -> float:
    """Grouping tolerance, scaled by the matrix's infinity norm for large inputs."""
    scale = float(np.abs(matrix).sum(axis=1).max()) if matrix.size else 0.0
    return 1e-7 * max(1.0, scale)


def default_tol_main(n: int) -> float:
    """Projection-norm threshold; the sqrt(n) factor tracks the all-ones norm."""
    return 1e-6 * math.sqrt(n)


@dataclass(frozen=True)
class SpectrumGroup:
    value: float
    multiplicity: int
    main: bool
    projection_norm: float  # norm of the all-ones vector's projection


@dataclass(frozen=True)
class QSpectrumReport:
    n: int
    groups: tuple[SpectrumGroup, ...]
    main_count: int
    tol_group: float
    tol_main: float
    route: str  # "dense" (eigensolve of Q) or "cotree" (condensed matrix plus twin values)

    def main_values(self) -> list[float]:
        return [grp.value for grp in self.groups if grp.main]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "groups": [
                {
                    "value": grp.value,
                    "multiplicity": grp.multiplicity,
                    "main": grp.main,
                    "projection_norm": grp.projection_norm,
                }
                for grp in self.groups
            ],
            "main_count": self.main_count,
            "tolerances": {"tol_group": self.tol_group, "tol_main": self.tol_main},
            "route": self.route,
        }


def _grouped(
    values: np.ndarray,
    vectors: np.ndarray,
    weights: np.ndarray,
    columns: range | list[int],
    tol_group: float,
    tol_main: float,
    counts: list[int] | None = None,
) -> tuple[SpectrumGroup, ...]:
    """Group ascending eigenvalues at gaps above tol_group, largest group first.

    Item i of values stands for counts[i] equal eigenvalues (1 without
    counts), and one counted more than once must be an integer. The
    eigenvectors of items start:stop that can carry projection are columns
    columns[start]:columns[stop] of vectors, in coordinates where the
    all-ones vector is weights; a group is main iff the projection of weights
    onto them has norm above tol_main. A group's multiplicity is its count
    sum, and its value the mean of its items repeated, summed as np.mean sums.
    """
    for name, tol in (("tol_group", tol_group), ("tol_main", tol_main)):
        if not (math.isfinite(tol) and tol >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {tol!r}")
    spans, start, listed = [], 0, values.tolist()
    for i in range(1, len(listed)):
        if listed[i] - listed[i - 1] > tol_group:
            spans.append((start, i))
            start = i
    spans.append((start, len(listed)))
    ends = range(len(listed) + 1) if counts is None else list(accumulate(counts, initial=0))
    groups = []
    for start, stop in reversed(spans):  # descending by value, largest (Perron) first
        left, right = columns[start], columns[stop]
        norm = _norm(vectors[:, left:right].T @ weights) if left < right else 0.0
        size = ends[stop] - ends[start]
        if stop - start == 1:  # np.sum adds one value to 0.0; an integer's copies sum exactly
            value = listed[start] + 0.0
        else:
            part = values[start:stop] if size == stop - start else np.repeat(values[start:stop], counts[start:stop])
            value = float(part.sum() / size)
        groups.append(SpectrumGroup(value=value, multiplicity=size, main=norm > tol_main, projection_norm=norm))
    return tuple(groups)


def _report(route, n, max_degree, values, vectors, weights, columns, tol_group, tol_main, counts=None):
    """The QSpectrumReport of a Q of order n and largest degree max_degree,
    grouped by _grouped. The default tol_group is default_tol_group of Q:
    each row of Q is non-negative and sums to twice its vertex's degree."""
    if tol_group is None:
        tol_group = 1e-7 * max(1.0, float(2 * max_degree))
    if tol_main is None:
        tol_main = default_tol_main(n)
    groups = _grouped(values, vectors, weights, columns, tol_group, tol_main, counts)
    return QSpectrumReport(n, groups, sum(grp.main for grp in groups), tol_group, tol_main, route)


def q_spectrum(g: Graph, tol_group: float | None = None, tol_main: float | None = None) -> QSpectrumReport:
    """Grouped signless Laplacian spectrum with per-group main flags.

    Eigenvalues within tol_group of their neighbor are one group; per the
    pairwise-distinct convention each group gets one main flag, set iff the
    all-ones projection onto the grouped eigenspace exceeds tol_main. This is
    the dense route: it eigensolves the n x n matrix Q and serves as the
    independent check of q_spectrum_cotree.
    """
    q = signless_laplacian(g)
    dec = jacobi_eigh(q)
    degree = q.diagonal().max()
    return _report("dense", g.n, degree, dec.values, dec.vectors, np.ones(g.n), range(g.n + 1), tol_group, tol_main)


def q_spectrum_cotree(
    t: Cotree | BagRepresentation, tol_group: float | None = None, tol_main: float | None = None
) -> QSpectrumReport:
    """The report of q_spectrum for the graph of t, computed from its bags
    (or from ``bags(t)`` itself, for a caller that already holds it).

    Inside a bag of t leaves, the t - 1 twin differences e_u - e_v are
    Q-eigenvectors with eigenvalue p - 1 (J-bag) or p (U-bag), all orthogonal
    to the all-ones vector. On the bag-constant complement Q acts as the
    condensed matrix C, with the weight vector s in place of the all-ones
    vector. So spec(Q) = spec(C) plus each bag's twin value t - 1 times, and
    only C's eigenvectors carry projection norm. The report sorts at most 2r
    items: C's r values, and for each bag of two or more leaves its twin
    value (an integer) with count t - 1 and no eigenvector. A group's
    projection is that of s onto C's eigenvectors in the group alone.
    A cotree's bags are read as records off its walk: no Bag is built.
    """
    records, blocks = _bag_view(t)
    c = _condensed(records, blocks)
    dec = jacobi_eigh(c.entries)
    r = len(records)
    values = dec.values.tolist()
    counts = [1] * r
    for _, kind, size, p in records:
        if size > 1:
            values.append(float(p - 1 if kind == JOIN else p))
            counts.append(size - 1)
    # stable, as np.argsort(kind="stable") is on finite values: dec's values
    # keep their order and come first at ties, so those in a span of the
    # sorted items are a span of dec's columns: before[i] precede item i
    order = sorted(range(len(values)), key=values.__getitem__)
    before = list(accumulate(map(r.__gt__, order), initial=0))
    values = np.array([values[i] for i in order])
    counts = [counts[i] for i in order]
    n = sum(size for _, _, size, _ in records)
    degree = max(p for _, _, _, p in records)
    return _report("cotree", n, degree, values, dec.vectors, c.weights, before, tol_group, tol_main, counts)


def main_count_exact(t: Cotree) -> int:
    """The number of main Q-eigenvalues of the graph of t, exactly, with no
    tolerance and no eigensolve.

    The leaves of each position of t's symmetry-class tree (``_class_tree``)
    are a class of an equitable partition, so Q^k 1 is constant on each,
    with class vector B^k 1 for the quotient B of Q. The main count is the
    rank of the walk vectors 1, Q1, Q^2 1, ..., hence of 1, B1, B^2 1, ....
    Each new vector is B times the last reduced one (which differs from the
    last walk vector by earlier ones), eliminated over Python ints against
    an echelon basis and divided by its gcd; the count is the basis size at
    the first zero. B is never built: B v is read off the tree, as the
    degree diagonal plus ``_neighbour_sums``.
    """
    tree = _class_tree(t)
    bearing = [i for i, (_, _, leaves, _) in enumerate(tree) if leaves]
    ones = [1] * len(bearing)
    degrees = _neighbour_sums(tree, bearing, ones)
    basis: list[tuple[int, list[int]]] = [(0, ones)]  # (pivot, row): zero at every earlier pivot
    v = [2 * d for d in degrees]  # B1 = D1 + A1, and both are the degrees
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
        v = [d * x + y for d, x, y in zip(degrees, v, _neighbour_sums(tree, bearing, v))]


def _neighbour_sums(tree: list[tuple[int, bool, int, int]], bearing: list[int], v: list[int]) -> list[int]:
    """A v, for the adjacency A of the graph and v the value of one leaf at
    each position with leaves of the class tree (``bearing``, in tree
    order). A leaf's neighbours are, for each J-node on its path, its own
    node included, the leaves of that node outside its child on the path:
    subtree sums are added up bottom-up and their differences under J-nodes
    handed down. With v = 1 these are the degrees."""
    subtree = [0] * len(tree)
    for i, x in zip(bearing, v):
        subtree[i] = tree[i][2] * x
    for i in range(len(tree) - 1, 0, -1):
        parent, _, _, copies = tree[i]
        subtree[parent] += copies * subtree[i]
    above = [0] * len(tree)  # from the J-nodes strictly above
    for i in range(1, len(tree)):
        parent = tree[i][0]
        above[i] = above[parent] + subtree[parent] - subtree[i] if tree[parent][1] else above[parent]
    return [above[i] + subtree[i] - x if tree[i][1] else above[i] for i, x in zip(bearing, v)]


@dataclass(frozen=True)
class CondensedMatrix:
    """The r x r matrix over bags whose spectrum contains all main Q-eigenvalues.

    Diagonal: p + (t - 1) for J-bags, p for U-bags. Off-diagonal:
    sqrt(t_i t_j) when the bags are adjacent, else 0. The weight vector s
    with s_i = sqrt(t_i) plays the role of the all-ones vector: lifting a
    condensed eigenvector w assigns w_i / sqrt(t_i) to every vertex of bag i,
    so the lifted entry sum equals w . s.
    """

    entries: np.ndarray
    weights: np.ndarray  # s_i = sqrt(t_i)

    @property
    def r(self) -> int:
        return self.entries.shape[0]


def condensed(b: BagRepresentation) -> CondensedMatrix:
    """C of the bags of b, built by ``_condensed`` as the cotree report builds it."""
    return _condensed(*_bag_view(b))


def _bag_view(t: Cotree | BagRepresentation) -> tuple[list[tuple[int, str, int, int]], list[tuple[int, int, str]]]:
    """The (first vertex, kind, t, p) record of each bag, in bag order, and
    each internal node's (lo, hi, kind) range of bag indices, parents first:
    read off the walk of a cotree, or off its bags."""
    if isinstance(t, BagRepresentation):
        return [(bag.members[0], bag.kind, bag.t, bag.p) for bag in t.bags], t.blocks
    _, records, blocks = _bag_records(t)
    return records, blocks


def _condensed(records: list[tuple[int, str, int, int]], blocks: list[tuple[int, int, str]]) -> CondensedMatrix:
    """C of the bags in records: each block filled with 1.0 under a J-node
    and 0.0 under a U-node, deeper blocks after their parents so that each
    pair is set by its LCA, as in z; then scaled in place by s_i and by s_j,
    which gives z * s s^T bit for bit (1.0 * x is x) with no r x r temporary;
    then the bag diagonal."""
    r = len(records)
    root = np.sqrt(np.array([size for _, _, size, _ in records], dtype=float))
    c = np.zeros((r, r))
    for lo, hi, kind in blocks:
        c[lo:hi, lo:hi] = 1.0 if kind == JOIN else 0.0
    c *= root[:, None]
    c *= root
    c.ravel()[:: r + 1] = [p + (size - 1) if kind == JOIN else p for _, kind, size, p in records]
    return CondensedMatrix(entries=c, weights=root)


def main_eigs_condensed(c: CondensedMatrix) -> list[tuple[float, bool]]:
    """Eigenvalues of the condensed matrix with main flags, descending.

    Eigenvalues are grouped at default_tol_group of the matrix, and a group
    is main iff the projection of the weight vector s onto its eigenspace
    has norm above default_tol_main of the graph's order n = s·s.
    """
    n = round(c.weights.dot(c.weights))
    dec = jacobi_eigh(c.entries)
    tols = default_tol_group(c.entries), default_tol_main(n)
    groups = _grouped(dec.values, dec.vectors, c.weights, range(c.r + 1), *tols)
    return [(grp.value, grp.main) for grp in groups]


def algebraic_connectivity(g: Graph) -> float:
    """Second-smallest Laplacian eigenvalue; positive iff connected."""
    if g.n < 2:
        raise ValueError("algebraic connectivity requires at least two vertices")
    dec = jacobi_eigh(laplacian(g))
    return float(dec.values[1])


def report_to_json(report: QSpectrumReport) -> str:
    """Serialize a spectrum report with floats at 17 significant digits."""
    return dumps_17g(report.to_json_dict())


def dumps_17g(obj) -> str:
    """json.dumps with floats rendered at 17 significant digits."""

    def render(x) -> str:
        if isinstance(x, float):
            return format(x, ".17g")
        if isinstance(x, bool) or x is None:
            return json.dumps(x)
        if isinstance(x, (int, str)):
            return json.dumps(x)
        if isinstance(x, dict):
            inner = ",".join(f"{json.dumps(str(k))}:{render(v)}" for k, v in x.items())
            return "{" + inner + "}"
        if isinstance(x, (list, tuple)):
            return "[" + ",".join(render(v) for v in x) + "]"
        raise TypeError(f"cannot serialize {type(x)!r}")

    return render(obj)
