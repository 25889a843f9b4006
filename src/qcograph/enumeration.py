"""Exhaustive generation of unlabeled cographs as canonical cotrees."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from .cotree import _LEAF, JOIN, UNION, Cotree, _canonical_node

__all__ = ["ENUMERATION_CAP", "EnumerationIndex", "enumerate_cographs", "enumerate_cotrees"]

ENUMERATION_CAP = 11


@dataclass(frozen=True)
class EnumerationIndex:
    n: int
    strings: tuple[str, ...]  # canonical cotree strings, sorted, distinct

    @property
    def count(self) -> int:
        return len(self.strings)


@lru_cache(maxsize=None)
def _nodes(n: int, kind: str) -> tuple[tuple, ...]:
    """The canonical records (leaf count, string, tree) of all cotrees on n
    leaves whose root is a leaf (n = 1) or a node of the given kind, each
    node built once by ``_canonical_node``.

    A node's children are leaves and nodes of the other kind. They form a
    multiset: enumerated with nondecreasing (leaf count, pool index) so each
    multiset appears once.
    """
    if n == 1:
        return (_LEAF,)
    other = UNION if kind == JOIN else JOIN
    records: list[tuple] = []

    def rec(remaining: int, min_m: int, min_idx: int, chosen: list[tuple]) -> None:
        if remaining == 0:
            if len(chosen) >= 2:
                records.append(_canonical_node(kind, n, chosen))
            return
        for m in range(min_m, remaining + 1):
            if m == remaining and not chosen:
                continue  # a single child covering everything is not a valid node
            pool = _nodes(m, other)
            start = min_idx if m == min_m else 0
            for i in range(start, len(pool)):
                chosen.append(pool[i])
                rec(remaining - m, m, i, chosen)
                chosen.pop()

    rec(n, 1, 0, [])
    return tuple(records)


@lru_cache(maxsize=None)
def _enumerated(n: int) -> tuple[tuple[str, ...], tuple[Cotree, ...]]:
    """The canonical strings of all cographs on n vertices, sorted, and their
    canonical trees in the same order. Generation yields one tree per
    isomorphism class, so the strings are distinct."""
    if not 1 <= n <= ENUMERATION_CAP:
        raise ValueError(f"n must be in 1..{ENUMERATION_CAP}, got {n}")
    roots = _nodes(n, JOIN) + _nodes(n, UNION) if n > 1 else (_LEAF,)
    _, strings, trees = zip(*sorted(roots, key=itemgetter(1)))
    return strings, trees


def enumerate_cotrees(n: int) -> tuple[Cotree, ...]:
    """All unlabeled cographs on n vertices as canonical cotrees, in the
    order of ``enumerate_cographs(n).strings``; equal subtrees are shared."""
    return _enumerated(n)[1]


def enumerate_cographs(n: int) -> EnumerationIndex:
    """Canonical-string index of all unlabeled cographs on n vertices."""
    return EnumerationIndex(n=n, strings=_enumerated(n)[0])
