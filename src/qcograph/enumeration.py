"""Exhaustive generation of unlabeled cographs as canonical cotrees."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cotree import Cotree, Internal, JOIN, Leaf, UNION

__all__ = ["ENUMERATION_CAP", "EnumerationIndex", "enumerate_cographs", "enumerate_cotrees"]

ENUMERATION_CAP = 11


@dataclass(frozen=True)
class EnumerationIndex:
    n: int
    strings: tuple[str, ...]  # canonical cotree strings, sorted, deduplicated

    @property
    def count(self) -> int:
        return len(self.strings)


@lru_cache(maxsize=None)
def _subtrees(n: int, parent_kind: str) -> tuple[tuple[Cotree, ...], tuple[str, ...]]:
    """All canonical cotrees on n leaves whose root may sit under parent_kind
    ('' for no constraint): a leaf, or an internal node of the other kind;
    with their canonical strings, in the same order."""
    if n == 1:
        return (Leaf(),), ("J(1)",)
    trees: list[Cotree] = []
    strings: list[str] = []
    for kind in (JOIN, UNION):
        if kind != parent_kind:
            more, texts = _nodes(n, kind)
            trees.extend(more)
            strings.extend(texts)
    return tuple(trees), tuple(strings)


@lru_cache(maxsize=None)
def _nodes(n: int, kind: str) -> tuple[tuple[Internal, ...], tuple[str, ...]]:
    """All canonical internal nodes of the given kind with n leaves below,
    with their canonical strings.

    Children form a multiset: enumerated with nondecreasing (leaf count,
    pool index) so each multiset appears once. A node's string is built from
    its children's, ordered by (leaf count, string) as canonical_string
    orders them, so leaves (the only children with one leaf) come first.
    """
    trees: list[Internal] = []
    strings: list[str] = []

    def rec(remaining: int, min_m: int, min_idx: int, chosen: list[Cotree], keys: list[tuple[int, str]]) -> None:
        if remaining == 0:
            if len(chosen) >= 2:
                trees.append(Internal(kind, tuple(chosen)))
                ordered = sorted(keys)
                leaves = sum(m == 1 for m, _ in ordered)
                parts = [str(leaves)] * (leaves > 0) + [text for _, text in ordered[leaves:]]
                strings.append(f"{kind}({','.join(parts)})")
            return
        for m in range(min_m, remaining + 1):
            if m == remaining and not chosen:
                continue  # a single child covering everything is not a valid node
            pool, texts = _subtrees(m, kind)
            start = min_idx if m == min_m else 0
            for i in range(start, len(pool)):
                chosen.append(pool[i])
                keys.append((m, texts[i]))
                rec(remaining - m, m, i, chosen, keys)
                chosen.pop()
                keys.pop()

    rec(n, 1, 0, [], [])
    return tuple(trees), tuple(strings)


def _enumerated(n: int) -> tuple[tuple[Cotree, ...], tuple[str, ...]]:
    if not 1 <= n <= ENUMERATION_CAP:
        raise ValueError(f"n must be in 1..{ENUMERATION_CAP}, got {n}")
    return _subtrees(n, "")


def enumerate_cotrees(n: int) -> tuple[Cotree, ...]:
    """All unlabeled cographs on n vertices as canonical cotrees."""
    return _enumerated(n)[0]


def enumerate_cographs(n: int) -> EnumerationIndex:
    """Canonical-string index of all unlabeled cographs on n vertices.

    Generation already yields one tree per isomorphism class, with its
    canonical string built alongside; deduplication by string is kept as a
    safety net.
    """
    strings = sorted(set(_enumerated(n)[1]))
    return EnumerationIndex(n=n, strings=tuple(strings))
