import pytest

from qcograph.cotree import canonical_string, complement_cotree, parse
from qcograph.enumeration import ENUMERATION_CAP, enumerate_cographs, enumerate_cotrees

from _census import count_unlabeled_p4_free

# cograph counts by order, frozen from the independent Burnside census
KNOWN_COUNTS = [1, 2, 4, 10, 24, 66, 180, 522, 1532, 4624, 14136]


class TestEnumerate:
    def test_small_counts(self):
        for n in range(1, 9):
            assert enumerate_cographs(n).count == KNOWN_COUNTS[n - 1]

    def test_n9_count(self):
        assert enumerate_cographs(9).count == 1532

    def test_cap(self):
        with pytest.raises(ValueError):
            enumerate_cographs(ENUMERATION_CAP + 1)
        with pytest.raises(ValueError):
            enumerate_cographs(0)

    def test_strings_sorted_unique(self):
        idx = enumerate_cographs(6)
        assert list(idx.strings) == sorted(set(idx.strings))

    def test_every_string_parses_and_round_trips(self):
        for n in range(1, 7):
            for s in enumerate_cographs(n).strings:
                assert canonical_string(parse(s)) == s

    def test_strings_are_the_canonical_strings_of_the_trees(self):
        for n in range(1, ENUMERATION_CAP + 1):
            want = tuple(sorted({canonical_string(t) for t in enumerate_cotrees(n)}))
            assert enumerate_cographs(n).strings == want

    def test_trees_are_the_parsed_strings_in_order(self):
        for n in range(1, 11):
            strings, trees = enumerate_cographs(n).strings, enumerate_cotrees(n)
            assert len(trees) == len(strings)
            for s, t in zip(strings, trees):
                assert t == parse(s), s

    def test_leaf_counts(self):
        for n in range(1, 8):
            assert all(t.n == n for t in enumerate_cotrees(n))

    def test_complement_closure(self):
        for n in range(1, 8):
            strings = set(enumerate_cographs(n).strings)
            mapped = {canonical_string(complement_cotree(parse(s))) for s in strings}
            assert mapped == strings


class TestIndependentCensus:
    """Burnside count of unlabeled P4-free graphs, no cotrees involved."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_against_census_small(self, n):
        assert enumerate_cographs(n).count == count_unlabeled_p4_free(n)

    @pytest.mark.slow
    def test_against_census_n7(self):
        assert enumerate_cographs(7).count == count_unlabeled_p4_free(7)
