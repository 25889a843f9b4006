import numpy as np
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

    def test_bool_refused(self):
        for enumerate_ in (enumerate_cographs, enumerate_cotrees):
            with pytest.raises(ValueError, match=f"n must be in 1..{ENUMERATION_CAP}, got True"):
                enumerate_(True)

    # the count is checked before the cache is read, so the answer does not
    # depend on what was enumerated before; the int form, where a sequence
    # starts with it, fills the cache first
    def test_float_two_refused_after_int_two(self):
        assert enumerate_cographs(2).n == 2
        with pytest.raises(ValueError, match=f"n must be in 1..{ENUMERATION_CAP}, got 2.0"):
            enumerate_cographs(2.0)

    def test_float_one_refused_and_bool_after_it(self):
        with pytest.raises(ValueError, match=f"n must be in 1..{ENUMERATION_CAP}, got 1.0"):
            enumerate_cographs(1.0)
        with pytest.raises(ValueError, match=f"n must be in 1..{ENUMERATION_CAP}, got True"):
            enumerate_cographs(True)

    def test_float_three_refused_by_cotrees(self):
        with pytest.raises(ValueError, match=f"n must be in 1..{ENUMERATION_CAP}, got 3.0"):
            enumerate_cotrees(3.0)

    def test_numpy_integer_passed_on_as_int(self):
        index = enumerate_cographs(np.int64(3))
        assert type(index.n) is int and index == enumerate_cographs(3)
        assert enumerate_cotrees(np.int64(3)) is enumerate_cotrees(3)

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
