"""Integer kernels against brute force, and the breadth-first closure
oracle against naive closure."""

import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hassett import kernels
from tests.oracles import brute_window, close_permutations, naive_closure


def mask_to_set(mask):
    return {i for i in range(mask.bit_length()) if mask >> i & 1}


def brute_interval_hit(scaled, lo, hi, min_size):
    n = len(scaled)
    for size in range(min_size, n + 1):
        for combo in itertools.combinations(range(n), size):
            if lo < sum(scaled[i] for i in combo) <= hi:
                return True
    return False


def first_interval_hit(scaled, lo, hi, min_size):
    """The kernel's witness order written as plain recursion: sets are
    tested before their extensions, over indices sorted by value."""
    order = sorted(range(len(scaled)), key=lambda i: (scaled[i], i))

    def visit(pos, chosen, total):
        if len(chosen) >= min_size and lo < total <= hi:
            return sum(1 << i for i in chosen)
        if total + sum(scaled[i] for i in order[pos:]) <= lo:
            return -1
        for k in range(pos, len(order)):
            t = total + scaled[order[k]]
            if t > hi:
                break
            found = visit(k + 1, chosen + [order[k]], t)
            if found != -1:
                return found
        return -1

    return -1 if lo >= hi else visit(0, [], 0)


class TestEnumerateSmallSubsets:
    def test_matches_brute_force(self):
        rng = random.Random(404)
        for _ in range(250):
            n = rng.randint(0, 9)
            scaled = [rng.randint(0, 12) for _ in range(n)]
            cap = rng.randint(-1, 30)
            assert kernels.enumerate_small_subsets(
                scaled, -1, cap, 2, n
            ) == brute_window(scaled, -1, cap, 2, n)

    @given(
        st.lists(st.integers(0, 12), max_size=9),
        st.integers(-4, 40),
        st.integers(-4, 40),
        st.integers(-1, 10),
        st.integers(-1, 10),
    )
    @settings(max_examples=400, deadline=None)
    def test_window_matches_brute_force_in_order(self, values, lo, hi, min_size, max_size):
        assert kernels.enumerate_small_subsets(
            values, lo, hi, min_size, max_size
        ) == brute_window(values, lo, hi, min_size, max_size)

    @given(
        st.lists(st.integers(0, 12), max_size=10),
        st.integers(-4, 60),
        st.integers(-4, 60),
        st.integers(-1, 3),
        st.integers(0, 2),
        st.sampled_from([(), ("0",)]),
    )
    @settings(max_examples=400, deadline=None)
    def test_min_size_near_n(self, values, lo, hi, below_n, spread, prefix):
        # the walk reads extreme-sum table row m only from position
        # min_size - m on, and the tables hold only that band: near n it is
        # one or two entries a row
        n = len(values)
        min_size, tokens = n - below_n, tuple(map(str, range(1, n + 1)))
        args = (values, lo, hi, min_size, min_size + spread)
        sets = kernels.enumerate_small_subsets(*args)
        assert sets == brute_window(*args)
        assert kernels.render_small_subsets(
            *args, tokens, prefix, sep=",", rowsep="],["
        ) == ("],[".join(",".join(prefix + s) for s in relabeled(sets, tokens)), len(sets))

    def test_degenerate_inputs(self):
        assert kernels.enumerate_small_subsets([], -1, 10, 2, 0) == []
        assert kernels.enumerate_small_subsets([5], -1, 10, 2, 1) == []
        assert kernels.enumerate_small_subsets([1, 1], -1, -1, 2, 2) == []
        assert kernels.enumerate_small_subsets([1, 1], -1, 2, 2, 2) == [(1, 2)]

    def test_empty_and_single_value(self):
        assert kernels.enumerate_small_subsets([], -1, 0, 0, 0) == [()]
        assert kernels.enumerate_small_subsets([], 0, 5, 0, 0) == []
        assert kernels.enumerate_small_subsets([4], -1, 4, 0, 1) == [(), (1,)]
        assert kernels.enumerate_small_subsets([4], 3, 4, 0, 1) == [(1,)]
        assert kernels.enumerate_small_subsets([4], -1, 3, 0, 1) == [()]

    def test_empty_window(self):
        assert kernels.enumerate_small_subsets([1, 2, 3], 3, 3, 0, 3) == []
        assert kernels.enumerate_small_subsets([1, 2, 3], 5, 2, 0, 3) == []

    def test_negative_caps(self):
        assert kernels.enumerate_small_subsets([0, 0, 1], -3, -1, 0, 3) == []
        assert kernels.enumerate_small_subsets([0, 0, 1], -2, 0, 0, 3) == [
            (), (1,), (2,), (1, 2)
        ]

    def test_zero_values_are_ordinary_entries(self):
        # every set of zeros joins every set in the window
        assert kernels.enumerate_small_subsets([0, 2, 0], 1, 2, 1, 3) == [
            (2,), (1, 2), (2, 3), (1, 2, 3)
        ]
        assert kernels.enumerate_small_subsets([0, 0, 0], -1, 0, 2, 3) == [
            (1, 2), (1, 3), (2, 3), (1, 2, 3)
        ]

    def test_sets_come_in_canonical_order(self):
        sets = kernels.enumerate_small_subsets([3, 1, 4, 1, 5], -1, 7, 2, 5)
        assert sets == sorted(sets, key=lambda t: (len(t), t))
        assert all(list(t) == sorted(set(t)) for t in sets)

    def test_window_deeper_than_the_recursion_limit(self):
        # the only member is the first 1101 markings: the last value is too
        # heavy for any set in the window, so the search walks down 1101
        # levels instead of emitting a whole block at once
        sets = kernels.enumerate_small_subsets([1] * 1101 + [3000], 1100, 1101, 1101, 1102)
        assert sets == [tuple(range(1, 1102))]


def relabeled(sets, labels):
    return [tuple(labels[k - 1] for k in s) for s in sets]


class TestLabels:
    """Entry k + 1 of every tuple reads labels[k]; nothing else changes."""

    @given(
        st.lists(st.integers(0, 12), max_size=9),
        st.integers(-4, 40),
        st.integers(-4, 40),
        st.integers(-1, 10),
        st.integers(-1, 10),
        st.data(),
    )
    @settings(max_examples=400, deadline=None)
    def test_labels_map_the_default_output(self, values, lo, hi, min_size, max_size, data):
        # repeated and non-string labels too: the kernel only places them
        label = st.one_of(st.text(max_size=3), st.integers(-3, 3))
        labels = data.draw(st.lists(label, min_size=len(values), max_size=len(values)))
        args = (values, lo, hi, min_size, max_size)
        assert kernels.enumerate_small_subsets(*args, labels) == relabeled(
            kernels.enumerate_small_subsets(*args), labels
        )

    def test_zero_values_and_empty_windows(self):
        tokens = ("a", "b", "c")
        assert kernels.enumerate_small_subsets([0, 2, 0], 1, 2, 1, 3, tokens) == [
            ("b",), ("a", "b"), ("b", "c"), ("a", "b", "c")
        ]
        assert kernels.enumerate_small_subsets([0, 0, 0], -1, 0, 0, 3, tokens) == [
            (), ("a",), ("b",), ("c",), ("a", "b"), ("a", "c"), ("b", "c"),
            ("a", "b", "c"),
        ]
        assert kernels.enumerate_small_subsets([1, 2, 3], 3, 3, 0, 3, tokens) == []
        assert kernels.enumerate_small_subsets([1, 2, 3], 5, 2, 0, 3, tokens) == []
        assert kernels.enumerate_small_subsets([], -1, 0, 0, 0, ()) == [()]

    def test_window_deeper_than_the_recursion_limit(self):
        tokens = tuple(map(str, range(1, 1103)))
        sets = kernels.enumerate_small_subsets(
            [1] * 1101 + [3000], 1100, 1101, 1101, 1102, tokens
        )
        assert sets == [tokens[:1101]]


SEPARATORS = [(",", "],["), (" ", "\n")]


def joined(rows, sep, rowsep):
    return rowsep.join(sep.join(row) for row in rows)


class TestRenderSmallSubsets:
    """The text expansion is the tuple expansion joined, and counts its sets."""

    @given(
        st.lists(st.integers(0, 12), max_size=9),
        st.integers(-4, 40),
        st.integers(-4, 40),
        st.integers(-1, 10),
        st.integers(-1, 10),
        st.sampled_from(SEPARATORS),
        st.data(),
    )
    @settings(max_examples=600, deadline=None)
    def test_text_is_the_joined_tuples(
        self, values, lo, hi, min_size, max_size, separators, data
    ):
        sep, rowsep = separators
        # labels of several lengths, some of them equal
        label = st.sampled_from(["1", "2", "10", "x", "abc", ""])
        labels = data.draw(st.lists(label, min_size=len(values), max_size=len(values)))
        prefix = tuple(data.draw(st.lists(label, max_size=2)))
        args = (values, lo, hi, min_size, max_size, labels, prefix)
        rows = kernels.enumerate_small_subsets(*args)
        assert kernels.render_small_subsets(*args, sep=sep, rowsep=rowsep) == (
            joined(rows, sep, rowsep), len(rows)
        )

    @pytest.mark.parametrize("sep, rowsep", SEPARATORS)
    def test_edge_windows(self, sep, rowsep):
        tokens = ("1", "2", "3", "4")
        cases = [
            ([0, 2, 0, 0], 1, 2, 1, 4),  # zero values pad every set
            ([0, 0, 0, 0], -1, 0, 0, 4),  # the empty set first, then all
            ([1, 2, 3, 4], -1, 0, 0, 4),  # the empty set alone
            ([1, 2, 3, 4], 3, 3, 0, 4),  # lo == hi
            ([1, 2, 3, 4], 5, 2, 0, 4),  # lo > hi
            ([1, 2, 3, 4], 100, 200, 0, 4),  # no set reaches the window
            ([1, 2, 3, 4], -1, 10, 5, 9),  # sizes past n
            ([1, 2, 3, 4], -1, 10, -3, -1),  # negative sizes
            ([1, 2, 3, 4], -1, 10, 3, 2),  # min_size > max_size
        ]
        for values, lo, hi, min_size, max_size in cases:
            for prefix in ((), ("9",), ("8", "9")):
                args = (values, lo, hi, min_size, max_size, tokens, prefix)
                rows = kernels.enumerate_small_subsets(*args)
                assert kernels.render_small_subsets(*args, sep=sep, rowsep=rowsep) == (
                    joined(rows, sep, rowsep), len(rows)
                ), args

    def test_empty_row_and_no_rows_differ_by_count(self):
        render = kernels.render_small_subsets
        assert render([], -1, 0, 0, 0, (), sep=",", rowsep="],[") == ("", 1)
        assert render([], 0, 5, 0, 0, (), sep=",", rowsep="],[") == ("", 0)
        assert render([5], -1, 5, 0, 1, ("1",), sep=",", rowsep="],[") == ("],[1", 2)
        assert render([5], -1, 5, 0, 0, ("1",), ("0",), sep=",", rowsep="],[") == ("0", 1)

    def test_prefix_starts_every_set(self):
        tokens = ("2", "3", "4")
        assert kernels.enumerate_small_subsets([1, 1, 1], 0, 2, 1, 2, tokens, ("1",)) == [
            ("1", "2"), ("1", "3"), ("1", "4"), ("1", "2", "3"), ("1", "2", "4"),
            ("1", "3", "4"),
        ]
        assert kernels.render_small_subsets(
            [1, 1, 1], 0, 2, 1, 2, tokens, ("1",), sep=" ", rowsep="\n"
        ) == ("1 2\n1 3\n1 4\n1 2 3\n1 2 4\n1 3 4", 6)

    def test_long_row_separator(self):
        # the divisor JSON frames each side with a separator of 47 characters
        rowsep = ']},{"genus_split":[0,0],"kind":"nodal","side":['
        tokens = tuple(map(str, range(1, 13)))
        args = ([3] * 6 + [1] * 6, 4, 20, 2, 6, tokens)
        rows = kernels.enumerate_small_subsets(*args)
        assert kernels.render_small_subsets(*args, sep=",", rowsep=rowsep) == (
            joined(rows, ",", rowsep), len(rows)
        )

    @pytest.mark.parametrize("sep, rowsep", SEPARATORS)
    def test_blocks_on_both_sides_of_the_memo_threshold(self, sep, rowsep):
        # a block of m labels out of k is joined row by row once
        # m > 2 * (k - m) + 4, and read off the suffix memo below that
        for k in range(1, 13):
            tokens = tuple(map(str, range(1, k + 2)))
            for m in range(1, k + 1):
                windows = [
                    ([1] * k, m - 1, m, m, m, tokens[1:], ()),  # the root
                    ([1] * k, m - 1, m, m, m, tokens[1:], ("0",)),  # a prefix
                    ([2] + [1] * k, m + 1, m + 2, m + 1, m + 1, tokens, ()),  # a head
                ]
                for args in windows:
                    rows = kernels.enumerate_small_subsets(*args)
                    assert len(rows) == math.comb(k, m)
                    assert kernels.render_small_subsets(*args, sep=sep, rowsep=rowsep) == (
                        joined(rows, sep, rowsep), len(rows)
                    ), args

    def test_few_long_rows_cost_about_their_text(self):
        # one whole block of 200 labels out of 201: a memo of its suffixes
        # would hold about 200 ** 3 / 3 labels for the 201 * 200 it returns
        tokens = tuple(map(str, range(1, 202)))
        tracemalloc.start()
        try:
            text, count = kernels.render_small_subsets(
                [1] * 201, 199, 200, 200, 200, tokens, sep=" ", rowsep="\n"
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = [" ".join(t for t in tokens if t != str(k)) for k in range(201, 0, -1)]
        assert (text, count) == ("\n".join(rows), 201)
        assert peak < 10 * len(text)

    def test_window_deeper_than_the_recursion_limit(self):
        tokens = tuple(map(str, range(1, 1103)))
        assert kernels.render_small_subsets(
            [1] * 1101 + [3000], 1100, 1101, 1101, 1102, tokens, sep=",", rowsep="],["
        ) == (",".join(tokens[:1101]), 1)


class TestFindSubsetInInterval:
    def test_decision_matches_brute_force(self):
        rng = random.Random(911)
        for _ in range(400):
            n = rng.randint(0, 9)
            scaled = [rng.randint(1, 15) for _ in range(n)]
            lo = rng.randint(-2, 25)
            hi = rng.randint(-2, 25)
            min_size = rng.randint(0, 3)
            mask = kernels.find_subset_in_interval(scaled, lo, hi, min_size)
            expected = brute_interval_hit(scaled, lo, hi, min_size)
            assert (mask != -1) == expected
            if mask != -1:
                chosen = mask_to_set(mask)
                assert len(chosen) >= min_size
                assert lo < sum(scaled[i] for i in chosen) <= hi

    def test_witness_is_the_first_in_traversal_order(self):
        rng = random.Random(1213)
        for _ in range(400):
            n = rng.randint(0, 10)
            scaled = [rng.randint(0, 12) for _ in range(n)]
            lo = rng.randint(-2, 40)
            hi = rng.randint(-2, 45)
            min_size = rng.randint(0, 4)
            assert kernels.find_subset_in_interval(
                scaled, lo, hi, min_size
            ) == first_interval_hit(scaled, lo, hi, min_size)

    def test_window_deeper_than_the_recursion_limit(self):
        mask = kernels.find_subset_in_interval([1] * 1500, 1100, 1101, 2)
        assert mask.bit_count() == 1101

    def test_empty_interval_is_miss(self):
        assert kernels.find_subset_in_interval([1, 2, 3], 5, 5, 1) == -1
        assert kernels.find_subset_in_interval([1, 2, 3], 6, 2, 1) == -1

    def test_min_size_filters_singletons(self):
        # only the singleton {10} lands in (9, 10]
        assert kernels.find_subset_in_interval([10, 1, 1], 9, 10, 1) == 0b001
        assert kernels.find_subset_in_interval([10, 1, 1], 9, 10, 2) == -1


class TestClosePermutations:
    def test_empty_generators_give_identity(self):
        assert close_permutations([], 4, 10) == [(0, 1, 2, 3)]

    def test_adjacent_transpositions_generate_symmetric_group(self):
        gens = [(1, 0, 2, 3, 4), (0, 2, 1, 3, 4), (0, 1, 3, 2, 4), (0, 1, 2, 4, 3)]
        elements = close_permutations(gens, 5, 200)
        assert elements is not None and len(elements) == 120

    def test_matches_naive_closure(self):
        rng = random.Random(37)
        for _ in range(40):
            degree = rng.randint(1, 5)
            gens = []
            for _ in range(rng.randint(0, 3)):
                p = list(range(degree))
                rng.shuffle(p)
                gens.append(tuple(p))
            got = close_permutations(gens, degree, 10_000)
            assert got == sorted(naive_closure(gens, degree))

    def test_limit_boundary(self):
        gens = [(1, 2, 0), (1, 0, 2)]  # generate all of S_3, order 6
        assert close_permutations(gens, 3, 5) is None
        full = close_permutations(gens, 3, 6)
        assert full is not None and len(full) == 6
