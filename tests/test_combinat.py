"""Tests for permutation and partition statistics."""

from __future__ import annotations

import itertools
import math

import pytest

from edgewise.combinat import (
    convolve,
    des,
    descent_set,
    distinct_permutations,
    eulerian,
    eulerian_vector,
    h_rows_recursive,
    init,
    multinomial,
    multiplicities,
    partitions,
    permutations_by_init,
    validate_partition,
    weakly_increasing,
    x_sequence,
)
from edgewise.complexes import CapacityError
from edgewise.posets import h_k_lambda_by_words
from oracles import DescentInitTable, h_matrix


def partition_count_oracle(n: int) -> int:
    # Independent route: classic DP over maximum part size.
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for maxpart in range(n + 1):
        table[maxpart][0] = 1
    for maxpart in range(1, n + 1):
        for total in range(1, n + 1):
            table[maxpart][total] = table[maxpart - 1][total]
            if total >= maxpart:
                table[maxpart][total] += table[maxpart][total - maxpart]
    return table[n][n]


class TestPartitions:
    def test_small_values(self):
        assert partitions(1) == ((1,),)
        assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
        assert len(partitions(6)) == 11

    def test_counts_against_dp_oracle(self):
        for n in range(1, 31):
            assert len(partitions(n)) == partition_count_oracle(n)

    def test_fixed_part_count(self):
        def with_parts(k, s):
            return tuple(p for p in partitions(k) if len(p) == s)

        assert with_parts(6, 3) == ((4, 1, 1), (3, 2, 1), (2, 2, 2))
        assert with_parts(5, 1) == ((5,),)
        assert with_parts(5, 5) == ((1, 1, 1, 1, 1),)
        for k in range(1, 12):
            assert sorted(partitions(k)) == sorted(
                p for s in range(1, k + 1) for p in with_parts(k, s)
            )

    def test_reverse_lex_order(self):
        for k in range(1, 12):
            ps = partitions(k)
            assert list(ps) == sorted(ps, reverse=True)

    def test_every_element_is_a_partition(self):
        for p in partitions(9):
            validate_partition(p, 9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            partitions(0)

    def test_multiplicities(self):
        assert multiplicities((3, 2, 2, 1)) == ((3, 1), (2, 2), (1, 1))
        assert multiplicities((5,)) == ((5, 1),)
        assert multiplicities((2, 2, 2)) == ((2, 3),)

    def test_validate_partition_rejects(self):
        with pytest.raises(ValueError):
            validate_partition(())
        with pytest.raises(ValueError):
            validate_partition((1, 2))
        with pytest.raises(ValueError):
            validate_partition((2, 0))
        with pytest.raises(ValueError):
            validate_partition((2, 1), k=4)


def test_weakly_increasing_is_combinations_with_replacement():
    for length in range(6):
        for top in range(5):
            expected = itertools.combinations_with_replacement(range(top + 1), length)
            assert list(weakly_increasing(length, top)) == list(expected)


def multiset_words(parts):
    """The words over {1^parts[0], 2^parts[1], ...}, from their sorted word."""
    return list(distinct_permutations([i for i, m in enumerate(parts, 1) for _ in range(m)]))


class TestMultisetPermutations:
    def test_example(self):
        assert multiset_words((2, 1)) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]

    def test_single_block(self):
        assert multiset_words((4,)) == [(1, 1, 1, 1)]

    def test_all_distinct_gives_sk(self):
        assert multiset_words((1, 1, 1)) == sorted(itertools.permutations((1, 2, 3)))

    def test_counts_are_multinomial(self):
        for k in range(1, 7):
            for lam in partitions(k):
                expected = math.factorial(k)
                for part in lam:
                    expected //= math.factorial(part)
                assert multinomial(lam) == expected
                assert len(multiset_words(lam)) == expected

    def test_distinct_permutations_of_a_sorted_word(self):
        for word in [(0,), (3, 3), (0, 2, 2), (1, 1, 2, 3, 3), (0, 1, 2, 3, 4)]:
            expected = sorted(set(itertools.permutations(word)))
            assert list(distinct_permutations(word)) == expected

    def test_lex_order_and_no_duplicates(self):
        words = multiset_words((3, 2, 2))
        assert words == sorted(set(words))

    def test_capacity(self):
        # 10! words exceed the default cap before the word route walks any.
        with pytest.raises(CapacityError, match="3628800 facets"):
            h_k_lambda_by_words((1,) * 10)


class TestDescentStats:
    def test_descent_set_examples(self):
        assert descent_set((2, 1, 3)) == (1,)
        assert descent_set((1, 2, 3)) == ()
        assert descent_set((3, 2, 1)) == (1, 2)
        assert descent_set((1, 1, 2)) == ()
        assert descent_set((2, 1, 1)) == (1,)

    def test_des_of_short_word(self):
        assert des((1,)) == 0
        with pytest.raises(ValueError):
            des(())

    def test_init_examples(self):
        assert init((1,)) == 1
        assert init((2, 1, 3)) == 2
        assert init((3, 1, 2)) == 3
        assert init((1, 2, 3)) == 1
        assert init((2, 1, 4, 3)) == 2

    def test_init_rejects_multiset_words(self):
        with pytest.raises(ValueError):
            init((1, 1, 2))
        with pytest.raises(ValueError):
            init((2, 3))

    def test_init_brute_force(self):
        # init(pi) = least prefix length closed under pi.
        for k in range(1, 7):
            for pi in itertools.permutations(range(1, k + 1)):
                expected = next(
                    t for t in range(1, k + 1) if set(pi[:t]) == set(range(1, t + 1))
                )
                assert init(pi) == expected


class TestEulerian:
    def test_known_values(self):
        assert eulerian(1, 0) == 1
        assert eulerian(3, 1) == 4
        assert eulerian_vector(4) == (1, 11, 11, 1)

    def test_against_direct_count(self):
        for k in range(1, 8):
            counts = [0] * k
            for pi in itertools.permutations(range(1, k + 1)):
                counts[des(pi)] += 1
            assert eulerian_vector(k) == tuple(counts)

    def test_row_sums(self):
        for k in range(1, 10):
            assert sum(eulerian_vector(k)) == math.factorial(k)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            eulerian(0, 0)
        with pytest.raises(ValueError):
            eulerian(3, 3)
        with pytest.raises(ValueError):
            eulerian(3, -1)
        with pytest.raises(ValueError):
            eulerian_vector(0)


class TestXSequence:
    def test_known_prefix(self):
        assert x_sequence(4) == (1, 1, 3, 13)

    def test_against_direct_count(self):
        for n in range(1, 8):
            xs = x_sequence(n)
            by_init = permutations_by_init(n)
            # X_j (n-j)! permutations of S_n have init = j.
            for j in range(1, n + 1):
                assert len(by_init[j]) == xs[j - 1] * math.factorial(n - j)

    def test_total_identity(self):
        for n in range(1, 11):
            xs = x_sequence(n)
            assert sum(xs[j - 1] * math.factorial(n - j) for j in range(1, n + 1)) == math.factorial(n)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            x_sequence(0)


class TestConvolve:
    def test_basic(self):
        assert convolve((1, 1), (1, 1)) == (1, 2, 1)
        assert convolve((1,), (5, 7)) == (5, 7)
        assert convolve((1, 2, 3), (0, 1)) == (0, 1, 2, 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            convolve((), (1,))


class TestDescentInitTable:
    def test_k3_rows(self):
        table = h_matrix(3)
        assert table.rows == ((1, 1, 0), (0, 1, 0), (0, 2, 1))

    def test_k2_rows(self):
        assert h_matrix(2).rows == ((1, 0), (0, 1))

    def test_k1_rows(self):
        assert h_matrix(1).rows == ((1,),)

    def test_column_sums_are_eulerian(self):
        for k in range(1, 8):
            assert h_matrix(k).column_sums() == eulerian_vector(k)

    def test_row_sums(self):
        for k in range(1, 8):
            xs = x_sequence(k)
            expected = tuple(xs[t - 1] * math.factorial(k - t) for t in range(1, k + 1))
            assert h_matrix(k).row_sums() == expected

    def test_total_is_factorial(self):
        for k in range(1, 8):
            assert sum(h_matrix(k).column_sums()) == math.factorial(k)

    def test_recursive_rows_match_enumeration(self):
        for k in range(1, 8):
            assert h_rows_recursive(k) == h_matrix(k).rows

    def test_recursive_k3_by_hand(self):
        # Row 3 of the size-3 table is (1,4,1) minus rows (1,1,0) and (0,1,0).
        assert h_rows_recursive(3)[2] == (0, 2, 1)

    def test_is_frozen_dataclass(self):
        table = h_matrix(2)
        with pytest.raises(Exception):
            table.k = 5  # type: ignore[misc]
        assert isinstance(table, DescentInitTable)
