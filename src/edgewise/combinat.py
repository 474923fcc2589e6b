"""Permutation and partition statistics.

Partitions are weakly decreasing tuples of positive integers, always listed
in reverse-lexicographic order.  Words are tuples of positive integers, either
plain permutations of 1..n or permutations of a multiset.  Descent positions
are 1-based: i is a descent of w when w[i-1] > w[i].

All counts are exact Python integers.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from functools import lru_cache


def partitions(k: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of k, reverse-lex order.

    >>> partitions(4)
    ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return tuple(_partitions_revlex(k, k))


def _partitions_revlex(n: int, maxpart: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n with no part above maxpart, reverse-lex; none is kept."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, maxpart), 0, -1):
        for rest in _partitions_revlex(n - first, first):
            yield (first, *rest)


def multiplicities(parts: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Multiplicity view of a partition: ((n_1, m_1), ..., (n_t, m_t)).

    >>> multiplicities((3, 2, 2, 1))
    ((3, 1), (2, 2), (1, 1))
    """
    return tuple((v, len(tuple(g))) for v, g in itertools.groupby(parts))


def validate_partition(parts: tuple[int, ...], k: int | None = None) -> None:
    """Raise ValueError unless parts is a partition (of k, if given)."""
    if not parts or any(p < 1 for p in parts):
        raise ValueError(f"not a partition: {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {parts}")
    if k is not None and sum(parts) != k:
        raise ValueError(f"{parts} does not partition {k}")


def cyclic_gaps(positions, k: int) -> list[int]:
    """Gaps between consecutive increasing positions in 1..k, the last gap
    wrapping around from the largest position back to the smallest.

    >>> cyclic_gaps((1, 4), 6)
    [3, 3]
    """
    gaps = [b - a for a, b in zip(positions, positions[1:])]
    gaps.append(k - positions[-1] + positions[0])
    return gaps


def multinomial(parts) -> int:
    """(p_1 + ... + p_s)! / (p_1! ... p_s!): the number of words over the
    multiset {1^p_1, ..., s^p_s}.

    >>> multinomial((2, 1))
    3
    """
    return math.factorial(sum(parts)) // math.prod(map(math.factorial, parts))


def distinct_permutations(word) -> Iterator[tuple[int, ...]]:
    """Each distinct rearrangement of a weakly increasing word, once, in lex
    order; the caller bounds their number.

    >>> list(distinct_permutations((0, 2, 2)))
    [(0, 2, 2), (2, 0, 2), (2, 2, 0)]
    """
    word = list(word)
    last = len(word) - 1
    while True:
        yield tuple(word)
        # The next word in lex order: raise the rightmost letter that has a
        # larger one after it to the least such, then sort the tail.
        i = last - 1
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return
        j = last
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1:] = word[:i:-1]


def weakly_increasing(length: int, top: int) -> Iterator[tuple[int, ...]]:
    """Each weakly increasing tuple of the given length with entries in
    0..top, once, in lex order; unlike combinations_with_replacement over
    range(top + 1), it holds no copy of the range.

    >>> list(weakly_increasing(2, 2))
    [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    """
    if length < 1:
        yield ()
        return
    head = [0] * (length - 1)
    while True:
        # The tuples that start with head: the last entry runs from head's
        # last up to top.
        yield from map(tuple(head).__add__, zip(range(head[-1] if head else 0, top + 1)))
        # The next head in lex order: raise its rightmost entry below top by
        # one and set every entry after it to the raised value.
        i = length - 2
        while i >= 0 and head[i] == top:
            i -= 1
        if i < 0:
            return
        head[i:] = [head[i] + 1] * (length - 1 - i)


def descent_set(w: tuple[int, ...]) -> tuple[int, ...]:
    """1-based positions i with w_i > w_{i+1}; valid for any nonempty word."""
    if not w:
        raise ValueError("empty word")
    return tuple(i for i in range(1, len(w)) if w[i - 1] > w[i])


def des(w: tuple[int, ...]) -> int:
    """Number of descents of a word; 0 for a length-1 word."""
    return len(descent_set(w))


def init(w: tuple[int, ...]) -> int:
    """Faithful initial part: least t with {w_1,...,w_t} = {1,...,t}.

    Defined only for plain permutations of 1..n.

    >>> init((2, 1, 3))
    2
    >>> init((3, 1, 2))
    3
    """
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"init is defined only for permutations of 1..n: {w}")
    seen_max = 0
    for t, letter in enumerate(w, start=1):
        seen_max = max(seen_max, letter)
        if seen_max == t:
            return t
    raise AssertionError("unreachable for a valid permutation")


@lru_cache(maxsize=None)
def eulerian(k: int, i: int) -> int:
    """Eulerian number A(k, i) = #{pi in S_k : des(pi) = i}.

    >>> eulerian(3, 1)
    4
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if not 0 <= i <= k - 1:
        raise ValueError(f"descent count i={i} out of range 0..{k - 1}")
    if k == 1:
        return 1
    # A(k,i) = (i+1) A(k-1,i) + (k-i) A(k-1,i-1)
    total = 0
    if i <= k - 2:
        total += (i + 1) * eulerian(k - 1, i)
    if i >= 1:
        total += (k - i) * eulerian(k - 1, i - 1)
    return total


def eulerian_vector(m: int) -> tuple[int, ...]:
    """(A(m,0), ..., A(m,m-1)), the h-vector of the barycentrically
    subdivided boundary of an (m-1)-simplex."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    return tuple(eulerian(m, i) for i in range(m))


def x_sequence(n: int) -> tuple[int, ...]:
    """(X_1, ..., X_n) where X_j counts permutations of S_j with init = j.

    X_j = j! - sum_{t<j} (j-t)! X_t.

    >>> x_sequence(4)
    (1, 1, 3, 13)
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    xs: list[int] = []
    for j in range(1, n + 1):
        xs.append(math.factorial(j) - sum(math.factorial(j - t) * xs[t - 1] for t in range(1, j)))
    return tuple(xs)


def convolve(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Sequence convolution: c_j = sum_i a_i b_{j-i}. Length len(a)+len(b)-1."""
    if not a or not b:
        raise ValueError("convolve needs nonempty sequences")
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


@lru_cache(maxsize=None)
def h_rows_recursive(k: int) -> tuple[tuple[int, ...], ...]:
    """Rows of the init/descent table via the convolution recursion.

    Row 1 is the Eulerian vector of S_{k-1} padded with a trailing zero; row t
    (1 < t < k) is the convolution of row t of the size-t table with the
    Eulerian vector of S_{k-t}; row k is the Eulerian vector of S_k minus the
    earlier rows.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k == 1:
        return ((1,),)
    rows: list[tuple[int, ...]] = []
    for t in range(1, k):
        row = convolve(h_rows_recursive(t)[t - 1], eulerian_vector(k - t))
        rows.append(row + (0,) * (k - len(row)))
    last = list(eulerian_vector(k))
    for row in rows:
        for d in range(k):
            last[d] -= row[d]
    rows.append(tuple(last))
    return tuple(rows)


def permutations_by_init(k: int) -> dict[int, tuple[tuple[int, ...], ...]]:
    """Group S_k by faithful initial part; values keep lexicographic order."""
    groups: dict[int, list[tuple[int, ...]]] = {t: [] for t in range(1, k + 1)}
    for pi in itertools.permutations(range(1, k + 1)):
        groups[init(pi)].append(pi)
    return {t: tuple(v) for t, v in groups.items()}
