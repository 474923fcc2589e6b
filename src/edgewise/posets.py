"""The chain-product model complexes K_lam and their h-vectors.

For a partition lam = (lam_1, ..., lam_s) of k, the box
[0, lam_1] x ... x [0, lam_s] of integer tuples, ordered componentwise, is
the product of chains P_lam.  K_lam is the order complex of its proper part
(bottom and top removed): its facets are the saturated chains from
(0, ..., 0) to lam with both ends dropped, so it is pure of dimension k-2.
Its h-vector is computed here by two independent routes that must agree.

Each step of a saturated chain raises exactly one coordinate by 1; labeling
the step by that coordinate index (1-based) gives an R-labeling: every
interval has exactly one maximal chain with a weakly increasing label word.
So the label words of the facets of K_lam are the words over the multiset
{1^lam_1, ..., s^lam_s}, and h_i counts those with exactly i descents.
"""

from __future__ import annotations

import itertools
from math import comb

from .combinat import des, distinct_permutations, multinomial, validate_partition
from .complexes import DisagreementError, SimplicialComplex, check_cap


def k_lambda(parts: tuple[int, ...]) -> SimplicialComplex:
    """Order complex of the proper part of the chain product P_lam.

    Requires sum(parts) >= 2; the result is pure of dimension sum(parts)-2.
    Vertices are the box tuples other than (0, ..., 0) and parts.

    >>> sorted(sorted(F) for F in k_lambda((1, 1)).facets)
    [[(0, 1)], [(1, 0)]]
    """
    validate_partition(parts)
    if sum(parts) < 2:
        raise ValueError("partition must sum to at least 2")
    # Successors in increasing order (last coordinate raised first), so the
    # chains come out in lexicographic order.
    s = len(parts)
    up = {
        x: [x[:i] + (x[i] + 1,) + x[i + 1 :] for i in range(s - 1, -1, -1) if x[i] < parts[i]]
        for x in itertools.product(*(range(m + 1) for m in parts))
    }
    chains: list[tuple] = []
    chain: list[tuple[int, ...]] = []

    def extend(x: tuple[int, ...]) -> None:
        if not up[x]:
            chains.append(tuple(chain[:-1]))
            return
        for nxt in up[x]:
            chain.append(nxt)
            extend(nxt)
            chain.pop()

    extend((0,) * s)
    return SimplicialComplex(chains)


def h_k_lambda_by_words(parts: tuple[int, ...]) -> tuple[int, ...]:
    """h-vector of K_lam by counting multiset words by descents.

    Maximal chains of P_lam correspond to words over {1^lam_1, ..., s^lam_s};
    h_i counts the words with exactly i descents.  CapacityError before the
    first word when there are more than MAX_FACETS of them; each word is
    counted as it is walked, and none is kept.
    """
    validate_partition(parts)
    check_cap(multinomial(parts))
    counts = [0] * sum(parts)
    for word in distinct_permutations([i for i, m in enumerate(parts, 1) for _ in range(m)]):
        counts[des(word)] += 1
    return tuple(counts)


def _binom(n: int, j: int) -> int:
    return comb(n, j) if 0 <= j <= n else 0


def h_k_lambda_recurrence(parts: tuple[int, ...]) -> tuple[int, ...]:
    """h-vector of K_lam by peeling the last part of the partition.

    With lam' = lam minus its last part m and k = sum(lam):
    h_i(K_lam) = sum_{j=0}^{m} C(k-m-i+j, j) C(i+m-j, m-j) h_{i-j}(K_lam').
    The empty partition has h = (1,).
    """
    if not parts:
        return (1,)
    validate_partition(parts)
    prev = h_k_lambda_recurrence(parts[:-1])
    m = parts[-1]
    k = sum(parts)
    out = []
    for i in range(k):
        total = 0
        for j in range(m + 1):
            if 0 <= i - j < len(prev):
                total += _binom(k - m - i + j, j) * _binom(i + m - j, m - j) * prev[i - j]
        out.append(total)
    return tuple(out)


def h_k_lambda(parts: tuple[int, ...]) -> tuple[int, ...]:
    """h-vector of K_lam, cross-checked between the two counting routes."""
    words = h_k_lambda_by_words(parts)
    rec = h_k_lambda_recurrence(parts)
    if words != rec:
        raise DisagreementError(f"h-vector routes disagree for {parts}: {words} vs {rec}")
    return words
