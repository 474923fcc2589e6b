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

The box prod [0, r_i] also gives face counts with no complex built: it has
prod C(r_i + m, m) multichains of length m from its bottom (Stanley, EC1
3.12), and inverting these counts gives the strict chains.  So the
f-vectors of K_lam, of T_{k,q} (every face a chain in one vertex's box) and
the face count of a star cluster follow in closed form.
"""

from __future__ import annotations

import itertools
from math import comb, prod

from .combinat import cyclic_gaps, des, distinct_permutations, multinomial, validate_partition
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


def _inverted(multi) -> list[int]:
    """The binomial inverse of multi: multi[n] counts the multichains of n
    steps and a strict chain of m steps lies in C(n, m) of them, so there are
    sum_{n<=m} (-1)^(m-n) C(m, n) multi[n] strict ones, for each m."""
    return [sum((-1) ** (m - n) * comb(m, n) * multi[n] for n in range(m + 1))
            for m in range(len(multi))]


def f_k_lambda(parts: tuple[int, ...]) -> tuple[int, ...]:
    """(f_-1, f_0, ..., f_{k-2}) of K_lam: a face of m - 1 vertices is a
    chain of m strict steps from bottom to top of the box prod [0, lam_i],
    which has prod C(lam_i + n - 1, n - 1) multichains of n steps.  K_(1)
    is the empty complex (1,)."""
    validate_partition(parts)
    k = sum(parts)
    return tuple(_inverted([prod(_binom(m + n - 1, n - 1) for m in parts)
                            for n in range(k + 1)])[1:])


def f_subdivision(k: int, q: int) -> tuple[int, ...]:
    """(f_-1, f_0, ..., f_{k-1}) of T_{k,q}.  Every face is a chain from the
    bottom of its bottom vertex's unit box (Edelsbrunner-Grayson), and the
    multichains of n steps from the bottoms of all vertex boxes are the
    C(q(n+1) + k - 1, k - 1) vertices of T_{k,q(n+1)}, so f_m = sum_{n<=m}
    (-1)^(m-n) C(m, n) C(q(n+1) + k - 1, k - 1)."""
    return (1, *_inverted([comb(q * (n + 1) + k - 1, k - 1) for n in range(k)]))


def f_star_cluster(k: int) -> int:
    """Faces of the star cluster of an interior facet, the empty face among
    them: the closed stars of its chain vertices, by inclusion-exclusion.  The
    stars of the vertices S meet in the closed star of the face S, with
    2^|S| times as many faces as its link, the join of one K_(1^g) per
    cyclic gap g of S; K_(1^g) has a Fubini number of faces."""
    fubini = [0, *(sum(f_k_lambda((1,) * g)) for g in range(1, k + 1))]
    return sum(
        (-1) ** (t - 1) * 2**t * prod(fubini[g] for g in cyclic_gaps(subset, k))
        for t in range(1, k + 1)
        for subset in itertools.combinations(range(1, k + 1), t)
    )
