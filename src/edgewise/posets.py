"""The chain-product model complexes K_lam and their h-vectors.

For a partition lam = (lam_1, ..., lam_s) of k, the box
[0, lam_1] x ... x [0, lam_s] of integer tuples, ordered componentwise, is
the product of chains P_lam.  K_lam is the order complex of its proper part
(bottom and top removed): its facets are the saturated chains from
(0, ..., 0) to lam with both ends dropped, so it is pure of dimension k-2.
Its h-vector is computed here by three independent routes.

Each step of a saturated chain raises exactly one coordinate by 1; labeling
the step by that coordinate index (1-based) gives an R-labeling: every
interval has exactly one maximal chain with a weakly increasing label word.
So the label words of the facets of K_lam are the words over the multiset
{1^lam_1, ..., s^lam_s}, and h_i counts those with exactly i descents.
"""

from __future__ import annotations

import itertools
from math import comb

from .combinat import des, multiset_permutations, validate_partition
from .complexes import CapacityError, DisagreementError, SimplicialComplex, h_vector


def _box(lengths: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All integer tuples x with 0 <= x[i] <= lengths[i], in lex order."""
    return list(itertools.product(*(range(m + 1) for m in lengths)))


def check_r_labeling(lengths: tuple[int, ...]) -> None:
    """Exhaustively check the R-labeling of the box with these chain lengths.

    Every interval [x, y] must have exactly one maximal chain whose label
    word (the raised coordinate of each step, 1-based) is weakly increasing;
    DisagreementError names the first interval that does not.
    """
    box = _box(lengths)
    for x in box:
        for y in box:
            if not all(a <= b for a, b in zip(x, y)) or x == y:
                continue
            rising = sum(
                all(a <= b for a, b in zip(word, word[1:]))
                for word in _interval_label_words(x, y)
            )
            if rising != 1:
                raise DisagreementError(f"interval [{x}, {y}] has {rising} weakly rising chains")


def _interval_label_words(x: tuple[int, ...], y: tuple[int, ...]):
    if x == y:
        yield ()
        return
    for i in range(len(x)):
        if x[i] < y[i]:
            step = x[:i] + (x[i] + 1,) + x[i + 1 :]
            for rest in _interval_label_words(step, y):
                yield (i + 1,) + rest


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
        for x in _box(parts)
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
    h_i counts the words with exactly i descents.
    """
    validate_partition(parts)
    k = sum(parts)
    counts = [0] * k
    for word in multiset_permutations(parts):
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
    """h-vector of K_lam, cross-checked between the two counting routes.

    (The third route, h from the f-vector of the built complex, costs the
    complex construction; use h_vector(k_lambda(parts)) for it.)
    """
    words = h_k_lambda_by_words(parts)
    rec = h_k_lambda_recurrence(parts)
    if words != rec:
        raise DisagreementError(f"h-vector routes disagree for {parts}: {words} vs {rec}")
    return words


def h_k_lambda_from_complex(parts: tuple[int, ...]) -> tuple[int, ...]:
    """h-vector read off the f-vector of the built complex K_lam.

    K_lam has dimension sum(parts)-2, so this has the same length (k entries,
    indices 0..k-1) as the counting routes.
    """
    return h_vector(k_lambda(parts))


def is_join_irreducible(K: SimplicialComplex, max_components: int = 20) -> bool:
    """True when K admits no splitting K = M * N with both factors nonempty.

    Factor candidates are unions of connected components of the graph joining
    two vertices when they share no facet.  A split works when every union of
    an M-trace and an N-trace of facets is again a facet.  Raises
    CapacityError when the graph has more than max_components components.
    """
    vertices = sorted(K.vertices, key=repr)
    if len(vertices) < 2:
        return True

    together: dict = {v: set() for v in vertices}
    for F in K.facets:
        for u, v in itertools.combinations(F, 2):
            together[u].add(v)
            together[v].add(u)

    # Components of the complement relation: u ~ v when never in a common facet.
    component_of: dict = {}
    components: list[list] = []
    for v in vertices:
        if v in component_of:
            continue
        comp = [v]
        component_of[v] = len(components)
        frontier = [v]
        while frontier:
            u = frontier.pop()
            for w in vertices:
                if w not in component_of and w not in together[u] and w != u:
                    component_of[w] = len(components)
                    comp.append(w)
                    frontier.append(w)
        components.append(comp)

    c = len(components)
    if c < 2:
        return True
    if c > max_components:
        raise CapacityError(
            f"join-irreducibility split search over {c} components exceeds {max_components}"
        )

    facets = list(K.facets)
    for bits in range(1, 2 ** (c - 1)):
        side_m = frozenset(
            v for idx, comp in enumerate(components) if bits & (1 << idx) for v in comp
        )
        traces_m = {F & side_m for F in facets}
        traces_n = {F - side_m for F in facets}
        if not all(traces_m) or not all(traces_n):
            continue
        if all(m | n in K.facets for m in traces_m for n in traces_n):
            return False
    return True
