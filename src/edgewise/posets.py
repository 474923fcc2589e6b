"""Products of chains, their order complexes and h-vectors.

C_m denotes the chain 0 < 1 < ... < m (m+1 elements).  For a partition
lam = (lam_1, ..., lam_s) of k, the poset P_lam is the product
C_{lam_1} x ... x C_{lam_s}; its elements are integer tuples ordered
componentwise.  K_lam is the order complex of the proper part of P_lam
(bottom and top removed), a pure complex of dimension k-2 whose h-vector is
computed here by three independent routes.

Covers in a chain product raise exactly one coordinate by 1; labeling each
cover by that coordinate index (1-based) gives an R-labeling: every interval
has exactly one maximal chain with a weakly increasing label word, and the
h-vector counts maximal chains of the whole poset by descents of their label
words.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Any

from .combinat import des, multiset_permutations, validate_partition
from .complexes import CapacityError, DisagreementError, SimplicialComplex, h_vector


@dataclass(frozen=True)
class GradedPoset:
    """Finite poset given by its elements and cover relations.

    covers[i] = (x, y) means x is covered by y.  labels, when present, runs
    parallel to covers.
    """

    elements: tuple
    covers: tuple[tuple[Any, Any], ...]
    labels: tuple[int, ...] | None = None

    def upper(self) -> dict:
        up: dict = {x: [] for x in self.elements}
        for x, y in self.covers:
            up[x].append(y)
        return up

    def lower(self) -> dict:
        down: dict = {x: [] for x in self.elements}
        for x, y in self.covers:
            down[y].append(x)
        return down

    def minimal_elements(self) -> tuple:
        down = self.lower()
        return tuple(x for x in self.elements if not down[x])

    def maximal_elements(self) -> tuple:
        up = self.upper()
        return tuple(x for x in self.elements if not up[x])

    def cover_label(self, x, y) -> int:
        if self.labels is None:
            raise ValueError("poset carries no labels")
        for (a, b), lab in zip(self.covers, self.labels):
            if (a, b) == (x, y):
                return lab
        raise ValueError(f"{x} -> {y} is not a cover")


def chain_product(lengths: tuple[int, ...]) -> GradedPoset:
    """The product of chains C_{lengths[0]} x ... x C_{lengths[-1]}.

    >>> P = chain_product((1, 1))
    >>> sorted(P.elements)
    [(0, 0), (0, 1), (1, 0), (1, 1)]
    """
    if not lengths:
        raise ValueError("chain_product needs at least one chain")
    if any(m < 1 for m in lengths):
        raise ValueError(f"chain lengths must be positive: {lengths}")
    elements = tuple(itertools.product(*(range(m + 1) for m in lengths)))
    covers = []
    for x in elements:
        for i, m in enumerate(lengths):
            if x[i] < m:
                covers.append((x, x[:i] + (x[i] + 1,) + x[i + 1 :]))
    return GradedPoset(elements, tuple(covers))


def _as_chain_product(P: GradedPoset) -> tuple[int, ...]:
    """Chain lengths when P structurally is a chain product, else ValueError."""
    if not P.elements:
        raise ValueError("empty poset")
    first = P.elements[0]
    if not isinstance(first, tuple) or not all(isinstance(c, int) for c in first):
        raise ValueError("not a chain product: elements must be int tuples")
    arity = len(first)
    if any(not isinstance(x, tuple) or len(x) != arity for x in P.elements):
        raise ValueError("not a chain product: mixed arities")
    lengths = tuple(max(x[i] for x in P.elements) for i in range(arity))
    if set(P.elements) != set(itertools.product(*(range(m + 1) for m in lengths))):
        raise ValueError("not a chain product: element set is not a full box")
    expected = set(chain_product(lengths).covers)
    if set(P.covers) != expected:
        raise ValueError("not a chain product: cover relations do not match")
    return lengths


def r_label_product(P: GradedPoset, verify: bool = True) -> GradedPoset:
    """Label each cover of a chain product by its raised coordinate (1-based).

    With verify=True, exhaustively checks the R-labeling property: every
    interval [x, y] has exactly one maximal chain whose label word is weakly
    increasing.
    """
    lengths = _as_chain_product(P)
    labels = []
    for x, y in P.covers:
        delta = [i for i in range(len(lengths)) if x[i] != y[i]]
        if len(delta) != 1 or y[delta[0]] != x[delta[0]] + 1:
            raise DisagreementError(f"cover {x} < {y} does not raise one coordinate by 1")
        labels.append(delta[0] + 1)
    labeled = GradedPoset(P.elements, P.covers, tuple(labels))
    if verify:
        _check_r_labeling(labeled, lengths)
    return labeled


def _check_r_labeling(P: GradedPoset, lengths: tuple[int, ...]) -> None:
    for x in P.elements:
        for y in P.elements:
            if not all(a <= b for a, b in zip(x, y)) or x == y:
                continue
            rising = 0
            for word in _interval_label_words(x, y):
                if all(word[i] <= word[i + 1] for i in range(len(word) - 1)):
                    rising += 1
            if rising != 1:
                raise DisagreementError(
                    f"interval [{x}, {y}] has {rising} weakly rising chains"
                )


def _interval_label_words(x: tuple[int, ...], y: tuple[int, ...]):
    if x == y:
        yield ()
        return
    for i in range(len(x)):
        if x[i] < y[i]:
            step = x[:i] + (x[i] + 1,) + x[i + 1 :]
            for rest in _interval_label_words(step, y):
                yield (i + 1,) + rest


def maximal_chains(P: GradedPoset) -> tuple[tuple, ...]:
    """All maximal chains, each listed bottom to top, in a stable order."""
    up = P.upper()
    chains: list[tuple] = []

    def extend(chain: list) -> None:
        succs = sorted(up[chain[-1]])
        if not succs:
            chains.append(tuple(chain))
            return
        for nxt in succs:
            chain.append(nxt)
            extend(chain)
            chain.pop()

    for start in sorted(P.minimal_elements()):
        extend([start])
    return tuple(chains)


def maximal_chain_labels(P: GradedPoset) -> tuple[tuple[int, ...], ...]:
    """Label words of all maximal chains, read bottom to top."""
    if P.labels is None:
        raise ValueError("poset carries no labels")
    label_of = {cover: lab for cover, lab in zip(P.covers, P.labels)}
    return tuple(
        tuple(label_of[(chain[i], chain[i + 1])] for i in range(len(chain) - 1))
        for chain in maximal_chains(P)
    )


def proper_part(P: GradedPoset) -> GradedPoset:
    """P with its unique bottom and top removed."""
    mins, maxs = P.minimal_elements(), P.maximal_elements()
    if len(mins) != 1 or len(maxs) != 1:
        raise ValueError("proper part needs a unique bottom and top")
    drop = {mins[0], maxs[0]}
    elements = tuple(x for x in P.elements if x not in drop)
    kept = []
    kept_labels = []
    for idx, (x, y) in enumerate(P.covers):
        if x in drop or y in drop:
            continue
        kept.append((x, y))
        if P.labels is not None:
            kept_labels.append(P.labels[idx])
    return GradedPoset(elements, tuple(kept), tuple(kept_labels) if P.labels is not None else None)


def order_complex(P: GradedPoset, reduced: bool = False) -> SimplicialComplex:
    """Complex of chains of P; reduced=True takes the proper part first."""
    Q = proper_part(P) if reduced else P
    if not Q.elements:
        return SimplicialComplex([()])
    return SimplicialComplex(maximal_chains(Q))


def k_lambda(parts: tuple[int, ...]) -> SimplicialComplex:
    """Order complex of the proper part of the chain product P_lam.

    Requires sum(parts) >= 2; the result is pure of dimension sum(parts)-2.
    """
    validate_partition(parts)
    if sum(parts) < 2:
        raise ValueError("partition must sum to at least 2")
    return order_complex(chain_product(parts), reduced=True)


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
