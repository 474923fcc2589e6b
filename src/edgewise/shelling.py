"""A shelling of the full edgewise subdivision and four h-vector routes.

Facets sorted by (max entry, entry sum, entries in descending lex order)
form a shelling.  The restriction of the facet with code a is the set of
chain vertices v^(k+1-i) at the ascents of the padded word (0, a_1, ...,
a_{k-1}), so the h-vector counts codes by ascents.  Three closed routes
reproduce that count: a one-pass recurrence over word length, an
inclusion-exclusion binomial formula, and the x^(iq) coefficients of
(1 + x + ... + x^(q-1))^k.
"""

from __future__ import annotations

import itertools
import operator
from collections import defaultdict
from dataclasses import dataclass
from math import comb

from . import subdivision
from .complexes import (
    MAX_FACETS,
    CapacityError,
    DisagreementError,
    frontier_shelling,
    h_from_f,
    shell_chains,
)
from .posets import f_subdivision
from .subdivision import (
    Code,
    Vertex,
    check_facet_budget,
    facet_codes,
    number_of_facets,
    validate_kq,
)


def shelling_order(k: int, q: int, max_facets: int = MAX_FACETS) -> tuple[Code, ...]:
    """All facet codes in shelling order: max entry, then entry sum, rising,
    then the entries in descending lex order (codes are distinct, so one
    reversed sort gives all three)."""
    check_facet_budget(k, q, max_facets)
    return tuple(sorted(facet_codes(k, q), key=lambda a: (-max(a), -sum(a), a), reverse=True))


def predicted_restriction(code: Code) -> tuple[int, ...]:
    """Restriction of the facet with this code in the shelling, as rising
    0-based chain positions: chain vertex v^(k+1-i), at position k - i, for
    every ascent position i.  Position p is ascent position k - p, so one
    compress over the code read right to left keeps each p whose entry
    a_(k-p) exceeds the entry before it (0 before a_1)."""
    rev = code[::-1]
    return tuple(itertools.compress(range(1, len(code) + 1),
                                    map(operator.gt, rev, (*rev[1:], 0))))


# The most facets whose failed count certificate certify_order reruns to
# name the first bad pair; past it, the count's two totals are the witness.
WITNESS_FACETS = 10**5


def certify_order(chains, names) -> tuple[tuple[Vertex, ...], list, list]:
    """(vertices, chains, restrictions) of these facets, each a chain of
    vertices bottom to top, in order, certified as a shelling of their
    complex; DisagreementError names the first bad pair by position and by
    names[j] for facet j, as a repeat when its two facets are one.

    Each chain is numbered as it arrives, and each vertex is one shared tuple
    with one int id: vertices[u] is vertex u, chains[j] is facet j's chain of
    ids, and restrictions[j] is shell_chains' tuple of the positions in it of
    R_j, one tuple per distinct restriction.  No frozenset, no complex and no
    second chain of vertices is built.
    """
    # A vertex seen first is numbered next and kept as the one shared tuple.
    number = defaultdict(itertools.count().__next__)
    ids = [tuple(map(number.__getitem__, chain)) for chain in chains]
    vertices = tuple(number)
    restrictions, witness = shell_chains(ids, len(vertices))
    if witness is not None:
        i, j = witness
        # A repeated chain's witness is its earlier copy.
        if ids[i] == ids[j]:
            raise DisagreementError(
                f"not a shelling: facet {j} {names[j]} repeats facet {i} {names[i]}"
            )
        raise DisagreementError(f"not a shelling: witness facets {i} {names[i]}, {j} {names[j]}")
    return vertices, ids, restrictions


@dataclass(frozen=True)
class SubdivisionShellingReport:
    """A certified shelling of T_{k,q}: order lists the codes in shelling
    order and chains[j] is the chain of vertex ids of facet order[j], bottom
    to top, with restrictions[j] the positions in it of R_j and h their
    histogram.  Ids are numbered in first-sight order of the lex walk of
    subdivision.facet_chains, and vertices[u] is vertex u."""

    order: tuple[Code, ...]
    vertices: tuple[Vertex, ...]
    chains: list[tuple[int, ...]]
    restrictions: list[tuple[int, ...]]
    h: tuple[int, ...]


def shelling_certificate(k: int, q: int, max_facets: int = MAX_FACETS) -> SubdivisionShellingReport:
    """Shell the whole subdivision, certified by its face count, and check
    each closed-form restriction; DisagreementError names the first facet
    whose restriction differs, by its chain vertices, or the failed count.

    Guarded by max_facets.  One pass of subdivision.facet_chains walks and
    step-checks every chain in lex code order, one sort and one rank per
    (k-2)-entry prefix, and numbers each vertex at first sight; the id chains
    are then listed in shelling order, each found by its code's lex index
    sum_i a_i q^(k-2-i).  frontier_shelling toggles each ridge once against
    f(T_{k,q}) in closed form, and h_from_f of that f-vector must be the
    restrictions' histogram.  On a failure at most WITNESS_FACETS facets in,
    certify_order reruns these chains through shell_chains to name the first
    bad pair, if there is one.
    """
    order = shelling_order(k, q, max_facets)
    number = defaultdict(itertools.count().__next__)
    chains = [tuple(map(number.__getitem__, chain)) for _, chain in subdivision.facet_chains(k, q)]
    vertices = tuple(number)
    # The vertex dict goes before the frontier pass, and the chains go from
    # lex to shelling order in place: a second list of q^(k-1) pointers,
    # freed just before frontier_shelling, stayed resident through it.
    del number
    weights = [q**e for e in range(k - 2, -1, -1)]
    chains[:] = [chains[sum(map(operator.mul, a, weights))] for a in order]
    f = f_subdivision(k, q)
    try:
        restrictions, h = frontier_shelling(chains, sum(f))
        for code, chain, got in zip(order, chains, restrictions):
            want = predicted_restriction(code)
            if got != want:
                raise DisagreementError(
                    f"facet {code} restricts to {[vertices[chain[p]] for p in got]},"
                    f" not {[vertices[chain[p]] for p in want]}"
                )
        if h_from_f(f) != h:
            raise DisagreementError(f"h {h} of the restrictions is not h_from_f of f = {f}")
    except DisagreementError:
        if len(order) <= WITNESS_FACETS:
            certify_order(chains, order)
        raise
    return SubdivisionShellingReport(order, vertices, chains, restrictions, h)


def h_by_ascents(k: int, q: int, max_facets: int = MAX_FACETS) -> tuple[int, ...]:
    """Histogram of codes by ascent count of the padded word; exhaustive.

    Codes are walked prefix by prefix: the ascents of a prefix (its first
    k-2 entries) are counted once, and each last entry j then counts its own
    code, with one more ascent exactly when the prefix ends below j.
    """
    check_facet_budget(k, q, max_facets)
    h = [0] * (k + 1)
    for prefix in itertools.product(range(q), repeat=k - 2):
        e = sum(map(operator.lt, (0,) + prefix, prefix))
        p = prefix[-1] if prefix else 0
        for j in range(q):
            h[e + (p < j)] += 1
    return tuple(h)


def _check_work(k: int, q: int) -> None:
    """validate_kq; CapacityError before a closed route's k^2 max(k, q)
    steps, each on integers of about k log2(q) bits, exceed MAX_FACETS."""
    validate_kq(k, q)
    if k * k * max(k, q) > MAX_FACETS:
        raise CapacityError(f"closed h routes at {k} x {q} take k^2 max(k, q) > {MAX_FACETS} steps")


def h_by_recurrence(k: int, q: int) -> tuple[int, ...]:
    """Same histogram by a last-value/ascent-count recurrence.

    rows[e][j] counts padded words of the current length that end at value
    j with e ascents; extending by j' adds an ascent exactly when j < j'.
    Suffix and prefix sums over j make each extension O(k q).
    """
    _check_work(k, q)
    rows = [[0] * q for _ in range(k + 1)]
    rows[0][0] = 1
    rows[1][1:] = [1] * (q - 1)
    for _ in range(3, k + 1):
        # A word ending at p >= j' keeps its ascents; one ending at p < j' gains one.
        kept = [list(itertools.accumulate(reversed(row)))[::-1] for row in rows]
        gained = [[0] * q] + [[0, *itertools.accumulate(row)][:q] for row in rows[:-1]]
        rows = [[a + b for a, b in zip(*pair)] for pair in zip(kept, gained)]
    return tuple(map(sum, rows))


def h_by_binomial(k: int, q: int) -> tuple[int, ...]:
    """h_i = sum_j (-1)^j C(k, j) C((i-j)q + k - 1, k - 1)."""
    _check_work(k, q)
    h = []
    for i in range(k + 1):
        total = 0
        for j in range(k + 1):
            n = (i - j) * q + k - 1
            if n >= 0:
                total += (-1) ** j * comb(k, j) * comb(n, k - 1)
        h.append(total)
    return tuple(h)


def h_by_polynomial(k: int, q: int) -> tuple[int, ...]:
    """h_i is the x^(iq) coefficient of (1 + x + ... + x^(q-1))^k.

    Each factor maps coefficients to their sums over a window of q, read
    off prefix sums.
    """
    _check_work(k, q)
    coeffs = [1]
    for _ in range(k):
        prefix = [0, *itertools.accumulate(coeffs + [0] * (q - 1))]
        coeffs = [prefix[n] - prefix[max(0, n - q)] for n in range(1, len(prefix))]
    return tuple(coeffs[i * q] if i * q < len(coeffs) else 0 for i in range(k + 1))


def h_routes(k: int, q: int, max_facets: int = MAX_FACETS) -> dict[str, tuple[int, ...]]:
    """All available h-vector routes; the exhaustive one is skipped past
    the capacity cap."""
    routes = {
        "recurrence": h_by_recurrence(k, q),
        "binomial": h_by_binomial(k, q),
        "polynomial": h_by_polynomial(k, q),
    }
    if number_of_facets(k, q) <= max_facets:
        routes["ascents"] = h_by_ascents(k, q, max_facets)
    return routes


def consensus(routes: dict[str, tuple[int, ...]]) -> tuple[int, ...]:
    """The one h-vector every route returned; DisagreementError names each
    route's answer when they differ."""
    values = set(routes.values())
    if len(values) != 1:
        raise DisagreementError(f"h-vector routes disagree: {routes}")
    return values.pop()


def h_vector_checked(k: int, q: int, max_facets: int = MAX_FACETS) -> tuple[int, ...]:
    """The h-vector, with every route required to agree."""
    return consensus(h_routes(k, q, max_facets))
