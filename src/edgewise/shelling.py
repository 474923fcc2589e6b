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
    restriction_histogram,
    shell_chains,
)
from .subdivision import (
    Code,
    Vertex,
    check_facet_budget,
    facet_codes,
    number_of_facets,
    validate_kq,
)


def shelling_key(code: Code):
    return (max(code), sum(code), tuple(-c for c in code))


def shelling_order(k: int, q: int, max_facets: int = MAX_FACETS) -> tuple[Code, ...]:
    """All facet codes in shelling order."""
    check_facet_budget(k, q, max_facets)
    return tuple(sorted(facet_codes(k, q), key=shelling_key))


def ascent_positions(code: Code) -> tuple[int, ...]:
    """1-based positions i with a_{i-1} < a_i in the padded word (0, a)."""
    word = (0,) + tuple(code)
    return tuple(i for i in range(1, len(word)) if word[i - 1] < word[i])


def predicted_restriction(code: Code) -> tuple[int, ...]:
    """Restriction of the facet with this code in the shelling, as rising
    0-based chain positions: chain vertex v^(k+1-i), at position k - i, for
    every ascent position i."""
    k = len(code) + 1
    return tuple(k - i for i in reversed(ascent_positions(code)))


def certify_order(codes, q: int) -> tuple[tuple[tuple[Vertex, ...], ...], list[tuple[int, ...]]]:
    """(chains, restrictions) of these facet codes, in order, certified as a
    shelling of their complex; DisagreementError names the first bad pair by
    position and code, as a repeat when its two facets are one.

    Each code is decoded once, and each vertex is one shared tuple with one
    int id: chains[j] is facet j's chain of the shared tuples, bottom to top,
    and restrictions[j] is shell_chains' tuple of the positions in it of R_j,
    one tuple per distinct restriction.  No frozenset and no complex is built.
    """
    # A vertex seen first is numbered next and kept as the one shared tuple.
    number = defaultdict(itertools.count().__next__)
    decode = subdivision.decode_facet
    chains = [tuple(map(number.__getitem__, decode(a, q))) for a in codes]
    vertices = list(number)
    restrictions, witness = shell_chains(chains, len(vertices))
    if witness is not None:
        i, j = witness
        # A repeated chain's witness is its earlier copy.
        if chains[i] == chains[j]:
            raise DisagreementError(
                f"not a shelling: facet {j} {codes[j]} repeats facet {i} {codes[i]}"
            )
        raise DisagreementError(f"not a shelling: witness facets {i} {codes[i]}, {j} {codes[j]}")
    return tuple(tuple(map(vertices.__getitem__, chain)) for chain in chains), restrictions


@dataclass(frozen=True)
class SubdivisionShellingReport:
    order: tuple[Code, ...]
    chains: tuple[tuple[Vertex, ...], ...]
    restrictions: list[tuple[int, ...]]
    h: tuple[int, ...]


def shelling_certificate(k: int, q: int, max_facets: int = MAX_FACETS) -> SubdivisionShellingReport:
    """Shell the whole subdivision and check each closed-form restriction as
    it is computed; DisagreementError names the first facet whose restriction
    differs, by its chain vertices.

    Guarded by max_facets.  Each code is decoded once and each ridge hashed
    once.  Each vertex lies in at most k! facets, so a facet with restriction
    R adds at most k! |R| hash probes to find a witness (3 058 777 in all at
    k = 6, q = 10).
    """
    order = shelling_order(k, q, max_facets)
    chains, restrictions = certify_order(order, q)
    for code, chain, got in zip(order, chains, restrictions):
        want = predicted_restriction(code)
        if got != want:
            raise DisagreementError(
                f"facet {code} restricts to {[chain[p] for p in got]},"
                f" not {[chain[p] for p in want]}"
            )
    return SubdivisionShellingReport(
        order=order,
        chains=chains,
        restrictions=restrictions,
        h=restriction_histogram(map(len, restrictions), k),
    )


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
