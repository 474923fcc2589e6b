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
from dataclasses import dataclass
from math import comb

from .combinat import convolve
from .complexes import (
    DisagreementError,
    ShellingCertificate,
    SimplicialComplex,
    verify_shelling,
)
from .subdivision import (
    Code,
    Vertex,
    check_facet_budget,
    decode_facet,
    facet_codes,
    number_of_facets,
    validate_kq,
)


def shelling_key(code: Code):
    return (max(code), sum(code), tuple(-c for c in code))


def shelling_order(k: int, q: int, max_facets: int = 10**6) -> tuple[Code, ...]:
    """All facet codes in shelling order."""
    check_facet_budget(k, q, max_facets)
    return tuple(sorted(facet_codes(k, q), key=shelling_key))


def ascent_positions(code: Code) -> tuple[int, ...]:
    """1-based positions i with a_{i-1} < a_i in the padded word (0, a)."""
    word = (0,) + tuple(code)
    return tuple(i for i in range(1, len(word)) if word[i - 1] < word[i])


def predicted_restriction(code: Code, q: int) -> frozenset[Vertex]:
    """Restriction face of the facet in the shelling: chain vertex
    v^(k+1-i) for every ascent position i."""
    chain = decode_facet(code, q)
    k = len(chain)
    return frozenset(chain[k - i] for i in ascent_positions(code))


def certify_order(codes, q: int) -> ShellingCertificate:
    """Certificate of these facet codes, in order, as a shelling of their
    complex; DisagreementError names a witness pair by position and code."""
    facets = [decode_facet(code, q) for code in codes]
    cert = verify_shelling(SimplicialComplex(facets), [frozenset(F) for F in facets])
    if not cert.valid:
        i, j = cert.witness
        raise DisagreementError(f"not a shelling: witness facets {i} {codes[i]}, {j} {codes[j]}")
    return cert


@dataclass(frozen=True)
class SubdivisionShellingReport:
    order: tuple[Code, ...]
    certificate: ShellingCertificate
    predicted_restrictions: tuple[frozenset[Vertex], ...]
    h: tuple[int, ...]


def shelling_certificate(k: int, q: int, max_facets: int = 10**6) -> SubdivisionShellingReport:
    """Shell the whole subdivision and check the closed-form restrictions;
    DisagreementError names the first facet whose restriction differs.

    Near-linear in the number of facets (each vertex lies in at most k!
    facets, which bounds verify_shelling's scan); guarded by max_facets.
    """
    order = shelling_order(k, q, max_facets)
    cert = certify_order(order, q)
    predicted = tuple(predicted_restriction(code, q) for code in order)
    for code, got, want in zip(order, cert.restrictions, predicted):
        if got != want:
            raise DisagreementError(f"facet {code} restricts to {sorted(got)}, not {sorted(want)}")
    return SubdivisionShellingReport(
        order=order,
        certificate=cert,
        predicted_restrictions=predicted,
        h=cert.type_histogram(),
    )


def h_by_ascents(k: int, q: int, max_facets: int = 10**6) -> tuple[int, ...]:
    """Histogram of codes by ascent count of the padded word; exhaustive."""
    check_facet_budget(k, q, max_facets)
    h = [0] * (k + 1)
    for code in itertools.product(range(q), repeat=k - 1):
        h[len(ascent_positions(code))] += 1
    return tuple(h)


def h_by_recurrence(k: int, q: int) -> tuple[int, ...]:
    """Same histogram by a last-value/ascent-count recurrence.

    table[j][e] counts padded words of the current length that end at value
    j with e ascents; extending by j' adds an ascent exactly when j < j'.
    """
    validate_kq(k, q)
    table = [[0] * (k + 1) for _ in range(q)]
    for j in range(q):
        table[j][1 if j > 0 else 0] = 1
    for _ in range(3, k + 1):
        new = [[0] * (k + 1) for _ in range(q)]
        for j in range(q):
            for e in range(k + 1):
                total = sum(table[p][e] for p in range(j, q))
                if e > 0:
                    total += sum(table[p][e - 1] for p in range(j))
                new[j][e] = total
        table = new
    return tuple(sum(table[j][e] for j in range(q)) for e in range(k + 1))


def h_by_binomial(k: int, q: int) -> tuple[int, ...]:
    """h_i = sum_j (-1)^j C(k, j) C((i-j)q + k - 1, k - 1)."""
    validate_kq(k, q)
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
    """h_i is the x^(iq) coefficient of (1 + x + ... + x^(q-1))^k."""
    validate_kq(k, q)
    coeffs = (1,)
    for _ in range(k):
        coeffs = convolve(coeffs, (1,) * q)
    return tuple(coeffs[i * q] if i * q < len(coeffs) else 0 for i in range(k + 1))


def h_routes(k: int, q: int, max_facets: int = 10**6) -> dict[str, tuple[int, ...]]:
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


def h_vector_checked(k: int, q: int, max_facets: int = 10**6) -> tuple[int, ...]:
    """The h-vector, with every route required to agree."""
    return consensus(h_routes(k, q, max_facets))
