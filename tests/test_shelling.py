"""Shelling of the full subdivision: certificate, restrictions, h-vectors."""

from math import comb

import pytest

from edgewise import shelling, subdivision
from edgewise.complexes import CapacityError, DisagreementError
from edgewise.shelling import (
    ascent_positions,
    certify_order,
    h_by_ascents,
    h_by_binomial,
    h_by_polynomial,
    h_by_recurrence,
    h_routes,
    h_vector_checked,
    predicted_restriction,
    shelling_certificate,
    shelling_order,
)
from edgewise.subdivision import build_complex, facet_codes, number_of_facets
from oracles import h_by_code_ascents, h_vector

GRID = [(k, q) for k in range(2, 6) for q in range(1, 5)]


@pytest.mark.parametrize("k,q", GRID)
def test_shelling_certificate_valid(k, q):
    report = shelling_certificate(k, q)
    assert len(report.order) == len(report.chains) == len(report.restrictions)
    assert len(report.order) == number_of_facets(k, q)


@pytest.mark.parametrize("k,q", GRID)
def test_closed_form_restrictions_match(k, q):
    report = shelling_certificate(k, q)
    assert tuple(report.restrictions) == tuple(map(predicted_restriction, report.order))


def test_certify_order_names_witness():
    # facets (0, 0) and (0, 1) of T_{3,2} share only a vertex
    with pytest.raises(DisagreementError, match=r"witness facets 0 \(0, 0\), 1 \(0, 1\)"):
        certify_order(((0, 0), (0, 1), (1, 0), (1, 1)), 2)


def test_invalid_certificate_raises(monkeypatch):
    scan = shelling.shell_chains
    monkeypatch.setattr(
        shelling, "shell_chains", lambda chains, n: (scan(chains, n)[0], (0, 1))
    )
    with pytest.raises(DisagreementError, match=r"witness facets 0 \(0, 0\), 1 \(1, 0\)"):
        shelling_certificate(3, 3)


def test_restriction_off_closed_form_raises(monkeypatch):
    monkeypatch.setattr(shelling, "predicted_restriction", lambda code: ())
    with pytest.raises(DisagreementError, match=r"facet \(1, 0\) restricts to \[\(1, 2\)\], not \[\]"):
        shelling_certificate(3, 3)


def test_first_facet_has_empty_restriction():
    report = shelling_certificate(3, 3)
    assert report.order[0] == (0, 0)
    assert report.restrictions[0] == ()


def test_restriction_example():
    # code (1, 0) in T_{3,2}: padded word (0, 1, 0) has one ascent, at the
    # first step, selecting the top chain vertex
    assert ascent_positions((1, 0)) == (1,)
    chain = ((0, 1), (1, 1), (1, 2))
    assert subdivision.decode_facet((1, 0), 2) == chain
    assert predicted_restriction((1, 0)) == (2,)


def test_each_facet_decoded_once(monkeypatch):
    decoded = []
    decode = subdivision.decode_facet
    monkeypatch.setattr(
        subdivision, "decode_facet", lambda code, q: decoded.append(code) or decode(code, q)
    )
    shelling_certificate(4, 3)
    assert sorted(decoded) == sorted(facet_codes(4, 3))


@pytest.mark.parametrize("k,q", [(k, q) for k in range(2, 7) for q in range(1, 5)])
def test_h_routes_agree(k, q):
    routes = h_routes(k, q)
    assert "ascents" in routes
    assert len(set(routes.values())) == 1
    h = h_vector_checked(k, q)
    assert len(h) == k + 1
    assert h[k] == 0
    assert sum(h) == number_of_facets(k, q)


@pytest.mark.parametrize("k,q", [(k, q) for k in range(2, 7) for q in range(1, 6)])
def test_prefix_walk_matches_per_code_ascents(k, q):
    """The exhaustive route walks prefixes; each code still counts once by
    its own ascents, the empty prefix (k = 2) and q = 1 included."""
    assert h_by_ascents(k, q) == h_by_code_ascents(k, q)


@pytest.mark.parametrize("k,q", [(2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2)])
def test_h_matches_complex_h_vector(k, q):
    K = build_complex(k, q)
    assert h_vector(K) == h_vector_checked(k, q)


@pytest.mark.parametrize("k,q", GRID)
def test_certificate_histogram_is_h(k, q):
    report = shelling_certificate(k, q)
    assert report.h == h_vector_checked(k, q)


@pytest.mark.parametrize("k,q", [(k, q) for k in range(2, 7) for q in range(1, 6)])
def test_top_entry_identity(k, q):
    # the last interior entry counts strictly increasing positive codes
    assert h_vector_checked(k, q)[k - 1] == comb(q - 1, k - 1)


@pytest.mark.parametrize("k", range(2, 9))
def test_q2_is_even_binomials(k):
    h = h_vector_checked(k, 2)
    assert h == tuple(comb(k, 2 * i) for i in range(k + 1))


def test_h_values_k3_q2():
    # vertex count minus k: 6 - 3 = 3 in the middle
    assert h_vector_checked(3, 2) == (1, 3, 0, 0)


def test_single_facet_case():
    assert h_vector_checked(4, 1) == (1, 0, 0, 0, 0)
    report = shelling_certificate(4, 1)
    assert report.restrictions == [()]
    assert report.h == (1, 0, 0, 0, 0)


def test_capacity_guard():
    with pytest.raises(CapacityError):
        shelling_order(8, 10)
    with pytest.raises(CapacityError):
        h_by_ascents(8, 10)
    # formula routes still work past the cap and still agree
    routes = h_routes(8, 10)
    assert "ascents" not in routes
    assert len(set(routes.values())) == 1


def test_order_is_deterministic():
    assert shelling_order(3, 2) == ((0, 0), (1, 0), (0, 1), (1, 1))


@pytest.mark.parametrize("k,q", [(3, 4000), (8, 300)])
def test_closed_routes_agree_at_large_q(k, q):
    assert h_by_recurrence(k, q) == h_by_binomial(k, q)
    assert h_by_polynomial(k, q) == h_by_binomial(k, q)


def test_closed_route_table_cap():
    # 2 x 2000000 takes k^2 max(k, q) = 8 * 10^6 steps, past the 10^6 cap;
    # nothing is allocated.
    with pytest.raises(CapacityError, match="2 x 2000000"):
        h_by_recurrence(2, 2_000_000)
    with pytest.raises(CapacityError, match="2 x 2000000"):
        h_by_polynomial(2, 2_000_000)
    with pytest.raises(CapacityError, match="2 x 2000000"):
        h_by_binomial(2, 2_000_000)


@pytest.mark.parametrize("route", [h_by_recurrence, h_by_binomial, h_by_polynomial])
def test_closed_route_work_cap_corners(route):
    """k^2 max(k, q) = 10^6 runs at both corners, one step past raises."""
    assert route(100, 1) == (1,) + (0,) * 100
    assert route(2, 250_000) == (1, 249_999, 0)
    for k, q in [(101, 1), (2, 250_001), (1200, 1), (100, 10_000)]:
        with pytest.raises(CapacityError, match=f"{k} x {q}"):
            route(k, q)


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        h_by_recurrence(1, 3)
    with pytest.raises(ValueError):
        h_by_binomial(3, 0)
    with pytest.raises(ValueError):
        h_by_polynomial(0, 2)
