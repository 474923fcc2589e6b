"""Acceptance gate: ten criteria, one pass/fail line each.

Run with -v to get the per-criterion verdict lines, or -s to also see the
printed PASS summaries.  Every check is exact; the stated wall-clock
budgets are asserted.
"""

import itertools
import time
from math import comb, factorial

from edgewise.combinat import (
    eulerian_vector,
    h_rows_recursive,
    multiplicities,
    partitions,
    x_sequence,
)
from edgewise.complexes import SimplicialComplex, find_isomorphism, join
from edgewise.posets import (
    h_k_lambda,
    h_k_lambda_by_words,
    h_k_lambda_recurrence,
    k_lambda,
)
from edgewise.shelling import h_routes, predicted_restriction, shelling_certificate
from edgewise.starcluster import base_facet_code, sc_h_formula, sc_shelling_and_h
from edgewise.subdivision import (
    build_complex,
    count_distinct_links_dim,
    count_faces_with_link_type,
    decode_facet,
    facet_codes,
    is_interior_vertex,
    link_of_vertex,
    number_of_facets,
    q_sequence,
    star_of_vertex,
    vertex_partition,
    vertex_set,
)
from oracles import (code_of_facet, h_k_lambda_from_complex, h_matrix, h_vector, link_complex,
                     ridge_neighbors)

GRID = [(k, q) for k in range(2, 7) for q in range(1, 5)]


def _report(name: str, start: float, budget: float) -> None:
    elapsed = time.monotonic() - start
    assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget}s"
    print(f"PASS {name} ({elapsed:.2f}s)")


def test_criterion_01_facet_count():
    start = time.monotonic()
    for k, q in GRID:
        K = build_complex(k, q)
        assert K.num_facets == q ** (k - 1) == number_of_facets(k, q)
        assert K.is_pure() and K.dim == k - 1  # facets have k vertices
    _report("criterion 1: facet count q^(k-1) on the full grid", start, 5.0)


def test_criterion_02_h_vector_four_way_agreement():
    start = time.monotonic()
    for k, q in GRID:
        routes = h_routes(k, q)
        assert set(routes) == {"ascents", "recurrence", "binomial", "polynomial"}
        routes["complex"] = h_vector(build_complex(k, q))
        assert len(set(routes.values())) == 1, (k, q, routes)
    _report("criterion 2: h-vector four-way agreement on the full grid", start, 30.0)


def test_criterion_03_shelling_certificate_and_restrictions():
    start = time.monotonic()
    for k, q in [(k, q) for k in range(2, 6) for q in range(1, 5)]:
        report = shelling_certificate(k, q)
        assert len(report.chains) == number_of_facets(k, q), (k, q)
        for code, got in zip(report.order, report.restrictions, strict=True):
            assert got == predicted_restriction(code), (k, q, code)
    _report("criterion 3: shelling certificate with closed-form restrictions", start, 60.0)


def test_criterion_04_tables_bit_exact():
    start = time.monotonic()
    table = []
    for s in range(1, 7):
        for lam in (p for p in partitions(6) if len(p) == s):
            table.append(count_faces_with_link_type(6, 6, lam))
    assert tuple(table) == (6, 6, 6, 3, 6, 12, 2, 6, 9, 6, 1)
    assert q_sequence(9) == (1, 3, 7, 16, 34, 74, 151, 312, 625, 1245)
    assert tuple(count_distinct_links_dim(m) for m in range(10)) == (
        2, 5, 12, 28, 62, 136, 287, 599, 1224, 2469,
    )
    _report("criterion 4: reference tables bit-exact", start, 5.0)


def test_criterion_05_vertex_links_match_models():
    start = time.monotonic()
    barycentric = {k: k_lambda((1,) * k) for k in range(2, 6)}
    for k, q in [(k, q) for k in range(2, 6) for q in range(1, 5)]:
        for v in vertex_set(k, q):
            report = link_of_vertex(v, q)  # certified against the model
            lk = link_complex((v,), q)
            assert report.num_facets == lk.num_facets
            if is_interior_vertex(v, q):
                assert find_isomorphism(
                    lk, barycentric[k], max_vertices=max(24, len(lk.vertices))
                ) is not None
    _report("criterion 5: every vertex link matches its chain-product model", start, 120.0)


def test_criterion_06_model_complex_identities():
    start = time.monotonic()
    for k in range(2, 7):
        models = {}
        for lam in partitions(k):
            words = h_k_lambda_by_words(lam)
            rec = h_k_lambda_recurrence(lam)
            built = h_k_lambda_from_complex(lam)
            assert words == rec == built, lam
            # last nonzero entry: position k - max part, value a binomial product
            last = max(i for i, value in enumerate(built) if value)
            assert last == k - lam[0], lam
            expected = 1
            for part in lam:
                expected *= comb(lam[0], part)
            assert built[last] == expected, lam
            if len(lam) == 2:
                assert built == tuple(
                    comb(lam[0], i) * comb(lam[1], i) for i in range(k)
                ), lam
            models[lam] = k_lambda(lam)
        for lam, mu in itertools.combinations(sorted(models), 2):
            assert find_isomorphism(
                models[lam],
                models[mu],
                max_vertices=max(
                    24, len(models[lam].vertices), len(models[mu].vertices)
                ),
            ) is None, (lam, mu)
    _report("criterion 6: model complex h-identities and pairwise distinctness", start, 60.0)


def test_criterion_07_star_cluster():
    start = time.monotonic()
    for k in (2, 3, 4):
        q = k + 3
        report = sc_shelling_and_h(base_facet_code(k, q), q)
        assert (
            report.count_enumerated
            == report.count_inclusion_exclusion
            == report.count_partition_formula
            == report.x_value
            == x_sequence(k + 1)[k]
        ), k
        assert sum(report.layer_sizes) == report.count_enumerated, k
        assert report.h[:-1] == sc_h_formula(k) and report.h[-1] == 0, k
        assert sum(report.h) == report.x_value, k
        if k == 3:
            assert report.count_enumerated == 13
            assert report.h == (1, 9, 3, 0)
    _report("criterion 7: star cluster counts, shelling, and h-vector", start, 60.0)


def test_criterion_08_descent_init_tables():
    start = time.monotonic()
    for k in range(2, 8):
        table = h_matrix(k)  # brute force over S_k
        recursive = h_rows_recursive(k)
        assert table.rows == recursive, k
        assert table.column_sums() == eulerian_vector(k), k
        X = x_sequence(k)
        assert table.row_sums() == tuple(
            X[t - 1] * factorial(k - t) for t in range(1, k + 1)
        ), k
    _report("criterion 8: descent/init tables, sums, and recursion", start, 30.0)


def test_criterion_09_erratum_first_entry():
    start = time.monotonic()
    k, q = 3, 2
    routes = h_routes(k, q)
    routes["complex"] = h_vector(build_complex(k, q))
    first_entries = {name: h[1] for name, h in routes.items()}
    assert set(first_entries.values()) == {3}, first_entries
    in_text_claim = comb(k + q - 1, k - 1) - 1
    assert in_text_claim == 5 and in_text_claim != 3
    print(
        "FLAG: the in-text first-entry formula C(k+q-1,k-1)-1 gives "
        f"{in_text_claim}; every computed route gives 3 = vertices minus k "
        "(see the decisions ledger)"
    )
    _report("criterion 9: documented first-entry discrepancy flagged", start, 5.0)


def test_criterion_10_property_suite():
    start = time.monotonic()
    for k, q in GRID:
        for code in facet_codes(k, q):
            chain = decode_facet(code, q)
            assert code_of_facet(chain, q) == code
            facet = set(chain)
            for other in ridge_neighbors(code, q).values():
                if other is not None:
                    assert len(facet & set(decode_facet(other, q))) == k - 1
    for k, q in [(k, q) for k in range(2, 6) for q in range(1, 4)]:
        for v in vertex_set(k, q):
            lk = link_complex((v,), q)
            assert link_of_vertex(v, q).num_facets == lk.num_facets
            assert star_of_vertex(v, q) == join(SimplicialComplex([(v,)]), lk)
            assert sum(vertex_partition(v, q)) == k
    _report("criterion 10: exhaustive round-trips, ridges, and star factorizations", start, 60.0)
