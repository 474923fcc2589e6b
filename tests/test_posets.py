"""Tests for the chain-product model complexes K_lambda and their h-vectors."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import pytest

from edgewise.combinat import des, distinct_permutations, eulerian_vector, partitions
from edgewise.complexes import (
    CapacityError,
    SimplicialComplex,
    find_isomorphism,
    h_from_f,
    join,
)
from edgewise.posets import (
    f_k_lambda,
    f_star_cluster,
    f_subdivision,
    h_k_lambda,
    h_k_lambda_by_words,
    h_k_lambda_recurrence,
    k_lambda,
)
from edgewise.shelling import h_by_binomial, h_vector_checked
from edgewise.starcluster import base_facet_code, sc_layers
from edgewise.subdivision import build_complex
from oracles import (
    check_r_labeling,
    f_by_vertex_boxes,
    h_k_lambda_by_listed_words,
    h_k_lambda_from_complex,
    h_vector,
    is_join_irreducible,
)


def barycentric_boundary(k: int) -> SimplicialComplex:
    """Barycentric subdivision of the boundary of the (k-1)-simplex,
    built directly from flags of proper subsets of {1..k}."""
    ground = tuple(range(1, k + 1))
    subsets = [
        frozenset(c)
        for r in range(1, k)
        for c in itertools.combinations(ground, r)
    ]
    facets = []

    def extend(flag):
        grown = False
        for s in subsets:
            if flag[-1] < s:
                grown = True
                extend(flag + [s])
        if not grown:
            facets.append(tuple(flag))

    for s in subsets:
        if len(s) == 1:
            extend([s])
    return SimplicialComplex(facets)


def label_word(chain, top):
    """Raised coordinate (1-based) of each step of a saturated chain from the
    bottom of the box to top, given without its two ends."""
    points = [(0,) * len(top), *chain, top]
    word = []
    for lower, upper in zip(points, points[1:]):
        raised = [i + 1 for i in range(len(top)) if upper[i] != lower[i]]
        assert len(raised) == 1 and sum(upper) == sum(lower) + 1
        word.append(raised[0])
    return tuple(word)


def facet_label_words(lam):
    return [label_word(sorted(F, key=sum), lam) for F in k_lambda(lam).facets]


class TestRLabeling:
    def test_labels_are_raised_coordinates(self):
        # K_(1,1) is two points; (1, 0) is reached by raising coordinate 1
        # and then 2, (0, 1) by raising 2 and then 1.
        words = {F: label_word(sorted(F, key=sum), (1, 1)) for F in k_lambda((1, 1)).facets}
        assert words == {frozenset({(1, 0)}): (1, 2), frozenset({(0, 1)}): (2, 1)}

    def test_verify_passes_for_products(self):
        for lengths in [(3,), (1, 1, 1), (2, 2), (3, 2, 1)]:
            check_r_labeling(lengths)

    def test_chain_label_words_are_multiset_words(self):
        # Reading labels along the facets of K_lam gives each word over the
        # multiset {1^lam_1, ..., s^lam_s} exactly once, so the facets are
        # exactly the saturated chains of the box, however they were listed.
        for k in range(2, 7):
            for lam in partitions(k):
                sorted_word = [i for i, m in enumerate(lam, 1) for _ in range(m)]
                assert sorted(facet_label_words(lam)) == sorted(distinct_permutations(sorted_word))


class TestOrderComplex:
    def test_descent_count_gives_h(self):
        # h_m of the reduced order complex counts maximal chains whose label
        # word has m descents.
        for lam in [(1, 1), (2, 1), (1, 1, 1), (2, 2), (3, 1), (2, 1, 1)]:
            k = sum(lam)
            hist = [0] * k
            for word in facet_label_words(lam):
                hist[des(word)] += 1
            assert h_vector(k_lambda(lam)) == tuple(hist)


class TestKLambda:
    def test_full_part_is_simplex(self):
        for k in range(2, 6):
            K = k_lambda((k,))
            assert K.num_facets == 1
            assert K.dim == k - 2

    def test_two_singletons_is_s0(self):
        K = k_lambda((1, 1))
        assert K.f_vector() == (1, 2)

    def test_hexagon(self):
        K = k_lambda((1, 1, 1))
        assert K.f_vector() == (1, 6, 6)
        assert h_vector(K) == (1, 4, 1)

    def test_vertex_and_facet_counts(self):
        for k in range(2, 7):
            for lam in partitions(k):
                K = k_lambda(lam)
                assert len(K.vertices) == math.prod(p + 1 for p in lam) - 2
                expected = math.factorial(k)
                for p in lam:
                    expected //= math.factorial(p)
                assert K.num_facets == expected
                assert K.is_pure() and K.dim == k - 2

    def test_vertex_count_closed_form(self):
        # The box prod [0, lam_i] without its bottom and top.
        for k in range(2, 8):
            for lam in partitions(k):
                assert len(k_lambda(lam).vertices) == math.prod(p + 1 for p in lam) - 2

    def test_all_singletons_is_barycentric_boundary(self):
        for k in range(2, 6):
            assert find_isomorphism(
                k_lambda((1,) * k), barycentric_boundary(k), max_vertices=32
            ) is not None

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            k_lambda((1,))
        with pytest.raises(ValueError):
            k_lambda((1, 2))
        with pytest.raises(ValueError):
            k_lambda(())


class TestHKLambda:
    def test_three_routes_agree(self):
        for k in range(2, 7):
            for lam in partitions(k):
                h = h_k_lambda(lam)
                assert h == h_k_lambda_by_words(lam)
                assert h == h_k_lambda_recurrence(lam)
                assert h == h_k_lambda_from_complex(lam)

    def test_two_part_closed_form(self):
        for k in range(2, 9):
            for lam in (p for p in partitions(k) if len(p) == 2):
                expected = tuple(
                    math.comb(lam[0], i) * math.comb(lam[1], i) for i in range(k)
                )
                assert h_k_lambda(lam) == expected

    def test_all_singletons_is_eulerian(self):
        for k in range(2, 8):
            assert h_k_lambda((1,) * k) == eulerian_vector(k)

    def test_last_nonzero_entry(self):
        for k in range(2, 8):
            for lam in partitions(k):
                h = h_k_lambda(lam)
                last = k - lam[0]
                expected = math.prod(math.comb(lam[0], p) for p in lam[1:])
                if last == 0:
                    assert h == (1,) + (0,) * (k - 1)
                else:
                    assert h[last] == expected
                    assert all(v == 0 for v in h[last + 1 :])
                    assert h[last] > 0

    def test_simplex_h(self):
        assert h_k_lambda((4,)) == (1, 0, 0, 0)
        assert h_k_lambda((2, 1)) == (1, 2, 0)

    def test_capacity(self):
        # The word route's enumerator refuses 10! words.
        with pytest.raises(CapacityError):
            h_k_lambda((1,) * 10)

    def test_word_route_holds_no_word_list(self):
        # The 22 680 words are counted as they are walked; a tuple holding
        # them all would take about 3 MiB.
        tracemalloc.start()
        try:
            h_k_lambda_by_words((2, 2, 2, 2, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_word_walk_is_the_listed_words(self):
        # The walk against each word listed whole and its descents counted.
        for k in range(1, 9):
            for lam in partitions(k):
                h = h_k_lambda_by_words(lam)
                assert h == h_k_lambda_by_listed_words(lam), lam
                assert sum(h) == math.factorial(k) // math.prod(map(math.factorial, lam))

    def test_word_walk_work_follows_the_words(self):
        # 999 000 words of length 1 000: listing each one whole took over a
        # minute; the walk's steps are fewer than twice the words.
        assert h_k_lambda_by_words((998, 1, 1)) == h_k_lambda_recurrence((998, 1, 1))


class TestJoinIrreducible:
    def test_points(self):
        assert is_join_irreducible(SimplicialComplex([(1,)]))
        assert is_join_irreducible(SimplicialComplex([(1,), (2,)]))

    def test_full_simplex_reducible(self):
        assert not is_join_irreducible(SimplicialComplex([(1, 2, 3)]))

    def test_explicit_join_detected(self):
        square = join(
            SimplicialComplex([(0,), (1,)]), SimplicialComplex([(2,), (3,)])
        )
        assert not is_join_irreducible(square)

    def test_cone_reducible(self):
        cone = SimplicialComplex([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1)])
        assert not is_join_irreducible(cone)

    def test_k_lambda_irreducible_unless_single_part(self):
        for k in range(2, 6):
            for lam in partitions(k):
                if lam == (k,):
                    continue
                assert is_join_irreducible(k_lambda(lam)), lam
        for k in range(3, 6):
            assert not is_join_irreducible(k_lambda((k,)))

    def test_k2_simplex_is_point(self):
        assert is_join_irreducible(k_lambda((2,)))

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            is_join_irreducible(SimplicialComplex([range(25)]))
        assert not is_join_irreducible(SimplicialComplex([range(25)]), max_components=25)


@pytest.mark.parametrize("lam", [lam for k in range(2, 7) for lam in partitions(k)])
def test_box_count_of_k_lambda_is_its_f_vector(lam):
    """The inverted multichain count of the box is the oracle K_lam's
    f-vector, and h_from_f of it is K_lam's h-vector."""
    assert f_k_lambda(lam) == k_lambda(lam).f_vector()
    assert h_from_f(f_k_lambda(lam)) == h_k_lambda(lam)


def test_fubini_numbers():
    """K_(1^g), the barycentric boundary of a simplex, has a Fubini number
    of faces; K_(1) is the empty complex."""
    assert [sum(f_k_lambda((1,) * g)) for g in range(1, 8)] == [1, 3, 13, 75, 541, 4683, 47293]


# Every grid with q^(k-1) <= 3 000, k <= 8 and q <= 60.
F_GRIDS = [(k, q) for k in range(2, 9) for q in range(1, 61) if q ** (k - 1) <= 3000]


@pytest.mark.parametrize("k,q", F_GRIDS)
def test_closed_f_of_the_subdivision_is_the_built_one(k, q):
    assert f_subdivision(k, q) == build_complex(k, q).f_vector()


@pytest.mark.parametrize("k,q", [(k, q) for k in range(2, 9) for q in range(1, 9)])
def test_closed_f_of_the_subdivision_sums_the_vertex_boxes(k, q):
    """The closed form, the per-vertex-box count and the h routes agree."""
    f = f_subdivision(k, q)
    assert f == f_by_vertex_boxes(k, q)
    assert h_from_f(f) == h_vector_checked(k, q)


def test_closed_f_of_the_subdivision_at_the_caps():
    """At the 10^6-facet caps, with no complex built: T_{2,q} is a path of q
    edges, and T_{7,10}'s f-vector gives the closed h routes' h-vector."""
    assert f_subdivision(2, 10**6) == (1, 10**6 + 1, 10**6)
    assert h_from_f(f_subdivision(7, 10)) == h_by_binomial(7, 10)


@pytest.mark.parametrize("k", range(3, 7))
def test_star_cluster_face_count_is_the_built_one(k):
    """f_star_cluster is the face count of the complex the cluster's rows span."""
    q = k + 3
    rows = sc_layers(base_facet_code(k, q), q)
    assert f_star_cluster(k) == sum(SimplicialComplex(chain for _, _, chain in rows).f_vector())
