"""Tests for the simplicial complex core."""

from __future__ import annotations

import itertools

import pytest

from edgewise.complexes import (
    CapacityError,
    SimplicialComplex,
    are_isomorphic,
    find_isomorphism,
    full_simplex,
    h_from_f,
    h_vector,
    join,
    link,
    star,
    verify_shelling,
)


def boundary_of_simplex(n: int) -> SimplicialComplex:
    """Boundary of the (n-1)-simplex on vertices 1..n."""
    return SimplicialComplex(itertools.combinations(range(1, n + 1), n - 1))


def cycle(n: int, offset: int = 0) -> SimplicialComplex:
    return SimplicialComplex(
        (offset + i, offset + (i + 1) % n) for i in range(n)
    )


class TestConstruction:
    def test_antichain_reduction(self):
        K = SimplicialComplex([(1, 2), (2,), (2, 3), (1, 2)])
        assert K.facets == frozenset({frozenset({1, 2}), frozenset({2, 3})})

    def test_void_rejected(self):
        with pytest.raises(ValueError):
            SimplicialComplex([])

    def test_empty_complex_allowed(self):
        E = SimplicialComplex([()])
        assert E.dim == -1
        assert E.vertices == frozenset()
        assert E.f_vector() == (1,)

    def test_immutable_and_hashable(self):
        K = SimplicialComplex([(1, 2)])
        with pytest.raises(AttributeError):
            K.facets = frozenset()
        assert K == SimplicialComplex([(2, 1)])
        assert len({K, SimplicialComplex([(1, 2)])}) == 1

    def test_has_face(self):
        K = SimplicialComplex([(1, 2, 3)])
        assert K.has_face((1, 3))
        assert K.has_face(())
        assert not K.has_face((1, 4))


class TestFAndH:
    def test_f_vector_boundary_of_simplex(self):
        import math

        for n in range(2, 7):
            K = boundary_of_simplex(n)
            expected = tuple(math.comb(n, j) for j in range(n))
            assert K.f_vector() == expected
            assert K.is_pure()
            assert K.dim == n - 2

    def test_h_examples(self):
        assert h_from_f((1, 3, 3)) == (1, 1, 1)
        assert h_from_f((1, 6, 12, 8)) == (1, 3, 3, 1)
        assert h_from_f((1,)) == (1,)

    def test_h_of_boundary_is_all_ones(self):
        for n in range(2, 7):
            assert h_vector(boundary_of_simplex(n)) == (1,) * n

    def test_h_sums_to_facet_count(self):
        K = SimplicialComplex([(1, 2, 3), (2, 3, 4), (3, 4, 5)])
        assert sum(h_vector(K)) == K.num_facets

    def test_h_rejects_bad_head(self):
        with pytest.raises(ValueError):
            h_from_f((2, 3))


class TestLinkStarJoin:
    def test_link_in_full_simplex(self):
        K = full_simplex((1, 2, 3, 4))
        L = link(K, (1,))
        assert L == full_simplex((2, 3, 4))

    def test_star_is_vertex_join_link(self):
        K = SimplicialComplex([(1, 2, 3), (2, 3, 4), (3, 4, 5), (5, 6)])
        for v in sorted(K.vertices):
            S = star(K, (v,))
            L = link(K, (v,))
            assert S == join(full_simplex((v,)), L)

    def test_link_of_missing_face_rejected(self):
        K = SimplicialComplex([(1, 2)])
        with pytest.raises(ValueError):
            link(K, (3,))
        with pytest.raises(ValueError):
            star(K, (1, 3))

    def test_link_of_facet_is_empty_complex(self):
        K = SimplicialComplex([(1, 2)])
        assert link(K, (1, 2)) == SimplicialComplex([()])

    def test_join_identity(self):
        K = SimplicialComplex([(1, 2), (2, 3)])
        E = SimplicialComplex([()])
        assert join(K, E) == K
        assert join(E, K) == K

    def test_join_overlap_rejected(self):
        with pytest.raises(ValueError):
            join(SimplicialComplex([(1,)]), SimplicialComplex([(1, 2)]))

    def test_octahedron_as_triple_join(self):
        pairs = [SimplicialComplex([(2 * i,), (2 * i + 1,)]) for i in range(3)]
        octa = join(join(pairs[0], pairs[1]), pairs[2])
        assert octa.f_vector() == (1, 6, 12, 8)
        assert h_vector(octa) == (1, 3, 3, 1)


class TestVerifyShelling:
    def test_triangle_strip_valid(self):
        K = SimplicialComplex([(1, 2, 3), (2, 3, 4), (3, 4, 5)])
        cert = verify_shelling(K, [(1, 2, 3), (2, 3, 4), (3, 4, 5)])
        assert cert.valid
        assert cert.witness is None
        assert cert.types == (0, 1, 1)
        assert cert.restrictions[1] == frozenset({4})
        assert cert.type_histogram() == (1, 2, 0, 0)
        assert cert.type_histogram() == h_vector(K)

    def test_gap_order_invalid(self):
        K = SimplicialComplex([(1, 2, 3), (2, 3, 4), (3, 4, 5)])
        cert = verify_shelling(K, [(1, 2, 3), (3, 4, 5), (2, 3, 4)])
        assert not cert.valid
        assert cert.witness == (0, 1)

    def test_boundary_any_order_is_shelling(self):
        K = boundary_of_simplex(4)
        for order in itertools.permutations(K.facets):
            assert verify_shelling(K, order).valid

    def test_histogram_matches_h_when_valid(self):
        K = SimplicialComplex(
            [(1, 2, 3), (2, 3, 4), (2, 4, 5), (4, 5, 6), (3, 4, 6)]
        )
        cert = verify_shelling(
            K, [(1, 2, 3), (2, 3, 4), (2, 4, 5), (4, 5, 6), (3, 4, 6)]
        )
        assert cert.valid
        assert cert.type_histogram() == h_vector(K)

    def test_points_always_shellable(self):
        K = SimplicialComplex([(1,), (2,), (3,)])
        cert = verify_shelling(K, [(2,), (1,), (3,)])
        assert cert.valid
        assert cert.type_histogram() == (1, 2)

    def test_non_pure_rejected(self):
        K = SimplicialComplex([(1, 2, 3), (3, 4)])
        with pytest.raises(ValueError):
            verify_shelling(K, list(K.facets))

    def test_wrong_order_multiset_rejected(self):
        K = SimplicialComplex([(1, 2), (2, 3)])
        with pytest.raises(ValueError):
            verify_shelling(K, [(1, 2)])
        with pytest.raises(ValueError):
            verify_shelling(K, [(1, 2), (1, 2)])
        with pytest.raises(ValueError):
            verify_shelling(K, [(1, 2), (3, 4)])

    def test_witness_is_smallest_j_then_i(self):
        # Facet (5,6,7) is attached to nothing earlier; j=2 fails at i=0.
        K = SimplicialComplex([(1, 2, 3), (2, 3, 4), (5, 6, 7), (4, 5, 6)])
        cert = verify_shelling(K, [(1, 2, 3), (2, 3, 4), (5, 6, 7), (4, 5, 6)])
        assert not cert.valid
        assert cert.witness == (0, 2)


class TestIsomorphism:
    def test_relabelled_complexes(self):
        K = SimplicialComplex([(1, 2, 3), (2, 3, 4), (3, 4, 5)])
        relabel = {1: "e", 2: "d", 3: "c", 4: "b", 5: "a"}
        L = SimplicialComplex(
            [tuple(relabel[v] for v in F) for F in [(1, 2, 3), (2, 3, 4), (3, 4, 5)]]
        )
        iso = find_isomorphism(K, L)
        assert iso is not None
        assert {frozenset(iso[v] for v in F) for F in K.facets} == set(L.facets)

    def test_different_f_vectors(self):
        assert not are_isomorphic(cycle(3), SimplicialComplex([(1, 2), (2, 3), (3, 4)]))

    def test_cycle_lengths_differ(self):
        # 6-cycle vs. two disjoint triangles: identical invariants, WL-stable,
        # so this exercises the backtracking leaf check.
        two_triangles = SimplicialComplex(
            [(0, 1), (1, 2), (2, 0), (10, 11), (11, 12), (12, 10)]
        )
        assert not are_isomorphic(cycle(6), two_triangles)

    def test_disjoint_unions_match(self):
        A = join(SimplicialComplex([(0,), (1,)]), SimplicialComplex([(2,), (3,)]))
        B = cycle(4, offset=100)
        assert are_isomorphic(A, B)

    def test_boundaries_of_different_simplices(self):
        assert not are_isomorphic(boundary_of_simplex(4), boundary_of_simplex(5))

    def test_capacity_guard(self):
        A = cycle(30)
        B = cycle(30, offset=50)
        with pytest.raises(CapacityError):
            are_isomorphic(A, B)
        assert are_isomorphic(A, B, max_vertices=30)

    def test_small_invariant_mismatch_avoids_capacity(self):
        # Invariant rejection fires before the size guard.
        A = cycle(30)
        B = cycle(29)
        assert not are_isomorphic(A, B)

    def test_empty_and_point(self):
        E = SimplicialComplex([()])
        assert are_isomorphic(E, E)
        assert not are_isomorphic(E, SimplicialComplex([(1,)]))
        assert are_isomorphic(SimplicialComplex([(1,)]), SimplicialComplex([("x",)]))
