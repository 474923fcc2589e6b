"""Tests for the simplicial complex core."""

from __future__ import annotations

import itertools
import random

import pytest

from edgewise import shelling
from edgewise.complexes import (
    CapacityError,
    DisagreementError,
    SimplicialComplex,
    find_isomorphism,
    frontier_shelling,
    h_from_f,
    join,
    restriction_histogram,
    verify_shelling,
)
from edgewise.shelling import certify_order, shelling_order
from edgewise.starcluster import sc_layers
from edgewise.subdivision import decode_facet
from oracles import h_vector, has_face


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
        # The edge lies in no triangle, only in the tetrahedron.
        K = SimplicialComplex([(1, 2), (2, 3, 4), (1, 2, 3, 4), (5, 6, 7)])
        assert K.facets == frozenset({frozenset({1, 2, 3, 4}), frozenset({5, 6, 7})})

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

    def test_vertices_cached_and_complex_not_its_facets(self):
        K = SimplicialComplex([(1, 2), (2, 3)])
        assert K.vertices is K.vertices
        assert K != K.facets
        assert K.facets != K

    def test_has_face(self):
        K = SimplicialComplex([(1, 2, 3)])
        assert has_face(K, (1, 3))
        assert has_face(K, ())
        assert not has_face(K, (1, 4))


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
        # Vertex 4 lies in no earlier facet, so nothing contains R_1 = {4}.
        assert cert.restrictions[1] == frozenset({4})
        assert cert.type_histogram() == (1, 2, 0, 0)
        assert cert.type_histogram() == h_vector(K)

    def test_gap_order_invalid(self):
        K = SimplicialComplex([(1, 2, 3), (2, 3, 4), (3, 4, 5)])
        cert = verify_shelling(K, [(1, 2, 3), (3, 4, 5), (2, 3, 4)])
        assert not cert.valid
        assert cert.witness == (0, 1)
        # Restrictions and types still cover every facet after the witness.
        assert cert.restrictions == (frozenset(), frozenset(), frozenset({2, 4}))
        assert cert.types == (0, 0, 2)

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
        assert cert.restrictions[2] == frozenset()
        assert cert.witness == (0, 2)


def _quadratic_certificate(order):
    """Oracle for verify_shelling: restrictions straight from the definition
    and the witness from a scan of every earlier facet for every later one.

    Returns (valid, witness, restrictions, types)."""
    seq = [frozenset(F) for F in order]
    restrictions = [
        frozenset(v for v in F if any(F - {v} <= G for G in seq[:j]))
        for j, F in enumerate(seq)
    ]
    witness = None
    for j in range(1, len(seq)):
        rest = restrictions[j]
        for i in range(j):
            if not any(v not in seq[i] for v in rest):
                witness = (i, j)
                break
        if witness is not None:
            break
    return witness is None, witness, tuple(restrictions), tuple(len(r) for r in restrictions)


def _perturbations(base: list, seed: int):
    """base, a shuffle of it, one entry moved earlier and two entries swapped."""
    rng = random.Random(seed)
    shuffled = base[:]
    rng.shuffle(shuffled)
    moved = base[:]
    j = rng.randrange(1, len(moved))
    moved.insert(rng.randrange(j), moved.pop(j))
    swapped = base[:]
    a, b = sorted(rng.sample(range(len(swapped)), 2))
    swapped[a], swapped[b] = swapped[b], swapped[a]
    return base, shuffled, moved, swapped


def _perturbed_orders(k: int, q: int, seed: int):
    """The shelling order of T_{k,q} and its perturbations, as lists of facets."""
    return [
        [frozenset(decode_facet(code, q)) for code in codes]
        for codes in _perturbations(list(shelling_order(k, q)), seed)
    ]


ORACLE_GRID = [(3, 3), (3, 5), (4, 3), (4, 4), (5, 2), (5, 3)]


class TestShellingOracle:
    """The shelling kernel, through verify_shelling and certify_order,
    against the quadratic scan."""

    def test_matches_oracle_on_perturbed_orders(self):
        witnesses = []
        for k, q in ORACLE_GRID:
            K = SimplicialComplex(
                frozenset(decode_facet(code, q)) for code in shelling_order(k, q)
            )
            for seed in range(6):
                for order in _perturbed_orders(k, q, seed):
                    cert = verify_shelling(K, order)
                    got = (cert.valid, cert.witness, cert.restrictions, cert.types)
                    assert got == _quadratic_certificate(order), (k, q, seed)
                    witnesses.append(cert.witness)
        # The orders reach valid shellings, empty restrictions (i = 0) and
        # nonempty restrictions inside a later facet (i > 0).
        assert None in witnesses
        assert any(w is not None and w[0] == 0 for w in witnesses)
        assert any(w is not None and w[0] > 0 for w in witnesses)

    def test_certify_order_matches_oracle_on_perturbed_codes(self, monkeypatch):
        """certify_order on decoded codes agrees with the quadratic scan on
        the same perturbed orders and on perturbed star cluster orders: a
        valid order in its restriction positions, mapped through its id
        chains and vertices, a refused one in the witness pair its error
        names, and both in the restrictions shell_chains handed back."""
        scans = []
        scan = shelling.shell_chains
        monkeypatch.setattr(
            shelling, "shell_chains", lambda chains, n: scans.append(scan(chains, n)) or scans[-1]
        )
        cases = [[decode_facet(code, q) for code in shelling_order(k, q)] for k, q in ORACLE_GRID]
        cases.append([chain for _, _, chain in sc_layers((1, 2, 3), 7)])
        witnesses = []
        for facets in cases:
            names = [f"F{n}" for n in range(len(facets))]
            for seed in range(6):
                for perm in _perturbations(list(range(len(facets))), seed):
                    order = [facets[n] for n in perm]
                    want = _quadratic_certificate(order)
                    try:
                        vertices, chains, positions = certify_order(
                            iter(order), [names[n] for n in perm]
                        )
                    except DisagreementError as exc:
                        i, j = want[1]
                        assert str(exc) == (
                            f"not a shelling: witness facets {i} F{perm[i]}, {j} F{perm[j]}"
                        ), (seed, perm)
                    else:
                        assert [tuple(vertices[u] for u in chain) for chain in chains] == order
                        restrictions = tuple(
                            frozenset(vertices[chain[p]] for p in rest)
                            for chain, rest in zip(chains, positions, strict=True)
                        )
                        got = (True, None, restrictions, tuple(map(len, positions)))
                        assert got == want, (seed, perm)
                    positions, witness = scans.pop()
                    restrictions = tuple(
                        frozenset(chain[p] for p in rest) for chain, rest in zip(order, positions)
                    )
                    assert (witness is None, witness, restrictions) == want[:3], seed
                    assert tuple(map(len, positions)) == want[3]
                    witnesses.append(witness)
        assert None in witnesses
        assert any(w is not None and w[0] == 0 for w in witnesses)
        assert any(w is not None and w[0] > 0 for w in witnesses)

    def test_face_count_certifies_exactly_the_shellings(self):
        """frontier_shelling, handed the complex's face count, accepts each
        perturbed order the quadratic scan finds a shelling, with its
        restrictions and their histogram, and refuses every other one with
        both totals; one face more is refused too."""
        outcomes = []
        for k, q in ORACLE_GRID:
            K = SimplicialComplex(frozenset(decode_facet(a, q)) for a in shelling_order(k, q))
            faces = sum(K.f_vector())
            for seed in range(6):
                for order in _perturbed_orders(k, q, seed):
                    valid, _, restrictions, types = _quadratic_certificate(order)
                    number = {}
                    chains = [tuple(number.setdefault(v, len(number)) for v in sorted(F, key=sum))
                              for F in order]
                    outcomes.append(valid)
                    if not valid:
                        with pytest.raises(DisagreementError, match=f"the complex has {faces}$"):
                            frontier_shelling(chains, faces)
                        continue
                    positions, h = frontier_shelling(chains, faces)
                    got = tuple(frozenset(chain[p] for p in rest)
                                for chain, rest in zip(chains, positions))
                    assert got == tuple(frozenset(map(number.get, R)) for R in restrictions)
                    assert h == restriction_histogram(types, k)
                    with pytest.raises(DisagreementError, match=f"has {faces + 1}$"):
                        frontier_shelling(chains, faces + 1)
        assert True in outcomes and False in outcomes

    def test_witness_takes_the_first_facet_holding_the_restriction(self):
        # R_4 = {5} lies in facets 1 and 2 but not 0; R_1..R_3 are new vertices.
        order = [(1, 2, 6), (2, 5, 6), (3, 5, 6), (1, 2, 4), (1, 4, 5)]
        cert = verify_shelling(SimplicialComplex(order), order)
        assert cert.restrictions[1:] == tuple(map(frozenset, ({5}, {3}, {4}, {5})))
        assert cert.witness == (1, 4)

    def test_witness_past_the_head_of_the_incidence_list(self):
        # R_5 = {1, 4}: vertex 1 lies in facets 0, 2, 4 and vertex 4 in
        # 1, 2, 3, so either list must be read past its first facet.
        order = [(1, 3, 5, 6), (3, 4, 5, 6), (1, 4, 5, 6), (2, 3, 4, 6), (1, 2, 3, 6), (1, 2, 3, 4)]
        cert = verify_shelling(SimplicialComplex(order), order)
        assert cert.restrictions[5] == frozenset({1, 4})
        assert cert.witness == (2, 5)


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
        assert find_isomorphism(cycle(3), SimplicialComplex([(1, 2), (2, 3), (3, 4)])) is None

    def test_cycle_lengths_differ(self):
        # 6-cycle vs. two disjoint triangles: identical invariants, WL-stable,
        # so this exercises the backtracking leaf check.
        two_triangles = SimplicialComplex(
            [(0, 1), (1, 2), (2, 0), (10, 11), (11, 12), (12, 10)]
        )
        assert find_isomorphism(cycle(6), two_triangles) is None

    def test_disjoint_unions_match(self):
        A = join(SimplicialComplex([(0,), (1,)]), SimplicialComplex([(2,), (3,)]))
        B = cycle(4, offset=100)
        assert find_isomorphism(A, B) is not None

    def test_boundaries_of_different_simplices(self):
        assert find_isomorphism(boundary_of_simplex(4), boundary_of_simplex(5)) is None

    def test_capacity_guard(self):
        A = cycle(30)
        B = cycle(30, offset=50)
        with pytest.raises(CapacityError):
            find_isomorphism(A, B)
        assert find_isomorphism(A, B, max_vertices=30) is not None

    def test_small_invariant_mismatch_avoids_capacity(self):
        # Invariant rejection fires before the size guard.
        A = cycle(30)
        B = cycle(29)
        assert find_isomorphism(A, B) is None

    def test_empty_and_point(self):
        E = SimplicialComplex([()])
        assert find_isomorphism(E, E) is not None
        assert find_isomorphism(E, SimplicialComplex([(1,)])) is None
        assert find_isomorphism(SimplicialComplex([(1,)]), SimplicialComplex([("x",)])) is not None
