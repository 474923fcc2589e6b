"""Tests for the edgewise subdivision: codes, ridges, types, links."""

from __future__ import annotations

import itertools
import math
import re

import pytest

from edgewise import subdivision
from edgewise.combinat import multinomial, partitions
from edgewise.complexes import (
    CapacityError,
    DisagreementError,
    SimplicialComplex,
    find_isomorphism,
    join,
)
from edgewise.posets import k_lambda
from edgewise.shelling import certify_order, shelling_order
from edgewise.subdivision import (
    VertexType,
    build_complex,
    corner_support_partition,
    count_distinct_links_dim,
    count_faces_with_link_type,
    count_link_types,
    count_link_types_of_faces,
    decode_facet,
    face_chain,
    facet_chains,
    facet_code_for_permutation,
    facet_codes,
    is_interior_vertex,
    link_of_face,
    link_of_vertex,
    number_of_facets,
    number_of_vertices,
    off_export,
    q_sequence,
    star_of_vertex,
    vertex_partition,
    vertex_set,
    vertex_type,
)
from oracles import (code_of_facet, corners, link_complex, ridge_neighbors,
                     star_walks_by_words)

SMALL_GRID = [(k, q) for k in (2, 3, 4, 5) for q in (1, 2, 3)]


class TestVertices:
    def test_counts(self):
        for k, q in SMALL_GRID:
            vs = tuple(vertex_set(k, q))
            assert len(vs) == number_of_vertices(k, q)
            assert len(vs) == math.comb(q + k - 1, k - 1)
            assert len(set(vs)) == len(vs)

    def test_vertex_set_is_combinations_with_replacement(self):
        for k in range(2, 7):
            for q in range(1, 6):
                expected = itertools.combinations_with_replacement(range(q + 1), k - 1)
                assert list(vertex_set(k, q)) == list(expected)

    def test_corners_are_vertices(self):
        for k, q in SMALL_GRID:
            vs = set(vertex_set(k, q))
            cs = corners(k, q)
            assert len(cs) == k
            assert set(cs) <= vs
        assert corners(4, 3) == ((0, 0, 0), (0, 0, 3), (0, 3, 3), (3, 3, 3))

    def test_domain_errors(self):
        for k, q in [(1, 2), (3, 0)]:
            with pytest.raises(ValueError):
                vertex_set(k, q)
            with pytest.raises(ValueError):
                next(facet_chains(k, q))


class TestCodes:
    def test_decode_example(self):
        assert decode_facet((1, 0), 2) == ((0, 1), (1, 1), (1, 2))

    def test_decode_chain_shape(self):
        for k, q in SMALL_GRID:
            vs = set(vertex_set(k, q))
            for a in facet_codes(k, q):
                chain = decode_facet(a, q)
                assert len(chain) == k
                assert len(set(chain)) == k
                assert set(chain) <= vs
                assert chain[0] == tuple(sorted(a))
                assert chain[-1] == tuple(c + 1 for c in chain[0])
                for lower, upper in zip(chain, chain[1:]):
                    diff = [u - l for u, l in zip(upper, lower)]
                    assert sorted(diff) == [0] * (k - 2) + [1]

    @pytest.mark.parametrize("k", range(2, 8))
    def test_facet_chains_match_decode_facet(self, k):
        # k = 2 has an empty prefix and q = 1 a single code.
        for q in range(1, 6):
            expected = [(a, decode_facet(a, q)) for a in facet_codes(k, q)]
            assert list(facet_chains(k, q)) == expected

    def test_code_roundtrip(self):
        for k, q in SMALL_GRID:
            for a in facet_codes(k, q):
                assert code_of_facet(decode_facet(a, q), q) == a

    def test_roundtrip_survives_shuffled_vertices(self):
        chain = decode_facet((2, 0, 1), 3)
        assert code_of_facet(reversed(chain), 3) == (2, 0, 1)

    def test_encode_decode_bijection(self):
        # Every pair (v, pi) whose ties keep their order in pi and whose v has
        # max(v) <= q-1 hits each code exactly once.
        for k, q in [(3, 2), (4, 2), (3, 3)]:
            seen = []
            for v in vertex_set(k, q):
                for pi in itertools.permutations(range(1, k)):
                    ties_kept = all(pi.index(i) < pi.index(i + 1)
                                    for i in range(1, k - 1) if v[i - 1] == v[i])
                    if ties_kept and max(v) <= q - 1:
                        seen.append(facet_code_for_permutation(v, (*reversed(pi), k)))
            assert sorted(seen) == sorted(facet_codes(k, q))
            assert len(set(seen)) == len(seen)

    def test_non_monotone_walk_rejected(self, monkeypatch):
        # A rank sort that comes back reversed raises the tied coordinates
        # left first; the walk's own comparison names the code.
        monkeypatch.setattr(
            subdivision, "sorted",
            lambda items, key=None: sorted(items, key=key)[::-1 if key else 1],
            raising=False,
        )
        with pytest.raises(DisagreementError, match=re.escape("code (0, 0) decoded to a chain")):
            decode_facet((0, 0), 2)

    def test_code_of_facet_rejects_non_facets(self):
        with pytest.raises(ValueError):
            code_of_facet([(0, 0), (1, 1), (1, 2)], 2)
        with pytest.raises(ValueError):
            code_of_facet([(0, 0), (0, 1)], 2)
        with pytest.raises(ValueError):
            code_of_facet([], 2)


class TestComplex:
    def test_facet_count_and_purity(self):
        for k, q in SMALL_GRID:
            K = build_complex(k, q)
            assert K.num_facets == number_of_facets(k, q) == q ** (k - 1)
            assert K.is_pure()
            assert K.dim == k - 1
            assert len(K.vertices) == number_of_vertices(k, q)

    def test_q1_is_single_simplex(self):
        K = build_complex(4, 1)
        assert K.num_facets == 1
        assert K == SimplicialComplex([vertex_set(4, 1)])

    def test_k2_is_path(self):
        K = build_complex(2, 5)
        assert K.facets == frozenset(
            frozenset(((i,), (i + 1,))) for i in range(5)
        )

    def test_capacity(self):
        with pytest.raises(CapacityError):
            build_complex(5, 10, max_facets=999)

    def test_cofacet_criterion(self):
        # Two vertices share a facet iff their difference lies in {0,1}^(k-1)
        # up to sign.
        for k, q in [(3, 3), (4, 2)]:
            K = build_complex(k, q)
            cofacet = {
                frozenset((u, v))
                for F in K.facets
                for u, v in itertools.combinations(F, 2)
            }
            for u, v in itertools.combinations(vertex_set(k, q), 2):
                diff = {a - b for a, b in zip(u, v)}
                expected = diff <= {0, 1} or diff <= {-1, 0}
                assert (frozenset((u, v)) in cofacet) == expected, (u, v)


class TestFaceChain:
    """face_chain is the one face rule: a chain inside one unit box."""

    GRIDS = [(2, 3), (3, 1), (3, 2), (3, 3), (3, 4), (4, 1), (4, 2), (4, 3), (5, 2)]

    @staticmethod
    def accepts(face, q):
        try:
            chain = face_chain(face, q)
        except ValueError as exc:
            assert "is not a face of the subdivision" in str(exc)
            return False
        assert set(chain) == set(face) and len(chain) == len(face)
        return True

    def test_agrees_with_the_complex_on_every_vertex_set(self):
        checked = 0
        for k, q in self.GRIDS:
            faces = build_complex(k, q).faces()
            for size in range(1, k + 1):
                for verts in itertools.combinations(vertex_set(k, q), size):
                    assert self.accepts(verts, q) == (frozenset(verts) in faces), (k, q, verts)
                    checked += 1
        assert checked == 12346

    def test_chain_rises_bottom_to_top(self):
        assert face_chain([(1, 2, 2), (1, 1, 2), (2, 2, 2)], 3) == ((1, 1, 2), (1, 2, 2), (2, 2, 2))

    @pytest.mark.parametrize(
        "face",
        [
            [(1, 2), (1, 2)],  # a repeated vertex does not rise
            [(1, 2), (2, 3, 4)],  # vertices of different lengths
            [(1, 2, 3), (1, 2, 4), (1, 2, 5)],  # coordinate 3 raised twice
            [(1, 1), (0, 2)],  # equal sums, so one step lowers a coordinate
        ],
    )
    def test_rejects_non_faces(self, face):
        with pytest.raises(ValueError, match="is not a face of the subdivision"):
            face_chain(face, 9)

    def test_rejects_empty_and_non_vertices(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            face_chain([], 2)
        with pytest.raises(ValueError, match="not a weakly increasing tuple"):
            face_chain([(2, 1)], 3)


class TestRidges:
    def test_against_brute_force(self):
        for k, q in SMALL_GRID:
            facets = {a: decode_facet(a, q) for a in facet_codes(k, q)}
            members = {a: frozenset(chain) for a, chain in facets.items()}
            for a, chain in facets.items():
                nbrs = ridge_neighbors(a, q)
                assert set(nbrs) == set(range(1, k + 1))
                for p in range(1, k + 1):
                    ridge = members[a] - {chain[p - 1]}
                    others = [
                        b for b, mem in members.items() if b != a and ridge <= mem
                    ]
                    assert len(others) <= 1
                    if others:
                        assert nbrs[p] == others[0], (a, p)
                    else:
                        assert nbrs[p] is None, (a, p)

    def test_neighbor_overlap(self):
        for k, q in [(4, 3), (5, 2)]:
            for a in facet_codes(k, q):
                mine = set(decode_facet(a, q))
                for p, b in ridge_neighbors(a, q).items():
                    if b is None:
                        continue
                    theirs = set(decode_facet(b, q))
                    assert len(mine & theirs) == k - 1

    def test_boundary_count_k2(self):
        # The path has exactly two boundary ridges (its endpoints).
        boundary = sum(
            1
            for a in facet_codes(2, 5)
            for b in ridge_neighbors(a, 5).values()
            if b is None
        )
        assert boundary == 2


class TestVertexTypes:
    def test_example(self):
        assert vertex_type((0, 0, 1, 1, 2, 9), 9) == VertexType(2, (2, 1), 1)
        assert vertex_partition((0, 0, 1, 1, 2, 9), 9) == (4, 2, 1)

    def test_partition_sums_to_k(self):
        for k, q in SMALL_GRID:
            for v in vertex_set(k, q):
                lam = vertex_partition(v, q)
                assert sum(lam) == k
                assert lam == tuple(sorted(lam, reverse=True))

    def test_corner_has_single_part(self):
        for k, q in SMALL_GRID:
            for w in corners(k, q):
                assert vertex_partition(w, q) == (k,)

    def test_interior_iff_all_parts_one(self):
        for k, q in SMALL_GRID + [(4, 4), (3, 4)]:
            for v in vertex_set(k, q):
                all_ones = vertex_partition(v, q) == (1,) * k
                assert is_interior_vertex(v, q) == all_ones, v

    def test_interior_exists_iff_q_at_least_k(self):
        for k, q in SMALL_GRID + [(2, 2), (3, 3), (4, 4)]:
            has = any(is_interior_vertex(v, q) for v in vertex_set(k, q))
            assert has == (q >= k)


class TestStars:
    def test_star_matches_global_filter(self):
        for k, q in [(2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2)]:
            K = build_complex(k, q)
            for v in vertex_set(k, q):
                expected = frozenset(F for F in K.facets if v in F)
                assert star_of_vertex(v, q).facets == expected, (k, q, v)

    def test_star_size_is_multinomial(self):
        for k, q in SMALL_GRID:
            for v in vertex_set(k, q):
                lam = vertex_partition(v, q)
                expected = math.factorial(k)
                for part in lam:
                    expected //= math.factorial(part)
                assert len(list(subdivision.star_facets(v, vertex_type(v, q), q, {}))) == expected
                assert star_of_vertex(v, q).num_facets == expected

    def test_s_v_is_every_order_of_the_label_chains(self):
        for k in range(2, 7):
            perms = list(itertools.permutations(range(1, k + 1)))
            for q in range(1, 5):
                for v in vertex_set(k, q):
                    t = vertex_type(v, q)
                    chains = subdivision._label_chains(t)
                    brute = {
                        pi for pi in perms
                        if all([x for x in pi if x in c] == list(c) for c in chains)
                    }
                    got = [walked_pi(F) for F in subdivision.star_facets(v, t, q, {})]
                    assert len(set(got)) == len(got)
                    assert set(got) == brute, (k, q, v)

    @pytest.mark.parametrize(
        "pi,walk",
        [((3, 1, 2), "(-1, 2)"), ((2, 1, 3), "(0, 4)")],
        ids=["wrap below 0", "raise past q"],
    )
    def test_walk_off_the_subdivision_rejected(self, monkeypatch, pi, walk):
        # S_(0, 3) is {(1, 3, 2)}, one label chain.  Read as pi instead, the
        # chain wraps before coordinate 1 is raised, which takes the walk
        # below 0, or raises coordinate 2, which takes it past q.
        monkeypatch.setattr(subdivision, "_label_chains", lambda t: (pi,))
        message = f"star of (0, 3): walk {pi} leaves T: [(0, 3), {walk}]"
        with pytest.raises(DisagreementError, match=f"^{re.escape(message)}$"):
            star_of_vertex((0, 3), 3)

    def test_repeated_permutation_rejected(self, monkeypatch):
        # The first walk, yielded twice, matches the first model walk; it is
        # named as it comes again, in the place of the second.
        real = subdivision.star_facets
        monkeypatch.setattr(
            subdivision, "star_facets",
            lambda *args: itertools.chain(itertools.islice(real(*args), 1), real(*args)),
        )
        first = ((0, (0, 0, 0)), (0, (1, 0, 0)), (0, (1, 1, 0)))
        second = ((0, (0, 0, 0)), (0, (1, 0, 0)), (0, (1, 0, 1)))
        message = (f"link of ((1, 2),): walk 1 ((1, 2), (0, 1), (1, 1)) maps to {first};"
                   f" model walk 1 is {second}")
        with pytest.raises(DisagreementError, match=f"^{re.escape(message)}$"):
            link_of_vertex((1, 2), 3)

    def test_star_walks_match_the_word_oracle(self, monkeypatch):
        # The same walks in the same order as one _walk per listed word, and,
        # with the label chains reversed or rotated, the same walk-off message
        # (the same pi and walk so far) or the same walks.
        def outcome(walks):
            try:
                return list(walks)
            except DisagreementError as exc:
                return str(exc)

        real = subdivision._label_chains
        grids = [(2, 3), (3, 3), (4, 3), (5, 3), (4, 5), (5, 2), (6, 2)]
        for bend in (None, lambda c: c[::-1], lambda c: c[1:] + c[:1]):
            if bend:
                monkeypatch.setattr(
                    subdivision, "_label_chains", lambda t, f=bend: tuple(map(f, real(t)))
                )
            for k, q in grids:
                for v in vertex_set(k, q):
                    t = vertex_type(v, q)
                    walked = outcome(subdivision.star_facets(v, t, q, {}))
                    assert walked == outcome(star_walks_by_words(v, t, q)), (bend, k, q, v)
                    assert bend or not isinstance(walked, str)

    def test_face_cut_keeps_the_walks_through_it(self):
        # Asked for points at some depths, the walker yields exactly the
        # oracle's walks that hold them there, in the oracle's order.
        for k, q in [(3, 3), (4, 3), (4, 4), (5, 2)]:
            for v in vertex_set(k, q):
                t = vertex_type(v, q)
                walks = list(star_walks_by_words(v, t, q))
                for depths in itertools.combinations(range(1, k), 2):
                    for face in {tuple((p, W[p]) for p in depths) for W in walks}:
                        want = dict(face)
                        kept = [W for W in walks if all(W[p] == u for p, u in face)]
                        assert list(subdivision.star_facets(v, t, q, want)) == kept, (v, face)

    def test_star_walks_match_the_encoder(self):
        # Walked from v with no code, each star facet is the facet that the
        # encoder names for the pi it walks.
        for k, q in [(3, 3), (4, 3), (5, 2)]:
            for v in vertex_set(k, q):
                for F in subdivision.star_facets(v, vertex_type(v, q), q, {}):
                    pi = walked_pi(F)
                    assert code_of_facet(F, q) == facet_code_for_permutation(v, pi), (v, pi)

    def test_star_is_vertex_join_link(self):
        for v in [(0, 1), (1, 1), (0, 2, 3), (1, 1, 2)]:
            q = 3
            S = star_of_vertex(v, q)
            L = link_complex((v,), q)
            assert S == join(SimplicialComplex([(v,)]), L)


class TestVertexLinks:
    def test_links_certify_small_grid(self):
        for k, q in [(3, 3), (4, 2), (4, 4)]:
            for v in vertex_set(k, q):
                link_of_vertex(v, q)

    def test_link_vertex_count(self):
        for k, q in [(3, 3), (4, 3), (5, 2)]:
            for v in vertex_set(k, q):
                lam = vertex_partition(v, q)
                L = link_complex((v,), q)
                assert len(L.vertices) == math.prod(p + 1 for p in lam) - 2
                assert link_of_vertex(v, q).num_facets == L.num_facets

    def test_interior_link_is_barycentric_sphere(self):
        v = (1, 2, 3)
        L = link_complex((v,), 4)
        assert find_isomorphism(L, k_lambda((1, 1, 1, 1)), max_vertices=24) is not None

    def test_all_link_types_realized(self):
        # Witness vertices: mu = (m_1, ..., m_s) gives the vertex with m_1 - 1
        # zeros then blocks of 1s, 2s, ...; its partition is mu re-sorted.
        k, q = 5, 5
        seen = set()
        for v in vertex_set(k, q):
            seen.add(vertex_partition(v, q))
        assert seen == set(partitions(k))


class TestFaceLinks:
    def test_block_decomposition_example(self):
        face = [
            (1, 1, 3, 3, 3, 6, 7),
            (2, 2, 3, 3, 3, 6, 8),
            (2, 2, 3, 3, 4, 7, 8),
        ]
        report = link_of_face(face, 9)
        assert report.blocks == ((1, 2, 7), (5, 6), (3, 4, 8))
        assert report.link_class.block_sizes == (3, 3, 2)
        assert report.link_class.signatures == (
            (1, 1),
            (2, 1),
            (2, 1),
        )
        assert report.link_class.simplex_part == 0

    def test_single_vertex_face_matches_vertex_route(self):
        q = 3
        for v in vertex_set(4, q):
            report = link_of_face([v], q)
            lam = vertex_partition(v, q)
            assert report.link_class.signatures == (lam,)
            assert report == link_of_vertex(v, q)

    def test_facet_face_has_empty_link(self):
        chain = decode_facet((1, 0, 2), 3)
        report = link_of_face(chain, 3)
        assert report.num_facets == 1
        assert link_complex(chain, 3) == SimplicialComplex([()])
        assert all(sum(s) == 1 for s in report.link_class.signatures)

    def test_edge_faces_certify(self):
        K = build_complex(4, 3)
        edges = {f for f in K.faces() if len(f) == 2}
        for edge in edges:
            link_of_face(tuple(edge), 3)

    def test_non_face_rejected(self):
        with pytest.raises(ValueError):
            link_of_face([(0, 0), (1, 2)], 2)
        with pytest.raises(ValueError):
            link_of_face([], 2)

    def test_non_face_rejected_before_any_star_is_listed(self, monkeypatch):
        # At k = 9 the bottom vertex's star has 9! facets.
        def listed(v, t, q, face):
            raise AssertionError(f"listed the star of {v}")

        monkeypatch.setattr(subdivision, "star_facets", listed)
        face = [(1, 2, 3, 4, 5, 6, 7, 8), (3, 4, 5, 6, 7, 8, 9, 9)]
        with pytest.raises(ValueError, match="is not a face of the subdivision"):
            link_of_face(face, 10)

    def test_star_missing_the_face_is_a_breach(self, monkeypatch):
        # The face's vertices are the first model walk's block bottoms.
        monkeypatch.setattr(subdivision, "star_facets", lambda v, t, q, face: ())
        message = ("link of ((1, 1), (1, 2)):"
                   " model walk 0 ((0, (0,)), (1, (0, 0)), (1, (1, 0))) has no preimage")
        with pytest.raises(DisagreementError, match=f"^{re.escape(message)}$"):
            link_of_face([(1, 2), (1, 1)], 3)

    def test_face_walks_only_the_facets_through_it(self, monkeypatch):
        # The 3-vertex face's link has 720 facets; the star of its bottom
        # vertex has 8! = 40 320, and none of the others is yielded.
        real = subdivision.star_facets
        walked = []

        def counted(*args):
            for F in real(*args):
                walked.append(1)
                yield F

        monkeypatch.setattr(subdivision, "star_facets", counted)
        face = [(1, 2, 3, 4, 5, 6, 7), (2, 2, 3, 4, 5, 6, 7), (2, 3, 3, 4, 5, 6, 7)]
        assert link_of_face(face, 9).num_facets == len(walked) == 720

    def test_links_neither_encode_nor_decode(self, monkeypatch):
        # Stars are walked from their vertex: no code is made or read, and
        # no word of S_v is listed.
        faces = [tuple(face) for face in build_complex(4, 3).faces() if face]
        calls = []
        for name in ("decode_facet", "facet_code_for_permutation", "distinct_permutations"):
            real = getattr(subdivision, name)
            monkeypatch.setattr(subdivision, name, lambda *a, f=real: calls.append(a) or f(*a))
        for face in faces:
            link_of_face(face, 3)
        for v in vertex_set(4, 3):
            link_of_vertex(v, 3)
        assert calls == []

    def test_simplex_part_key(self):
        # A face whose blocks all have one value group yields a simplex link.
        chain = decode_facet((0, 0, 0), 3)
        face = [chain[0], chain[3]]
        report = link_of_face(face, 3)
        p = report.link_class.simplex_part
        assert report.link_class.join_parts == ()
        L = link_complex(face, 3)
        assert L == SimplicialComplex([L.vertices])
        assert len(L.vertices) == p

    @pytest.mark.parametrize("face", [[(1, 1, 2)], [(1, 1, 2), (1, 2, 2)]])
    def test_link_is_the_only_complex_built(self, monkeypatch, face):
        # The link is certified as the star is walked: not even L is a
        # complex now, yet its facet count is the oracle complex's.
        expected = len(link_complex(face, 3).facets)
        built = []
        real = subdivision.SimplicialComplex
        monkeypatch.setattr(
            subdivision, "SimplicialComplex", lambda facets: built.append(1) or real(facets)
        )
        report = link_of_face(face, 3)
        assert built == []
        assert report.num_facets == expected

    def test_facets_share_vertex_tuples(self):
        facets = certify_order(shelling_order(4, 3), 3)[0]
        vertices = [u for F in facets for u in F]
        assert len({id(u) for u in vertices}) == len(set(vertices))


class TestLinkCertificate:
    """The constructed map certifies each link; the generic isomorphism
    search, which no verb calls, stays an independent oracle."""

    def test_search_oracle_confirms_models(self):
        for k in (2, 3, 4):
            for q in (1, 2, 3, 4):
                for v in vertex_set(k, q):
                    report = link_of_face([v], q)
                    model = join_of_relabelled_factors(report.link_class.signatures)
                    assert find_isomorphism(link_complex([v], q), model) is not None, (k, q, v)
        for face in build_complex(4, 3).faces():
            if face:
                report = link_of_face(tuple(face), 3)
                model = join_of_relabelled_factors(report.link_class.signatures)
                assert find_isomorphism(link_complex(face, 3), model) is not None, face

    def test_one_part_model_rejected(self, monkeypatch):
        # The hexagon's first walk against the one walk of K_(3).
        real = subdivision._model_walks
        monkeypatch.setattr(
            subdivision, "_model_walks", lambda sigmas: real(tuple((sum(s),) for s in sigmas))
        )
        message = (
            "link of ((1, 2),): walk 0 ((1, 2), (0, 1), (1, 1)) maps to"
            " ((0, (0, 0, 0)), (0, (1, 0, 0)), (0, (1, 1, 0)));"
            " model walk 0 is ((0, (0,)), (0, (1,)), (0, (2,)))"
        )
        with pytest.raises(DisagreementError, match=f"^{re.escape(message)}$"):
            link_of_vertex((1, 2), 3)

    def test_off_model_facet_rejected(self, monkeypatch):
        # The link of (1, 2) is a hexagon.  Bending its second star walk swaps
        # the link edge {(0, 1), (0, 2)} for {(0, 1), (2, 3)}: (2, 3) walks
        # labels 1 and 2 where (0, 2) walks 2 and 3, so the walk's image parts
        # from the second model walk at its last point.
        real = subdivision.star_facets
        kept, bent = ((1, 2), (0, 1), (0, 2)), ((1, 2), (0, 1), (2, 3))

        def bent_star(v, t, q, face):
            return [bent if F == kept else F for F in real(v, t, q, face)]

        monkeypatch.setattr(subdivision, "star_facets", bent_star)
        message = (
            "link of ((1, 2),): walk 1 ((1, 2), (0, 1), (2, 3)) maps to"
            " ((0, (0, 0, 0)), (0, (1, 0, 0)), (0, (0, 1, 1)));"
            " model walk 1 is ((0, (0, 0, 0)), (0, (1, 0, 0)), (0, (1, 0, 1)))"
        )
        with pytest.raises(DisagreementError, match=f"^{re.escape(message)}$"):
            link_of_vertex((1, 2), 3)

    def test_dropped_star_facet_rejected(self, monkeypatch):
        # With its first walk dropped, the link's second walk stands where the
        # first model walk, a facet of the join, is named.
        face = [(1, 1, 2), (1, 2, 2)]
        sigmas = block_signatures(link_of_face(face, 3), 3)
        first = next(subdivision._model_walks(sigmas))
        real = subdivision.star_facets
        monkeypatch.setattr(
            subdivision, "star_facets", lambda *args: itertools.islice(real(*args), 1, None)
        )
        with pytest.raises(DisagreementError, match=f"; model walk 0 is {re.escape(str(first))}$"):
            link_of_face(face, 3)
        assert frozenset(first) - bottoms(sigmas) in join_of_relabelled_factors(sigmas).facets

    def test_dropped_walk_stops_the_star(self, monkeypatch):
        # The star of (1, ..., 7) has 8! walks.  The one after a dropped walk
        # stands in its place and is named there: the star is entered once
        # and left after two walks, with no second enumeration.
        real = subdivision.star_facets
        entered, taken = [], []

        def dropped(*args):
            entered.append(args[0])
            walks = real(*args)
            for n, F in enumerate(walks):
                taken.append(F)
                if n != 1:
                    yield F

        monkeypatch.setattr(subdivision, "star_facets", dropped)
        with pytest.raises(DisagreementError, match=r"^link of \(\(1, 2, 3, 4, 5, 6, 7\),\): walk 1 "):
            link_of_vertex((1, 2, 3, 4, 5, 6, 7), 9)
        assert entered == [(1, 2, 3, 4, 5, 6, 7)]
        assert len(taken) == 3

    def test_partition_off_the_model_rejected(self, monkeypatch):
        monkeypatch.setattr(VertexType, "partition", lambda self: (3,))
        message = "link of (1, 2): run structure gives (3,), the model (1, 1, 1)"
        with pytest.raises(DisagreementError, match=re.escape(message)):
            link_of_vertex((1, 2), 3)

    def test_collision_names_both_vertices(self, monkeypatch):
        # One group per block: the map forgets which labels were walked.  The
        # walk that brings the second vertex to a taken point is named.
        link = link_complex([(1, 2)], 3)
        monkeypatch.setattr(subdivision, "_block_groups", lambda block, b, q: [block])
        with pytest.raises(DisagreementError, match="both map to") as exc:
            link_of_vertex((1, 2), 3)
        walk, pair = re.fullmatch(r"link of \(\(1, 2\),\): walk (.*): (.*) both map to .*",
                                  str(exc.value)).groups()
        named = [u for u in link.vertices if str(u) in pair]
        assert len(named) == 2
        assert any(str(u) in walk for u in named)


def join_of_relabelled_factors(sigmas) -> SimplicialComplex:
    """The model of a link built one join at a time, each K_sigma
    relabelled (idx, x) first: the oracle for the model walks.  A block's
    sigma is in the order of its groups, so K_sigma is built on sigma sorted
    and its coordinates are put back in sigma's order."""
    result = SimplicialComplex([()])
    for idx, sigma in enumerate(sigmas):
        if sum(sigma) > 1:
            order = sorted(range(len(sigma)), key=lambda j: -sigma[j])
            back = [order.index(j) for j in range(len(sigma))]
            facets = k_lambda(tuple(sigma[j] for j in order)).facets
            factor = SimplicialComplex(
                tuple((idx, tuple(y[m] for m in back)) for y in F) for F in facets)
            result = join(result, factor)
    return result


def block_signatures(report, q):
    """The signatures of a face link's blocks, in block order."""
    b = report.face[0]
    return tuple(
        tuple(map(len, subdivision._block_groups(frozenset(block), b, q)))
        for block in report.blocks
    )


def walked_pi(walk) -> tuple[int, ...]:
    """The pi of S_v that a star walk from v follows: each step's label (the
    coordinate it raises, or k for the wrap that lowers all), then the one
    label left."""
    k = len(walk)
    labels = [
        next((j for j, (a, b) in enumerate(zip(lower, upper), 1) if b > a), k)
        for lower, upper in zip(walk, walk[1:])
    ]
    return (*labels, *set(range(1, k + 1)).difference(labels))


def model_word(walk, sigmas) -> tuple[tuple[int, int], ...]:
    """The (block, group) raised at each step of a model walk, the last step
    of each block, to its top, included."""
    word = []
    for (i, x), after in zip(walk, (*walk[1:], None)):
        y = after[1] if after and after[0] == i else sigmas[i]
        word += [(i, j) for j, (a, b) in enumerate(zip(x, y)) if b > a]
    return tuple(word)


def bottoms(sigmas) -> set:
    """The model point of each block's bottom, where face vertex i maps."""
    return {(i, (0,) * len(sigma)) for i, sigma in enumerate(sigmas)}


def certify_alone(walks, sigmas) -> str:
    """The certificate's verdict on these walks of model points: "" when
    they pass, else the message."""
    try:
        subdivision._certify(walks, lambda x: x, sigmas, "alone")
    except DisagreementError as exc:
        return str(exc)
    return ""


class TestModelLinkComplex:
    """The model walks in _certify against the model complex built by joins,
    which the library never lists."""

    def test_matches_joins_on_every_face_of_t43(self, monkeypatch):
        # Every face's walks map one by one onto the model walks, which, less
        # their block bottoms, are the join's facets.
        seen = []
        real = subdivision._certify

        def recording(walks, point, sigmas, where):
            walks = list(walks)
            seen.append(sigmas)
            count = real(walks, point, sigmas, where)
            model = list(subdivision._model_walks(sigmas))
            assert [tuple(map(point, F)) for F in walks] == model, where
            drop = bottoms(sigmas)
            assert {frozenset(G) - drop for G in model} == join_of_relabelled_factors(sigmas).facets
            return count

        monkeypatch.setattr(subdivision, "_certify", recording)
        for face in build_complex(4, 3).faces():
            if face:
                link_of_face(tuple(face), 3)
        assert {len(sigmas) for sigmas in seen} == {1, 2, 3, 4}

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_joins_on_every_partition(self, k):
        # Less their block bottoms, the model walks are the join's facets,
        # each once, in the lex order of their words over (block, group):
        # the order in which star_facets takes the label chains.
        for lam in partitions(k):
            for sigmas in ((lam,), ((1,), lam, (2,), lam)):
                model = join_of_relabelled_factors(sigmas)
                assert model.num_facets == math.prod(map(multinomial, sigmas)), sigmas
                walks = list(subdivision._model_walks(sigmas))
                assert len(walks) == model.num_facets, sigmas
                assert {frozenset(G) - bottoms(sigmas) for G in walks} == model.facets, sigmas
                assert all(len(G) == sum(map(sum, sigmas)) for G in walks), sigmas
                words = [model_word(G, sigmas) for G in walks]
                assert words == sorted(set(words)), sigmas
                assert subdivision._certify(walks, lambda x: x, sigmas, "") == len(walks)

    @pytest.mark.parametrize(
        "sigmas", [((2, 1),), ((1, 1, 1),), ((2, 2),), ((1, 1), (2,)), ((1,), (1, 1), (1,))]
    )
    def test_rule_accepts_exactly_the_model_facets(self, sigmas):
        # In place of model walk n, a walk whose point at one depth is any
        # point of any box passes exactly when it is model walk n; the first
        # walk that differs is named.
        model = list(subdivision._model_walks(sigmas))
        points = [
            (i, x) for i, sigma in enumerate(sigmas)
            for x in itertools.product(*(range(top + 1) for top in sigma))
        ]
        for n, G in enumerate(model):
            for depth, x in itertools.product(range(len(G)), points):
                walk = G[:depth] + (x,) + G[depth + 1 :]
                verdict = certify_alone(model[:n] + [walk] + model[n + 1 :], sigmas)
                if walk == G:
                    assert verdict == "", (n, walk)
                else:
                    want = f"alone: walk {n} {walk} maps to {walk}; model walk {n} is {G}"
                    assert verdict == want, (n, walk, verdict)

    def test_rule_rejects_points_off_the_box(self):
        # (2, -2, 1) has the rank of (0, 1, 0), and a point with a coordinate
        # too many lies in no box at all.  In place of a chain point or past
        # the end of a whole walk, each is named with its walk.
        sigmas = ((1, 1, 1),)
        model = list(subdivision._model_walks(sigmas))
        G = model[2]
        assert G[1] == (0, (0, 1, 0))
        for bad in [(0, (2, -2, 1)), (0, (0, 1, 0, 0))]:
            for walk in (G[:1] + (bad,) + G[2:], G + (bad,)):
                verdict = certify_alone(model[:2] + [walk], sigmas)
                assert verdict == f"alone: walk 2 {walk} maps to {walk}; model walk 2 is {G}"
        verdict = certify_alone(model + [G], sigmas)
        assert verdict == f"alone: walk 6 {G} maps to {G}; the model has 6 walks"

    def test_single_label_blocks_give_the_empty_complex(self):
        for n in (1, 2, 4):
            sigmas = ((1,),) * n
            assert join_of_relabelled_factors(sigmas) == SimplicialComplex([()])
            walk = tuple((i, (0,)) for i in range(n))
            assert list(subdivision._model_walks(sigmas)) == [walk]
            assert subdivision._certify([walk], lambda x: x, sigmas, "") == 1
            message = f": model walk 0 {walk} has no preimage"
            with pytest.raises(DisagreementError, match=f"^{re.escape(message)}$"):
                subdivision._certify([], lambda x: x, sigmas, "")


class TestLinkTypeCensus:
    def grid_census(self, k, q, t):
        K = build_complex(k, q)
        keys = set()
        for face in K.faces():
            if len(face) != t:
                continue
            keys.add(link_of_face(tuple(face), q).link_class.iso_key)
        return len(keys)

    @pytest.mark.parametrize("k,q", [(4, 1), (4, 2), (4, 3), (4, 4), (5, 2), (3, 3)])
    def test_formula_matches_census(self, k, q):
        for t in range(1, k + 1):
            assert self.grid_census(k, q, t) == count_link_types_of_faces(k, q, t), (
                k,
                q,
                t,
            )

    def test_vertex_type_count_consistency(self):
        for k in range(2, 8):
            for q in range(1, 8):
                assert count_link_types_of_faces(k, q, 1) == count_link_types(k, q)

    def test_facet_case_is_one(self):
        assert count_link_types_of_faces(6, 4, 6) == 1


class TestCountingTables:
    def test_corner_gap_partition(self):
        assert corner_support_partition((1, 4), 6) == (3, 3)
        assert corner_support_partition((2,), 6) == (6,)
        assert corner_support_partition((1, 2, 3, 4, 5, 6), 6) == (1,) * 6

    def test_face_counts_against_gap_census(self):
        for k in range(2, 9):
            census: dict = {}
            for s in range(1, k + 1):
                for sub in itertools.combinations(range(1, k + 1), s):
                    beta = corner_support_partition(sub, k)
                    census[beta] = census.get(beta, 0) + 1
            for beta in partitions(k):
                assert census.get(beta, 0) == count_faces_with_link_type(k, k, beta)

    def test_k6_table(self):
        expected = {
            (6,): 6,
            (5, 1): 6,
            (4, 2): 6,
            (3, 3): 3,
            (4, 1, 1): 6,
            (3, 2, 1): 12,
            (2, 2, 2): 2,
            (3, 1, 1, 1): 6,
            (2, 2, 1, 1): 9,
            (2, 1, 1, 1, 1): 6,
            (1, 1, 1, 1, 1, 1): 1,
        }
        for beta, count in expected.items():
            assert count_faces_with_link_type(6, 6, beta) == count
        assert sum(expected.values()) == 2**6 - 1

    def test_face_count_row_sums(self):
        for k in range(2, 9):
            for s in range(1, k + 1):
                total = sum(
                    count_faces_with_link_type(k, k, beta) for beta in partitions(k, s)
                )
                assert total == math.comb(k, s)

    def test_zero_when_too_few_levels(self):
        assert count_faces_with_link_type(4, 2, (1, 1, 1, 1)) == 0
        assert count_faces_with_link_type(4, 2, (2, 2)) == 2
        assert count_faces_with_link_type(4, 2, (3, 1)) == 4
        assert count_faces_with_link_type(3, 1, (2, 1)) == 0

    def test_q_sequence_table(self):
        assert q_sequence(9) == (1, 3, 7, 16, 34, 74, 151, 312, 625, 1245)

    def test_distinct_links_table(self):
        expected = (2, 5, 12, 28, 62, 136, 287, 599, 1224, 2469)
        for m, value in enumerate(expected):
            assert count_distinct_links_dim(m) == value

    def test_distinct_links_realized_at_diagonal(self):
        for m in range(5):
            k = q = 2 * m + 2
            assert count_link_types_of_faces(k, q, m + 1) == count_distinct_links_dim(m)

    def test_link_type_count_examples(self):
        # Partitions of k with at most min(k, q) parts.
        assert count_link_types(3, 1) == 1
        assert count_link_types(3, 2) == 2
        assert count_link_types(3, 3) == 3
        assert count_link_types(6, 2) == 4
        assert count_link_types(6, 99) == 11


class TestOffExport:
    def parse(self, text: str):
        lines = [line for line in text.splitlines() if line]
        if lines[0] == "OFF":
            dim = 3
            counts_at = 1
        else:
            assert lines[0] == "nOFF"
            dim = int(lines[1])
            counts_at = 2
        nv, nf, _ = map(int, lines[counts_at].split())
        verts = [
            tuple(int(float(c)) for c in line.split())
            for line in lines[counts_at + 1 : counts_at + 1 + nv]
        ]
        facets = []
        for line in lines[counts_at + 1 + nv :]:
            parts = list(map(int, line.split()))
            assert parts[0] == len(parts) - 1
            facets.append([verts[i] for i in parts[1:]])
        return dim, verts, facets

    def test_roundtrip_small(self):
        for k, q in [(2, 3), (3, 2), (4, 2), (5, 2)]:
            text = "".join(off_export(k, q))
            dim, verts, facets = self.parse(text)
            pad = dim - (k - 1)
            stripped = [v[: k - 1] for v in verts]
            assert all(v[k - 1 :] == (0,) * pad for v in verts)
            K = SimplicialComplex(
                [tuple(v[: k - 1] for v in F) for F in facets]
            )
            assert K == build_complex(k, q)
            assert sorted(stripped) == sorted(vertex_set(k, q))

    def test_header_variants(self):
        assert "".join(off_export(3, 2)).startswith("OFF\n")
        assert "".join(off_export(4, 2)).startswith("OFF\n")
        assert "".join(off_export(5, 2)).startswith("nOFF\n4\n")

    def test_deterministic(self):
        assert "".join(off_export(4, 3)) == "".join(off_export(4, 3))

    def test_capacity_before_the_first_line(self):
        with pytest.raises(CapacityError):
            off_export(4, 3, max_facets=26)
