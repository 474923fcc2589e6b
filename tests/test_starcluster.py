"""Star clusters: structured enumeration vs brute force, counts, shellings."""

import itertools
import re

import pytest

from edgewise import combinat, shelling, starcluster
from edgewise.combinat import des, eulerian_vector, init, x_sequence
from edgewise.complexes import DisagreementError, SimplicialComplex, verify_shelling
from edgewise.posets import k_lambda
from edgewise.shelling import certify_order
from edgewise.starcluster import (
    _cluster_walks,
    base_facet_code,
    sc_count_general_face,
    sc_count_inclusion_exclusion,
    sc_count_partition_formula,
    sc_h_formula,
    sc_layers,
    sc_shelling_and_h,
    shifted_reversal_inverse,
)
from edgewise.subdivision import build_complex, decode_facet
from oracles import facet_code_for_permutation, init_lex_order, init_shelling_order, star_cluster


def brute_star_cluster_facets(k, q, face):
    K = build_complex(k, q)
    return star_cluster(K, face).facets


def test_star_cluster_of_vertex_is_star():
    K = build_complex(3, 3)
    v = (1, 2)
    SC = star_cluster(K, [v])
    assert SC.facets == frozenset(F for F in K.facets if v in F)


def test_star_cluster_rejects_non_face():
    K = build_complex(3, 2)
    with pytest.raises(ValueError):
        star_cluster(K, [(0, 0), (2, 2)])


def test_interior_facet_code_checks():
    assert sum(1 for _ in sc_layers((1, 2), 4)) == x_sequence(4)[3]
    for base, q in [
        ((1, 2), 3),  # needs top <= q-2
        ((0, 1), 4),
        ((1, 1), 5),  # must rise strictly
        ((3, 1), 6),  # an interior facet, but not F(v, Id)
    ]:
        with pytest.raises(ValueError, match=r"F\(v, Id\)"):
            sc_layers(base, q)
    assert base_facet_code(3, 4) == (1, 2)
    with pytest.raises(ValueError):
        base_facet_code(4, 4)


def test_shifted_reversal_round_trip():
    for k in range(2, 6):
        perms = list(itertools.permutations(range(1, k + 1)))
        for j in range(1, k + 1):
            preimages = [shifted_reversal_inverse(sigma, j) for sigma in perms]
            assert sorted(preimages) == perms  # a bijection of S_k
            for sigma, pi in zip(perms, preimages):
                # sigma is the shifted reversal (pi_k + j)...(pi_1 + j) mod k
                assert all((pi[k - 1 - i] + j - sigma[i]) % k == 0 for i in range(k))


def test_shifted_reversal_example():
    # k=3, j=2: 123 -> (3+2)(2+2)(1+2) = 213 after reducing mod 3 into 1..3
    assert shifted_reversal_inverse((2, 1, 3), 2) == (1, 2, 3)


def test_sc_layers_calls_init_once_per_permutation(monkeypatch):
    calls = []
    real = combinat.init

    def counting(w):
        calls.append(w)
        return real(w)

    for module in (combinat, starcluster):
        if hasattr(module, "init"):
            monkeypatch.setattr(module, "init", counting)
    sc_layers((1, 2, 3, 4, 5, 6), 10)
    assert len(calls) == 5040


@pytest.mark.parametrize("k", [2, 3, 4])
def test_structured_enumeration_matches_brute_force(k):
    q = k + 3
    base = base_facet_code(k, q)
    chains = [chain for _, _, chain in sc_layers(base, q)]
    structured = {frozenset(chain) for chain in chains}
    assert len(structured) == len(chains)
    brute = brute_star_cluster_facets(k, q, decode_facet(base, q))
    assert structured == brute


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_layer_chains_are_the_encoded_facets(k):
    """Each row's chain, walked from its chain vertex along pi, is the facet
    the oracle encoder names for that vertex and pi, in order, for every
    interior base."""
    for q in (k + 3, k + 4):
        for base in itertools.combinations(range(1, q - 1), k - 1):
            chain = decode_facet(base, q)
            for layer, label, got in sc_layers(base, q):
                pi = label if layer == 1 else shifted_reversal_inverse(label, layer)
                want = decode_facet(facet_code_for_permutation(chain[layer - 1], pi), q)
                assert got == want, (base, layer, label)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_layer_sizes(k):
    q = k + 3
    X = x_sequence(k)
    report = sc_shelling_and_h(base_facet_code(k, q), q)
    fact = [1] * (k + 1)
    for i in range(1, k + 1):
        fact[i] = fact[i - 1] * i
    expected = []
    for j in range(1, k + 1):
        seen = sum(X[i - 1] * fact[k - i] for i in range(1, j))
        expected.append(fact[k] - seen)
    assert report.layer_sizes == tuple(expected)
    # layer j >= 2 holds the permutations with faithful initial part >= j
    by_init = {}
    for sigma in init_lex_order(k):
        by_init[init(sigma)] = by_init.get(init(sigma), 0) + 1
    for j in range(2, k + 1):
        assert report.layer_sizes[j - 1] == sum(
            n for i, n in by_init.items() if i >= j
        )


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
def test_count_routes_agree(k):
    ie = sc_count_inclusion_exclusion(k)
    part = sc_count_partition_formula(k)
    assert ie == part == x_sequence(k + 1)[k]


def test_count_k3_value():
    # 3 * 2! * 1!^2? no: by hand the three stars of size 6 overlap
    # pairwise in 2 facets and triple-wise in 1: 18 - 6 + 1 = 13
    assert sc_count_inclusion_exclusion(3) == 13


@pytest.mark.parametrize("k", [2, 3, 4])
def test_star_cluster_shelling_certificate(k):
    q = k + 3
    base = base_facet_code(k, q)
    report = sc_shelling_and_h(base, q)
    assert report.count_enumerated == report.count_inclusion_exclusion
    assert report.count_enumerated == report.count_partition_formula
    assert report.count_enumerated == report.x_value
    # restriction type of every facet is the descent count of its label
    rows = list(sc_layers(base, q))
    labels = [label for _, label, _ in rows]
    _, _, restrictions = certify_order((chain for _, _, chain in rows), labels)
    assert tuple(map(len, restrictions)) == tuple(map(des, labels))
    assert report.h == sc_h_formula(k) + (0,)


def test_star_cluster_h_k3():
    report = sc_shelling_and_h((1, 2), 6)
    assert report.count_enumerated == 13
    assert report.h == (1, 9, 3, 0)


def test_counts_disagree_raises(monkeypatch):
    count = starcluster.sc_count_partition_formula
    monkeypatch.setattr(starcluster, "sc_count_partition_formula", lambda k: count(k) + 1)
    with pytest.raises(DisagreementError, match="counts disagree: .*'count_partition_formula': 14"):
        sc_shelling_and_h((1, 2), 6)


def test_invalid_shelling_raises(monkeypatch):
    """A failed face count reruns sc_layers' rows through shell_chains, whose
    witness pair the error names."""
    scan = shelling.shell_chains
    monkeypatch.setattr(
        shelling, "shell_chains", lambda chains, n: (scan(chains, n)[0], (0, 1))
    )
    monkeypatch.setattr(starcluster, "f_star_cluster", lambda k: 1)
    with pytest.raises(DisagreementError, match=r"witness facets 0 \(1, 2, 3\), 1 \(1, 3, 2\)"):
        sc_shelling_and_h((1, 2), 6)


def test_h_off_formula_raises(monkeypatch):
    monkeypatch.setattr(starcluster, "sc_h_formula", lambda k: (1,) * k)
    with pytest.raises(DisagreementError, match=r"h \(1, 9, 3, 0\) is not the formula \(1, 1, 1\)"):
        sc_shelling_and_h((1, 2), 6)


def test_swapped_types_raise_despite_the_histogram(monkeypatch):
    """Two facet types swapped keep h but fail the per-facet des check."""
    kernel = starcluster.frontier_shelling

    def swap_types(chains, faces):
        restrictions, h = kernel(chains, faces)
        restrictions[0], restrictions[-1] = restrictions[-1], restrictions[0]
        return restrictions, h

    monkeypatch.setattr(starcluster, "frontier_shelling", swap_types)
    with pytest.raises(
        DisagreementError,
        match=re.escape("facet 0 label (1, 2, 3) chain [(1, 2), (2, 2), (2, 3)]"
                        " has restriction type 2, not des(label) = 0"),
    ):
        sc_shelling_and_h((1, 2), 6)


def test_sc_h_formula_totals():
    for k in range(2, 8):
        assert sum(sc_h_formula(k)) == x_sequence(k + 1)[k]


def test_rejects_non_interior_base():
    with pytest.raises(ValueError):
        sc_layers((0, 1), 5)
    with pytest.raises(ValueError):
        sc_layers((1, 2), 3)


@pytest.mark.parametrize(
    "face",
    [
        [(2, 3)],
        [(1, 2), (2, 3)],
        [(1, 2), (1, 3)],
        [(2, 4), (3, 4)],
        [(1, 3), (2, 3), (2, 4)],
    ],
)
def test_general_face_count_matches_brute_force(face):
    q = 6
    predicted = sc_count_general_face(face, q)
    assert predicted == len(brute_star_cluster_facets(3, q, face))


def test_general_face_count_k4():
    q = 7
    for face in ([(1, 2, 3)], [(1, 2, 3), (2, 3, 4)], [(1, 2, 3), (1, 2, 4), (2, 3, 4)]):
        predicted = sc_count_general_face(face, q)
        assert predicted == len(brute_star_cluster_facets(4, q, face))


def test_general_face_full_facet_matches_ie():
    for k, q in [(3, 6), (4, 7)]:
        base = base_facet_code(k, q)
        chain = decode_facet(base, q)
        assert sc_count_general_face(chain, q) == sc_count_inclusion_exclusion(k)


def test_general_face_vertex_is_factorial():
    assert sc_count_general_face([(2, 3)], 6) == 6
    assert sc_count_general_face([(1, 2, 3)], 7) == 24


def test_general_face_rejects_bad_input():
    with pytest.raises(ValueError):
        sc_count_general_face([(0, 2)], 6)  # boundary vertex
    with pytest.raises(ValueError):
        sc_count_general_face([(1, 2), (3, 4)], 6)  # not one facet step
    with pytest.raises(ValueError):
        sc_count_general_face([(1, 2), (2, 3, 4)], 9)  # vertices of different lengths
    with pytest.raises(ValueError):
        sc_count_general_face([(1, 2, 3), (1, 2, 4), (1, 2, 5)], 9)  # coordinate 3 raised twice


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_init_shelling_order(k):
    K, order = init_shelling_order(k)
    assert K.facets == k_lambda((1,) * k).facets
    cert = verify_shelling(K, order)
    assert cert.valid, cert.witness
    assert cert.types == tuple(des(pi) for pi in init_lex_order(k))
    assert cert.type_histogram() == eulerian_vector(k)


def test_init_lex_order_is_grouped_by_init():
    order = init_lex_order(4)
    assert sorted(order) == list(itertools.permutations(range(1, 5)))
    inits = [init(p) for p in order]
    assert inits == sorted(inits)
    # within one init value the order is lexicographic
    for value in set(inits):
        block = [p for p in order if init(p) == value]
        assert block == sorted(block)


def _keys(chain, q):
    """The walker's key of each vertex of a chain: sum_i u_i (q+1)^(i-1)."""
    return tuple(sum(x * (q + 1) ** i for i, x in enumerate(u)) for u in chain)


@pytest.mark.parametrize(
    "base,q", [(base_facet_code(k, k + 3), k + 3) for k in range(2, 8)] + [((1, 3, 4, 6), 9)]
)
def test_walker_rows_are_sc_layers_rows(base, q):
    """Each walked row is sc_layers' row: its layer, des of its label, and
    its chain's keys, which rise from bottom to top."""
    chain = decode_facet(base, q)
    walked = list(_cluster_walks(chain, q))
    rows = [(layer, des(label), _keys(facet, q)) for layer, label, facet in sc_layers(base, q)]
    assert walked == rows
    assert all(keys == tuple(sorted(keys)) for _, _, keys in rows)


def test_outside_neighbour_tamper():
    """The row and keys of the star-cluster tamper in test_cli: row 11 lies
    in layer 3, and keys (34, 35, 43) are a facet of T_{3,7} across one of
    its ridges, outside the cluster."""
    rows = list(sc_layers((1, 2), 7))
    layer, _, facet = rows[11]
    K = build_complex(3, 7)
    (neighbour,) = [F for F in K.facets if _keys(sorted(F, key=sum), 7) == (34, 35, 43)]
    assert layer == 3 and len(neighbour & set(facet)) == 2
    assert neighbour not in {frozenset(chain) for _, _, chain in rows}
