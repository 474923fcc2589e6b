"""Property-based invariants over randomly drawn instances."""

import json

from hypothesis import example, given, settings, strategies as st

from edgewise import cli
from edgewise.combinat import partitions as gen_partitions
from edgewise.complexes import SimplicialComplex, join
from edgewise.posets import h_k_lambda
from edgewise.shelling import (
    ascent_positions,
    h_by_binomial,
    h_by_polynomial,
    h_by_recurrence,
)
from edgewise.subdivision import (
    decode_facet,
    is_vertex,
    link_of_vertex,
    number_of_facets,
    star_of_vertex,
    vertex_partition,
)
from oracles import (code_of_facet, h_k_lambda_from_complex, h_vector, link_complex,
                     ridge_neighbors)

kq = st.tuples(st.integers(2, 6), st.integers(1, 4))


@st.composite
def code_q(draw):
    k, q = draw(kq)
    code = tuple(draw(st.integers(0, q - 1)) for _ in range(k - 1))
    return code, q


@st.composite
def vertex_q(draw):
    k, q = draw(kq)
    coords = sorted(draw(st.integers(0, q)) for _ in range(k - 1))
    return tuple(coords), q


@given(code_q())
def test_code_round_trip(data):
    code, q = data
    chain = decode_facet(code, q)
    assert code_of_facet(chain, q) == code


@given(code_q(), st.randoms(use_true_random=False))
def test_code_recovered_from_any_vertex_order(data, rng):
    code, q = data
    chain = list(decode_facet(code, q))
    rng.shuffle(chain)
    assert code_of_facet(chain, q) == code


@given(code_q())
def test_decoded_chain_shape(data):
    code, q = data
    chain = decode_facet(code, q)
    k = len(code) + 1
    assert len(chain) == len(set(chain)) == k
    assert chain[0] == tuple(sorted(code))
    assert chain[-1] == tuple(c + 1 for c in chain[0])
    for lower, upper in zip(chain, chain[1:]):
        diff = [u - l for u, l in zip(upper, lower)]
        assert all(d in (0, 1) for d in diff)
        assert sum(diff) == 1
    for v in chain:
        assert is_vertex(v, q)


@given(code_q())
def test_ridge_neighbors_share_all_but_one_vertex(data):
    code, q = data
    k = len(code) + 1
    facet = set(decode_facet(code, q))
    neighbors = ridge_neighbors(code, q)
    assert set(neighbors) == set(range(1, k + 1))
    for other in neighbors.values():
        if other is None:
            continue
        assert other != code
        shared = facet & set(decode_facet(other, q))
        assert len(shared) == k - 1


@given(code_q())
def test_ridge_neighbors_symmetric(data):
    code, q = data
    for other in ridge_neighbors(code, q).values():
        if other is None:
            continue
        assert code in ridge_neighbors(other, q).values()


@given(vertex_q())
@settings(deadline=None)
def test_star_is_vertex_join_link(data):
    v, q = data
    star = star_of_vertex(v, q)
    lk = link_complex((v,), q)
    assert link_of_vertex(v, q).num_facets == lk.num_facets
    assert star == join(SimplicialComplex([(v,)]), lk)


@given(vertex_q())
def test_vertex_partition_partitions_k(data):
    v, q = data
    k = len(v) + 1
    lam = vertex_partition(v, q)
    assert sum(lam) == k
    assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))
    assert all(p >= 1 for p in lam)


@given(st.integers(2, 9), st.integers(1, 9))
def test_h_formula_routes_agree_widely(k, q):
    h = h_by_recurrence(k, q)
    assert h == h_by_binomial(k, q)
    assert h == h_by_polynomial(k, q)
    assert sum(h) == number_of_facets(k, q)
    assert h[0] == 1 and h[k] == 0


@given(code_q())
def test_ascents_bounded_by_dimension(data):
    code, q = data
    assert 0 <= len(ascent_positions(code)) <= len(code)


SMALL_PARTITIONS = [lam for n in range(2, 7) for lam in gen_partitions(n)]


@given(st.sampled_from(SMALL_PARTITIONS))
@settings(deadline=None, max_examples=30)
def test_model_complex_h_routes_agree(lam):
    assert h_k_lambda(lam) == h_k_lambda_from_complex(lam)


@given(vertex_q())
@settings(deadline=None, max_examples=50)
def test_link_h_vector_matches_model(data):
    v, q = data
    lam = vertex_partition(v, q)
    lk = link_complex((v,), q)
    if sum(lam) >= 2:
        assert h_vector(lk) == h_k_lambda(lam)


# JSON values as the reports hold them: ints, bools, None, floats and
# strings (any code point json.dumps escapes), in dicts, lists and tuples,
# empty ones too.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=24,
)


def streamed(value) -> str:
    return "".join(cli._json_lines(value))


def dumped(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


# Rows of bools and of floats equal to rows of ints, empty containers, and
# one row of ints at two depths: each must render as json.dumps does, memo or
# not, so a float or bool row never takes an int row's memo entry.
@given(json_values)
@example([[(1, 0), (1, 0)], [(True, False), (True, False)]])
@example([[(1, 0)], [(1.0, 0.0)], [(True, False)]])
@example({"\u00e9": [(), {}, []], "": [[()]]})
@example([[(1, 2)], [[(1, 2)]]])
def test_json_writer_matches_json_dumps(value):
    assert streamed(value) == dumped(value)


@given(st.lists(json_values, max_size=6))
def test_json_writer_streams_a_generator_as_a_list(items):
    """A list handed over as a generator, at the top, as a dict value and as
    an item of a list, renders as the list itself."""
    for wrap in (lambda v: v, lambda v: {"rows": v, "n": 1}, lambda v: [0, v]):
        assert streamed(wrap(x for x in items)) == dumped(wrap(items))


# build's rows: nonempty tuples of ints, and (code, chain) pairs of them.
int_rows = st.lists(st.integers(), min_size=1, max_size=3).map(tuple)
facet_pairs = st.tuples(int_rows, st.lists(int_rows, min_size=1, max_size=3).map(tuple))


@given(st.lists(facet_pairs, max_size=4), st.lists(int_rows, max_size=4))
def test_build_rows_render_as_their_lists(pairs, vertices):
    """build's facet and vertex markers, streamed at two depths, render from
    their templates as json.dumps renders the lists they stand for."""
    facets = [{"chain": chain, "code": code} for code, chain in pairs]
    for wrap in (lambda f, v: {"facets": f, "vertices": v},
                 lambda f, v: {"report": {"facets": f, "vertices": v}}):
        marked = wrap(cli._FacetRows(iter(pairs)), cli._IntTuples(iter(vertices)))
        assert streamed(marked) == dumped(wrap(facets, vertices))


def test_json_writer_memo_starts_over_when_full(monkeypatch):
    monkeypatch.setattr(cli, "MEMO_ROWS", 2)
    rows = [[(i, i + 1), (i, i + 1), (1, i)] for i in range(6)]
    keys = {f"key {i % 5}": [i, {f"key {i % 3}": i}] for i in range(7)}
    for value in (rows, keys):
        assert streamed(value) == dumped(value)
