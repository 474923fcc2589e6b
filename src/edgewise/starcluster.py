"""Star clusters of interior faces and their shellings.

The star cluster of a face is the union of the closed stars of its vertices:
all facets that meet the face.  For a facet F(v, Id) whose k vertices are
interior lattice points, the star of the j-th chain vertex is a copy of S_k
(one facet per permutation), and a facet of the j-th star was already seen
in an earlier star exactly when the shifted reversal

    pi_1 ... pi_k  |->  (pi_k + j)(pi_{k-1} + j) ... (pi_1 + j)   (mod k)

has faithful initial part at most j-1.  Listing each star's new facets in
the init-then-lex order produces a shelling whose restriction types are the
descent counts of the shifted labels, so the h-vector of the cluster is
(1, 2, ..., k) times the init/descent table of S_k.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from math import factorial, prod

from .combinat import (
    cyclic_gaps,
    h_rows_recursive,
    partitions,
    permutations_by_init,
    x_sequence,
)
from .complexes import DisagreementError, check_cap, frontier_shelling
from .posets import f_star_cluster
from .shelling import WITNESS_FACETS, certify_order
from .subdivision import (
    _LEAVES_T,
    Code,
    Vertex,
    count_faces_with_link_type,
    decode_facet,
    face_chain,
    facet_of_permutation,
    is_interior_vertex,
    is_vertex,
    validate_kq,
)


def base_facet_code(k: int, q: int) -> Code:
    """The canonical interior facet F((1, 2, ..., k-1), Id); needs q >= k+1."""
    validate_kq(k, q)
    if q < k + 1:
        raise ValueError(f"no interior facet (1,...,{k - 1}) for q={q}; need q >= {k + 1}")
    return tuple(range(1, k))


def shifted_reversal_inverse(sigma: tuple[int, ...], j: int) -> tuple[int, ...]:
    """The pi whose shifted reversal (pi_k + j)...(pi_1 + j) mod k is sigma."""
    k = len(sigma)
    return tuple((sigma[k - 1 - i] - j - 1) % k + 1 for i in range(k))


def _interior_chain(base: Code, q: int) -> tuple[Vertex, ...]:
    """The chain of the base facet F(v, Id), whose code is its bottom vertex
    v; ValueError unless v is an interior vertex of T_{k,q-1}, or
    CapacityError when its star cluster has more than MAX_FACETS facets."""
    if not (is_vertex(base, q - 1) and is_interior_vertex(base, q - 1)):
        raise ValueError(
            f"{base} is not an interior facet F(v, Id) for q={q}: its code is its"
            " bottom vertex v, so entries must rise strictly from >=1 to <=q-2"
        )
    chain = decode_facet(base, q)
    check_cap(x_sequence(len(chain) + 1)[len(chain)])
    return chain


def sc_layers(base: Code, q: int):
    """The star cluster of an interior facet in shelling order, one (layer,
    label, chain) at a time: layer j, the star of chain vertex j less the
    earlier stars, lists the labels with faithful initial part j, ..., k,
    each group in lex order.  The label orders the facet (its star index pi
    in layer 1, pi's shifted reversal later), and the chain is walked from
    chain vertex j along pi.  ValueError or CapacityError, as
    _interior_chain raises them, before the first row."""
    chain = _interior_chain(base, q)
    return _layer_rows(chain, permutations_by_init(len(chain)), q)


def _layer_rows(chain, groups, q: int):
    """The rows of sc_layers, each facet walked by facet_of_permutation."""
    for j, v in enumerate(chain, 1):
        for sigma in itertools.chain.from_iterable(groups[t] for t in range(j, len(chain) + 1)):
            pi = sigma if j == 1 else shifted_reversal_inverse(sigma, j)
            yield j, sigma, facet_of_permutation(v, pi, q)


def _weights(k: int, q: int) -> list[int]:
    """(q+1)^(i-1) for each coordinate i: a point u's key is sum_i u_i
    (q+1)^(i-1), one int that no other point of T_{k,q} has."""
    return [(q + 1) ** i for i in range(k - 1)]


def _point(key: int, weights: list[int], q: int) -> Vertex:
    """The point whose key this is."""
    return tuple(key // w % (q + 1) for w in weights)


def _cluster_walks(chain, q: int):
    """sc_layers' facets, in its order, as (layer, des(label), keys), walked
    depth first with no label, facet or vertex tuple made.  A raise adds its
    coordinate's weight to a point's key and the wrap takes them all off:
    keys rise along a chain, and a row's sorted keys are its chain bottom to
    top.

    In layer j and init group t, sigma is an indecomposable permutation of
    [t] (its prefix maximum stays above the depth until depth t) followed by
    a permutation of t+1..k, in lex order.  Layer 1 walks forward from chain
    vertex 1 along sigma.  Layer j walks backward from chain vertex j, since
    pi = shifted_reversal_inverse(sigma, j) is sigma reversed, each letter s
    relabelled (s - j - 1) mod k + 1.  Each step makes _walk's one
    comparison; DisagreementError names the first step out of T by its
    vertex, the first pi through its prefix and the walk's points."""
    k = len(chain)
    weights = [0, *_weights(k, q)]
    everything = sum(weights)
    letters = tuple(range(1, k + 1))
    sigma, keys, free = [0] * k, [0] * k, [True] * (k + 1)

    def walks(j, label, t, depth, u, high, descents):
        """(des, keys) of each walk below the node where sigma[:depth] is
        taken and u, with 0 before it and q after it, is the point reached."""
        if depth == k - 1:
            yield descents + (sigma[depth - 1] > free.index(True, 1)), tuple(sorted(keys))
            return
        key, sign = keys[depth], 1 if j == 1 else -1
        for s in range(1, t + 1) if depth < t else range(t + 1, k + 1):
            if not free[s] or (depth + 1 < t and max(high, s) == depth + 1):
                continue
            step, n = u[:], label[s]
            if n < k:
                step[n] += sign
                off = step[n] > step[n + 1] if sign > 0 else step[n] < step[n - 1]
                keys[depth + 1] = key + sign * weights[n]
            else:
                step[1:k] = [x - sign for x in u[1:k]]
                off = step[1] < 0 if sign > 0 else step[k - 1] > q
                keys[depth + 1] = key - sign * everything
            if off:
                word = (*sigma[:depth], s, *(x for x in letters if free[x] and x != s))
                pi = word if j == 1 else shifted_reversal_inverse(word, j)
                points = [_point(y, weights[1:], q) for y in keys[:depth + 1]]
                raise DisagreementError(
                    _LEAVES_T.format(chain[j - 1], pi, [*points, tuple(step[1:k])]))
            sigma[depth], free[s] = s, False
            yield from walks(j, label, t, depth + 1, step, max(high, s),
                             descents + (depth > 0 and sigma[depth - 1] > s))
            free[s] = True

    for j, v in enumerate(chain, 1):
        # Letter s raises label[s] in layer 1 and lowers it after.
        label = (0, *(letters if j == 1 else shifted_reversal_inverse(letters, j)[::-1]))
        keys[0] = sum(map(operator.mul, v, weights[1:]))
        for t in range(j, k + 1):
            for row in walks(j, label, t, 0, [0, *v, q], 0, 0):
                yield (j, *row)


def _inclusion_exclusion(positions, k: int) -> int:
    """Star cluster size of the face at these increasing chain positions
    (in 1..k) of an interior facet, by inclusion-exclusion: a t-subset of
    the positions contributes (-1)^(t-1) times the product of the
    factorials of its cyclic gaps in [k]."""
    total = 0
    for t in range(1, len(positions) + 1):
        for subset in itertools.combinations(positions, t):
            total += (-1) ** (t - 1) * prod(factorial(g) for g in cyclic_gaps(subset, k))
    return total


def sc_count_inclusion_exclusion(k: int) -> int:
    """Star cluster size of an interior facet by inclusion-exclusion over
    its chain positions 1..k (the general-face count with every position)."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    return _inclusion_exclusion(range(1, k + 1), k)


def sc_count_partition_formula(k: int) -> int:
    """Star cluster size grouped by the cyclic gap partition:
    sum over partitions lam of k with s parts of (-1)^(s-1) times the
    number of faces of the region with link type lam, k (s-1)!/(prod of
    multiplicity factorials), times prod(lam_i!)."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    return sum(
        (-1) ** (len(lam) - 1) * count_faces_with_link_type(k, k, lam) * prod(map(factorial, lam))
        for lam in partitions(k)
    )


def sc_count_general_face(face, q: int) -> int:
    """Star cluster size of a face whose vertices are all interior.

    face_chain puts the face's vertices at chain positions x_1 < ... < x_m
    of any facet through the face; inclusion-exclusion over subsets of
    positions uses cyclic gap factorials exactly as in the single-facet case.
    """
    chain = face_chain(face, q)
    for v in chain:
        if not is_interior_vertex(v, q):
            raise ValueError(f"{v} is not an interior vertex for q={q}")
    return _inclusion_exclusion([1 + sum(v) - sum(chain[0]) for v in chain], len(chain[0]) + 1)


def sc_h_formula(k: int) -> tuple[int, ...]:
    """(1, 2, ..., k) times the init/descent table: entry d is the descent
    count d total of permutations weighted by their faithful initial part."""
    rows = h_rows_recursive(k)
    return tuple(
        sum((t + 1) * rows[t][d] for t in range(k)) for d in range(k)
    )


@dataclass(frozen=True)
class StarClusterReport:
    """Everything the structured star cluster enumeration establishes."""

    base_code: Code
    layer_sizes: tuple[int, ...]
    h: tuple[int, ...]
    count_enumerated: int
    count_inclusion_exclusion: int
    count_partition_formula: int
    x_value: int


def sc_shelling_and_h(base: Code, q: int) -> StarClusterReport:
    """Walk the star cluster of an interior facet, shell it, and cross-count.

    One pass over _cluster_walks feeds each row's keys to frontier_shelling
    against f_star_cluster(k), keeping only each row's des(label) and the
    layer sizes.  Each row of layer j must hold chain vertex j and none of
    chain vertices 1..j-1, so with the walker's distinct labels and x_k rows
    they are the cluster.  DisagreementError names the witness unless the
    count certifies the shelling, every facet's restriction type is
    des(label), the four counts agree and h is the weighted table formula
    followed by h_k = 0.  After a failure at most WITNESS_FACETS facets in,
    certify_order reruns sc_layers' rows through shell_chains to name the
    first bad pair, if there is one.
    """
    chain = _interior_chain(base, q)
    k = len(chain)
    weights = _weights(k, q)
    tops = [sum(map(operator.mul, v, weights)) for v in chain]
    earlier = [set(tops[:j]) for j in range(k)]
    sizes, types = [0] * k, bytearray()

    def walked():
        for j, (layer, d, keys) in enumerate(_cluster_walks(chain, q)):
            if tops[layer - 1] not in keys or not earlier[layer - 1].isdisjoint(keys):
                facet = [_point(y, weights, q) for y in keys]
                held = [i for i, top in enumerate(tops[:layer], 1) if top in keys]
                raise DisagreementError(
                    f"star cluster facet {j} in layer {layer}, chain {facet}, holds chain"
                    f" vertices {held} of 1..{layer}, not {layer} alone")
            sizes[layer - 1] += 1
            types.append(d)
            yield keys

    try:
        restrictions, h = frontier_shelling(walked(), f_star_cluster(k))
        for j, (d, rest) in enumerate(zip(types, restrictions)):
            if len(rest) != d:
                _, label, facet = next(itertools.islice(sc_layers(base, q), j, None))
                raise DisagreementError(
                    f"star cluster facet {j} label {label} chain {list(facet)}"
                    f" has restriction type {len(rest)}, not des(label) = {d}"
                )
    except DisagreementError:
        if len(types) <= WITNESS_FACETS:
            labels = []
            certify_order(
                (labels.append(label) or facet for _, label, facet in sc_layers(base, q)), labels)
        raise
    counts = {
        "count_enumerated": len(types),
        "count_inclusion_exclusion": sc_count_inclusion_exclusion(k),
        "count_partition_formula": sc_count_partition_formula(k),
        "x_value": x_sequence(k + 1)[k],
    }
    if len(set(counts.values())) != 1:
        raise DisagreementError(f"star cluster counts disagree: {counts}")
    if h != sc_h_formula(k) + (0,):
        raise DisagreementError(f"star cluster h {h} is not the formula {sc_h_formula(k)} + (0,)")
    return StarClusterReport(base_code=tuple(base), layer_sizes=tuple(sizes), h=h, **counts)
