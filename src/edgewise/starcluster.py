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
from dataclasses import dataclass
from math import factorial, prod

from .combinat import (
    cyclic_gaps,
    des,
    h_rows_recursive,
    partitions,
    permutations_by_init,
    x_sequence,
)
from .complexes import DisagreementError, check_cap, restriction_histogram
from .shelling import certify_order
from .subdivision import (
    Code,
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


def sc_layers(base: Code, q: int):
    """The star cluster of an interior facet in shelling order, one (layer,
    label, chain) at a time: layer j, the star of chain vertex j less the
    earlier stars, lists the labels with faithful initial part j, ..., k,
    each group in lex order.  The label orders the facet (its star index pi
    in layer 1, pi's shifted reversal later), and the chain is walked from
    chain vertex j along pi.  The base must be a facet F(v, Id), whose code
    is its bottom vertex v; the facet is interior exactly when v is an
    interior vertex of T_{k,q-1}.  ValueError, or CapacityError past
    MAX_FACETS facets, before the first row."""
    if not (is_vertex(base, q - 1) and is_interior_vertex(base, q - 1)):
        raise ValueError(
            f"{base} is not an interior facet F(v, Id) for q={q}: its code is its"
            " bottom vertex v, so entries must rise strictly from >=1 to <=q-2"
        )
    chain = decode_facet(base, q)
    k = len(chain)
    check_cap(x_sequence(k + 1)[k])
    return _layer_rows(chain, permutations_by_init(k), q)


def _layer_rows(chain, groups, q: int):
    """The rows of sc_layers, each facet walked by facet_of_permutation."""
    for j, v in enumerate(chain, 1):
        for sigma in itertools.chain.from_iterable(groups[t] for t in range(j, len(chain) + 1)):
            pi = sigma if j == 1 else shifted_reversal_inverse(sigma, j)
            yield j, sigma, facet_of_permutation(v, pi, q)


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
    """Build the star cluster of an interior facet, shell it, and cross-count.

    One pass over sc_layers feeds each chain to certify_order, the check that
    shells the whole subdivision, keeping the labels and layer sizes alone.
    DisagreementError names the witness unless the order is a shelling, the
    four counts agree, every facet's restriction type is des(label), and h
    is the weighted table formula followed by h_k = 0.
    """
    rows = sc_layers(base, q)
    k = len(base) + 1
    labels, sizes = [], [0] * k

    def walked():
        for layer, label, chain in rows:
            labels.append(label)
            sizes[layer - 1] += 1
            yield chain

    vertices, chains, restrictions = certify_order(walked(), labels)
    counts = {
        "count_enumerated": len(labels),
        "count_inclusion_exclusion": sc_count_inclusion_exclusion(k),
        "count_partition_formula": sc_count_partition_formula(k),
        "x_value": x_sequence(k + 1)[k],
    }
    if len(set(counts.values())) != 1:
        raise DisagreementError(f"star cluster counts disagree: {counts}")
    for j, (label, rest) in enumerate(zip(labels, restrictions)):
        if len(rest) != des(label):
            raise DisagreementError(
                f"star cluster facet {j} label {label} chain {[vertices[u] for u in chains[j]]}"
                f" has restriction type {len(rest)}, not des(label) = {des(label)}"
            )
    h = restriction_histogram(map(len, restrictions), k)
    if h != sc_h_formula(k) + (0,):
        raise DisagreementError(f"star cluster h {h} is not the formula {sc_h_formula(k)} + (0,)")
    return StarClusterReport(base_code=tuple(base), layer_sizes=tuple(sizes), h=h, **counts)
