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
    init,
    multiplicities,
    partitions,
    x_sequence,
)
from .complexes import DisagreementError, ShellingCertificate, SimplicialComplex
from .shelling import certify_order
from .subdivision import (
    Code,
    decode_facet,
    facet_code_for_permutation,
    is_interior_vertex,
)


def star_cluster(K: SimplicialComplex, sigma) -> SimplicialComplex:
    """Union of the closed stars of the vertices of the face sigma."""
    s = frozenset(sigma)
    if not K.has_face(s):
        raise ValueError(f"{set(sigma)} is not a face of the complex")
    return SimplicialComplex(F for F in K.facets if F & s)


def is_interior_facet_code(code: Code, q: int) -> bool:
    """True when the facet with this code lies entirely inside the region.

    The code of such a facet is its own bottom vertex: a strictly increasing
    tuple with 1 <= code[0] and code[-1] <= q-2, so that the whole chain up
    to v + (1,...,1) stays strictly inside.
    """
    return (
        all(isinstance(c, int) for c in code)
        and len(code) >= 1
        and code[0] >= 1
        and code[-1] <= q - 2
        and all(code[i] < code[i + 1] for i in range(len(code) - 1))
    )


def base_facet_code(k: int, q: int) -> Code:
    """The canonical interior facet (1, 2, ..., k-1); needs q >= k+1."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    code = tuple(range(1, k))
    if not is_interior_facet_code(code, q):
        raise ValueError(f"no interior facet (1,...,{k - 1}) for q={q}; need q >= {k + 1}")
    return code


def _validate_interior_base(code: Code, q: int) -> None:
    if not is_interior_facet_code(code, q):
        raise ValueError(
            f"{code} is not an interior facet code for q={q}: "
            "entries must rise strictly from >=1 to <=q-2"
        )


def shifted_reversal(pi: tuple[int, ...], j: int) -> tuple[int, ...]:
    """The label (pi_k + j)(pi_{k-1} + j)...(pi_1 + j) mod k, values in 1..k."""
    k = len(pi)
    return tuple((pi[k - 1 - i] + j - 1) % k + 1 for i in range(k))


def shifted_reversal_inverse(sigma: tuple[int, ...], j: int) -> tuple[int, ...]:
    k = len(sigma)
    return tuple((sigma[k - 1 - i] - j - 1) % k + 1 for i in range(k))


def init_lex_order(k: int) -> tuple[tuple[int, ...], ...]:
    """All of S_k sorted by faithful initial part, then lexicographically."""
    return tuple(
        sorted(itertools.permutations(range(1, k + 1)), key=lambda p: (init(p), p))
    )


@dataclass(frozen=True)
class LayerFacet:
    """One facet of the structured star cluster enumeration.

    layer j means the facet belongs to the star of the j-th chain vertex and
    no earlier one; label is the permutation that orders it (the star index
    pi itself in layer 1, its shifted reversal for later layers).  The
    restriction type of the facet in the cluster shelling is des(label).
    """

    layer: int
    label: tuple[int, ...]
    pi: tuple[int, ...]
    code: Code


def sc_layers(base: Code, q: int) -> tuple[LayerFacet, ...]:
    """Structured enumeration of the star cluster of an interior facet,
    in shelling order."""
    _validate_interior_base(base, q)
    chain = decode_facet(base, q)
    k = len(base) + 1
    order = init_lex_order(k)
    rows: list[LayerFacet] = []
    for j in range(1, k + 1):
        vj = chain[j - 1]
        if j == 1:
            for pi in order:
                rows.append(LayerFacet(1, pi, pi, facet_code_for_permutation(vj, pi, q)))
        else:
            for sigma in order:
                if init(sigma) < j:
                    continue
                pi = shifted_reversal_inverse(sigma, j)
                rows.append(
                    LayerFacet(j, sigma, pi, facet_code_for_permutation(vj, pi, q))
                )
    codes = [row.code for row in rows]
    if len(set(codes)) != len(codes):
        raise DisagreementError("structured enumeration repeated a facet")
    return tuple(rows)


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
    sum over partitions lam of k with s parts of
    (-1)^(s-1) * k (s-1)!/(prod of multiplicity factorials) * prod(lam_i!)."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    total = 0
    for s in range(1, k + 1):
        for lam in partitions(k, s):
            denom = 1
            for _, m in multiplicities(lam):
                denom *= factorial(m)
            count = k * factorial(s - 1) // denom
            term = count
            for part in lam:
                term *= factorial(part)
            total += (-1) ** (s - 1) * term
    return total


def sc_count_general_face(face, q: int) -> int:
    """Star cluster size of a face whose vertices are all interior.

    The face's vertices sit at chain positions x_1 < ... < x_m of any facet
    through the face; inclusion-exclusion over subsets of positions uses
    cyclic gap factorials exactly as in the single-facet case.
    """
    verts = {tuple(v) for v in face}
    if not verts:
        raise ValueError("a face needs at least one vertex")
    chain = sorted(verts, key=sum)
    n = len(chain[0])
    k = n + 1
    for v in chain:
        if len(v) != n or not is_interior_vertex(v, q):
            raise ValueError(f"{v} is not an interior vertex with {n} coordinates")
    # 0/1 steps between distinct vertices, with no coordinate raised twice
    # overall, put the face in one facet at chain positions within 1..k.
    for lower, upper in zip(chain, chain[1:]):
        if any(u - l not in (0, 1) for u, l in zip(upper, lower)):
            raise ValueError(f"{lower} -> {upper} is not a step inside one facet")
    if any(top - bottom not in (0, 1) for top, bottom in zip(chain[-1], chain[0])):
        raise ValueError(f"{sorted(verts)} is not a face of the subdivision")
    return _inclusion_exclusion([1 + sum(v) - sum(chain[0]) for v in chain], k)


def sc_h_formula(k: int) -> tuple[int, ...]:
    """(1, 2, ..., k) times the init/descent table: entry d is the descent
    count d total of permutations weighted by their faithful initial part."""
    rows = h_rows_recursive(k)
    return tuple(
        sum((t + 1) * rows[t][d] for t in range(k)) for d in range(k)
    )


def init_shelling_order(k: int):
    """The init-then-lex facet order of the barycentrically subdivided
    boundary of the (k-1)-simplex.

    Returns (complex, order): vertices are proper 0/1 indicator tuples, the
    facet of a permutation pi is its flag of prefixes {pi_1}, {pi_1, pi_2},
    ..., minus the full set.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    order = []
    for pi in init_lex_order(k):
        vec = [0] * k
        flag = []
        for x in pi[:-1]:
            vec[x - 1] = 1
            flag.append(tuple(vec))
        order.append(frozenset(flag))
    K = SimplicialComplex(order)
    if K.num_facets != len(order):
        raise DisagreementError("init-then-lex order repeated a facet")
    return K, tuple(order)


@dataclass(frozen=True)
class StarClusterReport:
    """Everything the structured star cluster enumeration establishes."""

    base_code: Code
    rows: tuple[LayerFacet, ...]
    layer_sizes: tuple[int, ...]
    certificate: ShellingCertificate
    h: tuple[int, ...]
    count_enumerated: int
    count_inclusion_exclusion: int
    count_partition_formula: int
    x_value: int


def sc_shelling_and_h(base: Code, q: int) -> StarClusterReport:
    """Build the star cluster of an interior facet, shell it, and cross-count.

    The certificate is computed by the generic shelling verifier on the
    structured order; h is its restriction type histogram.  DisagreementError
    names the witness unless the order is a shelling, the four counts agree,
    every facet's restriction type is des(label), and h is the weighted
    table formula followed by h_k = 0.
    """
    rows = sc_layers(base, q)
    k = len(base) + 1
    cert = certify_order([row.code for row in rows], q)
    counts = {
        "count_enumerated": len(rows),
        "count_inclusion_exclusion": sc_count_inclusion_exclusion(k),
        "count_partition_formula": sc_count_partition_formula(k),
        "x_value": x_sequence(k + 1)[k],
    }
    if len(set(counts.values())) != 1:
        raise DisagreementError(f"star cluster counts disagree: {counts}")
    for row, got in zip(rows, cert.types):
        if got != des(row.label):
            raise DisagreementError(
                f"star cluster facet layer {row.layer} label {row.label} code {row.code}"
                f" has restriction type {got}, not des(label) = {des(row.label)}"
            )
    h = cert.type_histogram()
    if h != sc_h_formula(k) + (0,):
        raise DisagreementError(f"star cluster h {h} is not the formula {sc_h_formula(k)} + (0,)")
    sizes = tuple(
        sum(1 for row in rows if row.layer == j) for j in range(1, k + 1)
    )
    return StarClusterReport(
        base_code=tuple(base),
        rows=rows,
        layer_sizes=sizes,
        certificate=cert,
        h=h,
        **counts,
    )
