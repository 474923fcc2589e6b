"""Finite simplicial complexes on hashable, orderable vertex labels.

A complex is stored by its facets (maximal faces).  Constructors accept any
family of faces and reduce it to an antichain.  The empty complex {()} (one
empty face, no vertices) is allowed and acts as the identity for join; a
complex with no faces at all (void) is rejected by most operations.

f-vectors are indexed (f_{-1}, f_0, ..., f_d) with f_{-1} = 1.  h-vectors of
a d-dimensional complex have length d+2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce
from math import comb

MAX_FACETS = 10**6  # default facet cap of every capacity-bounded operation


class CapacityError(Exception):
    """Raised when an operation would exceed its configured size budget."""


def check_cap(count: int, max_facets: int = MAX_FACETS) -> int:
    """count, the size of an enumeration about to start; CapacityError when
    it exceeds max_facets."""
    if count > max_facets:
        raise CapacityError(f"{count} facets exceed the cap of {max_facets}")
    return count


class DisagreementError(Exception):
    """Independent computation routes returned different answers, or an
    internal invariant failed."""


@dataclass(frozen=True)
class SimplicialComplex:
    """Immutable simplicial complex given by its facets.

    >>> K = SimplicialComplex([(1, 2), (2, 3), (3,)])
    >>> sorted(sorted(F) for F in K.facets)
    [[1, 2], [2, 3]]
    >>> K.dim
    1
    """

    facets: frozenset

    def __init__(self, facets) -> None:
        candidates = {frozenset(F) for F in facets}
        if not candidates:
            raise ValueError("a complex needs at least one face; got none")
        # A face of the largest size is maximal; any other may lie in a larger one.
        top = max(map(len, candidates))
        maximal = frozenset(
            F for F in candidates if len(F) == top or not any(F < G for G in candidates)
        )
        object.__setattr__(self, "facets", maximal)

    def __repr__(self) -> str:
        return f"SimplicialComplex({self.num_facets} facets, dim {self.dim})"

    @cached_property
    def vertices(self) -> frozenset:
        return frozenset(v for F in self.facets for v in F)

    @property
    def num_facets(self) -> int:
        return len(self.facets)

    @property
    def dim(self) -> int:
        return max(len(F) for F in self.facets) - 1

    def is_pure(self) -> bool:
        sizes = {len(F) for F in self.facets}
        return len(sizes) == 1

    def faces(self) -> frozenset:
        """All faces, the empty face included."""
        return self._faces

    @cached_property
    def _faces(self) -> frozenset:
        found = set()
        for F in self.facets:
            for r in range(len(F) + 1):
                found.update(map(frozenset, itertools.combinations(F, r)))
        return frozenset(found)

    def f_vector(self) -> tuple[int, ...]:
        """(f_{-1}, f_0, ..., f_d); f_{-1} = 1 for the empty face."""
        return self._f_vector

    @cached_property
    def _f_vector(self) -> tuple[int, ...]:
        counts = [0] * (self.dim + 2)
        for face in self.faces():
            counts[len(face)] += 1
        return tuple(counts)


def h_from_f(f: tuple[int, ...]) -> tuple[int, ...]:
    """h-vector from an f-vector (f_{-1}, f_0, ..., f_d).

    h_j = sum_{i=0}^{j} (-1)^(j-i) C(d+1-i, d+1-j) f_{i-1}.

    >>> h_from_f((1, 3, 3))
    (1, 1, 1)
    """
    if not f or f[0] != 1:
        raise ValueError(f"f-vector must start with f_-1 = 1: {f}")
    d = len(f) - 2
    return tuple(
        sum((-1) ** (j - i) * comb(d + 1 - i, d + 1 - j) * f[i] for i in range(j + 1))
        for j in range(d + 2)
    )


def join(A: SimplicialComplex, B: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join; vertex sets must be disjoint."""
    overlap = A.vertices & B.vertices
    if overlap:
        raise ValueError(f"join needs disjoint vertex sets; shared: {sorted(map(repr, overlap))}")
    return SimplicialComplex(F | G for F in A.facets for G in B.facets)


# ---------------------------------------------------------------------------
# Shelling verification


def restriction_histogram(sizes, facet_size: int) -> tuple[int, ...]:
    """(h_0, ..., h_facet_size): how many of these restriction sizes are each s.

    >>> restriction_histogram([0, 1, 1], 3)
    (1, 2, 0, 0)
    """
    counts = [0] * (facet_size + 1)
    for s in sizes:
        counts[s] += 1
    return tuple(counts)


@dataclass(frozen=True)
class ShellingCertificate:
    """Outcome of checking a facet order for the shelling property.

    order lists the facets as frozensets.  restrictions[j] holds the
    vertices v of facet j with facet_j - {v} in an earlier facet; types[j]
    is its size.  For a valid order, the number of facets of type s is h_s.
    When invalid, witness = (i, j) is the first bad pair (smallest j, then
    smallest i): no restriction vertex of facet j avoids facet i.
    """

    order: tuple
    restrictions: tuple[frozenset, ...]
    types: tuple[int, ...]
    valid: bool
    witness: tuple[int, int] | None

    def type_histogram(self) -> tuple[int, ...]:
        return restriction_histogram(self.types, len(self.order[0]))


def frontier_shelling(chains, faces: int) -> tuple[list, tuple[int, ...]]:
    """(restriction positions of each facet, (h_0, ..., h_d)) of a facet
    order, each facet a chain of d int ids that lists them in one order all
    facets keep; DisagreementError naming both totals unless the order is
    certified a shelling by its face count.

    A ridge, the chain with one position dropped, is then one int tuple.  The
    frontier holds each ridge seen an odd number of times: a ridge already
    there is removed and its position joins R_j, any other is added.  A ridge
    in the frontier lies in an earlier facet, so facet j adds at most
    2^(d - |R_j|) faces, all of [R_j, F_j] exactly when its new faces form
    that interval.  So sum_j 2^(d - |R_j|) is at least the face count of the
    complex the facets span, the empty face among them, with equality exactly
    for a shelling with these restrictions (Ziegler, Lectures on Polytopes,
    8.1).  The caller vouches that the facets are distinct and span a complex
    of this many faces.  Memory follows the frontier, not the facet count,
    and restrictions share one tuple per distinct value.
    """
    frontier: set[tuple] = set()
    add, remove = frontier.add, frontier.remove
    shared: dict[tuple, tuple] = {}
    restrictions: list[tuple[int, ...]] = []
    chain: tuple = ()
    for chain in chains:
        rest, size, p = [], len(frontier), len(chain)
        # combinations drops the last position first, then each earlier one.
        for ridge in itertools.combinations(chain, p - 1):
            p -= 1
            add(ridge)
            if len(frontier) == size:
                remove(ridge)
                rest.append(p)
                size -= 1
            else:
                size += 1
        rest = tuple(reversed(rest))
        restrictions.append(shared.setdefault(rest, rest))
    d = len(chain)
    h = restriction_histogram(map(len, restrictions), d)
    total = sum(n << (d - i) for i, n in enumerate(h))
    if total != faces:
        raise DisagreementError(
            f"face count off: the restrictions give {total} faces, the complex has {faces}")
    return restrictions, h


def shell_chains(chains, num_vertices: int):
    """(restriction positions of each facet, first bad pair or None) of a
    facet order, each facet a chain of int vertex ids in range(num_vertices):
    the witness kernel behind verify_shelling and, through
    shelling.certify_order, behind the rerun that names the first bad pair
    when frontier_shelling's count fails on shell or star-cluster.

    Every chain lists its vertices in one order that all facets keep (bottom
    to top), so a ridge, the chain with one position dropped, is one int
    tuple however many facets hold it; each is hashed once, and is new
    exactly when adding it grows the set.  Facet j's restriction R_j is the
    positions p whose ridge lies in an earlier facet.  The order is a
    shelling exactly when no i < j has R_j inside facet i (Ziegler, Lectures
    on Polytopes, 8.1); an empty R_j at j > 0 lies in facet 0.  The earlier
    facets holding R_j are the intersection of its vertices' sets of earlier
    facets, taken smallest set first, and the witness is the first bad pair
    (smallest j, then smallest i).  A repeated chain is a bad pair: all its
    ridges are earlier and the earlier copy holds it.

    With n facets of size d, the ridges cost O(n d) tuples of d - 1 ints.  An
    intersection walks at most the smaller set at each step, so a facet
    whose R_j vertices lie in at most D earlier facets costs O(D |R_j|) hash
    probes, in C.  That is not linear in n when D grows with n: the star
    cluster of an interior facet at k = 6 and k = 7 (3 447 and 29 093
    facets) takes 66 281 and 2 481 766 probes, and T_{6,10} (10^5 facets)
    3 058 777.
    """
    seen: set[tuple] = set()
    add = seen.add
    # vertex id -> positions of the earlier facets through it
    incident = [set() for _ in range(num_vertices)]
    # One tuple per distinct restriction: there are at most 2^d.
    shared: dict[tuple, tuple] = {}
    restrictions: list[tuple[int, ...]] = []
    witness: tuple[int, int] | None = None
    for j, chain in enumerate(chains):
        rest = []
        size = len(seen)
        for p in range(len(chain)):
            add(chain[:p] + chain[p + 1 :])
            if len(seen) == size:
                rest.append(p)
            else:
                size += 1
        rest = tuple(rest)
        restrictions.append(shared.setdefault(rest, rest))
        if witness is not None:
            continue
        if rest:
            # set & set walks the smaller one; no set is copied whole.
            earlier = reduce(set.intersection, sorted([incident[chain[p]] for p in rest], key=len))
            if earlier:
                witness = (min(earlier), j)
        elif j:
            witness = (0, j)
        for v in chain:
            incident[v].add(j)
    return restrictions, witness


def verify_shelling(K: SimplicialComplex, order) -> ShellingCertificate:
    """Check whether the given facet order is a shelling of K.

    The order must list every facet of K exactly once, and K must be pure.
    Facet j's restriction R_j holds the vertices v with facet_j - {v} in an
    earlier facet.  K's sorted vertices are numbered 0, 1, ..., each facet
    becomes the sorted tuple of its numbers, and shell_chains finds each R_j
    and the first bad pair (smallest j, then smallest i), if any.
    """
    seq = tuple(frozenset(F) for F in order)
    if not K.is_pure():
        raise ValueError("shelling is defined here for pure complexes only")
    if len(seq) != K.num_facets or set(seq) != K.facets:
        raise ValueError("order must enumerate the facets of K exactly once")

    labels = sorted(K.vertices)
    number = {v: i for i, v in enumerate(labels)}
    chains = [tuple(sorted(map(number.__getitem__, F))) for F in seq]
    positions, witness = shell_chains(chains, len(labels))
    restrictions = tuple(
        frozenset(labels[chain[p]] for p in rest) for chain, rest in zip(chains, positions)
    )
    return ShellingCertificate(
        order=seq,
        restrictions=restrictions,
        types=tuple(map(len, restrictions)),
        valid=witness is None,
        witness=witness,
    )


# ---------------------------------------------------------------------------
# Isomorphism testing


def _pair_counts(K: SimplicialComplex) -> dict:
    counts: dict = {}
    for F in K.facets:
        for u, v in itertools.combinations(F, 2):
            counts[(u, v)] = counts.get((u, v), 0) + 1
            counts[(v, u)] = counts.get((v, u), 0) + 1
    return counts


def _refine_colors(A: SimplicialComplex, B: SimplicialComplex):
    """Joint color refinement on the vertex/facet incidence of both complexes.

    Returns (vertex colors of A, vertex colors of B) as dicts into a shared
    integer palette, so equal colors are comparable across the two complexes.
    """
    vcols = [{v: 0 for v in K.vertices} for K in (A, B)]
    fcols = [{F: len(F) for F in K.facets} for K in (A, B)]
    incident = [
        {v: tuple(F for F in K.facets if v in F) for v in K.vertices}
        for K in (A, B)
    ]
    for _ in range(len(A.vertices) + 2):
        palette: dict = {}
        new_f = []
        for side, K in enumerate((A, B)):
            cols = {}
            for F in K.facets:
                sig = (fcols[side][F], tuple(sorted(vcols[side][v] for v in F)))
                cols[F] = palette.setdefault(sig, len(palette))
            new_f.append(cols)
        palette = {}
        new_v = []
        for side, K in enumerate((A, B)):
            cols = {}
            for v in K.vertices:
                sig = (vcols[side][v], tuple(sorted(new_f[side][F] for F in incident[side][v])))
                cols[v] = palette.setdefault(sig, len(palette))
            new_v.append(cols)
        stable = all(
            len(set(new_v[s].values())) == len(set(vcols[s].values())) for s in (0, 1)
        )
        vcols, fcols = new_v, new_f
        if stable:
            break
    return vcols[0], vcols[1]


def find_isomorphism(A: SimplicialComplex, B: SimplicialComplex, max_vertices: int = 24):
    """A vertex bijection carrying facets of A onto facets of B, or None.

    Cheap invariants (counts, f-vector, facet sizes) run first and can reject
    complexes of any size; the backtracking search itself refuses to start
    when the complexes have more than max_vertices vertices.
    """
    if len(A.vertices) != len(B.vertices) or A.num_facets != B.num_facets:
        return None
    if sorted(len(F) for F in A.facets) != sorted(len(F) for F in B.facets):
        return None
    if A.f_vector() != B.f_vector():
        return None
    n = len(A.vertices)
    if n > max_vertices:
        raise CapacityError(
            f"isomorphism search over {n} vertices exceeds the bound {max_vertices}"
        )
    if n == 0:
        return {}

    col_a, col_b = _refine_colors(A, B)
    if sorted(col_a.values()) != sorted(col_b.values()):
        return None

    by_color_b: dict[int, list] = {}
    for v, c in col_b.items():
        by_color_b.setdefault(c, []).append(v)
    for vs in by_color_b.values():
        vs.sort(key=repr)

    # Assign rare colors first; deterministic tie-break by repr.
    order = sorted(col_a, key=lambda v: (len(by_color_b.get(col_a[v], ())), col_a[v], repr(v)))
    pairs_a = _pair_counts(A)
    pairs_b = _pair_counts(B)
    facets_b = B.facets
    facets_with: dict = {}
    for F in A.facets:
        for v in F:
            facets_with.setdefault(v, []).append(F)

    mapping: dict = {}
    used: set = set()

    def consistent(v, w) -> bool:
        for u, x in mapping.items():
            if pairs_a.get((v, u), 0) != pairs_b.get((w, x), 0):
                return False
        for F in facets_with[v]:
            image = [mapping.get(u) for u in F if u != v]
            if all(x is not None for x in image):
                if frozenset(image) | {w} not in facets_b:
                    return False
        return True

    def dfs(idx: int) -> bool:
        if idx == len(order):
            return {frozenset(mapping[u] for u in F) for F in A.facets} == set(facets_b)
        v = order[idx]
        for w in by_color_b[col_a[v]]:
            if w in used or not consistent(v, w):
                continue
            mapping[v] = w
            used.add(w)
            if dfs(idx + 1):
                return True
            del mapping[v]
            used.discard(w)
        return False

    if dfs(0):
        return dict(mapping)
    return None
