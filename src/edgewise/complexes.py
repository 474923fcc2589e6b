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
from math import comb


class CapacityError(Exception):
    """Raised when an operation would exceed its configured size budget."""


class DisagreementError(Exception):
    """Independent computation routes returned different answers, or an
    internal invariant failed."""


Face = frozenset


class SimplicialComplex:
    """Immutable simplicial complex given by its facets.

    >>> K = SimplicialComplex([(1, 2), (2, 3), (3,)])
    >>> sorted(sorted(F) for F in K.facets)
    [[1, 2], [2, 3]]
    >>> K.dim
    1
    """

    __slots__ = ("facets", "_faces", "_fvec")

    def __init__(self, facets) -> None:
        candidates = {frozenset(F) for F in facets}
        if not candidates:
            raise ValueError("a complex needs at least one face; got none")
        by_size: dict[int, list] = {}
        for F in candidates:
            by_size.setdefault(len(F), []).append(F)
        # A face can only be swallowed by a strictly larger one.
        maximal = set()
        sizes = sorted(by_size)
        for size in sizes:
            bigger = [G for s in sizes if s > size for G in by_size[s]]
            for F in by_size[size]:
                if not any(F < G for G in bigger):
                    maximal.add(F)
        object.__setattr__(self, "facets", frozenset(maximal))
        object.__setattr__(self, "_faces", None)
        object.__setattr__(self, "_fvec", None)

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialComplex is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, SimplicialComplex) and self.facets == other.facets

    def __hash__(self) -> int:
        return hash(self.facets)

    def __repr__(self) -> str:
        return f"SimplicialComplex({self.num_facets} facets, dim {self.dim})"

    @property
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
        if self._faces is None:
            found = set()
            for F in self.facets:
                members = tuple(F)
                for r in range(len(members) + 1):
                    found.update(map(frozenset, itertools.combinations(members, r)))
            object.__setattr__(self, "_faces", frozenset(found))
        return self._faces

    def has_face(self, sigma) -> bool:
        s = frozenset(sigma)
        return any(s <= F for F in self.facets)

    def f_vector(self) -> tuple[int, ...]:
        """(f_{-1}, f_0, ..., f_d); f_{-1} = 1 for the empty face."""
        if self._fvec is None:
            counts = [0] * (self.dim + 2)
            for face in self.faces():
                counts[len(face)] += 1
            object.__setattr__(self, "_fvec", tuple(counts))
        return self._fvec


def full_simplex(vertices) -> SimplicialComplex:
    """The full simplex on the given vertex labels."""
    vs = tuple(vertices)
    if not vs:
        raise ValueError("full_simplex needs at least one vertex")
    return SimplicialComplex([vs])


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


def h_vector(K: SimplicialComplex) -> tuple[int, ...]:
    return h_from_f(K.f_vector())


def star(K: SimplicialComplex, sigma) -> SimplicialComplex:
    """Closed star: all faces of facets containing sigma."""
    s = frozenset(sigma)
    if not K.has_face(s):
        raise ValueError(f"{set(sigma)} is not a face of the complex")
    return SimplicialComplex(F for F in K.facets if s <= F)


def link(K: SimplicialComplex, sigma) -> SimplicialComplex:
    """Link: faces disjoint from sigma whose union with sigma is a face."""
    s = frozenset(sigma)
    if not K.has_face(s):
        raise ValueError(f"{set(sigma)} is not a face of the complex")
    return SimplicialComplex(F - s for F in K.facets if s <= F)


def join(A: SimplicialComplex, B: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join; vertex sets must be disjoint."""
    overlap = A.vertices & B.vertices
    if overlap:
        raise ValueError(f"join needs disjoint vertex sets; shared: {sorted(map(repr, overlap))}")
    return SimplicialComplex(F | G for F in A.facets for G in B.facets)


# ---------------------------------------------------------------------------
# Shelling verification


@dataclass(frozen=True)
class ShellingCertificate:
    """Outcome of checking a facet order for the shelling property.

    restriction[j] lists the vertices v of facet j with facet_j - {v} lying in
    an earlier facet; type[j] is its size.  For a valid order, the number of
    facets of type s is h_s.  When invalid, witness = (i, j) is the first bad
    pair (smallest j, then smallest i): no restriction vertex of facet j
    avoids facet i.
    """

    order: tuple[frozenset, ...]
    restrictions: tuple[frozenset, ...]
    types: tuple[int, ...]
    valid: bool
    witness: tuple[int, int] | None

    def type_histogram(self) -> tuple[int, ...]:
        facet_size = len(self.order[0])
        counts = [0] * (facet_size + 1)
        for t in self.types:
            counts[t] += 1
        return tuple(counts)


def verify_shelling(K: SimplicialComplex, order) -> ShellingCertificate:
    """Check whether the given facet order is a shelling of K.

    The order must list every facet of K exactly once, and K must be pure.
    Facet j's restriction R_j holds the vertices v with facet_j - {v} in an
    earlier facet.  The order is a shelling exactly when no i < j has
    R_j inside facet i (Ziegler, Lectures on Polytopes, 8.1); an empty R_j
    at j > 0 lies in facet 0.  Every facet containing R_j contains the
    vertex of R_j that lies in the fewest earlier facets, so only those
    facets are scanned, in increasing position: the witness is the first bad
    pair (smallest j, then smallest i).  With n facets of size d and every
    vertex in at most D facets, the cost is O(n d (d + D)), linear in n for
    bounded vertex degree.
    """
    seq = tuple(frozenset(F) for F in order)
    if not K.is_pure():
        raise ValueError("shelling is defined here for pure complexes only")
    if len(seq) != K.num_facets or set(seq) != K.facets:
        raise ValueError("order must enumerate the facets of K exactly once")

    restrictions: list[frozenset] = []
    types: list[int] = []
    seen_ridges: set[frozenset] = set()
    # vertex -> positions of the earlier facets through it, increasing.
    incident: dict = {}
    witness: tuple[int, int] | None = None
    for j, F in enumerate(seq):
        ridges = {v: F - {v} for v in F}
        rest = frozenset(v for v, ridge in ridges.items() if ridge in seen_ridges)
        restrictions.append(rest)
        types.append(len(rest))
        seen_ridges.update(ridges.values())
        if witness is not None:
            continue
        if j > 0 and not rest:
            witness = (0, j)
        elif rest:
            for i in min((incident.get(v, ()) for v in rest), key=len):
                if rest <= seq[i]:
                    witness = (i, j)
                    break
        for v in F:
            incident.setdefault(v, []).append(j)

    return ShellingCertificate(
        order=seq,
        restrictions=tuple(restrictions),
        types=tuple(types),
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


def are_isomorphic(A: SimplicialComplex, B: SimplicialComplex, max_vertices: int = 24) -> bool:
    return find_isomorphism(A, B, max_vertices=max_vertices) is not None
