"""Edgewise subdivision of a simplex: facet codes, vertex types, links.

The region R is the (k-1)-simplex {0 <= x_1 <= ... <= x_{k-1} <= q} with
corners w_i having i-1 trailing entries q and the rest 0.  The subdivision
T_{k,q} has as vertices the weakly increasing integer tuples inside R; its
facets are in bijection with codes a in {0,...,q-1}^(k-1):

  * sort a to get the bottom vertex v of the facet,
  * then read a right to left; each entry names, by its stable rank within a,
    the coordinate of v to raise next.  The walk visits k lattice points and
    ends at v + (1,...,1).

Equivalently a facet is a pair (v, pi) of a vertex and a permutation pi of
1..k-1 compatible with v (ties v_i = v_{i+1} force i before i+1 in pi); its
code is (v_{pi_1}, ..., v_{pi_{k-1}}).

Two vertices lie in a common facet iff their difference has all entries in
{0,1} or all in {-1,0}.  The link of a vertex v is determined by the run
structure of v: leading zeros, runs of values strictly between 0 and q, and
trailing q's.  Merging the outer runs into one block of size
(zeros + q's + 1) yields a partition of k whose chain-product complex is
isomorphic to the link.  Links of higher faces are joins of such complexes,
one factor per block of the face's coordinate-raise decomposition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, factorial, prod

from .combinat import cyclic_gaps, multiplicities, partitions, validate_partition
from .complexes import CapacityError, DisagreementError, SimplicialComplex, join
from .posets import k_lambda

Vertex = tuple[int, ...]
Code = tuple[int, ...]


# ---------------------------------------------------------------------------
# Vertices and facet codes


def number_of_vertices(k: int, q: int) -> int:
    validate_kq(k, q)
    return comb(q + k - 1, k - 1)


def number_of_facets(k: int, q: int) -> int:
    validate_kq(k, q)
    return q ** (k - 1)


def validate_kq(k: int, q: int) -> None:
    """ValueError unless k >= 2 and q >= 1."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")


def check_facet_budget(k: int, q: int, max_facets: int) -> int:
    """The facet count q^(k-1); CapacityError when it exceeds max_facets."""
    count = number_of_facets(k, q)
    if count > max_facets:
        raise CapacityError(f"{count} facets exceed the cap of {max_facets}")
    return count


def is_vertex(v: Vertex, q: int) -> bool:
    return (
        len(v) >= 1
        and all(isinstance(c, int) for c in v)
        and all(0 <= c <= q for c in v)
        and all(v[i] <= v[i + 1] for i in range(len(v) - 1))
    )


def _validate_vertex(v: Vertex, q: int) -> None:
    if not is_vertex(v, q):
        raise ValueError(f"{v} is not a weakly increasing tuple with entries in 0..{q}")


def vertex_set(k: int, q: int) -> tuple[Vertex, ...]:
    """All vertices of T_{k,q}, in lexicographic order.

    >>> vertex_set(3, 1)
    ((0, 0), (0, 1), (1, 1))
    """
    validate_kq(k, q)
    return tuple(itertools.combinations_with_replacement(range(q + 1), k - 1))


def corners(k: int, q: int) -> tuple[Vertex, ...]:
    """Corners w_1, ..., w_k of the region; w_i has i-1 trailing q's."""
    validate_kq(k, q)
    return tuple((0,) * (k - i) + (q,) * (i - 1) for i in range(1, k + 1))


def facet_codes(k: int, q: int) -> tuple[Code, ...]:
    """All q^(k-1) facet codes, in lexicographic order."""
    validate_kq(k, q)
    return tuple(itertools.product(range(q), repeat=k - 1))


def _validate_code(a: Code, q: int) -> None:
    if len(a) < 1 or not all(isinstance(x, int) and 0 <= x <= q - 1 for x in a):
        raise ValueError(f"{a} is not a code with entries in 0..{q - 1}")


def decode_facet(a: Code, q: int) -> tuple[Vertex, ...]:
    """The k vertices of the facet with code a, bottom to top.

    >>> decode_facet((1, 0), 2)
    ((0, 1), (1, 1), (1, 2))
    """
    _validate_code(a, q)
    n = len(a)
    order = sorted(range(n), key=lambda j: (a[j], j))
    rank = [0] * n
    for r, j in enumerate(order):
        rank[j] = r
    v = list(sorted(a))
    chain = [tuple(v)]
    # Reading the code right to left, each entry names (by its stable rank)
    # the coordinate of the bottom vertex to raise next.
    for j in range(n - 1, -1, -1):
        v[rank[j]] += 1
        chain.append(tuple(v))
    for u in chain:
        if any(u[i] > u[i + 1] for i in range(n - 1)):
            raise DisagreementError(f"code {a} decoded to a chain that is not monotone: {chain}")
    return tuple(chain)


def encode_facet(v: Vertex, pi: tuple[int, ...], q: int) -> Code:
    """Code of the facet (v, pi): (v_{pi_1}, ..., v_{pi_{k-1}}).

    pi must be a permutation of 1..k-1 compatible with v (equal consecutive
    entries of v keep their index order in pi), and the facet must fit in the
    region (equivalently max(v) <= q-1).
    """
    _validate_vertex(v, q)
    n = len(v)
    if sorted(pi) != list(range(1, n + 1)):
        raise ValueError(f"{pi} is not a permutation of 1..{n}")
    position = {x: j for j, x in enumerate(pi)}
    for i in range(1, n):
        if v[i - 1] == v[i] and position[i] > position[i + 1]:
            raise ValueError(
                f"{pi} is not compatible with {v}: {i} must precede {i + 1}"
            )
    a = tuple(v[x - 1] for x in pi)
    if any(x > q - 1 for x in a):
        raise ValueError(f"facet ({v}, {pi}) does not fit in the region for q={q}")
    return a


def code_of_facet(vertices, q: int) -> Code:
    """Recover the code from a facet's vertex set.

    >>> code_of_facet([(1, 1), (0, 1), (1, 2)], 2)
    (1, 0)
    """
    chain = sorted({tuple(v) for v in vertices}, key=sum)
    n = len(chain[0])
    if len(chain) != n + 1:
        raise ValueError(f"a facet needs {n + 1} distinct vertices, got {len(chain)}")
    raised = []
    for lower, upper in zip(chain, chain[1:]):
        delta = [j for j in range(n) if upper[j] != lower[j]]
        if len(delta) != 1 or upper[delta[0]] != lower[delta[0]] + 1:
            raise ValueError(f"{lower} -> {upper} is not a single unit step")
        raised.append(delta[0])
    # Steps read the permutation backwards: step i raises coordinate pi_{k-i}.
    pi = tuple(raised[n - 1 - j] + 1 for j in range(n))
    return encode_facet(chain[0], pi, q)


def build_complex(k: int, q: int, max_facets: int = 10**6) -> SimplicialComplex:
    """The full subdivision complex; vertices are labeled by their tuples."""
    check_facet_budget(k, q, max_facets)
    return SimplicialComplex(decode_facet(a, q) for a in facet_codes(k, q))


def ridge_neighbors(a: Code, q: int) -> dict[int, Code | None]:
    """The facet across each ridge of facet a, keyed by dropped chain position.

    Position p in 1..k means the ridge omitting the p-th vertex of the chain
    (1 = bottom, k = top).  None marks a boundary ridge.
    """
    _validate_code(a, q)
    n = len(a)
    k = n + 1
    out: dict[int, Code | None] = {}
    out[k] = (a[1:] + (a[0] - 1,)) if a[0] > 0 else None
    out[1] = ((a[n - 1] + 1,) + a[: n - 1]) if a[n - 1] <= q - 2 else None
    for i in range(1, n):
        if a[i - 1] != a[i]:
            swapped = list(a)
            swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
            out[k - i] = tuple(swapped)
        else:
            out[k - i] = None
    return out


# ---------------------------------------------------------------------------
# Vertex types and stars


@dataclass(frozen=True)
class VertexType:
    """Run structure of a vertex: leading zeros, inner runs, trailing q's.

    The partition of k attached to the vertex merges the outer runs with one
    extra unit: (leading + trailing + 1) followed by the inner run lengths,
    sorted decreasingly.
    """

    leading_zeros: int
    inner_runs: tuple[int, ...]
    trailing_max: int

    def partition(self) -> tuple[int, ...]:
        merged = self.leading_zeros + self.trailing_max + 1
        return tuple(sorted((merged,) + self.inner_runs, reverse=True))


def vertex_type(v: Vertex, q: int) -> VertexType:
    """Run structure of v; inner runs are maximal runs of values in 1..q-1.

    >>> vertex_type((0, 0, 1, 1, 2, 9), 9)
    VertexType(leading_zeros=2, inner_runs=(2, 1), trailing_max=1)
    """
    _validate_vertex(v, q)
    leading = sum(1 for _ in itertools.takewhile(lambda c: c == 0, v))
    trailing = sum(1 for _ in itertools.takewhile(lambda c: c == q, reversed(v)))
    inner = tuple(
        len(tuple(g))
        for value, g in itertools.groupby(v[leading : len(v) - trailing])
    )
    return VertexType(leading, inner, trailing)


def vertex_partition(v: Vertex, q: int) -> tuple[int, ...]:
    """The partition of k describing the link of v.

    >>> vertex_partition((0, 0, 1, 1, 2, 9), 9)
    (4, 2, 1)
    """
    return vertex_type(v, q).partition()


def is_interior_vertex(v: Vertex, q: int) -> bool:
    """True when v avoids the boundary: 0 < v_1 < ... < v_{k-1} < q."""
    _validate_vertex(v, q)
    return (
        v[0] > 0
        and v[-1] < q
        and all(v[i] < v[i + 1] for i in range(len(v) - 1))
    )


def _label_chains(v: Vertex, q: int) -> tuple[tuple[int, ...], ...]:
    """The fixed label sequences whose interleavings form S_v.

    Coordinates are labeled 1..k-1 and the extra symbol k closes the cycle.
    The merged outer chain reads (zeros decreasing, k, q-coordinates
    decreasing); each inner run reads its coordinate indices decreasingly.
    """
    t = vertex_type(v, q)
    k = len(v) + 1
    merged = tuple(range(t.leading_zeros, 0, -1)) + (k,) + tuple(
        range(k - 1, k - 1 - t.trailing_max, -1)
    )
    chains = [merged]
    pos = t.leading_zeros
    for run in t.inner_runs:
        chains.append(tuple(range(pos + run, pos, -1)))
        pos += run
    return tuple(chains)


def _interleavings(seqs):
    """All merges of the given sequences that keep each sequence's order."""
    seqs = [s for s in seqs if s]
    if not seqs:
        yield ()
        return
    for i, s in enumerate(seqs):
        rest = seqs[:i] + [list(s[1:])] + seqs[i + 1 :]
        for tail in _interleavings(rest):
            yield (s[0],) + tail


def s_v_permutations(v: Vertex, q: int) -> tuple[tuple[int, ...], ...]:
    """The permutations of 1..k indexing the facets that contain v."""
    return tuple(_interleavings([list(c) for c in _label_chains(v, q)]))


def facet_code_for_permutation(v: Vertex, pi: tuple[int, ...], q: int) -> Code:
    """Code of the facet of star(v) indexed by pi in S_v.

    With k at position i of pi, the code reads the coordinates before k in
    reverse, then the coordinates after k in reverse with entries lowered
    by 1: (v_{pi_{i-1}}, ..., v_{pi_1}, v_{pi_k} - 1, ..., v_{pi_{i+1}} - 1).
    """
    _validate_vertex(v, q)
    k = len(v) + 1
    if sorted(pi) != list(range(1, k + 1)):
        raise ValueError(f"{pi} is not a permutation of 1..{k}")
    i = pi.index(k)
    prefix = tuple(v[pi[j] - 1] for j in range(i - 1, -1, -1))
    suffix = tuple(v[pi[j] - 1] - 1 for j in range(k - 1, i, -1))
    a = prefix + suffix
    _validate_code(a, q)
    return a


def star_facet_codes(v: Vertex, q: int) -> tuple[Code, ...]:
    """Codes of all facets containing v, one per permutation in S_v."""
    pis = s_v_permutations(v, q)
    codes = tuple(facet_code_for_permutation(v, pi, q) for pi in pis)
    if len(set(codes)) != len(codes):
        raise DisagreementError(f"duplicate star codes at {v}")
    return codes


def star_of_vertex(v: Vertex, q: int) -> SimplicialComplex:
    """Closed star of v, built locally from its facet codes."""
    facets = [decode_facet(a, q) for a in star_facet_codes(v, q)]
    for chain in facets:
        if tuple(v) not in chain:
            raise DisagreementError(f"star facet {chain} misses {v}")
    return SimplicialComplex(facets)


def link_of_vertex(v: Vertex, q: int) -> SimplicialComplex:
    """Link of v, certified against the chain-product model of
    vertex_partition(v, q) as the link of the one-vertex face (v,)."""
    return link_of_face((v,), q).link


# ---------------------------------------------------------------------------
# Links of faces


@dataclass(frozen=True)
class FaceLinkClass:
    """Combinatorial type of the link of a face.

    block_sizes is the partition of k by block sizes; signatures holds one
    partition per block (the block's equal-value group sizes), sorted for
    canonical comparison.  Links of two faces are isomorphic iff their
    iso_key values agree: single-part signatures only contribute their total
    to a simplex factor, multi-part signatures contribute join factors.
    """

    block_sizes: tuple[int, ...]
    signatures: tuple[tuple[int, ...], ...]

    @property
    def simplex_part(self) -> int:
        return sum(s[0] - 1 for s in self.signatures if len(s) == 1)

    @property
    def join_parts(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(s for s in self.signatures if len(s) >= 2))

    @property
    def iso_key(self):
        return (self.simplex_part, self.join_parts)


@dataclass(frozen=True)
class LinkOfFaceReport:
    face: tuple[Vertex, ...]
    blocks: tuple[tuple[int, ...], ...]
    link_class: FaceLinkClass
    link: SimplicialComplex
    model: SimplicialComplex


def _label_set(u: Vertex, b: Vertex) -> frozenset[int]:
    """Labels walked from b to u around a facet through both: 1..k-1 name
    raised coordinates and k the wrap from the facet's top to its bottom."""
    n = len(b)
    if all(x >= y for x, y in zip(u, b)):
        return frozenset(j + 1 for j in range(n) if u[j] == b[j] + 1)
    return frozenset([n + 1, *(j + 1 for j in range(n) if u[j] == b[j])])


def _block_groups(block: frozenset[int], b: Vertex, q: int) -> list[frozenset[int]]:
    """Labels of a block grouped by the bottom vertex's value, largest first;
    coordinates at 0 or q join label k in one outer group.  Each group is
    raised in a fixed order, so the block is a product of chains."""
    by_value: dict[int | None, set[int]] = {}
    for j in block:
        value = None if j > len(b) or b[j - 1] in (0, q) else b[j - 1]
        by_value.setdefault(value, set()).add(j)
    return sorted(map(frozenset, by_value.values()), key=len, reverse=True)


def model_link_complex(sigmas) -> SimplicialComplex:
    """Join of the chain-product complexes of the block signatures; the
    vertex x of block idx's factor is labeled (idx, x)."""
    result = SimplicialComplex([()])
    for idx, sigma in enumerate(sigmas):
        if sum(sigma) == 1:
            continue
        factor = SimplicialComplex(tuple((idx, x) for x in F) for F in k_lambda(sigma).facets)
        result = join(result, factor)
    return result


def _certify(L: SimplicialComplex, model: SimplicialComplex, image: dict, where: str) -> None:
    """DisagreementError naming a witness unless image is injective on the
    vertices of L and carries the facets of L onto those of the model."""
    preimage: dict = {}
    for u in sorted(L.vertices):
        w = preimage.setdefault(image[u], u)
        if w != u:
            raise DisagreementError(f"{where}: {w} and {u} both map to {image[u]}")
    mapped = {frozenset(image[u] for u in F): F for F in L.facets}
    for G, F in mapped.items():
        if G not in model.facets:
            raise DisagreementError(f"{where}: {sorted(F)} maps to {sorted(G)}, no model facet")
    missed = model.facets.difference(mapped)
    if missed:
        raise DisagreementError(f"{where}: model facet {min(map(sorted, missed))} has no preimage")


def link_of_face(face, q: int) -> LinkOfFaceReport:
    """Link of a face given by its vertices, with its combinatorial type.

    The direct link collects the facets of the star of the face's bottom
    vertex b that contain the whole face.  The label sets of the face cut
    [k] into blocks, and the model is a join of one factor per block.  The
    walk from b to a link vertex ends inside one block; counting its labels
    per group of that block gives the model vertex, and that map is checked.
    """
    verts = {tuple(v) for v in face}
    if not verts:
        raise ValueError("a face needs at least one vertex")
    for v in verts:
        _validate_vertex(v, q)
    chain = tuple(sorted(verts, key=sum))
    face_set = frozenset(chain)
    keep = [
        F
        for F in star_of_vertex(chain[0], q).facets
        if face_set <= F
    ]
    if not keep:
        raise ValueError(f"{sorted(verts)} is not a face of the subdivision")
    L = SimplicialComplex(F - face_set for F in keep)
    b = chain[0]
    walk = [_label_set(u, b) for u in chain] + [frozenset(range(1, len(b) + 2))]
    blocks = [upper - lower for lower, upper in zip(walk, walk[1:])]
    groups = [_block_groups(block, b, q) for block in blocks]
    sigmas = tuple(tuple(len(g) for g in gs) for gs in groups)
    sizes = tuple(sorted(map(len, blocks), reverse=True))
    cls = FaceLinkClass(sizes, tuple(sorted(sigmas)))
    model = model_link_complex(sigmas)
    image = {}
    for u in L.vertices:
        labels = _label_set(u, b)
        # u's block follows the last face label set that its own contains.
        i = sum(P <= labels for P in walk[1:-1])
        image[u] = (i, tuple(len(labels & g) for g in groups[i]))
    _certify(L, model, image, f"link of {chain}")
    return LinkOfFaceReport(chain, tuple(map(tuple, map(sorted, blocks))), cls, L, model)


# ---------------------------------------------------------------------------
# Counting link types


def corner_support_partition(indices, k: int) -> tuple[int, ...]:
    """Cyclic gap partition of a set of corner indices (1-based, in 1..k).

    Interior vertices of the face of R spanned by these corners have link
    type given by this partition of k.
    """
    idx = sorted(set(indices))
    if not idx or idx[0] < 1 or idx[-1] > k:
        raise ValueError(f"corner indices must lie in 1..{k}: {indices}")
    return tuple(sorted(cyclic_gaps(idx, k), reverse=True))


def count_faces_with_link_type(k: int, q: int, beta: tuple[int, ...]) -> int:
    """Number of faces of the region R whose interior vertices have the link
    type of the partition beta.

    beta must partition k; with s = len(beta) parts the count is
    k (s-1)! / (m_1! ... m_t!) over the multiplicities of beta, and 0 when
    s > q (such faces have no interior vertices).
    """
    validate_kq(k, q)
    validate_partition(beta, k)
    s = len(beta)
    if s > q:
        return 0
    denom = prod(factorial(m) for _, m in multiplicities(beta))
    return k * factorial(s - 1) // denom


def count_link_types(k: int, q: int) -> int:
    """Number of distinct combinatorial types of vertex links in T_{k,q}."""
    validate_kq(k, q)
    return sum(len(partitions(k, s)) for s in range(1, min(k, q) + 1))


def _multichoose(a: int, b: int) -> int:
    """Multisets of size b from a symbols: C(a+b-1, b); 0 symbols allow only b=0."""
    if b == 0:
        return 1
    if a <= 0:
        return 0
    return comb(a + b - 1, b)


def _partition_count(n: int) -> int:
    return len(partitions(n)) if n >= 1 else 1


def _partition_count_at_most(n: int, parts: int) -> int:
    return sum(1 for p in partitions(n) if len(p) <= parts)


def q_sequence(s_max: int) -> tuple[int, ...]:
    """(Q_0, ..., Q_{s_max}): Q_s counts s-dimensional joins of multi-part
    chain-product complexes.

    Q_s sums over partitions mu of s+1: each part value n with multiplicity
    m contributes multichoose(p(n+1) - 1, m) choices of multi-part partitions.
    """
    if s_max < 0:
        raise ValueError("s_max must be nonnegative")
    out = []
    for s in range(s_max + 1):
        total = 0
        for mu in partitions(s + 1):
            total += prod(
                _multichoose(_partition_count(n + 1) - 1, m)
                for n, m in multiplicities(mu)
            )
        out.append(total)
    return tuple(out)


def count_distinct_links_dim(m: int) -> int:
    """Distinct combinatorial types of m-dimensional face links across all
    subdivisions (realized already in T_{2m+2,2m+2})."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return 1 + sum(q_sequence(m))


def count_link_types_of_faces(k: int, q: int, t: int) -> int:
    """Distinct combinatorial types of links of (t-1)-dimensional faces
    (t vertices) in T_{k,q}."""
    validate_kq(k, q)
    if not 1 <= t <= k:
        raise ValueError(f"t must lie in 1..{k}, got {t}")
    total = 1
    for s in range(k - t):
        max_parts = t - 1 if s < k - t - 1 else t
        for mu in partitions(s + 1):
            if len(mu) > max_parts:
                continue
            total += prod(
                _multichoose(_partition_count_at_most(n + 1, q) - 1, m)
                for n, m in multiplicities(mu)
            )
    return total


# ---------------------------------------------------------------------------
# Geometry export


def off_export(k: int, q: int, max_facets: int = 10**6) -> str:
    """OFF description of the subdivision, vertices at their lattice points.

    Uses the classic 3-column OFF header when the ambient dimension k-1 is
    at most 3 (padding coordinates with zeros) and the nOFF variant above.
    """
    check_facet_budget(k, q, max_facets)
    verts = vertex_set(k, q)
    index = {v: i for i, v in enumerate(verts)}
    rows = sorted(sorted(index[v] for v in decode_facet(a, q)) for a in facet_codes(k, q))
    dim = k - 1
    if dim <= 3:
        lines = ["OFF", f"{len(verts)} {len(rows)} 0"]
        padding = (0,) * (3 - dim)
    else:
        lines = ["nOFF", str(dim), f"{len(verts)} {len(rows)} 0"]
        padding = ()
    lines += [" ".join(str(c) for c in v + padding) for v in verts]
    lines += [f"{k} " + " ".join(str(i) for i in row) for row in rows]
    return "\n".join(lines) + "\n"
