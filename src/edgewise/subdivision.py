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
1..k-1 compatible with v (ties v_i = v_{i+1} force i before i+1 in pi).  The
facets through v are the walks from v along pi[:-1], pi in S_v (label k wraps
from a facet's top to its bottom); no library code encodes a facet.

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
from collections.abc import Iterator
from dataclasses import dataclass
from math import comb, factorial, prod
from operator import sub

from .combinat import (
    cyclic_gaps,
    distinct_permutations,
    multinomial,
    multiplicities,
    partitions,
    validate_partition,
    weakly_increasing,
)
from .complexes import MAX_FACETS, CapacityError, DisagreementError, SimplicialComplex, check_cap

Vertex = tuple[int, ...]
Code = tuple[int, ...]


# ---------------------------------------------------------------------------
# Vertices and facet codes


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
    return check_cap(number_of_facets(k, q), max_facets)


def is_vertex(v: Vertex, q: int) -> bool:
    in_range = len(v) >= 1 and all(isinstance(c, int) and 0 <= c <= q for c in v)
    return in_range and all(map(int.__le__, v, v[1:]))


def _validate_vertex(v: Vertex, q: int) -> None:
    if not is_vertex(v, q):
        raise ValueError(f"{v} is not a weakly increasing tuple with entries in 0..{q}")


def number_of_vertices(k: int, q: int) -> int:
    validate_kq(k, q)
    return comb(q + k - 1, k - 1)


def vertex_set(k: int, q: int) -> Iterator[Vertex]:
    """All C(q+k-1, k-1) vertices of T_{k,q}, in lexicographic order, one at a time.

    >>> tuple(vertex_set(3, 1))
    ((0, 0), (0, 1), (1, 1))
    """
    validate_kq(k, q)
    return weakly_increasing(k - 1, q)


def facet_codes(k: int, q: int) -> Iterator[Code]:
    """All q^(k-1) facet codes, in lexicographic order, one at a time."""
    validate_kq(k, q)
    return itertools.product(range(q), repeat=k - 1)


def _validate_code(a: Code, q: int) -> None:
    if len(a) < 1 or not all(isinstance(x, int) and 0 <= x <= q - 1 for x in a):
        raise ValueError(f"{a} is not a code with entries in 0..{q - 1}")


# The message of a decoded chain that leaves T: the code, then the walk so far.
_NOT_MONOTONE = "code {} decoded to a chain that is not monotone: {}"


def decode_facet(a: Code, q: int) -> tuple[Vertex, ...]:
    """The k vertices of the facet with code a, bottom to top.

    >>> decode_facet((1, 0), 2)
    ((0, 1), (1, 1), (1, 2))
    """
    _validate_code(a, q)
    rank = [0] * len(a)
    for r, j in enumerate(sorted(range(len(a)), key=a.__getitem__), 1):
        rank[~j] = r
    return _walk(sorted(a), rank, q, _NOT_MONOTONE, a)


def facet_chains(k: int, q: int) -> Iterator[tuple[Code, tuple[Vertex, ...]]]:
    """(a, decode_facet(a, q)) for each code a, in facet_codes order.

    The q codes of one (k-2)-entry prefix share its sort and its stable
    ranks.  The last entry x ranks after the pos prefix entries <= x and
    before the rest, so the bottom is the sorted prefix with x inserted at
    pos, and the labels (x's rank pos + 1 first, then the prefix ranks read
    right to left, those above pos one higher) depend on pos alone.  pos only
    grows with x, so each prefix builds at most k-1 label lists.  Every chain
    is walked by _walk, its steps checked under decode_facet's message.
    """
    validate_kq(k, q)
    m = k - 2
    # One range per prefix entry: product copies each into a tuple, so at
    # k = 2 no range is copied.
    for prefix in itertools.product(*[range(q)] * m):
        rank = [0] * m
        for r, j in enumerate(sorted(range(m), key=prefix.__getitem__), 1):
            rank[~j] = r
        below = sorted(prefix)
        # bottom holds below[:pos], then x, then below[pos:].
        bottom = [0, *below]
        pos, labels = 0, None
        for x in range(q):
            while pos < m and below[pos] <= x:
                bottom[pos] = below[pos]
                pos += 1
                labels = None
            if labels is None:
                labels = [pos + 1, *[r + (r > pos) for r in rank]]
            bottom[pos] = x
            code = (*prefix, x)
            yield code, _walk(bottom, labels, q, _NOT_MONOTONE, code)


def _walk(v, labels, q: int, template: str, *args) -> tuple[Vertex, ...]:
    """The points of a walk from vertex v: label j < k raises coordinate j, and
    label k (a facet's wrap from top to bottom) lowers all.  Between 0 and q a
    raise can pass only its right neighbour and a wrap only 0: one comparison
    per step, in its own branch, DisagreementError(template.format(*args,
    points)) at the first out."""
    k = len(v) + 1
    u = [0, *v, q]
    chain = [tuple(v)]
    for j in labels:
        if j < k:
            u[j] += 1
            chain.append(tuple(u[1:k]))
            if u[j] > u[j + 1]:
                raise DisagreementError(template.format(*args, chain))
        else:
            u[1:k] = [x - 1 for x in u[1:k]]
            chain.append(tuple(u[1:k]))
            if u[1] < 0:
                raise DisagreementError(template.format(*args, chain))
    return tuple(chain)


def face_chain(face, q: int) -> tuple[Vertex, ...]:
    """The vertices of a face of T_{k,q}, bottom to top; ValueError unless
    they are a chain inside one unit box (Edelsbrunner-Grayson): vertices of
    one length that, sorted by coordinate sum, rise by steps with every entry
    0 or 1, to a top at most 1 above the bottom in each coordinate.  A
    repeated vertex is a step that does not rise.  Every such chain is a
    face, which posets.f_subdivision's face count rests on too.

    >>> face_chain([(1, 2), (1, 1)], 3)
    ((1, 1), (1, 2))
    """
    chain = tuple(sorted(map(tuple, face), key=sum))
    if not chain:
        raise ValueError("a face needs at least one vertex")
    for v in chain:
        _validate_vertex(v, q)
    steps = [set(map(sub, upper, lower)) for lower, upper in zip(chain, chain[1:])]
    if (len(set(map(len, chain))) != 1 or not all(s in ({1}, {0, 1}) for s in steps)
            or not set(map(sub, chain[-1], chain[0])) <= {0, 1}):
        raise ValueError(f"{sorted(chain)} is not a face of the subdivision")
    return chain


def build_complex(k: int, q: int, max_facets: int = MAX_FACETS) -> SimplicialComplex:
    """The full subdivision complex; vertices are labeled by their tuples.
    Each code is decoded once, and all facets share one tuple per vertex."""
    check_facet_budget(k, q, max_facets)
    shared: dict = {}
    return SimplicialComplex(
        frozenset(shared.setdefault(u, u) for u in decode_facet(a, q)) for a in facet_codes(k, q)
    )


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
    inner = tuple(len(tuple(g)) for _, g in itertools.groupby(v[leading : len(v) - trailing]))
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
    return 0 < v[0] and v[-1] < q and all(map(int.__lt__, v, v[1:]))


def _label_chains(t: VertexType) -> tuple[tuple[int, ...], ...]:
    """The fixed label sequences whose interleavings form S_v, v of type t.

    Coordinates are labeled 1..k-1 and the extra symbol k closes the cycle.
    The merged outer chain reads (zeros decreasing, k, q-coordinates
    decreasing); each inner run reads its coordinate indices decreasingly.
    """
    k = t.leading_zeros + sum(t.inner_runs) + t.trailing_max + 1
    merged = (*range(t.leading_zeros, 0, -1), k, *range(k - 1, k - 1 - t.trailing_max, -1))
    chains = [merged]
    pos = t.leading_zeros
    for run in t.inner_runs:
        chains.append(tuple(range(pos + run, pos, -1)))
        pos += run
    return tuple(chains)


# The message of a star walk that leaves T: the vertex, pi, then the walk so far.
_LEAVES_T = "star of {}: walk {} leaves T: {}"


def _pi_of_word(chains, word) -> tuple[int, ...]:
    """The pi of S_v that a word over chain indices spells, letter i taking chain
    i's next label; a prefix is completed by each chain's other labels in turn."""
    rest = list(map(iter, chains))
    return (*(next(rest[i]) for i in word), *itertools.chain(*rest))


def facet_of_permutation(v: Vertex, pi: tuple[int, ...], q: int) -> tuple[Vertex, ...]:
    """The facet of star(v) indexed by pi in S_v, bottom to top: the walk from
    v along pi[:-1], each step checked by _walk.  The step with label k
    wraps to the facet's bottom, so the points from it on come first.
    """
    i = pi.index(len(v) + 1)
    walk = _walk(v, pi[:-1], q, _LEAVES_T, v, pi)
    return walk[i + 1 :] + walk[: i + 1]


def star_of_vertex(v: Vertex, q: int) -> SimplicialComplex:
    """Closed star of v, one facet_of_permutation per interleaving of v's label
    chains: public API that no verb builds.  CapacityError before the first walk
    when S_v is past MAX_FACETS."""
    chains = _label_chains(vertex_type(v, q))
    check_cap(multinomial([len(c) for c in chains]))
    words = distinct_permutations([i for i, c in enumerate(chains) for _ in c])
    return SimplicialComplex(facet_of_permutation(v, _pi_of_word(chains, w), q) for w in words)


def link_of_vertex(v: Vertex, q: int) -> LinkOfFaceReport:
    """Link of v, certified as the link of the one-vertex face (v,);
    DisagreementError unless its model's partition is that of v's run structure."""
    report = link_of_face((v,), q)
    (sigma,) = report.link_class.signatures
    lam = report.bottom_type.partition()
    if sigma != lam:
        raise DisagreementError(f"link of {tuple(v)}: run structure gives {lam}, the model {sigma}")
    return report


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
    """A face, bottom vertex b first; per face vertex, the labels walked from it
    to the next (the last wraps round to b); the link's type; b's type; and the
    link's facet count, certified against the join of one K_sigma per block."""

    face: tuple[Vertex, ...]
    blocks: tuple[tuple[int, ...], ...]
    link_class: FaceLinkClass
    bottom_type: VertexType
    num_facets: int


def _label_set(u: Vertex, b: Vertex) -> frozenset[int]:
    """Labels walked from b to u around a facet through both: 1..k-1 name
    raised coordinates and k the wrap from the facet's top to its bottom."""
    n = len(b)
    if all(x >= y for x, y in zip(u, b)):
        return frozenset(j + 1 for j in range(n) if u[j] == b[j] + 1)
    return frozenset([n + 1, *(j + 1 for j in range(n) if u[j] == b[j])])


def _block_groups(block: frozenset[int], b: Vertex, q: int) -> list[frozenset[int]]:
    """Labels of a block grouped by the bottom vertex's value, in the order of b's
    label chains: coordinates at 0 or q join label k in one outer group, first, and
    the inner values follow in rising order.  Each group is raised in a fixed
    order, so the block is a product of chains."""
    by_value: dict[int | None, set[int]] = {}
    for j in block:
        value = None if j > len(b) or b[j - 1] in (0, q) else b[j - 1]
        by_value.setdefault(value, set()).add(j)
    return [frozenset(by_value[value]) for value in sorted(by_value, key=lambda v: v or 0)]


class _ModelPoints(dict):
    """Each link vertex's model point, taken at first sight; DisagreementError naming
    the walk up to u (witness(u)) that brings a second vertex u to a taken point."""

    def __init__(self, point, witness):
        self.point, self.witness, self.preimage = point, witness, {}

    def __missing__(self, u):
        x = self[u] = self.point(u)
        w = self.preimage.setdefault(x, u)
        if w != u:
            raise DisagreementError(f"{self.witness(u)}: {w} and {u} both map to {x}")
        return x


def _model_points(sigmas):
    """The model points (i, x) of the join of one K_sigma per block, block by
    block, each block's listed by the rank sum(x_g strides[i][g]) of its group
    counts x and less its top, which is the next block's bottom: so raising
    group g from point m leads to m + strides[i][g].  nxt[m][g] is the first
    group from g on not yet full at point m (len(x) if none is), a row of
    len(x) + 1 entries.  A block's rows are made in the order of its points,
    group by group from the last: a group below its size puts g in front of
    the rows after it, and a full group puts their first entry there."""
    pts, strides, nxt = [], [], []
    for i, sigma in enumerate(sigmas):
        pts += [(i, x) for x in itertools.product(*[range(n + 1) for n in sigma])]
        pts.pop()
        end = len(sigma)
        rows, stride = [(end - 1, end)] * sigma[-1] + [(end, end)], [1]
        for g in range(end - 2, -1, -1):
            stride.insert(0, len(rows))
            rows = [(g, *r) for r in rows] * sigma[g] + [(r[0], *r) for r in rows]
        strides.append(stride)
        nxt += rows
        nxt.pop()
    return pts, strides, nxt


def _certify_walks(b, t, q, want, block, sigmas, point, where: str) -> int:
    """The number of walks from b (of type t) in its star with point want[p] at
    each depth p where that is set: a face's link, certified step by step against
    the join of one K_sigma per block, whose facets are saturated chains of the
    box prod [0, sigma_j] less both ends (Bjorner-Wachs).  So a model walk raises
    one group per step, its point (i, x) counting block i's labels per group, and
    lands on block i + 1's bottom as block i fills.  One depth-first search takes
    b's label chains in index order, each step once per prefix, checked as _walk
    checks it, and cuts a step that misses want.  A step whose label lies in the
    model's block (block[label]) maps its point once, through _ModelPoints, to the
    model's point after its next open group at this node; a branch off its block
    must be cut at its next depth in want; a node that the search leaves has no
    model step left.  DisagreementError names the walk at fault or the dropped one."""
    chains = _label_chains(t)
    sizes = [len(c) for c in chains]
    check_cap(multinomial(sizes))
    k = len(b) + 1
    if sum(map(sum, sigmas)) != k:
        raise DisagreementError(f"{where}: model walks of {sum(map(sum, sigmas))} points, not {k}")
    pts, strides, nxt = _model_points(sigmas)
    count, points, path = 0, [b], []
    at = _ModelPoints(point, lambda u: f"{where}: walk {count} {(*points, u)}")

    def images():  # the model points of this branch so far, while in its blocks
        return (*(pts[e[1]] for e in path), pts[s])

    def fault(u, image, rest):
        return DisagreementError(
            f"{where}: walk {count} {(*points, u)} maps to {(*images(), image)}; {rest}")

    def dropped(g):  # the images here, then the model's first walk via g
        walk, m = list(images()), s
        while len(walk) < k:
            m += strides[pts[m][0]][g]
            walk.append(pts[m])
            g = nxt[m][0]
        return tuple(walk)

    if at[b] != pts[0]:
        raise DisagreementError(
            f"{where}: walk 0 {(b,)} maps to {(at[b],)}; model walk 0 is {(pts[0],)}")
    u, n, taken = [0, *b, q], len(chains), [0] * len(chains)
    # The model point here and the next group to raise from it; the depth where
    # the branch left its block (0 while it keeps to it); the next chain to try.
    # path holds per step the chain taken and the s, g to go on with after it.
    s, g, off, c = 0, 0, 0, 0
    while True:
        while c < n and taken[c] == sizes[c]:
            c += 1
        if c == n:
            if not off and nxt[s][g] < len(pts[s][1]):
                raise DisagreementError(
                    f"{where}: model walk {count} {dropped(nxt[s][g])} has no preimage")
            if not path:
                return count
            c, s, g = path.pop()
            taken[c] -= 1
            points.pop()
            if off > len(path):
                off = 0
            c += 1
            continue
        j = chains[c][taken[c]]
        if j < k:
            u[1:k] = points[-1]
            u[j] += 1
            bad = u[j] > u[j + 1]
        else:
            u[1:k] = [y - 1 for y in points[-1]]
            bad = u[1] < 0
        step = tuple(u[1:k])
        if bad:
            pi = _pi_of_word(chains, [*(e[0] for e in path), c])
            raise DisagreementError(_LEAVES_T.format(b, pi, [*points, step]))
        depth = len(points)
        face = want[depth]
        if face is not None and step != face:
            c += 1
            continue
        i, x = pts[s]
        if off or block[j] != i:
            if face is not None or depth == k - 1:
                raise DisagreementError(
                    f"{where}: walk {count} {(*points, step)} leaves block {i} but holds the face")
            path.append((c, s, g))
            off = off or depth
        else:
            gm = nxt[s][g]
            image = at[step]
            if gm == len(x):
                raise fault(step, image, f"the model has no further walk through {images()}")
            ns = s + strides[i][gm]
            if image != pts[ns]:
                raise fault(step, image, f"model walk {count} is {(*images(), pts[ns])}")
            if depth == k - 1:
                count, g, c = count + 1, gm + 1, c + 1
                continue
            path.append((c, s, gm + 1))
            s = ns
        taken[c] += 1
        points.append(step)
        g, c = 0, 0


def link_of_face(face, q: int) -> LinkOfFaceReport:
    """Link of a face given by its vertices, with its combinatorial type.

    face_chain checks the face before any star is walked; b's type is read once.
    The label sets W_i of the face cut [k] into blocks, one join factor of the
    model each.  A walk of the star of b holds face vertex i only at step |W_i|,
    so _certify_walks asks for it at depth |W_i| and cuts every branch that
    misses it there: with those steps dropped, its walks are the link's facets.
    A vertex's labels, counted per group of its block, give its model point, so
    face vertex i maps to block i's bottom.
    """
    chain = face_chain(face, q)
    b, t = chain[0], vertex_type(chain[0], q)
    k = len(b) + 1
    walk = [_label_set(u, b) for u in chain] + [frozenset(range(1, k + 1))]
    blocks = [upper - lower for lower, upper in zip(walk, walk[1:])]
    groups = [_block_groups(block, b, q) for block in blocks]
    sigmas = tuple(tuple(len(g) for g in gs) for gs in groups)
    sizes = tuple(sorted(map(len, blocks), reverse=True))
    cls = FaceLinkClass(sizes, tuple(sorted(tuple(sorted(s, reverse=True)) for s in sigmas)))
    block_of = {j: i for i, B in enumerate(blocks) for j in B}

    def point(u):
        labels = _label_set(u, b)
        # u's block follows the last face label set that its own contains.
        i = sum(P <= labels for P in walk[1:-1])
        return i, tuple(len(labels & g) for g in groups[i])

    want = list(map({len(W): u for W, u in zip(walk, chain)}.get, range(k)))
    count = _certify_walks(b, t, q, want, block_of, sigmas, point, f"link of {chain}")
    return LinkOfFaceReport(chain, tuple(map(tuple, map(sorted, blocks))), cls, t, count)


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


def check_census(k: int, per_partition: int) -> None:
    """CapacityError before a census of per_partition steps for each of the p(k)
    partitions of k passes MAX_FACETS: k for classify-links --table (p(k) rows of
    up to k parts), k^2 for its link-type census (which lists the partitions of
    each n <= k for about k^2 / 2 face sizes and dimensions).  p(k) >= k, so a
    census past the cap at p(k) = k is refused before p(k) is counted."""
    steps = per_partition * k
    if steps <= MAX_FACETS:
        steps = per_partition * _partition_counts(k, k)[k]
    if steps > MAX_FACETS:
        raise CapacityError(
            f"a census of the partitions of {k} takes {per_partition} p({k}) > {MAX_FACETS} steps")


def count_link_types(k: int, q: int) -> int:
    """Number of distinct combinatorial types of vertex links in T_{k,q}:
    the partitions of k into at most q parts."""
    validate_kq(k, q)
    return _partition_counts(k, q)[k]


def _multichoose(a: int, b: int) -> int:
    """Multisets of size b from a symbols: C(a+b-1, b); 0 symbols allow only b=0."""
    if b == 0:
        return 1
    if a <= 0:
        return 0
    return comb(a + b - 1, b)


def _partition_counts(n: int, parts: int) -> list[int]:
    """[p_{<=parts}(0), ..., p_{<=parts}(n)]: the partitions of each m <= n into
    at most parts parts, counted as those with no part above parts."""
    p = [1] + [0] * n
    for part in range(1, min(n, parts) + 1):
        for m in range(part, n + 1):
            p[m] += p[m - part]
    return p


def _join_types(s: int, max_parts: int, at_most: list[int]) -> int:
    """s-dimensional joins of at most max_parts multi-part chain-product
    complexes K_lam, each lam with at most q parts (at_most[n] = p_{<=q}(n)).

    The sum runs over partitions mu of s+1: each part value n with
    multiplicity m contributes multichoose(p_{<=q}(n+1) - 1, m) choices of
    multi-part partitions of n+1.
    """
    return sum(
        prod(_multichoose(at_most[n + 1] - 1, m) for n, m in multiplicities(mu))
        for mu in partitions(s + 1)
        if len(mu) <= max_parts
    )


def q_sequence(s_max: int) -> tuple[int, ...]:
    """(Q_0, ..., Q_{s_max}): Q_s counts s-dimensional joins of multi-part
    chain-product complexes, with no bound on factors or parts (a partition
    of n+1 <= s+2 has at most s+2 parts)."""
    if s_max < 0:
        raise ValueError("s_max must be nonnegative")
    at_most = _partition_counts(s_max + 2, s_max + 2)
    return tuple(_join_types(s, s + 1, at_most) for s in range(s_max + 1))


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
    at_most = _partition_counts(k, q)
    return 1 + sum(_join_types(s, t - 1 if s < k - t - 1 else t, at_most) for s in range(k - t))


# ---------------------------------------------------------------------------
# Geometry export


def off_export(k: int, q: int, max_facets: int = MAX_FACETS) -> Iterator[str]:
    """OFF description of the subdivision, vertices at their lattice points,
    one line at a time; CapacityError before the first.

    Uses the classic 3-column OFF header when the ambient dimension k-1 is
    at most 3 (padding coordinates with zeros) and the nOFF variant above.
    """
    total = check_facet_budget(k, q, max_facets)
    return _off_lines(k, q, total)


def _off_lines(k: int, q: int, total: int) -> Iterator[str]:
    """The lines of off_export.  A facet's row starts with the index of its
    bottom vertex, its sorted code, so the rows come bottom by bottom: the
    codes of one bottom are its distinct permutations, decoded and sorted
    alone.  Chain vertices rise lexicographically, as do their indices, so
    sorting the chains sorts the rows."""
    index = {v: str(i) for i, v in enumerate(vertex_set(k, q))}
    dim = k - 1
    if dim <= 3:
        yield f"OFF\n{len(index)} {total} 0\n"
        padding = (0,) * (3 - dim)
    else:
        yield f"nOFF\n{dim}\n{len(index)} {total} 0\n"
        padding = ()
    for v in index:
        yield " ".join(map(str, v + padding)) + "\n"
    for bottom in weakly_increasing(dim, q - 1):
        for chain in sorted(decode_facet(a, q) for a in distinct_permutations(bottom)):
            yield f"{k} {' '.join(map(index.__getitem__, chain))}\n"
