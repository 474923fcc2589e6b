"""Checks and constructions that only the tests call.

Each is an independent oracle for an answer the library certifies another
way: the corners of the subdivision, the code of a star's facet by its
permutation, a facet's code read off its vertices, the facet across each
ridge by rewriting the code, each code's ascent positions, h-vectors from a
built complex's face counts, each code's ascents or each multiset word listed
whole, a vertex star walked one listed word at a time, a face link filtered
out of a vertex star, the init/descent table of S_k by enumeration, the
R-labeling of a box, join-irreducibility, a star cluster filtered out of the
full complex, the init-then-lex shelling of the barycentric sphere, a link
certified the way the library did before it checked each step: star walks and
model walks listed apart and compared whole, and the f-vector of the
subdivision counted one vertex box at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, prod
from operator import sub

from edgewise import subdivision
from edgewise.combinat import des, distinct_permutations, init, permutations_by_init
from edgewise.complexes import CapacityError, DisagreementError, SimplicialComplex, h_from_f
from edgewise.posets import k_lambda
from edgewise.combinat import multinomial
from edgewise.complexes import check_cap
from edgewise.subdivision import (Code, FaceLinkClass, Vertex, face_chain, facet_codes,
                                  star_of_vertex, validate_kq, vertex_type)


def corners(k: int, q: int) -> tuple[Vertex, ...]:
    """Corners w_1, ..., w_k of the region; w_i has i-1 trailing q's."""
    validate_kq(k, q)
    return tuple((0,) * (k - i) + (q,) * (i - 1) for i in range(1, k + 1))


def facet_code_for_permutation(v: Vertex, pi: tuple[int, ...]) -> Code:
    """Code of the facet of star(v) indexed by pi in S_v.

    With k at position i of pi, the code reads the coordinates before k in
    reverse, then the coordinates after k in reverse with entries lowered
    by 1: (v_{pi_{i-1}}, ..., v_{pi_1}, v_{pi_k} - 1, ..., v_{pi_{i+1}} - 1).
    """
    k = len(v) + 1
    i = pi.index(k)
    prefix = tuple(v[pi[j] - 1] for j in range(i - 1, -1, -1))
    suffix = tuple(v[pi[j] - 1] - 1 for j in range(k - 1, i, -1))
    return prefix + suffix


def code_of_facet(vertices, q: int) -> Code:
    """Recover the code from a facet's vertex set: a face_chain of k
    vertices, whose k-1 steps each raise one coordinate.  The chain's checks
    imply that ties of the bottom are raised right first and that the bottom
    has max at most q-1, so the code needs no check of its own."""
    chain = face_chain(vertices, q)
    n = len(chain[0])
    if len(chain) != n + 1:
        raise ValueError(f"a facet needs {n + 1} distinct vertices, got {len(chain)}")
    raised = [list(map(sub, upper, lower)).index(1) + 1 for lower, upper in zip(chain, chain[1:])]
    # The walk from the bottom raises these labels in order, then wraps (k).
    return facet_code_for_permutation(chain[0], (*raised, n + 1))


def ridge_neighbors(a: Code, q: int) -> dict[int, Code | None]:
    """The facet across each ridge of facet a, keyed by dropped chain position.

    Position p in 1..k means the ridge omitting the p-th vertex of the chain
    (1 = bottom, k = top).  None marks a boundary ridge.
    """
    subdivision._validate_code(a, q)
    n = len(a)
    k = n + 1
    out: dict[int, Code | None] = {}
    out[k] = (a[1:] + (a[0] - 1,)) if a[0] > 0 else None
    out[1] = ((a[n - 1] + 1,) + a[: n - 1]) if a[n - 1] <= q - 2 else None
    for i in range(1, n):
        out[k - i] = a[: i - 1] + (a[i], a[i - 1]) + a[i + 1 :] if a[i - 1] != a[i] else None
    return out


def has_face(K: SimplicialComplex, sigma) -> bool:
    s = frozenset(sigma)
    return any(s <= F for F in K.facets)


def h_vector(K: SimplicialComplex) -> tuple[int, ...]:
    return h_from_f(K.f_vector())


def h_k_lambda_from_complex(parts: tuple[int, ...]) -> tuple[int, ...]:
    """h-vector read off the f-vector of the built complex K_lam.

    K_lam has dimension sum(parts)-2, so this has the same length (k entries,
    indices 0..k-1) as the counting routes.
    """
    return h_vector(k_lambda(parts))


def h_k_lambda_by_listed_words(parts: tuple[int, ...]) -> tuple[int, ...]:
    """h-vector of K_lam with each word over {1^lam_1, ..., s^lam_s} listed
    whole by distinct_permutations and its descents counted by des: the word
    route as it stood before the library counted the words in one walk."""
    counts = [0] * sum(parts)
    for word in distinct_permutations([i for i, m in enumerate(parts, 1) for _ in range(m)]):
        counts[des(word)] += 1
    return tuple(counts)


@dataclass(frozen=True)
class DescentInitTable:
    """k x k table of counts h_{i,d} = #{pi in S_k : init(pi)=i, des(pi)=d}.

    rows[i-1][d] stores h_{i,d} for init value i in 1..k and descent count d
    in 0..k-1.  (In 1-based matrix terms, column d+1 holds descent count d.)
    Column sums are Eulerian numbers; row i sums to X_i * (k-i)!.
    """

    k: int
    rows: tuple[tuple[int, ...], ...]

    def column_sums(self) -> tuple[int, ...]:
        return tuple(sum(row[d] for row in self.rows) for d in range(self.k))

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.rows)


def h_matrix(k: int) -> DescentInitTable:
    """The init/descent joint distribution over S_k, by direct enumeration."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    cells = [[0] * k for _ in range(k)]
    for pi in itertools.permutations(range(1, k + 1)):
        cells[init(pi) - 1][des(pi)] += 1
    return DescentInitTable(k, tuple(tuple(row) for row in cells))


def ascent_positions(code: Code) -> tuple[int, ...]:
    """1-based positions i with a_{i-1} < a_i in the padded word (0, a): the
    definition that shelling.predicted_restriction reads in one pass."""
    word = (0,) + tuple(code)
    return tuple(i for i in range(1, len(word)) if word[i - 1] < word[i])


def h_by_code_ascents(k: int, q: int) -> tuple[int, ...]:
    """Histogram of facet codes by the number of ascent positions of each."""
    h = [0] * (k + 1)
    for code in facet_codes(k, q):
        h[len(ascent_positions(code))] += 1
    return tuple(h)


def star_walks_by_words(v: Vertex, t, q: int):
    """The walks of the star of v (of type t), one word at a time: each multiset
    word over the label chains' indices, in lex order from distinct_permutations,
    gives pi (letter i taking chain i's next label), walked from v along pi[:-1]
    by _walk under the star's walk-off message.  The chains are read through the
    module, so a patched _label_chains reaches both this and star_facets."""
    chains = subdivision._label_chains(t)
    for word in distinct_permutations([i for i, c in enumerate(chains) for _ in c]):
        labels = list(map(iter, chains))
        pi = tuple(next(labels[i]) for i in word)
        yield subdivision._walk(v, pi[:-1], q, "star of {}: walk {} leaves T: {}", v, pi)


def star_facets(v: Vertex, t, q: int, face):
    """The facets through v (of type t) whose point p is face[p] for each depth p
    that the mapping face holds: the walks from v along pi[:-1], pi in S_v, in the
    lex order of pi's word over chain indices (letter i takes chain i's next label).

    A depth-first search interleaves the label chains letter by letter, trying them
    in index order, and takes each step once per prefix; a branch whose point at a
    depth of face is not that face point is cut there.  Each step is checked as
    _walk checks it.  CapacityError before the first step when S_v is past
    MAX_FACETS; DisagreementError naming v, the first word through the prefix and
    the walk so far when a step leaves T.  The chains are read through the module,
    so a patched _label_chains reaches this too."""
    chains = subdivision._label_chains(t)
    sizes = [len(c) for c in chains]
    check_cap(multinomial(sizes))
    k = len(v) + 1
    want = [face.get(p) for p in range(k)]
    u = [0, *v, q]
    n = len(chains)
    taken = [0] * n
    # The chain and the point of each step so far, the point of step 0 being v.
    path, points = [], [tuple(v)]
    i = 0
    while True:
        while i < n and taken[i] == sizes[i]:
            i += 1
        if i == n:
            if not path:
                return
            i = path.pop()
            taken[i] -= 1
            points.pop()
            i += 1
            continue
        j = chains[i][taken[i]]
        if j < k:
            u[1:k] = points[-1]
            u[j] += 1
            off = u[j] > u[j + 1]
        else:
            u[1:k] = [x - 1 for x in points[-1]]
            off = u[1] < 0
        point = tuple(u[1:k])
        if off:
            rest = list(map(iter, chains))
            pi = (*(next(rest[c]) for c in (*path, i)), *itertools.chain(*rest))
            raise DisagreementError(f"star of {v}: walk {pi} leaves T: {[*points, point]}")
        depth = len(points)
        if want[depth] is not None and point != want[depth]:
            i += 1
        elif depth == k - 1:
            yield (*points, point)
            i += 1
        else:
            path.append(i)
            taken[i] += 1
            points.append(point)
            i = 0


def _model_walks(sigmas):
    """The facets of the join of one K_sigma per block, each as a walk of k points
    in the order star_facets gives the link's.  A facet of K_sigma is a saturated
    chain of the box prod [0, sigma_j] with both ends dropped (Bjorner-Wachs), so
    a walk takes the blocks in turn: block i's bottom (i, (0, ..., 0)), then its
    chain, one group raised per step; the block's last step, to its top, gives the
    next block's bottom.  A depth-first search raises a block's groups in index
    order, so walks come in the lex order of their words over the groups."""
    tops = [list(sigma) for sigma in sigmas]
    xs = [[0] * len(sigma) for sigma in sigmas]

    def at(i):
        return i, tuple(xs[i])

    # The (block, group) raised at each step so far, and the point after it.
    path, points = [], [at(0)]
    last = sum(map(sum, sigmas)) - 1
    if not last:
        yield tuple(points)
        return
    i = j = 0
    while True:
        x, top = xs[i], tops[i]
        n = len(top)
        while j < n and x[j] == top[j]:
            j += 1
        if j == n:
            if not path:
                return
            i, j = path.pop()
            xs[i][j] -= 1
            points.pop()
            j += 1
            continue
        x[j] += 1
        after = i + (x == top)
        if len(points) == last:
            yield (*points, at(after))
            x[j] -= 1
            j += 1
        else:
            path.append((i, j))
            points.append(at(after))
            i, j = after, 0


def certify_link_by_walks(face, q: int):
    """(facet count, FaceLinkClass, each walk's image) of a face's link, certified
    whole: every walk of star_facets through the face is mapped point by point to
    the model, the map must be injective, and the images must be _model_walks'
    walks, in order, one each.  DisagreementError otherwise."""
    chain = face_chain(face, q)
    b = chain[0]
    walk = [subdivision._label_set(u, b) for u in chain] + [frozenset(range(1, len(b) + 2))]
    blocks = [upper - lower for lower, upper in zip(walk, walk[1:])]
    groups = [subdivision._block_groups(block, b, q) for block in blocks]
    sigmas = tuple(tuple(map(len, gs)) for gs in groups)

    def point(u):
        labels = subdivision._label_set(u, b)
        i = sum(P <= labels for P in walk[1:-1])
        return i, tuple(len(labels & g) for g in groups[i])

    walks = list(star_facets(b, vertex_type(b, q), q, {len(W): u for W, u in zip(walk, chain)}))
    link = {u for F in walks for u in F}
    images = [tuple(map(point, F)) for F in walks]
    if len(set(map(point, link))) != len(link) or images != list(_model_walks(sigmas)):
        raise DisagreementError(f"link of {chain}: the walks do not map onto the model's")
    sizes = tuple(sorted(map(len, blocks), reverse=True))
    signatures = tuple(sorted(tuple(sorted(s, reverse=True)) for s in sigmas))
    return len(walks), FaceLinkClass(sizes, signatures), images


def link_complex(face, q: int) -> SimplicialComplex:
    """The link of a face as a complex: F - face for each facet F of the
    star of the face's bottom vertex that holds the face."""
    chain = face_chain(face, q)
    face_set = frozenset(chain)
    star = star_of_vertex(chain[0], q)
    return SimplicialComplex(F - face_set for F in star.facets if face_set <= F)


def check_r_labeling(lengths: tuple[int, ...]) -> None:
    """Exhaustively check the R-labeling of the box with these chain lengths.

    Every interval [x, y] must have exactly one maximal chain whose label
    word (the raised coordinate of each step, 1-based) is weakly increasing;
    DisagreementError names the first interval that does not.
    """
    box = list(itertools.product(*(range(m + 1) for m in lengths)))
    for x in box:
        for y in box:
            if not all(a <= b for a, b in zip(x, y)) or x == y:
                continue
            rising = sum(
                all(a <= b for a, b in zip(word, word[1:]))
                for word in _interval_label_words(x, y)
            )
            if rising != 1:
                raise DisagreementError(f"interval [{x}, {y}] has {rising} weakly rising chains")


def _interval_label_words(x: tuple[int, ...], y: tuple[int, ...]):
    if x == y:
        yield ()
        return
    for i in range(len(x)):
        if x[i] < y[i]:
            step = x[:i] + (x[i] + 1,) + x[i + 1 :]
            for rest in _interval_label_words(step, y):
                yield (i + 1,) + rest


def is_join_irreducible(K: SimplicialComplex, max_components: int = 20) -> bool:
    """True when K admits no splitting K = M * N with both factors nonempty.

    Factor candidates are unions of connected components of the graph joining
    two vertices when they share no facet.  A split works when every union of
    an M-trace and an N-trace of facets is again a facet.  Raises
    CapacityError when the graph has more than max_components components.
    """
    vertices = sorted(K.vertices, key=repr)
    if len(vertices) < 2:
        return True

    together: dict = {v: set() for v in vertices}
    for F in K.facets:
        for u, v in itertools.combinations(F, 2):
            together[u].add(v)
            together[v].add(u)

    # Components of the complement relation: u ~ v when never in a common facet.
    component_of: dict = {}
    components: list[list] = []
    for v in vertices:
        if v in component_of:
            continue
        comp = [v]
        component_of[v] = len(components)
        frontier = [v]
        while frontier:
            u = frontier.pop()
            for w in vertices:
                if w not in component_of and w not in together[u] and w != u:
                    component_of[w] = len(components)
                    comp.append(w)
                    frontier.append(w)
        components.append(comp)

    c = len(components)
    if c < 2:
        return True
    if c > max_components:
        raise CapacityError(
            f"join-irreducibility split search over {c} components exceeds {max_components}"
        )

    facets = list(K.facets)
    for bits in range(1, 2 ** (c - 1)):
        side_m = frozenset(
            v for idx, comp in enumerate(components) if bits & (1 << idx) for v in comp
        )
        traces_m = {F & side_m for F in facets}
        traces_n = {F - side_m for F in facets}
        if not all(traces_m) or not all(traces_n):
            continue
        if all(m | n in K.facets for m in traces_m for n in traces_n):
            return False
    return True


def star_cluster(K: SimplicialComplex, sigma) -> SimplicialComplex:
    """Union of the closed stars of the vertices of the face sigma."""
    s = frozenset(sigma)
    if not has_face(K, s):
        raise ValueError(f"{set(sigma)} is not a face of the complex")
    return SimplicialComplex(F for F in K.facets if F & s)


def init_lex_order(k: int) -> tuple[tuple[int, ...], ...]:
    """All of S_k sorted by faithful initial part, then lexicographically."""
    groups = permutations_by_init(k)
    return tuple(itertools.chain.from_iterable(groups[t] for t in range(1, k + 1)))


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


def f_by_vertex_boxes(k: int, q: int) -> tuple[int, ...]:
    """(f_-1, f_0, ..., f_{k-1}) of T_{k,q}, one vertex box at a time: the
    faces with bottom v are the chains from the bottom of the box prod [0, r_i]
    over v's runs of equal entries below q (a run raises from its right end),
    which has prod C(r_i + m, m) multichains of m steps from its bottom; the
    sum over v is inverted to strict chains."""
    multi = [0] * k
    for v in subdivision.vertex_set(k, q):
        runs = [len(list(g)) for x, g in itertools.groupby(v) if x < q]
        for m in range(k):
            multi[m] += prod(comb(r + m, m) for r in runs)
    return (1, *(sum((-1) ** (m - n) * comb(m, n) * multi[n] for n in range(m + 1))
                 for m in range(k)))
