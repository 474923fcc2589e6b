"""Checks and constructions that only the tests call.

Each is an independent oracle for an answer the library certifies another
way: the corners of the subdivision, the code of a star's facet by its
permutation, a facet's code read off its vertices, the facet across each
ridge by rewriting the code, h-vectors from a built complex's face counts or
each code's ascents, a vertex star walked one listed word at a time, a face
link filtered out of a vertex star, the init/descent table of S_k by
enumeration, the R-labeling of a box, join-irreducibility, a star cluster
filtered out of the full complex, and the init-then-lex shelling of the
barycentric sphere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import sub

from edgewise import subdivision
from edgewise.combinat import des, distinct_permutations, init, permutations_by_init
from edgewise.complexes import CapacityError, DisagreementError, SimplicialComplex, h_from_f
from edgewise.posets import k_lambda
from edgewise.shelling import ascent_positions
from edgewise.subdivision import (Code, Vertex, face_chain, facet_codes, star_of_vertex,
                                  validate_kq)


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
