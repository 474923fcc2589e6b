"""Output checks that share no code with the library they check.

Every expected value here comes from a closed form or a small enumeration
written for the benchmark: the facet decoder, the shelling order key, the
binomial h-vector, vertex partitions, link sizes, model h-vectors and the
restriction faces of an order.  A check returns a list of problems; an empty
list means the op passed.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from math import comb, factorial, prod

# ---------------------------------------------------------------------------
# Closed forms and small enumerations


def partitions(n: int, max_part: int | None = None):
    """Partitions of n as non-increasing tuples, largest first part first."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def decode(code: tuple[int, ...], q: int) -> tuple[tuple[int, ...], ...]:
    """Chain of the facet with this code: start at the sorted code, then read
    the code right to left, raising the coordinate each entry names by its
    stable rank."""
    n = len(code)
    rank = {j: r for r, j in enumerate(sorted(range(n), key=lambda j: (code[j], j)))}
    v = sorted(code)
    chain = [tuple(v)]
    for j in reversed(range(n)):
        v[rank[j]] += 1
        chain.append(tuple(v))
    return tuple(chain)


def shelling_key(code: tuple[int, ...]):
    """The subdivision's shelling order: max entry, entry sum, then
    descending lexicographic."""
    return (max(code), sum(code), tuple(-c for c in code))


def subdivision_h(k: int, q: int) -> tuple[int, ...]:
    """h_i = sum_j (-1)^j C(k, j) C((i-j)q + k - 1, k - 1), for i = 0..k."""
    return tuple(
        sum(
            (-1) ** j * comb(k, j) * comb((i - j) * q + k - 1, k - 1)
            for j in range(i + 1)
        )
        for i in range(k + 1)
    )


def vertex_partition(v: tuple[int, ...], q: int) -> tuple[int, ...]:
    """Leading zeros and trailing q's merge into one part with one extra
    unit; every maximal run of an inner value is a part of its own."""
    lead = len(v) - len(tuple(itertools.dropwhile(lambda c: c == 0, v)))
    trail = len(v) - len(tuple(itertools.dropwhile(lambda c: c == q, reversed(v))))
    inner = v[lead : len(v) - trail]
    runs = [len(tuple(g)) for _, g in itertools.groupby(inner)]
    return tuple(sorted([lead + trail + 1] + runs, reverse=True))


def multinomial(parts) -> int:
    return factorial(sum(parts)) // prod(factorial(p) for p in parts)


def link_type_faces(k: int, q: int, lam: tuple[int, ...]) -> int:
    """Faces of the region whose interior vertices have link type lam."""
    s = len(lam)
    if s > q:
        return 0
    return k * factorial(s - 1) // prod(factorial(m) for m in Counter(lam).values())


def model_h(lam: tuple[int, ...]) -> tuple[int, ...]:
    """h of the chain-product model: words with lam_i letters i, by descents."""
    letters = [i for i, part in enumerate(lam) for _ in range(part)]
    h = [0] * sum(lam)
    for word in set(itertools.permutations(letters)):
        h[sum(a > b for a, b in zip(word, word[1:]))] += 1
    return tuple(h)


def model_vertices(lam: tuple[int, ...]) -> int:
    """Proper part of a product of chains of lengths lam."""
    return prod(part + 1 for part in lam) - 2


def star_cluster_h(k: int) -> tuple[int, ...]:
    """Cluster h-vector of an interior facet: permutations of 1..k counted
    by descents, each weighted by its faithful initial part (the least t
    whose prefix is {1..t})."""
    h = [0] * k
    for pi in itertools.permutations(range(1, k + 1)):
        init = next(t for t in range(1, k + 1) if max(pi[:t]) == t)
        h[sum(a > b for a, b in zip(pi, pi[1:]))] += init
    return tuple(h)


def restriction(order, j: int) -> frozenset:
    """Vertices v of facet j such that facet_j - {v} lies in an earlier facet."""
    F = order[j]
    return frozenset(v for v in F if any(F - {v} <= G for G in order[:j]))


# ---------------------------------------------------------------------------
# Probes: what the stdout sink counts while a report streams past

_PROBES = {
    ("shell", "text"): {"types": re.compile(r"^\(.*\) type (\d+):", re.M)},
    ("shell", "csv"): {"types": re.compile(r"^[\d ]+,(\d+),", re.M)},
    ("build", "text"): {"facets": "f (", "vertices": "v ("},
    ("build", "json"): {
        "facets": '      "code": [',
        "num_facets": re.compile(r'^  "num_facets": (\d+),$', re.M),
        "num_vertices": re.compile(r'^  "num_vertices": (\d+),$', re.M),
    },
}


def probes_for(op) -> dict:
    return _PROBES.get((op.verb, op.fmt), {})


# ---------------------------------------------------------------------------
# Checks


def _tuple_after(label: str, text: str):
    match = re.search(re.escape(label) + r"\s*\(([^)]*)\)", text)
    if match is None:
        return None
    return tuple(int(x) for x in match.group(1).replace(",", " ").split())


def _int_after(label: str, text: str):
    match = re.search(re.escape(label) + r"\s*(\d+)", text)
    return None if match is None else int(match.group(1))


def _json_list(key: str, text: str):
    match = re.search(r'"' + key + r'": \[([^\]]*)\]', text)
    if match is None:
        return None
    return tuple(int(x) for x in match.group(1).replace(",", " ").split())


def _expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got}, want {want}")


def check_cli(op, facts: dict, digests: dict) -> list[str]:
    """Exit status, recorded digest and the verb's closed-form facts."""
    if facts.get("error"):
        return [f"raised {facts['error']}"]
    problems: list[str] = []
    _expect(problems, "exit code", facts["rc"], 0)
    want_digest = digests.get(" ".join(op.argv))
    if want_digest is not None:
        _expect(problems, "stdout sha256", facts["sha256"], want_digest)
    if facts["rc"] == 0:
        _VERB_CHECKS[op.verb](op, facts, problems)
    return problems


def _check_shell(op, facts, problems) -> None:
    k, q, head, counts = op.k, op.q, facts["head"], facts["counts"]
    h = subdivision_h(k, q)[:-1]
    n = q ** (k - 1)
    if op.fmt == "json":
        _expect(problems, "num_facets", _int_after('"num_facets":', head), n)
        _expect(problems, "h", _json_list("h", head), h)
        return
    if op.fmt == "text":
        _expect(problems, "facets", _int_after("facets:", head), n)
        _expect(problems, "h", _tuple_after("h =", head), h)
    histogram = tuple(counts["types"].get(str(t), 0) for t in range(k))
    _expect(problems, "type histogram", histogram, h)
    _expect(problems, "typed rows", sum(counts["types"].values()), n)


def _check_star_cluster(op, facts, problems) -> None:
    head = facts["head"]
    h = star_cluster_h(op.k)
    _expect(problems, "base", _tuple_after("base code", head), tuple(range(1, op.k)))
    _expect(problems, "facets", _int_after("facets:", head), sum(h))
    _expect(problems, "h", _tuple_after("h =", head), h)
    layers = re.search(r"layers: ([\d +]+)\n", head)
    total = None if layers is None else sum(int(x) for x in layers.group(1).split("+"))
    _expect(problems, "layer total", total, sum(h))
    if "valid shelling: yes" not in head:
        problems.append("report does not claim a valid shelling")


def _check_link(op, facts, problems) -> None:
    head, k = facts["head"], op.k
    if op.vertex is not None:
        if len(op.vertex) != k - 1:
            problems.append(f"vertex {op.vertex} has no place in T_{k},{op.q}: exit 0 anyway")
            return
        lam = vertex_partition(op.vertex, op.q)
        _expect(problems, "partition", _tuple_after("partition:", head), lam)
        _expect(problems, "link facets", _int_after("link facets:", head), multinomial(lam))
        interior = re.search(r"interior: (\w+)", head)
        _expect(problems, "interior", interior and interior.group(1),
                "yes" if lam == (1,) * k else "no")
        if "certified" not in head:
            problems.append("link not certified")
        return
    # Faces are drawn from interior facets, so every block is a run of
    # distinct values and the link is a join of K_(1^b), one per block.
    blocks = op.blocks
    _expect(problems, "block sizes", _tuple_after("block sizes:", head), blocks)
    _expect(problems, "link facets", _int_after("link facets:", head),
            prod(factorial(b) for b in blocks))
    if "join model: certified" not in head:
        problems.append("face link not certified")


def _check_classify(op, facts, problems) -> None:
    head, lam = facts["head"], op.partition
    _expect(problems, "faces with this link type",
            _int_after("faces with this link type:", head), link_type_faces(op.k, op.q, lam))
    _expect(problems, "model h", _tuple_after("model h-vector:", head), model_h(lam))
    _expect(problems, "model vertices", _int_after("model vertices:", head), model_vertices(lam))


def _check_build(op, facts, problems) -> None:
    k, q, counts = op.k, op.q, facts["counts"]
    n, nv = q ** (k - 1), comb(q + k - 1, k - 1)
    if op.fmt == "text":
        _expect(problems, "facet rows", counts["facets"]["f ("], n)
        _expect(problems, "vertex rows", counts["vertices"]["v ("], nv)
        _expect(problems, "facets", _int_after("facets:", facts["head"]), n)
    elif op.fmt == "csv":
        _expect(problems, "rows", facts["lines"] - 1, n)
    else:
        _expect(problems, "facet objects", counts["facets"]['      "code": ['], n)
        _expect(problems, "num_facets", dict(counts["num_facets"]), {str(n): 1})
        _expect(problems, "num_vertices", dict(counts["num_vertices"]), {str(nv): 1})


def _check_export(op, facts, problems) -> None:
    k, q = op.k, op.q
    n, nv = q ** (k - 1), comb(q + k - 1, k - 1)
    header = ["nOFF", str(k - 1)] if k - 1 > 3 else ["OFF"]
    header.append(f"{nv} {n} 0")
    _expect(problems, "header", facts["head"].split("\n")[: len(header)], header)
    _expect(problems, "lines", facts["lines"], len(header) + nv + n)


def _check_hvector(op, facts, problems) -> None:
    head = facts["head"]
    h = subdivision_h(op.k, op.q)[:-1]
    _expect(problems, "h", _tuple_after("h =", head), h)
    routes = re.findall(r"^  (\w+): \(([^)]*)\)$", head, re.MULTILINE)
    _expect(problems, "routes", len(routes), 4 if op.q ** (op.k - 1) <= 10**6 else 3)
    for name, values in routes:
        _expect(problems, f"route {name}",
                tuple(int(x) for x in values.replace(",", " ").split()), h)


_VERB_CHECKS = {
    "shell": _check_shell,
    "star-cluster": _check_star_cluster,
    "link": _check_link,
    "classify-links": _check_classify,
    "build": _check_build,
    "export": _check_export,
    "hvector": _check_hvector,
}


def check_verify(op, facts: dict) -> list[str]:
    """A rejected order must name a witness (i, j) with i < j and R_j inside
    facet i; an accepted one must type its facets by the closed-form h."""
    if facts.get("error"):
        return [f"raised {facts['error']}"]
    cert = facts["certificate"]
    problems: list[str] = []
    if cert.valid:
        _expect(problems, "witness", cert.witness, op.witness)
        _expect(problems, "type histogram", cert.type_histogram(), subdivision_h(op.k, op.q))
        return problems
    if cert.witness is None:
        return ["invalid certificate without a witness"]
    i, j = cert.witness
    if not 0 <= i < j < len(op.order):
        return [f"witness {cert.witness} is not a pair i < j of the order"]
    if not restriction(op.order, j) <= op.order[i]:
        problems.append(f"witness {cert.witness}: R_{j} is not inside facet {i}")
    _expect(problems, "witness", cert.witness, op.witness)
    return problems
