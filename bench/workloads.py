"""The four workloads: seeded inputs and the ops that consume them.

An op is either one CLI invocation, run in-process through
``edgewise.cli.main`` with stdout captured by a ``HashSink``, or one library
call to ``verify_shelling``, which no verb can feed a non-shelling.  Each op
runs, returns its facts, and is checked later by ``checks``; checking never
happens inside the timed loop.

Sampling is stratified so that a different seed changes which inputs are
drawn but not how much work they cost.  Why each workload exists is recorded
in NOTES.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import random
import traceback
from dataclasses import dataclass

from edgewise import cli, complexes

import checks
from sink import HashSink

DEFAULT_SEED = 1


def _csv(values) -> str:
    return ",".join(map(str, values))


def _error() -> str:
    return traceback.format_exc(limit=-3).strip()[-2000:]


@dataclass(frozen=True)
class CliOp:
    """One CLI invocation; the fields are what the checks need to know."""

    verb: str
    k: int
    q: int
    fmt: str = "text"
    vertex: tuple[int, ...] | None = None
    faces: tuple[tuple[int, ...], ...] = ()
    blocks: tuple[int, ...] = ()
    partition: tuple[int, ...] | None = None

    @property
    def argv(self) -> tuple[str, ...]:
        argv = [self.verb, "-k", str(self.k), "-q", str(self.q)]
        if self.fmt != "text":
            argv += ["--format", self.fmt]
        if self.verb == "export":
            argv.append("--off")
        if self.vertex is not None:
            argv += ["--vertex", _csv(self.vertex)]
        for v in self.faces:
            argv += ["--face", _csv(v)]
        if self.partition is not None:
            argv += ["--partition", _csv(self.partition)]
        return tuple(argv)

    def __str__(self) -> str:
        return " ".join(self.argv)

    def run(self) -> dict:
        sink = HashSink(checks.probes_for(self))
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
                rc = cli.main(list(self.argv))
        except Exception:  # a raising op is a failed op; the run goes on
            return {"error": _error()}
        return {**sink.finish(), "rc": rc, "stderr": err.getvalue()[-2000:]}

    def check(self, facts: dict, digests: dict) -> list[str]:
        return checks.check_cli(self, facts, digests)


@dataclass(frozen=True, eq=False)
class VerifyOp:
    """verify_shelling on a facet order of T_{k,q}.

    witness is the first bad pair the order must be rejected with, or None
    when the order is a shelling.
    """

    k: int
    q: int
    complex: complexes.SimplicialComplex
    order: tuple[frozenset, ...]
    witness: tuple[int, int] | None

    def __str__(self) -> str:
        what = "a shelling" if self.witness is None else f"defect at {self.witness[1]}"
        return f"verify_shelling T_{self.k},{self.q} {what}"

    def run(self) -> dict:
        try:
            cert = complexes.verify_shelling(self.complex, self.order)
        except Exception:  # a raising op is a failed op; the run goes on
            return {"error": _error()}
        outcome = repr((cert.valid, cert.witness, cert.types)).encode()
        return {"certificate": cert, "sha256": hashlib.sha256(outcome).hexdigest()}

    def check(self, facts: dict, digests: dict) -> list[str]:
        return checks.check_verify(self, facts)


# ---------------------------------------------------------------------------
# Generators: each returns (warm-up ops, timed ops)


def certify(rng: random.Random):
    """Whole-subdivision shellings and star-cluster shellings, certified.

    The seed only rotates the report formats.  Star clusters keep the CLI's
    default base: clusters of other interior facets are isomorphic, but
    their verification times lie up to 15% apart, so the seed would move
    wall_s.
    """
    formats = ("text", "json", "csv")
    offset = rng.randrange(len(formats))
    ladder = ((3, 4), (3, 8), (3, 12), (4, 3), (4, 5), (4, 6), (4, 8),
              (5, 3), (5, 4), (5, 5), (5, 6))
    ops = [
        CliOp("shell", k, q, fmt=formats[(i + offset) % len(formats)])
        for i, (k, q) in enumerate(ladder)
    ]
    ops += [CliOp("star-cluster", k, k + 3) for k in range(3, 7)]
    return [CliOp("shell", 3, 2)], ops


def reject(rng: random.Random):
    """Non-shellings: one facet moved into the early or the late band."""
    ops = []
    for k, q in ((4, 12), (5, 6), (5, 7)):
        order, K = subdivision_shelling(k, q)
        for band in BANDS:
            ops.append(_defect(k, q, K, order, band, rng))
    order, K = subdivision_shelling(3, 6)
    return [_defect(3, 6, K, order, "early", rng)], ops


# Defects land at the centre of their band, so the seed, which picks the
# moved facet, leaves the length of the scan before the witness unchanged.
BANDS = {"early": (0.05, 0.15), "late": (0.85, 0.95)}


def subdivision_shelling(k: int, q: int):
    """The facets of T_{k,q} in shelling order, and the complex they form."""
    codes = sorted(itertools.product(range(q), repeat=k - 1), key=checks.shelling_key)
    order = [frozenset(checks.decode(code, q)) for code in codes]
    return order, complexes.SimplicialComplex(order)


def _defect(k, q, K, order, band, rng) -> VerifyOp:
    """Move a later facet to the band's centre p, choosing among facets whose
    restriction there is empty or inside an earlier facet, so the order
    first fails at p."""
    lo, hi = BANDS[band]
    n = len(order)
    p = round((lo + hi) / 2 * n)
    prefix = order[:p]
    ridges = {F - {v} for F in prefix for v in F}
    later = list(range(math.ceil(hi * n), n))
    rng.shuffle(later)
    for src in later:
        F = order[src]
        rest = frozenset(v for v in F if F - {v} in ridges)
        i = next((i for i, G in enumerate(prefix) if rest <= G), None)
        if i is not None:
            moved = prefix + [F] + order[p:src] + order[src + 1 :]
            return VerifyOp(k, q, K, tuple(moved), (i, p))
    raise RuntimeError(f"no facet of T_{k},{q} makes a {band} defect")


def links(rng: random.Random):
    """Vertex links per partition stratum, face links per block-size stratum,
    and link-type counts per partition of 7."""
    ops = []
    for k, q in ((6, 7), (7, 8)):
        strata: dict[tuple[int, ...], list] = {}
        for v in itertools.combinations_with_replacement(range(q + 1), k - 1):
            strata.setdefault(checks.vertex_partition(v, q), []).append(v)
        for lam in sorted(strata):
            ops.append(CliOp("link", k, q, vertex=rng.choice(strata[lam])))
    # Faces of interior facets: every such face with the same block sizes
    # has an isomorphic link and an isomorphic star around its bottom vertex.
    k, q = 6, 8
    interior = list(itertools.combinations(range(1, q - 1), k - 1))
    for blocks in checks.partitions(k):
        if len(blocks) < 2:
            continue
        chain = checks.decode(rng.choice(interior), q)
        gaps = list(blocks)
        rng.shuffle(gaps)
        start = rng.randrange(k)
        positions = sorted((start + sum(gaps[:i])) % k for i in range(len(gaps)))
        face = tuple(chain[p] for p in positions)
        ops.append(CliOp("link", k, q, faces=face, blocks=blocks))
    for lam in checks.partitions(7):
        ops.append(CliOp("classify-links", 7, 8, partition=lam))
    return [CliOp("link", 3, 3, vertex=(1, 2))], ops


def bulk(rng: random.Random):
    """Reports that scale with the facet count, up to 10^5 facets.

    The sizes are the point of this workload, so the seed changes nothing.
    """
    ops = [
        CliOp("build", 6, 10, fmt="json"),
        CliOp("build", 6, 8, fmt="csv"),
        CliOp("build", 6, 8, fmt="text"),
        CliOp("export", 6, 8),
        CliOp("hvector", 7, 10),
    ]
    return [CliOp("build", 3, 2, fmt="json")], ops


GENERATORS = {"certify": certify, "reject": reject, "links": links, "bulk": bulk}


def generate(workload: str, seed: int):
    """(warm-up ops, timed ops) of a workload; a seed always gives the same."""
    return GENERATORS[workload](random.Random(seed))
