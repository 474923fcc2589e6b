"""Command-line surface: build, query, verify, count, and export.

Exit codes: 0 success, 1 broken internal invariant (a cross-check that must
agree did not), 2 usage error, 3 capacity cap exceeded.  All reports are
deterministic: identical inputs give byte-identical output.

Displayed h-vectors for the subdivision and for star clusters drop the
trailing entry h_k, which is structurally zero for these complexes; model
complex h-vectors (whose last entry can be nonzero) are shown in full.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from math import prod
from pathlib import Path

from .combinat import partitions
from .complexes import MAX_FACETS, CapacityError, DisagreementError
from .posets import h_k_lambda
from .shelling import consensus, h_routes, shelling_certificate
from .starcluster import (
    base_facet_code,
    sc_count_general_face,
    sc_shelling_and_h,
)
from .subdivision import (
    check_facet_budget,
    count_distinct_links_dim,
    count_faces_with_link_type,
    count_link_types,
    count_link_types_of_faces,
    decode_facet,
    facet_codes,
    link_of_face,
    link_of_vertex,
    off_export,
    q_sequence,
    validate_kq,
    vertex_set,
    vertex_type,
)

SCHEMA = 1


def _parse_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _csv_report(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _spaced(values) -> str:
    return " ".join(map(str, values))


def _trim(h: tuple[int, ...]) -> tuple[int, ...]:
    """Drop the structurally-zero final entry of a ball's h-vector."""
    if h[-1] != 0:
        raise DisagreementError(f"h-vector {h} of a ball ends in {h[-1]}, not 0")
    return h[:-1]


def _check_grid(args: argparse.Namespace) -> None:
    """k and q in range, and k-1 coordinates in every --vertex, --face and
    --base tuple; subdivision.face_chain refuses a --face list that is not a
    face, a repeated vertex included."""
    validate_kq(args.k, args.q)
    given = vars(args)
    for point in [*given.get("face", ()), given.get("vertex"), given.get("base")]:
        if point is not None and len(point) != args.k - 1:
            raise ValueError(f"{point} has {len(point)} coordinates, not k-1 = {args.k - 1}")


def _build(args):
    k, q = args.k, args.q
    total = check_facet_budget(k, q, args.max_facets)
    vertices = vertex_set(k, q)
    facets = [{"code": code, "chain": decode_facet(code, q)} for code in facet_codes(k, q)]
    payload = {
        "num_vertices": len(vertices),
        "num_facets": total,
        "vertices": vertices,
        "facets": facets,
    }

    def text():
        yield f"k={k} q={q}"
        yield f"vertices: {len(vertices)}"
        yield f"facets: {total}"
        for v in vertices:
            yield f"v {v}"
        for facet in facets:
            yield f"f {facet['code']}: {_spaced(facet['chain'])}"

    def table():
        rows = (
            [_spaced(facet["code"]), ";".join(_spaced(v) for v in facet["chain"])]
            for facet in facets
        )
        return ["code", "chain"], rows

    return payload, text, table


def _hvector(args):
    routes = h_routes(args.k, args.q, args.max_facets)
    h = _trim(consensus(routes))
    trimmed = {name: _trim(hh) for name, hh in sorted(routes.items())}
    payload = {"h": h, "routes": trimmed, "agree": True}

    def text():
        yield f"k={args.k} q={args.q}"
        yield f"h = {h}"
        yield f"{len(trimmed)} routes agree"
        for name, hh in trimmed.items():
            yield f"  {name}: {hh}"

    def table():
        rows = [["consensus", _spaced(h)]]
        rows += [[name, _spaced(hh)] for name, hh in trimmed.items()]
        return ["route", "h"], rows

    return payload, text, table


def _shell(args):
    report = shelling_certificate(args.k, args.q, args.max_facets)
    cert = report.certificate
    h = _trim(report.h)
    restrictions = [sorted(r) for r in cert.restrictions]
    payload = {
        "num_facets": len(report.order),
        "valid": True,
        "restrictions_match": True,
        "h": h,
        "order": report.order,
        "types": cert.types,
        "restrictions": restrictions,
    }

    def text():
        yield f"k={args.k} q={args.q}"
        yield f"facets: {len(report.order)}"
        yield "valid shelling: yes"
        yield "restrictions match closed form: yes"
        yield f"h = {h}"
        for code, t, r in zip(report.order, cert.types, restrictions):
            yield f"{code} type {t}: {_spaced(r)}"

    def table():
        rows = (
            [_spaced(code), t, ";".join(_spaced(v) for v in r)]
            for code, t, r in zip(report.order, cert.types, restrictions)
        )
        return ["code", "type", "restriction"], rows

    return payload, text, table


def _link(args):
    k, q = args.k, args.q
    if args.vertex is not None:
        v = args.vertex
        t = vertex_type(v, q)
        lam = t.partition()
        link = link_of_vertex(v, q)
        interior = lam == (1,) * k
        payload = {
            "vertex": v,
            "type": {
                "leading_zeros": t.leading_zeros,
                "runs": t.inner_runs,
                "trailing_max": t.trailing_max,
            },
            "partition": lam,
            "interior": interior,
            "link_facets": link.num_facets,
            "model": f"K{lam}",
            "certified": True,
        }

        def text():
            yield f"k={k} q={q} vertex {v}"
            yield (f"type: leading zeros {t.leading_zeros}, runs {t.inner_runs}, "
                   f"trailing max {t.trailing_max}")
            yield f"partition: {lam}"
            yield f"interior: {'yes' if interior else 'no'}"
            yield f"link facets: {link.num_facets}"
            yield f"link is K{lam}: certified"

        return payload, text, None
    report = link_of_face(args.face, q)
    cls = report.link_class
    payload = {
        "face": report.face,
        "blocks": cls.block_sizes,
        "sigmas": cls.signatures,
        "iso_key": {"simplex_part": cls.iso_key[0], "join_parts": cls.iso_key[1]},
        "link_facets": report.link.num_facets,
        "certified": True,
    }

    def text():
        yield f"k={k} q={q} face of {len(args.face)} vertices"
        yield f"block sizes: {cls.block_sizes}"
        yield f"signatures: {cls.signatures}"
        yield f"iso key: simplex part {cls.iso_key[0]}, join parts {cls.iso_key[1]}"
        yield f"link facets: {report.link.num_facets}"
        yield "link matches the chain-product join model: certified"

    return payload, text, None


def _face_count_table(k: int, q: int) -> list[tuple[tuple[int, ...], int]]:
    """(partition, face count) for every partition of k, fewest parts first."""
    by_parts = sorted(partitions(k), key=len)
    return [(lam, count_faces_with_link_type(k, q, lam)) for lam in by_parts]


def _classify(args):
    k, q = args.k, args.q
    if args.partition is not None:
        lam = tuple(sorted(args.partition, reverse=True))
        count = count_faces_with_link_type(k, q, lam)
        h_model = h_k_lambda(lam)
        # The box prod [0, lam_i] without its bottom and top.
        model_vertices = prod(p + 1 for p in lam) - 2
        payload = {
            "partition": lam,
            "count": count,
            "model_h": h_model,
            "model_vertices": model_vertices,
        }

        def text():
            yield f"k={k} q={q} partition {lam}"
            yield f"faces with this link type: {count}"
            yield f"model h-vector: {h_model}"
            yield f"model vertices: {model_vertices}"

        return payload, text, None
    if args.table:
        counts = _face_count_table(k, q)
        payload = {"table": [{"partition": lam, "count": c} for lam, c in counts]}

        def text():
            yield f"k={k} q={q}"
            for lam, c in counts:
                yield f"{lam}: {c}"
            yield f"total: {sum(c for _, c in counts)}"

        def table():
            return ["partition", "count"], ([_spaced(lam), c] for lam, c in counts)

        return payload, text, table
    vertex_types = count_link_types(k, q)
    by_size = [[t, count_link_types_of_faces(k, q, t)] for t in range(1, k + 1)]
    payload = {"vertex_link_types": vertex_types, "face_link_types_by_size": by_size}

    def text():
        yield f"k={k} q={q}"
        yield f"vertex link types: {vertex_types}"
        for t, c in by_size:
            yield f"faces of dimension {t - 1}: {c} link types"

    return payload, text, lambda: (["face_size", "link_types"], by_size)


def _star_cluster(args):
    k, q = args.k, args.q
    if args.face:
        count = sc_count_general_face(args.face, q)
        payload = {"face": sorted(args.face, key=sum), "count": count}

        def text():
            yield f"k={k} q={q} face of {len(args.face)} vertices"
            yield f"star cluster facets: {count}"

        return payload, text, None
    base = args.base if args.base is not None else base_facet_code(k, q)
    report = sc_shelling_and_h(base, q)
    counts = {
        "enumeration": report.count_enumerated,
        "inclusion_exclusion": report.count_inclusion_exclusion,
        "partition_formula": report.count_partition_formula,
        "x_value": report.x_value,
    }
    h = _trim(report.h)
    payload = {
        "base": base,
        "num_facets": report.count_enumerated,
        "layers": report.layer_sizes,
        "counts": counts,
        "valid": True,
        "h": h,
    }

    def text():
        yield f"k={k} q={q} base code {base}"
        yield f"facets: {report.count_enumerated}"
        yield f"layers: {' + '.join(map(str, report.layer_sizes))}"
        yield ("counts agree: enumeration = inclusion-exclusion = partition formula"
               f" = {report.x_value}")
        yield "valid shelling: yes"
        yield f"h = {h}"

    return payload, text, None


def _tables(args):
    face_rows = [[_spaced(lam), c] for lam, c in _face_count_table(6, 6)]
    tables = {
        "face_counts_k6.csv": _csv_report(["partition", "count"], face_rows),
        "q_sequence.csv": _csv_report(["s", "q_s"], enumerate(q_sequence(9))),
        "distinct_links.csv": _csv_report(
            ["dim", "count"], [[m, count_distinct_links_dim(m)] for m in range(10)]
        ),
    }
    if args.directory is not None:
        args.directory.mkdir(parents=True, exist_ok=True)
        for name, content in sorted(tables.items()):
            (args.directory / name).write_text(content)
        return None, lambda: (f"wrote {args.directory / name}" for name in sorted(tables)), None

    def text():
        for name, content in sorted(tables.items()):
            yield f"# {name}"
            yield from content.splitlines()

    return None, text, None


def _export(args):
    return None, off_export(args.k, args.q, args.max_facets).splitlines, None


def _render(args: argparse.Namespace, payload, text, table) -> str:
    """The report in the format args.fmt names, from what a verb returns: its
    JSON payload, a function yielding its text lines, and a function giving
    its CSV (header, rows) or None.  The forms not asked for are never built."""
    if args.fmt == "json":
        header = {"schema": SCHEMA, "command": args.command, "k": args.k, "q": args.q}
        return json.dumps({**header, **payload}, indent=2, sort_keys=True) + "\n"
    if args.fmt == "csv":
        if table is None:
            raise ValueError(f"this {args.command} report has no csv form")
        return _csv_report(*table())
    return "".join(f"{line}\n" for line in text())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgewise",
        description="Edgewise subdivisions of a simplex: build, verify, count, export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_verb(name, verb, summary, formats=(), capped=False):
        """Subparser with -k, -q, --out, and --format or --max-facets if asked."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(verb=verb, fmt="text")
        p.add_argument("-k", type=int, required=True, help="number of chain vertices per facet")
        p.add_argument("-q", type=int, required=True, help="subdivision parameter")
        if formats:
            p.add_argument("--format", dest="fmt", default="text", choices=formats)
        p.add_argument("--out", type=Path, default=None, help="write the report to this path")
        if capped:
            p.add_argument("--max-facets", type=int, default=MAX_FACETS)
        return p

    tabular = ("text", "json", "csv")
    add_verb("build", _build, "facet codes and vertices", tabular, capped=True)
    add_verb("hvector", _hvector, "h-vector by every route", tabular, capped=True)
    add_verb("shell", _shell, "shelling order and certificate", tabular, capped=True)

    link = add_verb("link", _link, "link of a vertex or face", ("text", "json"))
    selector = link.add_mutually_exclusive_group(required=True)
    selector.add_argument("--vertex", type=_parse_tuple, default=None,
                          help="comma-separated vertex coordinates")
    selector.add_argument("--face", action="append", type=_parse_tuple, default=[],
                          help="one face vertex per flag, repeated")

    classify = add_verb("classify-links", _classify, "link type counts and tables", tabular)
    mode = classify.add_mutually_exclusive_group()
    mode.add_argument("--table", action="store_true", help="per-partition face counts")
    mode.add_argument("--partition", type=_parse_tuple, default=None,
                      help="count faces with this link type")

    sc = add_verb("star-cluster", _star_cluster, "star cluster of an interior facet",
                  ("text", "json"))
    mode = sc.add_mutually_exclusive_group()
    mode.add_argument("--base", type=_parse_tuple, default=None,
                      help="interior facet code, default 1,2,...,k-1")
    mode.add_argument("--face", action="append", type=_parse_tuple, default=[],
                      help="count the star cluster of this interior face instead")

    tables = sub.add_parser("tables", help="regenerate the reference tables")
    tables.set_defaults(verb=_tables, fmt="text", out=None)
    tables.add_argument("--out", dest="directory", type=Path, default=None,
                        help="directory for the CSV files")

    export = add_verb("export", _export, "geometric realization", capped=True)
    export.add_argument("--off", action="store_true", required=True,
                        help="emit the OFF format")

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if "k" in args:
            _check_grid(args)
        report = _render(args, *args.verb(args))
        if args.out is not None:
            args.out.write_text(report)
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 3
    except DisagreementError as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"usage: {exc}", file=sys.stderr)
        return 2
    if args.out is None:
        sys.stdout.write(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
