"""Command-line surface: build, query, verify, count, and export.

Exit codes: 0 success, 1 broken internal invariant (a cross-check that must
agree did not), 2 usage error, 3 capacity cap exceeded.  All reports are
deterministic: identical inputs give byte-identical output.

Each verb hands over its report as chunks of whole lines, and main writes
each chunk as it comes, so no report is held whole.  A verb makes its checks
before its first chunk, except that build decodes, and so checks, each facet
as it reaches its row: a breach there exits 1 after part of the report may
already be on stdout.  An --out file is removed when the report fails.

Displayed h-vectors for the subdivision and for star clusters drop the
trailing entry h_k, which is structurally zero for these complexes; model
complex h-vectors (whose last entry can be nonzero) are shown in full.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import sys
from collections.abc import Iterable, Iterator
from math import prod
from pathlib import Path
from types import SimpleNamespace

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
    check_census,
    check_facet_budget,
    count_distinct_links_dim,
    count_faces_with_link_type,
    count_link_types,
    count_link_types_of_faces,
    facet_chains,
    link_of_face,
    link_of_vertex,
    number_of_vertices,
    off_export,
    q_sequence,
    validate_kq,
    vertex_set,
)

SCHEMA = 1
# The most text one write holds, unless a single piece is longer.
CHUNK = 1 << 15
# The most values one _Memo keeps (JSON keys, JSON vertex rows of one depth,
# build's vertices); past this it starts over.
MEMO_ROWS = 1 << 14


def _parse_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _chunked(pieces: Iterable[str]) -> Iterator[str]:
    """Pieces of whole lines, joined into writes of at most CHUNK characters;
    a longer piece is written alone."""
    batch, size = [], 0
    for piece in pieces:
        n = len(piece)
        if size + n > CHUNK and batch:
            yield "".join(batch)
            batch, size = [], 0
        batch.append(piece)
        size += n
    if batch:
        yield "".join(batch)


def _csv_lines(header: list[str], rows) -> Iterator[str]:
    """The header and then each row as one CSV line, all through one csv.writer."""
    line = []
    writer = csv.writer(SimpleNamespace(write=line.append), lineterminator="\n")
    for row in itertools.chain([header], rows):
        writer.writerow(row)
        yield line.pop()


class _IntTuples:
    """build's vertices: nonempty tuples of exact ints by construction
    (vertex_set), which _json_lines renders from one template with no type
    guard."""

    def __init__(self, rows) -> None:
        self.rows = rows


class _FacetRows:
    """build's facets: {"chain": chain, "code": code} for each (code, chain)
    of subdivision.facet_chains.  Codes come from itertools.product and
    chains from _walk, so a code and each vertex of a chain are nonempty
    tuples of exact ints by construction, and _json_lines renders the rows
    from one template with no type guard."""

    def __init__(self, pairs) -> None:
        self.pairs = pairs


def _json_lines(value) -> Iterator[str]:
    """json.dumps(value, indent=2, sort_keys=True) + "\n", in pieces of whole lines.

    A dict streams entry by entry and a list, a tuple or any other iterable
    item by item, so a lazy iterable is never held whole; each item is
    rendered whole.  json.dumps renders only the scalars and the keys, which
    must be strings.  Keys render through one _Memo, and inside an item a list
    of tuples of type-int entries (a chain of vertices; (True, False) is an
    equal key that renders otherwise) through one _Memo per depth.  Exact
    ints, tuples, lists and dicts are told apart by type alone; anything else
    goes through isinstance.

    build's rows, streamed as _IntTuples and _FacetRows (never met inside an
    item), render from templates made once from this writer's layout and key
    memo, with no type guard.  Every other payload goes through the generic
    path and its guard.
    """
    key_text = _Memo(json.dumps).__getitem__
    rows = _Memo(lambda depth: _Memo(functools.partial(whole, depth=depth)))
    # (opening, separator, closing) of the cells of a container at each depth.
    layout = _Memo(lambda depth: ("\n" + "  " * (depth + 1), ",\n" + "  " * (depth + 1),
                                  "\n" + "  " * depth))

    def int_tuple(depth: int):
        """whole() of a tuple of exact ints at depth."""
        head, sep, tail = layout[depth]
        return lambda row: f"[{head}{sep.join(map(str, row))}{tail}]"

    def facet_row(depth: int):
        """whole() of {"chain": chain, "code": code} at depth, as a function
        of (code, chain): the text around the two lists is made once, and
        each vertex row once per _Memo."""
        head, sep, tail = layout[depth]
        open_list, cell, close_list = layout[depth + 1]
        vertex_row = _Memo(int_tuple(depth + 2)).__getitem__
        start = f"{{{head}{key_text('chain')}: [{open_list}"
        middle = f"{close_list}]{sep}{key_text('code')}: [{open_list}"
        end = f"{close_list}]{tail}}}"

        def row(code, chain) -> str:
            return (start + cell.join(map(vertex_row, chain)) + middle
                    + cell.join(map(str, code)) + end)

        return row

    def whole(value, depth: int) -> str:
        kind = type(value)
        if kind is int:
            return str(value)
        if kind is tuple or kind is list:
            items = value
        elif kind is dict or isinstance(value, dict):
            if not value:
                return "{}"
            head, sep, tail = layout[depth]
            cells = [f"{key_text(key)}: {whole(item, depth + 1)}"
                     for key, item in sorted(value.items())]
            return f"{{{head}{sep.join(cells)}{tail}}}"
        elif isinstance(value, (str, int, float)) or value is None:
            return json.dumps(value)
        else:
            items = list(value)
        if not items:
            return "[]"
        kinds = {*map(type, items)}
        if kinds == {int}:
            cells = map(str, items)
        elif kinds == {tuple} and {*map(type, itertools.chain.from_iterable(items))} == {int}:
            cells = map(rows[depth + 1].__getitem__, items)
        else:
            cells = [whole(item, depth + 1) for item in items]
        head, sep, tail = layout[depth]
        return f"[{head}{sep.join(cells)}{tail}]"

    def stream(value, depth: int, head: str, tail: str) -> Iterator[str]:
        """The lines of head, then value at the given depth, then tail."""
        indent = "  " * depth
        inner = indent + "  "
        if isinstance(value, dict) and value:
            yield head + "{\n"
            entries = sorted(value.items())
            last = len(entries) - 1
            for i, (key, item) in enumerate(entries):
                yield from stream(item, depth + 1, f"{inner}{key_text(key)}: ",
                                  "," if i < last else "")
            yield f"{indent}}}{tail}\n"
        elif isinstance(value, (str, int, float, dict)) or value is None:
            yield f"{head}{whole(value, depth)}{tail}\n"
        else:
            if type(value) is _FacetRows:
                cells = itertools.starmap(facet_row(depth + 1), value.pairs)
            elif type(value) is _IntTuples:
                cells = map(int_tuple(depth + 1), value.rows)
            else:
                cells = map(functools.partial(whole, depth=depth + 1), value)
            done = object()
            prev = next(cells, done)
            if prev is done:
                yield f"{head}[]{tail}\n"
                return
            yield head + "[\n"
            for cell in cells:
                yield f"{inner}{prev},\n"
                prev = cell
            yield f"{inner}{prev}\n{indent}]{tail}\n"

    return stream(value, 0, "", "")


def _spaced(values) -> str:
    return " ".join(map(str, values))


class _Memo(dict):
    """render(value) of each value looked up, made once and then reused; it
    starts over once it holds MEMO_ROWS values, so its memory stays bounded.
    The CLI's one memo: JSON keys and vertex rows, build's text and CSV rows."""

    def __init__(self, render) -> None:
        super().__init__()
        self.render = render

    def __missing__(self, value):
        if len(self) >= MEMO_ROWS:
            self.clear()
        text = self[value] = self.render(value)
        return text


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
    num_vertices = number_of_vertices(k, q)

    payload = {
        "num_vertices": num_vertices,
        "num_facets": total,
        "vertices": _IntTuples(vertex_set(k, q)),
        "facets": _FacetRows(facet_chains(k, q)),
    }

    def text():
        yield f"k={k} q={q}"
        yield f"vertices: {num_vertices}"
        yield f"facets: {total}"
        for v in vertex_set(k, q):
            yield f"v {v}"
        shown = _Memo(str).__getitem__
        for code, chain in facet_chains(k, q):
            yield f"f {code}: {' '.join(map(shown, chain))}"

    def table():
        spaced = _Memo(_spaced).__getitem__
        rows = ([_spaced(code), ";".join(map(spaced, chain))]
                for code, chain in facet_chains(k, q))
        return ["code", "chain"], rows

    return _render(args, payload, text, table)


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

    return _render(args, payload, text, table)


def _shell(args):
    report = shelling_certificate(args.k, args.q, args.max_facets)
    h = _trim(report.h)

    def rows():
        """Each facet's restriction, as its chain's vertices at the
        restriction's positions; they rise, as the chain does."""
        for chain, rest in zip(report.chains, report.restrictions):
            yield [chain[p] for p in rest]

    payload = {
        "num_facets": len(report.order),
        "valid": True,
        "restrictions_match": True,
        "h": h,
        "order": report.order,
        "types": map(len, report.restrictions),
        "restrictions": rows(),
    }

    def text():
        yield f"k={args.k} q={args.q}"
        yield f"facets: {len(report.order)}"
        yield "valid shelling: yes"
        yield "restrictions match closed form: yes"
        yield f"h = {h}"
        for code, r in zip(report.order, rows()):
            yield f"{code} type {len(r)}: {_spaced(r)}"

    def table():
        lines = ([_spaced(code), len(r), ";".join(map(_spaced, r))]
                 for code, r in zip(report.order, rows()))
        return ["code", "type", "restriction"], lines

    return _render(args, payload, text, table)


def _link(args):
    k, q = args.k, args.q
    if args.vertex is not None:
        v = args.vertex
        report = link_of_vertex(v, q)
        t = report.bottom_type
        lam = t.partition()
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
            "link_facets": report.num_facets,
            "model": f"K{lam}",
            "certified": True,
        }

        def text():
            yield f"k={k} q={q} vertex {v}"
            yield (f"type: leading zeros {t.leading_zeros}, runs {t.inner_runs}, "
                   f"trailing max {t.trailing_max}")
            yield f"partition: {lam}"
            yield f"interior: {'yes' if interior else 'no'}"
            yield f"link facets: {report.num_facets}"
            yield f"link is K{lam}: certified"

        return _render(args, payload, text, None)
    report = link_of_face(args.face, q)
    cls = report.link_class
    payload = {
        "face": report.face,
        "blocks": cls.block_sizes,
        "sigmas": cls.signatures,
        "iso_key": {"simplex_part": cls.iso_key[0], "join_parts": cls.iso_key[1]},
        "link_facets": report.num_facets,
        "certified": True,
    }

    def text():
        yield f"k={k} q={q} face of {len(args.face)} vertices"
        yield f"block sizes: {cls.block_sizes}"
        yield f"signatures: {cls.signatures}"
        yield f"iso key: simplex part {cls.iso_key[0]}, join parts {cls.iso_key[1]}"
        yield f"link facets: {report.num_facets}"
        yield "link matches the chain-product join model: certified"

    return _render(args, payload, text, None)


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

        return _render(args, payload, text, None)
    if args.table:
        check_census(k, k)
        counts = _face_count_table(k, q)
        payload = {"table": [{"partition": lam, "count": c} for lam, c in counts]}

        def text():
            yield f"k={k} q={q}"
            for lam, c in counts:
                yield f"{lam}: {c}"
            yield f"total: {sum(c for _, c in counts)}"

        def table():
            return ["partition", "count"], ([_spaced(lam), c] for lam, c in counts)

        return _render(args, payload, text, table)
    check_census(k, k * k)
    vertex_types = count_link_types(k, q)
    by_size = [[t, count_link_types_of_faces(k, q, t)] for t in range(1, k + 1)]
    payload = {"vertex_link_types": vertex_types, "face_link_types_by_size": by_size}

    def text():
        yield f"k={k} q={q}"
        yield f"vertex link types: {vertex_types}"
        for t, c in by_size:
            yield f"faces of dimension {t - 1}: {c} link types"

    return _render(args, payload, text, lambda: (["face_size", "link_types"], by_size))


def _star_cluster(args):
    k, q = args.k, args.q
    if args.face:
        count = sc_count_general_face(args.face, q)
        payload = {"face": sorted(args.face, key=sum), "count": count}

        def text():
            yield f"k={k} q={q} face of {len(args.face)} vertices"
            yield f"star cluster facets: {count}"

        return _render(args, payload, text, None)
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

    return _render(args, payload, text, None)


def _tables(args):
    face_rows = [[_spaced(lam), c] for lam, c in _face_count_table(6, 6)]
    tables = {
        "face_counts_k6.csv": (["partition", "count"], face_rows),
        "q_sequence.csv": (["s", "q_s"], enumerate(q_sequence(9))),
        "distinct_links.csv": (
            ["dim", "count"], [[m, count_distinct_links_dim(m)] for m in range(10)]
        ),
    }
    contents = {name: "".join(_csv_lines(*tables[name])) for name in sorted(tables)}
    if args.directory is not None:
        args.directory.mkdir(parents=True, exist_ok=True)
        for name, content in contents.items():
            (args.directory / name).write_text(content)
        return _render(args, None, lambda: (f"wrote {args.directory / name}" for name in contents),
                       None)

    def text():
        for name, content in contents.items():
            yield f"# {name}"
            yield from content.splitlines()

    return _render(args, None, text, None)


def _export(args):
    return _chunked(off_export(args.k, args.q, args.max_facets))


def _render(args: argparse.Namespace, payload, text, table) -> Iterator[str]:
    """The report in the format args.fmt names, as chunks of whole lines, from
    a verb's JSON payload, a function yielding its text lines, and a function
    giving its CSV (header, rows) or None.  The forms not asked for are never
    built, and lazy parts of the one asked for are rendered as they come."""
    if args.fmt == "json":
        header = {"schema": SCHEMA, "command": args.command, "k": args.k, "q": args.q}
        return _chunked(_json_lines({**header, **payload}))
    if args.fmt == "csv":
        if table is None:
            raise ValueError(f"this {args.command} report has no csv form")
        return _chunked(_csv_lines(*table()))
    return _chunked(f"{line}\n" for line in text())


@functools.cache
def _parser() -> argparse.ArgumentParser:
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


def _write_file(path: Path, chunks: Iterable[str]) -> None:
    """Write the report to path, opened only once its first chunk is ready; a
    report that fails part way leaves no file."""
    chunks = iter(chunks)
    first = next(chunks, "")
    out = path.open("w")
    try:
        with out:
            out.write(first)
            for chunk in chunks:
                out.write(chunk)
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if "k" in args:
            _check_grid(args)
        chunks = args.verb(args)
        if args.out is not None:
            _write_file(args.out, chunks)
        else:
            for chunk in chunks:
                sys.stdout.write(chunk)
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 3
    except DisagreementError as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"usage: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
