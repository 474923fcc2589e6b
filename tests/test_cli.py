"""CLI: verbs, formats, exit codes, determinism, golden tables."""

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from edgewise import cli, posets, shelling, starcluster, subdivision
from edgewise.cli import main
from edgewise.combinat import partitions
from edgewise.complexes import MAX_FACETS, CapacityError, DisagreementError

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_python(*args):
    """A fresh python run with these arguments and the package's src on its path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_hvector_text(capsys):
    rc, out, _ = run(capsys, "hvector", "-k", "3", "-q", "2")
    assert rc == 0
    assert "h = (1, 3, 0)" in out
    assert "4 routes agree" in out


def test_hvector_json(capsys):
    rc, out, _ = run(capsys, "hvector", "-k", "4", "-q", "3", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["agree"] is True
    assert payload["h"] == [1, 16, 10, 0]
    assert set(payload["routes"]) == {"ascents", "binomial", "polynomial", "recurrence"}


def test_build_text(capsys):
    rc, out, _ = run(capsys, "build", "-k", "3", "-q", "2")
    assert rc == 0
    assert "vertices: 6" in out
    assert "facets: 4" in out


def test_build_json_counts(capsys):
    rc, out, _ = run(capsys, "build", "-k", "4", "-q", "2", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["num_facets"] == 8
    assert payload["num_vertices"] == 10
    assert len(payload["facets"]) == 8
    for facet in payload["facets"]:
        assert len(facet["chain"]) == 4


def test_build_csv(capsys):
    rc, out, _ = run(capsys, "build", "-k", "3", "-q", "2", "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "code,chain"
    assert len(lines) == 5


@pytest.mark.parametrize("k", range(2, 7))
@pytest.mark.parametrize("q", range(1, 5))
def test_build_json_is_json_dumps_of_the_payload(capsys, k, q):
    """build's JSON rows, rendered from templates, are what json.dumps makes
    of the whole payload, listed here from combinations_with_replacement and
    decode_facet."""
    payload = {
        "schema": cli.SCHEMA,
        "command": "build",
        "k": k,
        "q": q,
        "num_vertices": math.comb(q + k - 1, k - 1),
        "num_facets": q ** (k - 1),
        "vertices": list(itertools.combinations_with_replacement(range(q + 1), k - 1)),
        "facets": [{"code": a, "chain": subdivision.decode_facet(a, q)}
                   for a in itertools.product(range(q), repeat=k - 1)],
    }
    rc, out, _ = run(capsys, "build", "-k", str(k), "-q", str(q), "--format", "json")
    assert (rc, out) == (0, json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("k", range(2, 6))
@pytest.mark.parametrize("q", range(1, 5))
def test_shell_json_is_json_dumps_of_the_payload(capsys, k, q):
    """shell's JSON order and restriction rows, rendered from templates, are
    what json.dumps makes of the whole payload, listed here from
    shelling_order, predicted_restriction and decode_facet; h is the
    histogram of the types, less its structurally zero last entry."""
    order = shelling.shelling_order(k, q)
    rests = [shelling.predicted_restriction(a) for a in order]
    types = list(map(len, rests))
    payload = {
        "schema": cli.SCHEMA,
        "command": "shell",
        "k": k,
        "q": q,
        "num_facets": q ** (k - 1),
        "valid": True,
        "restrictions_match": True,
        "h": [types.count(i) for i in range(k)],
        "order": order,
        "types": types,
        "restrictions": [[subdivision.decode_facet(a, q)[p] for p in r]
                         for a, r in zip(order, rests)],
    }
    rc, out, _ = run(capsys, "shell", "-k", str(k), "-q", str(q), "--format", "json")
    assert (rc, out) == (0, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def test_shell_reports_match(capsys):
    rc, out, _ = run(capsys, "shell", "-k", "4", "-q", "3", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["restrictions_match"] is True
    assert payload["h"] == [1, 16, 10, 0]
    assert len(payload["order"]) == 27
    assert payload["types"][0] == 0


def test_link_vertex(capsys):
    rc, out, _ = run(capsys, "link", "-k", "3", "-q", "3", "--vertex", "1,2")
    assert rc == 0
    assert "interior: yes" in out
    assert "certified" in out


def test_link_vertex_json(capsys):
    rc, out, _ = run(
        capsys, "link", "-k", "4", "-q", "3", "--vertex", "0,1,3", "--format", "json"
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["certified"] is True
    assert payload["interior"] is False
    assert payload["partition"] == [3, 1]


def test_link_face(capsys):
    rc, out, _ = run(
        capsys, "link", "-k", "3", "-q", "3", "--face", "1,1", "--face", "1,2"
    )
    assert rc == 0
    assert "certified" in out


def test_classify_table_matches_golden(capsys):
    rc, out, _ = run(
        capsys, "classify-links", "-k", "6", "-q", "6", "--table", "--format", "csv"
    )
    assert rc == 0
    assert out == (GOLDEN / "face_counts_k6.csv").read_text()


def test_classify_counts(capsys):
    rc, out, _ = run(capsys, "classify-links", "-k", "4", "-q", "3", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["vertex_link_types"] == 4
    assert payload["face_link_types_by_size"][0] == [1, 4]


def test_classify_partition(capsys):
    rc, out, _ = run(capsys, "classify-links", "-k", "6", "-q", "6", "--partition", "3,2,1")
    assert rc == 0
    assert "faces with this link type: 12" in out


def test_census_counts_the_partitions_of_k():
    # per_partition * p(k) steps, p(k) counted exactly: one step more is refused.
    for k in range(1, 13):
        budget = MAX_FACETS // len(partitions(k))
        subdivision.check_census(k, budget)
        with pytest.raises(CapacityError, match=f"partitions of {k} takes {budget + 1} p"):
            subdivision.check_census(k, budget + 1)


@pytest.mark.parametrize("mode", [[], ["--table"]], ids=["types", "table"])
def test_census_past_the_cap_is_refused_at_once(mode):
    """The census at k = 50 took 17 s and 393 MiB, and the table 1.4 s and
    172 MiB; both are refused before a partition is listed."""
    start = time.monotonic()
    proc = run_python("-m", "edgewise.cli", "classify-links", "-k", "50", "-q", "50", *mode)
    assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr
    assert time.monotonic() - start < 2


def test_star_cluster(capsys):
    rc, out, _ = run(capsys, "star-cluster", "-k", "3", "-q", "7")
    assert rc == 0
    assert "facets: 13" in out
    assert "valid shelling: yes" in out
    assert "h = (1, 9, 3)" in out


def test_star_cluster_json(capsys):
    rc, out, _ = run(capsys, "star-cluster", "-k", "4", "-q", "7", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["num_facets"] == 71
    assert payload["counts"]["x_value"] == 71
    assert payload["valid"] is True


def test_star_cluster_face_count(capsys):
    rc, out, _ = run(
        capsys, "star-cluster", "-k", "3", "-q", "6", "--face", "1,2", "--face", "2,3"
    )
    assert rc == 0
    assert "star cluster facets: 10" in out


def test_export_off(capsys):
    rc, out, _ = run(capsys, "export", "-k", "3", "-q", "2", "--off")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "OFF"
    assert lines[1].split() == ["6", "4", "0"]


def test_tables_stdout_contains_all(capsys):
    rc, out, _ = run(capsys, "tables")
    assert rc == 0
    for name in ("face_counts_k6.csv", "q_sequence.csv", "distinct_links.csv"):
        assert f"# {name}" in out


def test_tables_match_golden_files(tmp_path, capsys):
    rc, _, _ = run(capsys, "tables", "--out", str(tmp_path))
    assert rc == 0
    for name in ("face_counts_k6.csv", "q_sequence.csv", "distinct_links.csv"):
        assert (tmp_path / name).read_text() == (GOLDEN / name).read_text()


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out, _ = run(
        capsys, "hvector", "-k", "3", "-q", "3", "--format", "json", "--out", str(target)
    )
    assert rc == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["h"] == [1, 7, 1]


@pytest.mark.parametrize(
    "argv",
    [
        "build -k 3 -q 2 --out {tmp}/missing/x.txt",
        "build -k 3 -q 2 --out {tmp}",
        "tables --out {tmp}/file.txt",
    ],
    ids=["missing directory", "directory as report", "file as table directory"],
)
def test_unwritable_out_exits_2(tmp_path, capsys, argv):
    (tmp_path / "file.txt").write_text("")
    rc, out, err = run(capsys, *argv.format(tmp=tmp_path).split())
    assert (rc, out) == (2, "")
    assert err.startswith("usage: ")


def test_determinism(capsys):
    first = run(capsys, "shell", "-k", "4", "-q", "2", "--format", "json")
    second = run(capsys, "shell", "-k", "4", "-q", "2", "--format", "json")
    assert first == second


@pytest.mark.parametrize(
    "argv,expected",
    [
        (("build", "-q", "2"), 2),  # missing -k
        (("build", "-k", "1", "-q", "2"), 2),  # k out of domain
        (("build", "-k", "3", "-q", "0"), 2),
        (("build", "-k", "8", "-q", "10"), 3),  # capacity
        (("link", "-k", "3", "-q", "2", "--vertex", "5,9"), 2),  # not a vertex
        (("link", "-k", "3", "-q", "2"), 2),  # no selector
        (("link", "-k", "3", "-q", "2", "--vertex", "0,1", "--face", "0,1"), 2),
        (("star-cluster", "-k", "3", "-q", "3"), 2),  # no interior base exists
        (("star-cluster", "-k", "3", "-q", "6", "--base", "0,1"), 2),
        (("export", "-k", "3", "-q", "2"), 2),  # --off required
        (("classify-links", "-k", "4", "-q", "2", "--partition", "3,2"), 2),
        (("nonsense",), 2),
        # coordinate tuples must have k-1 entries
        (("link", "-k", "5", "-q", "3", "--vertex", "1,2"), 2),
        (("link", "-k", "4", "-q", "4", "--face", "1,2", "--face", "2,2"), 2),
        (("star-cluster", "-k", "5", "-q", "8", "--base", "1,2"), 2),
        (("star-cluster", "-k", "4", "-q", "8", "--face", "1,2,3", "--face", "2,3"), 2),
        # export's cap is the one build_complex enforces
        (("export", "-k", "4", "-q", "3", "--off", "--max-facets", "10"), 3),
        # formats and modes a verb has no form for, flags it does not read
        (("classify-links", "-k", "4", "-q", "3", "--partition", "2,1,1", "--format", "csv"), 2),
        (("link", "-k", "3", "-q", "3", "--vertex", "1,2", "--format", "csv"), 2),
        (("star-cluster", "-k", "3", "-q", "7", "--format", "csv"), 2),
        (("build", "-k", "3", "-q", "2", "--format", "off"), 2),
        (("export", "-k", "3", "-q", "2", "--off", "--format", "text"), 2),
        (("link", "-k", "3", "-q", "3", "--vertex", "1,2", "--max-facets", "5"), 2),
        # each verb's modes exclude one another, in either order
        (("classify-links", "-k", "4", "-q", "3", "--table", "--partition", "2,2"), 2),
        (("classify-links", "-k", "4", "-q", "3", "--partition", "2,2", "--table"), 2),
        (("star-cluster", "-k", "3", "-q", "7", "--base", "2,4", "--face", "1,2"), 2),
        # build's cap, the same check as every other capped verb
        (("build", "-k", "4", "-q", "3", "--max-facets", "10"), 3),
        # a star-cluster face raising one coordinate twice
        (("star-cluster", "-k", "4", "-q", "9", "--face", "1,2,3", "--face", "1,2,4",
          "--face", "1,2,5"), 2),
        # a --face vertex given twice
        (("link", "-k", "3", "-q", "3", "--face", "1,2", "--face", "1,2"), 2),
        (("star-cluster", "-k", "3", "-q", "6", "--face", "1,2", "--face", "1,2"), 2),
        # k!-sized enumerations past the facet cap: a star, a star cluster, K_lambda
        (("link", "-k", "10", "-q", "11", "--vertex", "1,2,3,4,5,6,7,8,9"), 3),
        (("star-cluster", "-k", "9", "-q", "12"), 3),
        (("classify-links", "-k", "10", "-q", "10", "--partition", "1,1,1,1,1,1,1,1,1,1"), 3),
        # an interior base facet that is not F(v, Id)
        (("star-cluster", "-k", "3", "-q", "6", "--base", "3,1"), 2),
        # the closed h routes' tables are capped too
        (("hvector", "-k", "2", "-q", "2000000"), 3),
        # the closed h routes' work is capped, not only their table's length
        (("hvector", "-k", "1200", "-q", "1"), 3),
        (("hvector", "-k", "100", "-q", "10000"), 3),
        # a non-face whose bottom vertex's star is past the facet cap
        (("link", "-k", "10", "-q", "11", "--face", "1,2,3,4,5,6,7,8,9",
          "--face", "3,4,5,6,7,8,9,10,10"), 2),
        # a negative cap is a usage error, a zero cap refuses a report past it
        (("shell", "-k", "3", "-q", "2", "--max-facets", "-1"), 2),
        (("shell", "-k", "3", "-q", "2", "--max-facets", "0"), 3),
    ],
)
def test_error_exit_codes(capsys, argv, expected):
    rc, _, err = run(capsys, *argv)
    assert rc == expected
    if expected == 3:
        assert err.startswith("capacity: ")


def _invalid(certified):
    """frontier_shelling's restrictions with a histogram no shelling has."""
    restrictions, _ = certified
    return restrictions, (0, 1)


def _swapped(certified):
    """The first and last restrictions swapped: h keeps, two types move."""
    restrictions, h = certified
    restrictions[0], restrictions[-1] = restrictions[-1], restrictions[0]
    return restrictions, h


def _h_ends_in_1(report):
    return dataclasses.replace(report, h=report.h[:-1] + (1,))


def _one_more_h0(h):
    return (h[0] + 1, *h[1:])


# (what breaks, module, name, replacement built from the original, argv)
BREACHES = [
    ("h routes disagree", shelling, "h_by_binomial",
     lambda f: lambda k, q: (1, 2, 1, 0), "hvector -k 3 -q 2"),
    ("h_k of the ball is nonzero", cli, "h_routes",
     lambda f: lambda k, q, m: {name: (1, 2, 0, 1) for name in f(k, q, m)}, "hvector -k 3 -q 2"),
    ("invalid shelling certificate", shelling, "frontier_shelling",
     lambda f: lambda chains, faces: _invalid(f(chains, faces)), "shell -k 3 -q 3"),
    ("restrictions off the closed form", shelling, "predicted_restriction",
     lambda f: lambda code: (), "shell -k 3 -q 3"),
    ("star-cluster counts disagree", starcluster, "sc_count_partition_formula",
     lambda f: lambda k: f(k) + 1, "star-cluster -k 3 -q 7"),
    ("invalid star-cluster shelling", starcluster, "frontier_shelling",
     lambda f: lambda chains, faces: _invalid(f(chains, faces)), "star-cluster -k 3 -q 7"),
    ("star-cluster h off the formula", starcluster, "sc_h_formula",
     lambda f: lambda k: (1,) * k, "star-cluster -k 3 -q 7"),
    ("star-cluster walk leaves T", starcluster, "shifted_reversal_inverse",
     lambda f: lambda sigma, j: (1,) * (len(sigma) - 1) + (len(sigma),),
     "star-cluster -k 3 -q 7"),
    ("star-cluster type off des(label)", starcluster, "frontier_shelling",
     lambda f: lambda chains, faces: _swapped(f(chains, faces)), "star-cluster -k 3 -q 7"),
    ("failed vertex link certification", subdivision, "_certify_walks",
     lambda f: lambda *args: f(*args[:5], tuple((sum(s),) for s in args[5]), *args[6:]),
     "link -k 3 -q 3 --vertex 1,2"),
    ("run-structure partition off the link model", subdivision.VertexType, "partition",
     lambda f: lambda self: (sum(f(self)),), "link -k 3 -q 3 --vertex 1,2"),
    ("failed face link certification", subdivision, "_certify_walks",
     lambda f: lambda *args: f(*args[:5], tuple((sum(s),) for s in args[5]), *args[6:]),
     "link -k 3 -q 3 --face 1,1 --face 1,2"),
    ("model h routes disagree", posets, "h_k_lambda_recurrence",
     lambda f: lambda parts: (0,) + f(parts), "classify-links -k 4 -q 3 --partition 2,2"),
    ("model word route skips a word", posets, "distinct_permutations",
     lambda f: lambda word: itertools.islice(f(word), 1, None),
     "classify-links -k 4 -q 3 --partition 2,2"),
    ("star-cluster h_k nonzero", cli, "sc_shelling_and_h",
     lambda f: lambda base, q: _h_ends_in_1(f(base, q)), "star-cluster -k 3 -q 7"),
    ("ascent census off by one", shelling, "h_by_ascents",
     lambda f: lambda k, q, m: _one_more_h0(f(k, q, m)), "hvector -k 3 -q 2"),
    ("build walk along wrong labels", subdivision, "_walk",
     lambda f: lambda v, labels, *rest: f(v, labels[::-1], *rest), "build -k 4 -q 3"),
]


@pytest.mark.parametrize(
    "module,name,wrong,argv", [b[1:] for b in BREACHES], ids=[b[0] for b in BREACHES]
)
def test_invariant_breach_exits_1(capsys, monkeypatch, module, name, wrong, argv):
    monkeypatch.setattr(module, name, wrong(getattr(module, name)))
    rc, out, err = run(capsys, *argv.split())
    assert (rc, out) == (1, "")
    assert "invariant breach" in err


@pytest.mark.parametrize(
    "code,message",
    [
        ("import edgewise.cli as cli\n"
         "cli.h_routes = lambda k, q, m: {'binomial': (1, 2, 0, 1), 'polynomial': (1, 2, 0, 1)}\n"
         "raise SystemExit(cli.main(['hvector', '-k', '3', '-q', '2']))\n",
         "invariant breach"),
        ("import edgewise.starcluster as sc\n"
         "sc.sc_count_partition_formula = lambda k: sc.sc_count_inclusion_exclusion(k) + 1\n"
         "sc.sc_shelling_and_h((1, 2), 6)\n",
         "DisagreementError: star cluster counts disagree"),
        ("import edgewise.cli as cli, edgewise.subdivision as sd\n"
         "sd._label_chains = lambda t: ()\n"
         "raise SystemExit(cli.main(['link', '-k', '3', '-q', '3', '--face', '1,1', '--face', '1,2']))\n",
         "invariant breach: link of ((1, 1), (1, 2)): model walk 0 "),
        ("import builtins, edgewise.subdivision as sd\n"
         "sd.sorted = lambda it, key=None: builtins.sorted(it, key=key)[::-1 if key else 1]\n"
         "sd.decode_facet((0, 0), 2)\n",
         "DisagreementError: code (0, 0) decoded to a chain that is not monotone"),
        ("import edgewise.cli as cli, edgewise.shelling as sh\n"
         "census = sh.h_by_ascents\n"
         "sh.h_by_ascents = lambda k, q, m: (lambda h: (h[0] + 1, *h[1:]))(census(k, q, m))\n"
         "raise SystemExit(cli.main(['hvector', '-k', '3', '-q', '2']))\n",
         "invariant breach: h-vector routes disagree"),
        ("import edgewise.cli as cli, edgewise.subdivision as sd\n"
         "walk = sd._walk\n"
         "sd._walk = lambda v, labels, *rest: walk(v, labels[::-1], *rest)\n"
         "raise SystemExit(cli.main(['build', '-k', '4', '-q', '3']))\n",
         "invariant breach: code (0, 0, 0) decoded to a chain that is not monotone"),
        ("import edgewise.shelling as sh, edgewise.subdivision as sd\n"
         "codes = [(0, 0), (1, 0), (0, 0)]\n"
         "sh.certify_order([sd.decode_facet(a, 2) for a in codes], codes)\n",
         "DisagreementError: not a shelling: facet 2 (0, 0) repeats facet 0 (0, 0)"),
        ("import edgewise.cli as cli, edgewise.starcluster as sc\n"
         "sc.shifted_reversal_inverse = lambda sigma, j: (1,) * (len(sigma) - 1) + (len(sigma),)\n"
         "raise SystemExit(cli.main(['star-cluster', '-k', '3', '-q', '7']))\n",
         "invariant breach: star of (2, 3): walk (1, 1, 3) leaves T: [(2, 3), (3, 3), (4, 3)]"),
        ("import edgewise.cli as cli, edgewise.starcluster as sc\n"
         "kernel = sc.frontier_shelling\n"
         "def swapped(chains, faces):\n"
         "    rest, h = kernel(chains, faces)\n"
         "    rest[0], rest[-1] = rest[-1], rest[0]\n"
         "    return rest, h\n"
         "sc.frontier_shelling = swapped\n"
         "raise SystemExit(cli.main(['star-cluster', '-k', '3', '-q', '7']))\n",
         "invariant breach: star cluster facet 0 label (1, 2, 3) chain [(1, 2), (2, 2), (2, 3)]"
         " has restriction type 2, not des(label) = 0"),
        ("import itertools, edgewise.cli as cli, edgewise.posets as po\n"
         "walk = po.distinct_permutations\n"
         "po.distinct_permutations = lambda word: itertools.islice(walk(word), 1, None)\n"
         "raise SystemExit(cli.main(['classify-links', '-k', '4', '-q', '3', '--partition', '2,2']))\n",
         "invariant breach: h-vector routes disagree for (2, 2)"),
    ],
    ids=["cli h_k nonzero", "library star-cluster count", "cli star without the face",
         "library non-monotone decode", "cli ascent census off by one",
         "cli build walk along wrong labels", "library repeated code",
         "cli star-cluster walk leaves T", "cli star-cluster type off des(label)",
         "cli model word route skips a word"],
)
def test_invariant_breach_survives_optimize(code, message):
    """Under python -O, agreeing h routes that end in a nonzero h_k still
    exit 1 through the CLI, a star-cluster count off by one still raises
    out of the library, a star with no facet through an accepted face
    still exits 1 naming the face, a decode walk that is not monotone
    still raises naming the code, and an ascent census off by one still
    exits 1 through the CLI, as does a build whose walk is handed wrong
    labels, and a code repeated in a certified order still raises naming
    both copies; a star-cluster walk that leaves T exits 1 naming its vertex
    and pi, a restriction type off des(label) exits 1 naming the facet, and
    a word route to K_lam's h-vector that skips a word exits 1 naming lam."""
    proc = run_python("-O", "-c", code)
    assert proc.returncode == 1, proc.stderr
    assert message in proc.stderr


# (what breaks, the subdivision function replaced, its replacement as source
# that reads the original as real, argv, the stderr line naming the witness).
# The link walker reads b's label chains, the face's label sets and each
# block's groups; each replacement breaks one of them.
LINK_TAMPERS = [
    # The last label chain listed twice: a walk comes again where the model
    # has no further walk.
    ("repeated star word", "_label_chains",
     "lambda t: real(t) + real(t)[-1:]",
     "link -k 3 -q 3 --vertex 1,2",
     "invariant breach: link of ((1, 2),): walk 2 ((1, 2), (0, 1), (0, 2))"
     " maps to ((0, (0, 0, 0)), (0, (1, 0, 0)), (0, (1, 0, 1)));"
     " the model has no further walk through ((0, (0, 0, 0)), (0, (1, 0, 0)))"),
    # The last label chain a copy of the one before: walk 0 comes again in
    # the place of walk 1.
    ("star walk repeated for one dropped", "_label_chains",
     "lambda t: real(t)[:-1] + real(t)[-2:-1]",
     "link -k 4 -q 5 --vertex 1,2,3",
     "invariant breach: link of ((1, 2, 3),): walk 1 ((1, 2, 3), (0, 1, 2), (1, 1, 2), (1, 2, 2))"
     " maps to ((0, (0, 0, 0, 0)), (0, (1, 0, 0, 0)), (0, (1, 1, 0, 0)), (0, (1, 1, 1, 0)));"
     " model walk 1 is ((0, (0, 0, 0, 0)), (0, (1, 0, 0, 0)), (0, (1, 1, 0, 0)), (0, (1, 1, 0, 1)))"),
    # The last label chain dropped: the search leaves a node with a model
    # step untaken.
    ("skipped star word", "_label_chains",
     "lambda t: real(t)[:-1]", "link -k 3 -q 3 --vertex 1,2",
     "invariant breach: link of ((1, 2),):"
     " model walk 1 ((0, (0, 0, 0)), (0, (1, 0, 0)), (0, (1, 0, 1))) has no preimage"),
    # Labels mirrored (j to k + 1 - j): the face's blocks no longer hold the
    # walk that reaches the face.
    ("star walk missing the face", "_label_set",
     "lambda u, b: frozenset(len(b) + 2 - j for j in real(u, b))",
     "link -k 3 -q 3 --face 1,2 --face 2,2",
     "invariant breach: link of ((1, 2), (2, 2)): walk 0 ((1, 2), (2, 2))"
     " leaves block 0 but holds the face"),
    ("no star walk", "_label_chains",
     "lambda t: ()", "link -k 3 -q 3 --face 1,1 --face 1,2",
     "invariant breach: link of ((1, 1), (1, 2)):"
     " model walk 0 ((0, (0,)), (1, (0, 0)), (1, (1, 0))) has no preimage"),
    ("star walk off the subdivision", "_label_chains",
     "lambda t: tuple(c[::-1] for c in real(t))", "link -k 3 -q 3 --vertex 0,3",
     "invariant breach: star of (0, 3): walk (2, 3, 1) leaves T: [(0, 3), (0, 4)]"),
    ("one group per block", "_block_groups",
     "lambda block, b, q: [block]", "link -k 3 -q 3 --vertex 1,2",
     "invariant breach: link of ((1, 2),): walk 1 ((1, 2), (0, 1), (0, 2)):"
     " (1, 1) and (0, 2) both map to (0, (2,))"),
    # The label chains in reverse order: the same walks, counted the same,
    # but out of the model's order from walk 0 on.
    ("label chains reversed", "_label_chains",
     "lambda t: real(t)[::-1]", "link -k 4 -q 5 --vertex 1,2,3",
     "invariant breach: link of ((1, 2, 3),): walk 0 ((1, 2, 3), (1, 2, 4))"
     " maps to ((0, (0, 0, 0, 0)), (0, (0, 0, 0, 1)));"
     " model walk 0 is ((0, (0, 0, 0, 0)), (0, (1, 0, 0, 0)))"),
    ("label chains reversed on a face", "_label_chains",
     "lambda t: real(t)[::-1]", "link -k 4 -q 5 --face 1,2,3 --face 1,2,4",
     "invariant breach: link of ((1, 2, 3), (1, 2, 4)): walk 0 ((1, 2, 3), (1, 2, 4), (1, 3, 4))"
     " maps to ((0, (0,)), (1, (0, 0, 0)), (1, (0, 0, 1)));"
     " model walk 0 is ((0, (0,)), (1, (0, 0, 0)), (1, (1, 0, 0)))"),
]


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
@pytest.mark.parametrize(
    "name,wrong,argv,message", [t[1:] for t in LINK_TAMPERS], ids=[t[0] for t in LINK_TAMPERS]
)
def test_link_tamper_names_its_witness(capsys, monkeypatch, name, wrong, argv, message, optimize):
    """Label chains that repeat, copy, drop or reverse a chain, or that leave
    the subdivision, label sets that move the face off its blocks, and a model
    map that is not injective each exit 1 with their witness named, in process
    and under python -O -X dev."""
    if optimize:
        code = ("import itertools, edgewise.cli as cli, edgewise.subdivision as sd\n"
                f"real = sd.{name}\nsd.{name} = {wrong}\n"
                f"raise SystemExit(cli.main({argv.split()!r}))\n")
        proc = run_python("-O", "-X", "dev", "-c", code)
        rc, out, err = proc.returncode, proc.stdout, proc.stderr
    else:
        real = getattr(subdivision, name)
        monkeypatch.setattr(subdivision, name, eval(wrong, {"itertools": itertools, "real": real}))
        rc, out, err = run(capsys, *argv.split())
    assert (rc, out) == (1, ""), err
    assert message in err.splitlines()


# (what breaks, [(module, name, replacement as source that reads the original
# as real)], argv, the stderr line naming the witness).  shell and
# star-cluster certify by one face count; each failure under
# shelling.WITNESS_FACETS facets reruns the old path through shell_chains,
# whose witness pair wins when it finds one.
SHELL_TAMPERS = [
    ("two facets swapped in the order",
     [(shelling, "shelling_order",
       "lambda k, q, m: (lambda o: (o[0], o[2], o[1], *o[3:]))(real(k, q, m))")],
     "shell -k 3 -q 3",
     "invariant breach: not a shelling: witness facets 0 (0, 0), 1 (0, 1)"),
    ("a repeated code",
     [(shelling, "shelling_order",
       "lambda k, q, m: (lambda o: (o[0], o[1], o[1], *o[3:]))(real(k, q, m))")],
     "shell -k 3 -q 3",
     "invariant breach: not a shelling: facet 2 (1, 0) repeats facet 1 (1, 0)"),
    ("a face count off by one",
     [(shelling, "f_subdivision", "lambda k, q: (*real(k, q)[:-1], real(k, q)[-1] + 1)")],
     "shell -k 3 -q 3",
     "invariant breach: face count off: the restrictions give 38 faces, the complex has 39"),
    # The certificate reads each chain from facet_chains' one lex pass.
    ("a decode that moves one vertex",
     [(subdivision, "facet_chains",
       "lambda k, q: ((a, c if a != (1, 0) else (*c[:2], (c[2][0], c[2][1] + 1)))"
       " for a, c in real(k, q))")],
     "shell -k 3 -q 3",
     "invariant breach: not a shelling: witness facets 0 (0, 0), 2 (0, 1)"),
    # Row 11 is the layer-3 facet ((2, 3), (2, 4), (3, 4)), keys (26, 34, 35);
    # keys (34, 35, 43) are the facet ((2, 4), (3, 4), (3, 5)) across its
    # bottom ridge, outside the cluster (test_starcluster checks both).
    ("a layer-3 row swapped for an outside neighbour",
     [(starcluster, "_cluster_walks",
       "lambda chain, q: ((*row[:2], (34, 35, 43)) if n == 11 else row"
       " for n, row in enumerate(real(chain, q)))")],
     "star-cluster -k 3 -q 7",
     "invariant breach: star cluster facet 11 in layer 3, chain [(2, 4), (3, 4), (3, 5)],"
     " holds chain vertices [] of 1..3, not 3 alone"),
    # With no rerun, the walker's own message names the step.
    ("a walker step that leaves T",
     [(starcluster, "shifted_reversal_inverse",
       "lambda sigma, j: (1,) * (len(sigma) - 1) + (len(sigma),)"),
      (starcluster, "WITNESS_FACETS", "0")],
     "star-cluster -k 3 -q 7",
     "invariant breach: star of (1, 3): walk (1, 1, 3) leaves T: [(1, 3), (0, 3), (-1, 3)]"),
]


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
@pytest.mark.parametrize(
    "patches,argv,message", [t[1:] for t in SHELL_TAMPERS], ids=[t[0] for t in SHELL_TAMPERS]
)
def test_shelling_tamper_names_its_witness(capsys, monkeypatch, patches, argv, message, optimize):
    """A broken order, decode, face count, star-cluster row or walker step
    each exits 1 with its witness named, in process and under python -O -X dev."""
    if optimize:
        aliases = {shelling: "sh", starcluster: "sc", subdivision: "sd"}
        code = "import edgewise.cli as cli, edgewise.shelling as sh, edgewise.starcluster as sc\n"
        code += "import edgewise.subdivision as sd\n"
        for module, name, wrong in patches:
            code += f"real = {aliases[module]}.{name}\n{aliases[module]}.{name} = {wrong}\n"
        code += f"raise SystemExit(cli.main({argv.split()!r}))\n"
        proc = run_python("-O", "-X", "dev", "-c", code)
        rc, out, err = proc.returncode, proc.stdout, proc.stderr
    else:
        for module, name, wrong in patches:
            monkeypatch.setattr(module, name, eval(wrong, {"real": getattr(module, name)}))
        rc, out, err = run(capsys, *argv.split())
    assert (rc, out) == (1, ""), err
    assert message in err.splitlines()


def test_capacity_message(capsys):
    rc, _, err = run(capsys, "shell", "-k", "4", "-q", "3", "--max-facets", "10")
    assert rc == 3
    assert "capacity" in err


def test_hvector_skips_exhaustive_past_cap(capsys):
    rc, out, _ = run(capsys, "hvector", "-k", "8", "-q", "10")
    assert rc == 0
    assert "3 routes agree" in out

EMPTY = hashlib.sha256(b"").hexdigest()

# stdout sha256 and exit code of every verb in every format it supports, and
# of the usage and capacity errors; recorded before the report layer was
# rewritten, so any change to a report's bytes shows here.
REPORTS = [
    ("build -k 3 -q 2", 0, "55e34a55ef6f1447c6dfa34d08b686d2200d21ac444cf55952aca4f66bc4ad17"),
    ("build -k 3 -q 2 --format json", 0, "57faf201caad57dbdaa68657632dc3c933a78c89ce5f4687d6c4c24ebaf64919"),
    ("build -k 3 -q 2 --format csv", 0, "3b669e20509d52dd828b9d9a66c89667702ee954689bad549ca6130623dfb740"),
    ("build -k 4 -q 3", 0, "161d006762a5d41cd279713c268667dd93796d09935f4c89bbe082c3c9c7764c"),
    ("build -k 5 -q 6", 0, "10f06d68dbeebc0d54764ac7c44ecdaa83db3f871da62eed70164612c50386d9"),
    ("build -k 5 -q 6 --format json", 0, "58d26b7605591176a67a8932b9c07c7a1fb42fd441bf679dd9fdff9d1678beff"),
    ("build -k 5 -q 6 --format csv", 0, "191ee49cc8d62c944e50eb8ba273648925524840694c484cfe69c4b59bd1ca52"),
    ("hvector -k 3 -q 2", 0, "eed6d06872093fc20c54582cb000c1b77374e1aad169c7915b2e44abaa411a1e"),
    ("hvector -k 4 -q 3 --format json", 0, "eafaad37a0bbccf0c9d3fa61f3b001f376a7b70c2130dbaa9345c82b3da22adb"),
    ("hvector -k 4 -q 3 --format csv", 0, "ee60b44ac6f6e98e6d2415b0de6d0a42e729b1bad4427a44f0ead4dd14e59075"),
    ("hvector -k 8 -q 10", 0, "f75b51e08ed31476471dda1a8f8ea8b4cafd7ef9732327754b21fdeaac1a5658"),
    ("hvector -k 7 -q 10", 0, "7129886f023c63cdf2ca58d5a405dc43425c4b514a6af47884e376c2ab96b707"),
    ("hvector -k 2 -q 5", 0, "ebf3926b05c480a42c1b9f52d48cc325c9fb268a472f3bc36443d992a7cbcae2"),
    ("hvector -k 3 -q 1", 0, "a49a1e926f8b376933f148ad47aceaccfe2de0ec2e7eabd03ae193436e30cfc5"),
    ("shell -k 3 -q 3", 0, "3df0307216160f86401d84c2f6f4643a35a9c76fe8e4c94a9a4efe4f882b8fb0"),
    ("shell -k 4 -q 2 --format json", 0, "a1198242371d22c1efea2d4ad36e5448648ebcf8d1f4e9eedaf1d057e7f93037"),
    ("shell -k 4 -q 2 --format csv", 0, "5c7c4079fc89cc40f21a1d39e32092c1078c4f35677a79d4cb9173a2b80af9d6"),
    ("shell -k 5 -q 4 --format csv", 0, "ea45dd1741a10eec36d42bf4bcccd51cfc9e8c58190b622e32d1ef70ef2c30cf"),
    ("shell -k 4 -q 5 --format json", 0, "a6e6b485ce008e9311c063b4476e4751fe6157b9e5d9f36287e98884f1c765e9"),
    ("shell -k 4 -q 6", 0, "1e786cefd4170679d933605c0baa7e69e2081973353ad48cab0c8456b4004b00"),
    ("link -k 4 -q 3 --vertex 0,1,3", 0, "b9e608b5fe5845c13022da5e43df80ed9c441c627b783eecd23f79307d58bb77"),
    ("link -k 4 -q 3 --vertex 0,1,3 --format json", 0, "42bde009720c1bdde2b18ec031d9bbe3e26ac6c7d445e4e4436ab8824934b730"),
    ("link -k 3 -q 3 --face 1,1 --face 1,2", 0, "7c825aac1f8bd10b51d360b86eeb8c4bb7a7b7218445e386ecb2d48dfdc8a314"),
    ("link -k 3 -q 3 --face 1,1 --face 1,2 --format json", 0, "0523956393a00c4012a3e502c9c5eded8a76ed356c6385fa546e7c4a87484b87"),
    ("classify-links -k 4 -q 3", 0, "82420e7d6d4d1a04f03ece7f6c6272c152102f830946b97a725caed529b56cf2"),
    ("classify-links -k 4 -q 3 --format json", 0, "7a58a3a06e37a6776ca0935a67dbfe8afb4335ebbf7af7a69b07a175cd7d8f3b"),
    ("classify-links -k 4 -q 3 --format csv", 0, "c872d28a2d564bfdffcfdcc5597d2f40426d8e98f56a7134ceeb23965353822b"),
    ("classify-links -k 5 -q 3 --table", 0, "54cc334008f2648d2c89bfe0a02a5aa76df32bfa825cccab912860600615e9c0"),
    ("classify-links -k 5 -q 3 --table --format json", 0, "764775797ac19edff9f4017554aa0c8e00b384d24f29bb6d50020d42e1212ca1"),
    ("classify-links -k 5 -q 3 --table --format csv", 0, "e13cc39a093e008f43bb4a4dec062bce8b6649502c00570ee82505b0228ecf20"),
    ("classify-links -k 6 -q 6 --partition 3,2,1", 0, "28e327f0213a827a173aafafffb32c5c61577f1f680cd0bf4a37d3fb26d03922"),
    ("classify-links -k 6 -q 6 --partition 1,2,3 --format json", 0, "36e0ba0e1fd2d3da2e3e62d0d158b45dcd90cb8f7913c122cb19f72abca4ab26"),
    ("star-cluster -k 3 -q 7", 0, "2553a68ed5ee5befd5ae7c42ec1b95120e8ff60bc771a39228c3448f4e1e8621"),
    ("star-cluster -k 4 -q 7 --format json", 0, "05265856cb8f9f2f6b7e54cae1f133a7eda85411805d4087b409970e2ffad2e3"),
    ("star-cluster -k 3 -q 7 --base 2,3", 0, "ce29765735dbab2ca08b1ba9612ce8d23ad96afbd4e3b5255c7264a2c18177d8"),
    ("star-cluster -k 5 -q 9 --base 1,3,4,6", 0, "8c87f9e9c87238c395e170400eec313dd221cb4a8831c0f3ca89287a2891ce3f"),
    ("star-cluster -k 6 -q 11 --base 1,2,4,7,9 --format json", 0, "f20521f98a6b814d5469f5a3330edd290e4f35573179ee09e1c0e87ffa2f2b8a"),
    ("star-cluster -k 3 -q 6 --face 1,2 --face 2,3", 0, "d45ed7a7ad6b1301534417f92ce6d8a62739a176e7054de9b8b817ae921cc24e"),
    ("star-cluster -k 3 -q 6 --face 1,2 --face 2,3 --format json", 0, "0a7754722b2f9cb8938569907a505278760dababaa6ad047c5c0b1b8fae15a2b"),
    ("tables", 0, "9b15a3d8548829c61a229a08999a769253a64d917a35ecf5de96cb248f346739"),
    ("export -k 3 -q 2 --off", 0, "6578f72b704b5c248292d9d6fd999d56c2c9e2d52b3d1a4a9c09ecae4b663d3d"),
    ("export -k 5 -q 2 --off", 0, "deea5e2fe8cbd49a94d11ebae966f07457fbb7fbe88cde8f35d12a554707444e"),
    ("export -k 4 -q 5 --off", 0, "dba6ee8d7edbf18f08b0e53fbb7202c0100dfcbeafe5c372be8e11afa496cd9c"),
    ("export -k 6 -q 3 --off", 0, "f6033be7889f1c50a652f0563056efd7da59c70656bdb02617e5bc9c9c9252b1"),
    ("export -k 2 -q 7 --off", 0, "e37c472091333e71863fd90b85a73342af5ab2af96fafea1d601ea1dd4610e07"),
    ("export -k 3 -q 1 --off", 0, "0ceeafe9b4799320cfc575098869e12a7bb12921d45d086ef2ee6b34b76eb6f2"),
    ("build -q 2", 2, EMPTY),
    ("build -k 1 -q 2", 2, EMPTY),
    ("build -k 3 -q 0", 2, EMPTY),
    ("build -k 8 -q 10", 3, EMPTY),
    ("hvector -k 1 -q 3", 2, EMPTY),
    ("shell -k 4 -q 3 --max-facets 10", 3, EMPTY),
    ("link -k 3 -q 2 --vertex 5,9", 2, EMPTY),
    ("link -k 3 -q 2", 2, EMPTY),
    ("link -k 3 -q 2 --vertex 0,1 --face 0,1", 2, EMPTY),
    ("link -k 3 -q 2 --face 0,0 --face 1,2", 2, EMPTY),
    ("link -k 3 -q 2 --vertex 0,x", 2, EMPTY),
    ("classify-links -k 4 -q 2 --partition 3,2", 2, EMPTY),
    ("star-cluster -k 3 -q 3", 2, EMPTY),
    ("star-cluster -k 3 -q 6 --base 0,1", 2, EMPTY),
    ("star-cluster -k 3 -q 6 --face 0,2", 2, EMPTY),
    ("export -k 3 -q 2", 2, EMPTY),
    ("export -k 8 -q 10 --off", 3, EMPTY),
    ("nonsense", 2, EMPTY),
]


@pytest.mark.parametrize("argv,rc,digest", REPORTS, ids=[argv for argv, _, _ in REPORTS])
def test_report_bytes(capsys, argv, rc, digest):
    code, out, _ = run(capsys, *argv.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (rc, digest)


def test_csv_reads_back_to_its_fields(capsys):
    """Every CSV report above and every golden table is plain: csv.reader
    reads each line back to the fields between its commas, and each line has
    as many fields as its header."""
    texts = [(GOLDEN / name).read_text() for name in sorted(os.listdir(GOLDEN))]
    rows = [row for row in REPORTS if "--format csv" in row[0]]
    assert len(texts) == 3 and rows
    for argv, rc, digest in rows:
        code, out, _ = run(capsys, *argv.split())
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (rc, digest), argv
        texts.append(out)
    for text in texts:
        lines = text.splitlines()
        fields = [line.split(",") for line in lines]
        assert list(csv.reader(lines)) == fields
        assert {len(f) for f in fields} == {len(fields[0])}


def test_link_builds_no_complex(capsys, monkeypatch):
    """Every link row above keeps its bytes with no SimplicialComplex built."""
    def refuse(facets):
        raise AssertionError("the link verb built a SimplicialComplex")

    monkeypatch.setattr(subdivision, "SimplicialComplex", refuse)
    rows = [row for row in REPORTS if row[0].startswith("link ")]
    assert rows
    for argv, rc, digest in rows:
        code, out, _ = run(capsys, *argv.split())
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (rc, digest), argv


def test_shelling_verbs_build_no_complex(capsys, monkeypatch):
    """Every shell and star-cluster row above keeps its bytes with
    SimplicialComplex refused in every module that binds it."""
    def refuse(facets):
        raise AssertionError("a shelling verb built a SimplicialComplex")

    modules = [m for name, m in sys.modules.items() if name.startswith("edgewise.")]
    binding = [m for m in modules if getattr(m, "SimplicialComplex", None) is not None]
    assert binding
    for module in binding:
        monkeypatch.setattr(module, "SimplicialComplex", refuse)
    rows = [row for row in REPORTS if row[0].startswith(("shell ", "star-cluster "))]
    assert rows
    for argv, rc, digest in rows:
        code, out, _ = run(capsys, *argv.split())
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (rc, digest), argv


def test_star_cluster_decodes_only_its_base(capsys, monkeypatch):
    """The star-cluster verb walks every facet from its chain vertex: the one
    decode, in every module that binds decode_facet, is the base's."""
    decoded = []
    real = subdivision.decode_facet
    for module in [m for name, m in sys.modules.items() if name.startswith("edgewise")]:
        if getattr(module, "decode_facet", None) is real:
            monkeypatch.setattr(
                module, "decode_facet", lambda a, q: decoded.append(a) or real(a, q)
            )
    rc, _, _ = run(capsys, "star-cluster", "-k", "5", "-q", "9")
    assert (rc, decoded) == (0, [(1, 2, 3, 4)])


@pytest.mark.parametrize(
    "argv,most",
    [("link -k 4 -q 3 --vertex 0,1,3", 2), ("link -k 3 -q 3 --face 1,1 --face 1,2", 3)],
)
def test_link_validates_each_vertex_once(capsys, monkeypatch, argv, most):
    """face_chain checks each face vertex and link_of_face reads the bottom
    vertex's run structure once; nothing on the link path checks again."""
    checked = []
    real = subdivision._validate_vertex
    monkeypatch.setattr(
        subdivision, "_validate_vertex", lambda v, q: checked.append(v) or real(v, q)
    )
    rc, _, _ = run(capsys, *argv.split())
    assert rc == 0
    assert len(checked) <= most, checked


class CountingStdout(io.TextIOBase):
    """A stdout that keeps each write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_build_streams_in_bounded_writes(fmt):
    """The report reaches stdout in several writes of whole lines, none over
    64 KiB, and with the bytes recorded above."""
    stdout = CountingStdout()
    with contextlib.redirect_stdout(stdout):
        assert main(["build", "-k", "5", "-q", "6", "--format", fmt]) == 0
    argv = "build -k 5 -q 6" + ("" if fmt == "text" else f" --format {fmt}")
    expected = next(digest for row, _, digest in REPORTS if row == argv)
    assert len(stdout.writes) > 1
    assert max(map(len, stdout.writes)) <= 64 * 1024
    assert all(text.endswith("\n") for text in stdout.writes)
    assert hashlib.sha256("".join(stdout.writes).encode()).hexdigest() == expected


@pytest.mark.parametrize(
    "argv", ["build -k 4 -q 3", "build -k 5 -q 6 --format csv", "build -k 5 -q 6 --format json"]
)
def test_vertex_text_memo_starts_over_when_full(capsys, monkeypatch, argv):
    """With room for two vertices, build's text, CSV and JSON rows keep their bytes."""
    monkeypatch.setattr(cli, "MEMO_ROWS", 2)
    rc, out, _ = run(capsys, *argv.split())
    expected = next(digest for row, _, digest in REPORTS if row == argv)
    assert (rc, hashlib.sha256(out.encode()).hexdigest()) == (0, expected)


@pytest.mark.parametrize(
    "calls",
    [
        ["link -k 3 -q 3 --face 1,1 --face 1,2", "link -k 4 -q 3 --vertex 0,1,3"],
        ["star-cluster -k 3 -q 6 --face 1,2 --face 2,3", "star-cluster -k 3 -q 7"],
    ],
    ids=["link", "star-cluster"],
)
def test_reused_parser_keeps_no_face_between_calls(capsys, calls):
    """A --face call, the verb's other mode and the --face call again, in one
    process, each print what a fresh process prints: faces given to one
    call do not pile up in the parser's append default."""
    for argv in [*calls, calls[0]]:
        fresh = run_python("-m", "edgewise.cli", *argv.split())
        assert run(capsys, *argv.split()) == (0, fresh.stdout, "") and fresh.returncode == 0


def test_parser_is_built_once(capsys, monkeypatch):
    """After a first call of main, later calls of every kind (reports, usage
    errors, help) build no top-level parser."""
    run(capsys, "hvector", "-k", "3", "-q", "2")
    built, init = [], argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in ["hvector -k 3 -q 2", "link -k 3 -q 3 --vertex 1,2", "build -k 1 -q 2",
                 "nonsense", "shell --help", "hvector -k 4 -q 3 --format csv"]:
        run(capsys, *argv.split())
    assert built == []
    argparse.ArgumentParser(prog="edgewise")
    assert built == ["edgewise"]


def test_export_streams_in_bounded_writes():
    """The OFF text reaches stdout in several writes of whole lines, none
    over 64 KiB, and holds what off_export yields."""
    stdout = CountingStdout()
    with contextlib.redirect_stdout(stdout):
        assert main(["export", "-k", "6", "-q", "5", "--off"]) == 0
    assert len(stdout.writes) > 1
    assert max(map(len, stdout.writes)) <= 64 * 1024
    assert all(text.endswith("\n") for text in stdout.writes)
    assert "".join(stdout.writes) == "".join(subdivision.off_export(6, 5))


def _breach_at(monkeypatch, n):
    """Make the n-th facet that build walks fail its step check: the walk
    raises through the template and arguments it is given, which name the code."""
    seen = []
    walk = subdivision._walk

    def tampered(v, labels, q, template, *args):
        seen.append(v)
        if len(seen) == n:
            raise DisagreementError(template.format(*args, [tuple(v)]))
        return walk(v, labels, q, template, *args)

    monkeypatch.setattr(subdivision, "_walk", tampered)


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_build_breach_in_mid_stream_exits_1(tmp_path, capsys, monkeypatch, fmt, to_file):
    """A breach on the 5th code exits 1 naming it, and --out leaves no file."""
    _breach_at(monkeypatch, 5)
    target = tmp_path / "report"
    argv = ["build", "-k", "4", "-q", "3", "--format", fmt]
    rc, out, err = run(capsys, *argv, *(["--out", str(target)] if to_file else []))
    assert rc == 1
    assert "invariant breach: code (0, 1, 1)" in err
    assert not target.exists()
    assert not to_file or out == ""


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_breach_after_the_first_write_removes_the_out_file(tmp_path, capsys, monkeypatch, fmt):
    """When the breach comes after some of the report is written, stdout may
    hold part of it, but --out still leaves no file."""
    _breach_at(monkeypatch, 1000)
    rc, out, err = run(capsys, "build", "-k", "5", "-q", "6", "--format", fmt)
    assert (rc, out != "") == (1, True)
    assert "invariant breach: code " in err
    _breach_at(monkeypatch, 1000)
    target = tmp_path / "report"
    target.write_text("an earlier report")
    rc, out, _ = run(capsys, "build", "-k", "5", "-q", "6", "--format", fmt, "--out", str(target))
    assert (rc, out) == (1, "")
    assert not target.exists()


@pytest.mark.parametrize(
    "argv,expected",
    [
        ("build -k 8 -q 10", 3),
        ("export -k 4 -q 3 --off --max-facets 10", 3),
        ("classify-links -k 4 -q 3 --partition 2,1,1 --format csv", 2),
        ("link -k 3 -q 2 --vertex 5,9", 2),
    ],
)
def test_failure_before_the_report_creates_no_out_file(tmp_path, capsys, argv, expected):
    target = tmp_path / "report"
    rc, out, _ = run(capsys, *argv.split(), "--out", str(target))
    assert (rc, out) == (expected, "")
    assert not target.exists()
