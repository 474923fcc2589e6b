"""CLI: verbs, formats, exit codes, determinism, golden tables."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from edgewise import cli, posets, shelling, starcluster, subdivision
from edgewise.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


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
    ],
)
def test_error_exit_codes(capsys, argv, expected):
    rc, _, err = run(capsys, *argv)
    assert rc == expected


def _invalid(cert):
    return dataclasses.replace(cert, valid=False, witness=(0, 1))


# (what breaks, module, name, replacement built from the original, argv)
BREACHES = [
    ("h routes disagree", shelling, "h_by_binomial",
     lambda f: lambda k, q: (1, 2, 1, 0), "hvector -k 3 -q 2"),
    ("h_k of the ball is nonzero", cli, "h_routes",
     lambda f: lambda k, q, m: {name: (1, 2, 0, 1) for name in f(k, q, m)}, "hvector -k 3 -q 2"),
    ("invalid shelling certificate", shelling, "verify_shelling",
     lambda f: lambda K, order: _invalid(f(K, order)), "shell -k 3 -q 3"),
    ("restrictions off the closed form", shelling, "predicted_restriction",
     lambda f: lambda code, q: frozenset(), "shell -k 3 -q 3"),
    ("star-cluster counts disagree", starcluster, "sc_count_partition_formula",
     lambda f: lambda k: f(k) + 1, "star-cluster -k 3 -q 7"),
    ("invalid star-cluster shelling", shelling, "verify_shelling",
     lambda f: lambda K, order: _invalid(f(K, order)), "star-cluster -k 3 -q 7"),
    ("star-cluster h off the formula", starcluster, "sc_h_formula",
     lambda f: lambda k: (1,) * k, "star-cluster -k 3 -q 7"),
    ("failed vertex link certification", subdivision, "k_lambda",
     lambda f: lambda parts: f((sum(parts),)), "link -k 3 -q 3 --vertex 1,2"),
    ("failed face link certification", subdivision, "k_lambda",
     lambda f: lambda parts: f((sum(parts),)), "link -k 3 -q 3 --face 1,1 --face 1,2"),
    ("model h routes disagree", posets, "h_k_lambda_recurrence",
     lambda f: lambda parts: (0,) + f(parts), "classify-links -k 4 -q 3 --partition 2,2"),
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
    ],
    ids=["cli h_k nonzero", "library star-cluster count"],
)
def test_invariant_breach_survives_optimize(code, message):
    """Under python -O, agreeing h routes that end in a nonzero h_k still
    exit 1 through the CLI, and a star-cluster count off by one still raises
    out of the library."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert message in proc.stderr


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
    ("hvector -k 3 -q 2", 0, "eed6d06872093fc20c54582cb000c1b77374e1aad169c7915b2e44abaa411a1e"),
    ("hvector -k 4 -q 3 --format json", 0, "eafaad37a0bbccf0c9d3fa61f3b001f376a7b70c2130dbaa9345c82b3da22adb"),
    ("hvector -k 4 -q 3 --format csv", 0, "ee60b44ac6f6e98e6d2415b0de6d0a42e729b1bad4427a44f0ead4dd14e59075"),
    ("hvector -k 8 -q 10", 0, "f75b51e08ed31476471dda1a8f8ea8b4cafd7ef9732327754b21fdeaac1a5658"),
    ("shell -k 3 -q 3", 0, "3df0307216160f86401d84c2f6f4643a35a9c76fe8e4c94a9a4efe4f882b8fb0"),
    ("shell -k 4 -q 2 --format json", 0, "a1198242371d22c1efea2d4ad36e5448648ebcf8d1f4e9eedaf1d057e7f93037"),
    ("shell -k 4 -q 2 --format csv", 0, "5c7c4079fc89cc40f21a1d39e32092c1078c4f35677a79d4cb9173a2b80af9d6"),
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
    ("star-cluster -k 3 -q 6 --face 1,2 --face 2,3", 0, "d45ed7a7ad6b1301534417f92ce6d8a62739a176e7054de9b8b817ae921cc24e"),
    ("star-cluster -k 3 -q 6 --face 1,2 --face 2,3 --format json", 0, "0a7754722b2f9cb8938569907a505278760dababaa6ad047c5c0b1b8fae15a2b"),
    ("tables", 0, "9b15a3d8548829c61a229a08999a769253a64d917a35ecf5de96cb248f346739"),
    ("export -k 3 -q 2 --off", 0, "6578f72b704b5c248292d9d6fd999d56c2c9e2d52b3d1a4a9c09ecae4b663d3d"),
    ("export -k 5 -q 2 --off", 0, "deea5e2fe8cbd49a94d11ebae966f07457fbb7fbe88cde8f35d12a554707444e"),
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
