"""Proof that the checks catch wrong answers that exit 0.

Each case feeds a real op's output, or a tampered copy of it, through the
same checks a benchmark run applies.  A case passes when the checks reject
it; a control passes when they accept it, so a checker that rejects
everything fails the self-test too.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
from pathlib import Path

from edgewise import cli

import checks
import run
import tracing
import workloads
from sink import HashSink
from workloads import CliOp, VerifyOp

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _facts_of(op: CliOp, text: str) -> dict:
    sink = HashSink(checks.probes_for(op))
    sink.write(text)
    return {**sink.finish(), "rc": 0, "stderr": ""}


def _report(op: CliOp) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(list(op.argv))
    return out.getvalue()


def _tamper_type(text: str) -> str:
    """Raise the restriction type of the second facet row of a CSV shell report."""
    rows = text.split("\n")
    fields = rows[2].split(",")
    fields[1] = str(int(fields[1]) + 1)
    rows[2] = ",".join(fields)
    return "\n".join(rows)


def cases(digests: dict):
    """(description, problems found, whether problems are expected)."""
    defect = CliOp("link", 5, 3, vertex=(1, 2))
    yield f"{defect} (prints k=5, computes a k=3 link)", defect.check(defect.run(), digests), True
    control = CliOp("link", 5, 6, vertex=(1, 2, 3, 4))
    yield f"control: {control}", control.check(control.run(), digests), False

    shell = CliOp("shell", 4, 3, fmt="csv")
    text = _report(shell)
    yield f"control: {shell}", shell.check(_facts_of(shell, text), digests), False
    tampered = _tamper_type(text)
    yield f"{shell} with one type raised", shell.check(_facts_of(shell, tampered), digests), True
    yield (f"{shell} with one type raised, no digest on record",
           shell.check(_facts_of(shell, tampered), {}), True)

    warmup, _ = workloads.generate("reject", workloads.DEFAULT_SEED)
    op = warmup[0]
    cert = op.run()["certificate"]
    yield f"control: {op}", op.check({"certificate": cert}, digests), False
    i, j = cert.witness
    for label, bad in (
        ("witness swapped", dataclasses.replace(cert, witness=(j, i))),
        ("witness one facet late", dataclasses.replace(cert, witness=(i, j + 1))),
        ("defect certified valid", dataclasses.replace(cert, valid=True, witness=None)),
    ):
        yield f"{op}: {label}", op.check({"certificate": bad}, digests), True

    order, K = workloads.subdivision_shelling(3, 4)
    valid = VerifyOp(3, 4, K, tuple(order), None)
    cert = valid.run()["certificate"]
    yield f"control: {valid}", valid.check({"certificate": cert}, digests), False
    types = list(cert.types)
    types[-1] += 1
    bad = dataclasses.replace(cert, types=tuple(types))
    yield f"{valid}: one type raised", valid.check({"certificate": bad}, digests), True


def _benchmark_json_problems() -> list[str]:
    """BENCHMARK.json must name the workloads and metrics this code reports."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if not names == list(run.WORKLOADS) == list(workloads.GENERATORS):
        problems.append("workload names differ from run.WORKLOADS or workloads.GENERATORS")
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if declared != tracing.per_layer_spec():
        problems.append("per_layer metrics differ from tracing.per_layer_spec()")
    return problems


def main() -> int:
    digests = run.load_digests()
    ok = True
    for description, problems, expected in cases(digests):
        passed = bool(problems) == expected
        ok &= passed
        verdict = ("caught" if problems else "accepted") + ("" if passed else "  <-- WRONG")
        print(f"{verdict:>8}: {description}")
        for problem in problems[:3]:
            print(f"          {problem}")
    for problem in _benchmark_json_problems():
        ok = False
        print(f"BENCHMARK.json: {problem}")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


def record_digests(path: Path) -> int:
    """Write the stdout digest of every CLI op of the default seed."""
    digests = {}
    for name in workloads.GENERATORS:
        warmup, ops = workloads.generate(name, workloads.DEFAULT_SEED)
        for op in warmup + ops:
            if not isinstance(op, CliOp):
                continue
            facts = op.run()
            problems = op.check(facts, {})
            if problems:
                print(f"not recorded, {op}: {problems}")
                return 1
            digests[str(op)] = facts["sha256"]
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {path.name}")
    return 0
