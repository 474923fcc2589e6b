"""Outside-in benchmark for edgewise.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test
    python3 bench/run.py --record-digests

Run from the root of a source checkout; the package is imported from
``src/``.  Each sample is a fresh single-threaded Python process (a closed
loop with one client: every op starts when the previous one returns) that
imports the package, generates the workload's inputs from the seed, runs one
warm-up op, reports ready, then runs the workload's op list once.  This
process starts samples one after another for about ``--seconds`` seconds and
reports medians.  Every op's output is checked after the timed loop.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of traced samples, alternated with untraced ones to measure the
tracing overhead.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"

# At least two samples: in a traced run, one untraced/traced pair.
MIN_SAMPLES = 2
# The whole run ends well inside the 180 s a run may take.
LAUNCH_LIMIT_S = 120.0
SAMPLE_TIMEOUT_S = 170.0

WORKLOADS = ("certify", "reject", "links", "bulk")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that the checks catch wrong answers that exit 0")
    parser.add_argument("--record-digests", action="store_true",
                        help="record the stdout digests of the default seed's ops")
    parser.add_argument("--sample", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.workload or args.self_test or args.record_digests):
        parser.error("give --workload, --self-test or --record-digests")
    return args


def _import_package() -> None:
    """Put the checkout's src/ first on the path and check it is what loads."""
    sys.path.insert(0, str(SRC))
    import edgewise

    if Path(edgewise.__file__).resolve().parent != SRC / "edgewise":
        raise ImportError(f"edgewise loaded from {edgewise.__file__}, not from {SRC}")


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


# ---------------------------------------------------------------------------
# One sample, in its own process


def sample(args) -> int:
    _import_package()
    import tracing
    import workloads

    warmup, ops = workloads.generate(args.workload, args.seed)
    digests = load_digests()
    warm_facts = [op.run() for op in warmup]
    print("ready", flush=True)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    facts, op_s = [], []
    start = perf_counter()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        began = perf_counter()
        facts.append(op.run())
        op_s.append(perf_counter() - began)
    wall = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    warm_problems = [(op, op.check(fact, digests)) for op, fact in zip(warmup, warm_facts)]
    op_problems = [(op, op.check(fact, digests)) for op, fact in zip(ops, facts)]
    report = {
        "wall_s": wall,
        "op_s": op_s,
        "peak_rss_mb": peak_rss_mb,
        "warm_count": len(warmup),
        "warm_failed": sum(1 for _, problems in warm_problems if problems),
        "op_failed": [bool(problems) for _, problems in op_problems],
        "problems": [f"{op}: {problem}"
                     for op, problems in warm_problems + op_problems for problem in problems],
        "digests": [fact.get("sha256") for fact in facts],
    }
    if tracer is not None:
        stdout_bytes = sum(fact.get("nbytes", 0) for fact in facts)
        report["layers"] = tracing.layer_metrics(tracer, stdout_bytes)
    print(json.dumps(report), flush=True)
    return 0


# ---------------------------------------------------------------------------
# The run: samples one after another, then medians


def _run_sample(args, traced: bool, deadline: float) -> dict | None:
    """Start one sample process; None when it fails to report."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--sample", "--workload", args.workload,
           "--seed", str(args.seed), "--trace", "1" if traced else "0"]
    start = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        timer = threading.Timer(max(1.0, deadline - start), proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = perf_counter() - start
            report = proc.stdout.readline()
            proc.wait()
        finally:
            timer.cancel()
    if proc.returncode != 0 or ready.strip() != "ready" or not report:
        print(f"run.py: sample exited {proc.returncode} without a report", file=sys.stderr)
        return None
    result = json.loads(report)
    result["setup_s"] = setup_s
    result["traced"] = traced
    print(f"run.py: {'traced' if traced else 'plain'} sample: setup {setup_s:.3f} s,"
          f" wall {result['wall_s']:.3f} s", file=sys.stderr)
    return result


def _collect(args) -> list[dict | None]:
    """Samples while the next one would end no more than half a sample past
    --seconds; traced runs alternate untraced and traced samples and stop
    after a pair."""
    pattern = (False, True) if args.trace else (False,)
    t0 = perf_counter()
    samples: list[dict | None] = []
    longest = 0.0
    while True:
        elapsed = perf_counter() - t0
        if len(samples) % len(pattern) == 0:
            overrun = elapsed + len(pattern) * longest / 2 > args.seconds
            if len(samples) >= MIN_SAMPLES and overrun:
                break
            if elapsed > LAUNCH_LIMIT_S:
                break
        began = perf_counter()
        traced = pattern[len(samples) % len(pattern)]
        samples.append(_run_sample(args, traced, t0 + SAMPLE_TIMEOUT_S))
        longest = max(longest, perf_counter() - began)
    return samples


def _typical_pass(samples: list[dict]) -> float:
    """Sum over the ops of each op's median time across samples.

    The host's speed drops in bursts of a second or two; a per-op median
    keeps a burst that hits one sample's op from moving the whole pass.
    """
    return sum(statistics.median(times) for times in zip(*(s["op_s"] for s in samples)))


def _end_to_end(good: list[dict], attempted: int, failed: int) -> dict:
    return {
        "setup_s": {"value": statistics.median(s["setup_s"] for s in good), "unit": "s"},
        "wall_s": {"value": _typical_pass(good), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(s["peak_rss_mb"] for s in good),
                        "unit": "MiB"},
        "ok_frac": {"value": 1 - failed / attempted, "unit": "frac"},
    }


def _per_layer(good: list[dict]) -> dict:
    import tracing

    traced = [s for s in good if s["traced"]]
    plain = [s for s in good if not s["traced"]]
    metrics = {}
    for name, unit in tracing.per_layer_spec():
        values = [s["layers"][name] for s in traced]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    overhead = _typical_pass(traced) / _typical_pass(plain) - 1
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
    return metrics


def run(args) -> int:
    samples = _collect(args)
    good = [s for s in samples if s is not None]
    attempted = failed = len(samples) - len(good)
    for s in good:
        for problem in s["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
        # Every sample of one seed runs the same ops, traced or not: their
        # outputs must be the same bytes.
        same = [digest == first for digest, first in zip(s["digests"], good[0]["digests"])]
        attempted += s["warm_count"] + len(s["op_failed"])
        failed += s["warm_failed"] + sum(bad or not ok for bad, ok in zip(s["op_failed"], same))
    if args.trace:
        if not any(s["traced"] for s in good) or all(s["traced"] for s in good):
            print("run.py: no traced/untraced pair of samples completed", file=sys.stderr)
            return 1
        metrics = _per_layer(good)
    else:
        if not good:
            print("run.py: no sample completed", file=sys.stderr)
            return 1
        metrics = _end_to_end(good, attempted, failed)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "edgewise" / "__init__.py").is_file():
        print(f"run.py: no edgewise sources under {SRC}", file=sys.stderr)
        return 2
    if args.sample:
        return sample(args)
    if args.self_test:
        _import_package()
        import selftest

        return selftest.main()
    if args.record_digests:
        _import_package()
        import selftest

        return selftest.record_digests(DIGESTS)
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
