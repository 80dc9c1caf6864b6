"""Benchmark of the ingleton package: one workload per run, every result checked.

    python3 perfbench/run.py --workload loop-a4wr2 --seed 1 --seconds 36 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  The run prints a readable report and, as the last line of standard
output, one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  perfbench/README.md explains the
workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from speed import Speedometer
from tracing import SpanTotals, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("loop-a4wr2", "lattice-psl28", "verify-corpus")
SETUP_SAMPLES = 7
# A set-up sample lasts about 0.15 s, so it samples the host's speed more often
# than the timed phase does.
SETUP_INTERVAL_S = 0.005
# At least two operations give a median.  A traced run makes at least four:
# one untraced (the tracing overhead is measured against it), then traced ones
# on the seed, the next seed, and the seed again (see ``schedule``).
MIN_OPS = 2
TRACED_MIN_OPS = 4
# Counts that two seeds must give alike (the seed self-test).
SEED_COUNTS = ("subgroups.lattice_size", "subgroups.h1_reps", "subgroups.join_calls",
               "search.hits", "search.classes")


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="prepare the inputs, print the monotonic clock, the seconds spent sampling "
                             "the host's speed and that speed, and exit (set-up timing)")
    return parser.parse_args(argv)


def benchmark_metrics(key: str) -> dict[str, str]:
    """Metric name -> unit, from BENCHMARK.json at the root of the checkout."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except OSError as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    return {m["name"]: m["unit"] for m in spec[key]}


def measure_setup(args) -> list[float]:
    """Seconds from spawning a fresh interpreter to the point where it would
    start its first timed operation, once per sample, at the reference speed:
    the interpreter samples the host's speed from its imports on, and the
    whole sample is scaled by that speed, leaving out the ticks."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            fail(f"set-up run failed: {proc.stderr.strip()}")
        ended, busy, speed = map(float, proc.stdout.split()[-3:])
        samples.append((ended - started - busy) * speed)
    return samples


@dataclass
class Op:
    seed: int
    seconds: float  # at the reference speed
    wall_s: float
    outcome: object  # workloads.Outcome
    spans: tuple[int, int] | None  # (first, end) span indices when traced


def schedule(i: int, seed: int, traced: bool) -> tuple[int, bool]:
    """Seed and tracing of operation i.  A traced run starts with one untraced
    operation, and its third operation uses the next seed."""
    if not traced:
        return seed, False
    return (seed + 1 if i == 2 else seed), i > 0


def timed_phase(workloads, args, reference, tracer) -> tuple[list[Op], Speedometer]:
    """Operations back to back until the next one would end past --seconds.

    Each operation starts from its inputs alone (a search builds its group, a
    corpus pass rebuilds every record's group), so nothing is served from an
    earlier operation's caches.  The gate runs between operations, untimed.
    The host's speed is sampled throughout, and every operation and item is
    timed at the reference speed (see speed.py); spans are wall time.
    """
    seeds = (args.seed, args.seed + 1) if tracer else (args.seed,)
    inputs = {seed: workloads.prepare(args.workload, seed) for seed in seeds}
    min_ops = TRACED_MIN_OPS if tracer else MIN_OPS
    ops: list[Op] = []
    with Speedometer() as meter:
        started = time.perf_counter()
        while len(ops) < min_ops or (
            time.perf_counter() - started + statistics.median(op.wall_s for op in ops) <= args.seconds
        ):
            seed, traced = schedule(len(ops), args.seed, tracer is not None)
            spans = None
            if traced:
                for module, attr, span, count_items, optional in workloads.TRACED:
                    tracer.wrap(module, attr, span, count_items, optional)
                first = tracer.begin("op")
            t0 = time.perf_counter()
            result = workloads.run_once(args.workload, inputs[seed])
            t1 = time.perf_counter()
            if traced:
                tracer.end(first)
                spans = (first, len(tracer.spans))
                tracer.unwrap()
            seconds = meter.normalized(t0, t1)
            outcome = workloads.check(args.workload, reference, result, seconds, meter.normalized)
            # A group and the subgroups cached on it form reference cycles.  Free
            # them here, untimed, so that neither the next operation's time nor
            # the peak memory depends on when the cyclic collector happens to run.
            del result
            gc.collect()
            ops.append(Op(seed, seconds, t1 - t0, outcome, spans))
    return ops, meter


def percentile_note(values) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    note = f"median of {len(values)}"
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            cut = statistics.quantiles(values, n=100)[p - 1]
            note += f", p{p} {cut:.4g}"
            break
    return note + f", range {values[0]:.4g}..{values[-1]:.4g}"


def end_to_end(args, ops, meter, setup_samples, peak_rss_mb) -> dict[str, float]:
    latencies = [t for op in ops for t in op.outcome.latencies]
    results = sum(op.outcome.results for op in ops)
    timed = sum(op.seconds for op in ops)
    metrics = {
        "op_s": statistics.median(latencies or [op.seconds for op in ops]),
        "verified_per_s": statistics.median(op.outcome.results / op.seconds for op in ops),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
    }
    attempted = sum(op.outcome.attempted for op in ops)
    failed = sum(op.outcome.failed for op in ops)
    what = "search_s" if args.workload != "verify-corpus" else "item_s"
    print(f"  host speed          {meter.mean_speed():.4g} of the reference speed "
          f"[mean of {len(meter.kernel_s)} samples]; wall time of the operations: "
          f"{percentile_note([op.wall_s for op in ops])}")
    print(f"  op_s ({what})      {metrics['op_s']:.6g} s  [{percentile_note(latencies or [0.0])}]")
    print(f"  verified_per_s      {metrics['verified_per_s']:.6g} items/s  "
          f"[median of {len(ops)} operations; {results} items in {timed:.3f} s]")
    print(f"  setup_s             {metrics['setup_s']:.6g} s  [{percentile_note(setup_samples)}]")
    print(f"  peak_rss_mb         {peak_rss_mb:.6g} MiB")
    print(f"  failed_frac         {failed / attempted:.6g}  [{failed} of {attempted} attempted]")
    return metrics


def per_layer(args, ops, tracer) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics (median over the traced operations) and self-test failures."""
    traced = [op for op in ops if op.spans is not None]
    totals = [SpanTotals(tracer.spans, *op.spans) for op in traced]
    rows = [layer_row(op, t) for op, t in zip(traced, totals)]
    metrics = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    metrics["trace.overhead_s"] = metrics["trace.op_s"] - statistics.median(
        op.seconds for op in ops if op.spans is None
    )

    print("  per operation (median over traced operations): span, calls, total s, self s")
    for name in sorted(set().union(*(t.seconds for t in totals))):
        med = lambda d: statistics.median(getattr(t, d).get(name, 0) for t in totals)  # noqa: E731
        print(f"    {name:24s} {med('calls'):>8g} {med('seconds'):>10.4f} {med('self_seconds'):>10.4f}")
    print(f"  tracing overhead    {metrics['trace.overhead_s']:.4f} s per operation")

    problems = []
    own = [row for op, row in zip(traced, rows) if op.seed == args.seed]
    first, last = own[0]["subgroups.join_calls"], own[-1]["subgroups.join_calls"]
    if first != last:
        problems.append(f"fresh-state self-test: join_calls {first} in the first repetition, {last} in the last")
    other = next(row for op, row in zip(traced, rows) if op.seed != args.seed)
    for name in SEED_COUNTS:
        if other[name] != own[0][name]:
            problems.append(f"seed self-test: {name} is {own[0][name]} for seed {args.seed}, "
                            f"{other[name]} for seed {args.seed + 1}")
    return metrics, problems


def layer_row(op: Op, t: SpanTotals) -> dict[str, float]:
    """The per-layer metrics of one traced operation."""
    sec = lambda n: t.seconds.get(n, 0.0)  # noqa: E731
    calls = lambda n: t.calls.get(n, 0)  # noqa: E731
    lattice = t.items.get("subgroups.lattice", 0)
    atoms = t.items.get("subgroups.atoms", 0)
    lattice_joins = t.child_calls.get(("subgroups.lattice", "subgroups.join"), 0)
    hits = calls("search.orbit")
    classes = t.items.get("search.total", 0)
    return {
        "groups.build_s": sec("groups.build"),
        "groups.build_calls": calls("groups.build"),
        "groups.quotient_s": sec("groups.quotient"),
        "groups.quotient_calls": calls("groups.quotient"),
        "subgroups.lattice_s": sec("subgroups.lattice"),
        "subgroups.lattice_size": lattice,
        "subgroups.join_calls": calls("subgroups.join"),
        "subgroups.join_s": sec("subgroups.join"),
        "subgroups.join_yield": (lattice - atoms - 1) / lattice_joins if lattice_joins else 0.0,
        "subgroups.classes_s": sec("subgroups.classes"),
        "subgroups.h1_reps": t.items.get("subgroups.classes", 0),
        "subgroups.normal_s": sec("subgroups.normal"),
        "subgroups.predicates_s": sec("subgroups.predicates"),
        "search.total_s": sec("search.total"),
        "search.loop_self_s": t.self_seconds.get("search.total", 0.0),
        "search.hits": hits,
        "search.classes": classes,
        "search.class_yield": classes / hits if hits else 0.0,
        "search.orbit_s": sec("search.orbit"),
        "engine.evaluate_s": sec("engine.evaluate"),
        "engine.evaluate_calls": calls("engine.evaluate"),
        "records.emit_s": sec("records.emit"),
        "records.bytes": op.outcome.bytes_written,
        "records.read_s": sec("records.read"),
        "records.verify_s": sec("records.verify"),
        "records.rebuild_s": sec("records.rebuild"),
        "records.orbit_s": sec("records.orbit"),
        "records.verified": op.outcome.records_verified,
        "constructions.family_s": sec("constructions.family"),
        "constructions.family_order": op.outcome.family_order,
        "trace.spans": t.span_count,
        "trace.op_s": op.seconds,
    }


def seed_changes_inputs(workloads, args) -> bool:
    """The seed changes the inputs: element labels (searches) or words (corpus)."""
    if args.workload == "verify-corpus":
        return workloads.prepare(args.workload, args.seed) != workloads.prepare(args.workload, args.seed + 1)
    a, b = (workloads.build_group(workloads.prepare(args.workload, s)) for s in (args.seed, args.seed + 1))
    return a.labels != b.labels


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ingleton" / "__init__.py").is_file():
        fail(f"no ingleton sources under {SRC}; run the benchmark from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        with Speedometer(SETUP_INTERVAL_S) as meter:
            import workloads
            workloads.prepare(args.workload, args.seed)
            ended = time.monotonic()
        print(repr(ended), repr(meter.busy_s()), repr(meter.mean_speed()))
        return 0
    import workloads

    key = "per_layer" if args.trace else "end_to_end"
    units = benchmark_metrics(key)
    reference = workloads.load_reference()[args.workload]
    setup_samples = [] if args.trace else measure_setup(args)

    tracer = Tracer() if args.trace else None
    ops, meter = timed_phase(workloads, args, reference, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"{args.workload} seed {args.seed}: {len(ops)} operations, "
          f"{sum(op.wall_s for op in ops):.3f} s timed (wall), trace {args.trace}")
    for line, count in Counter(line for op in ops for line in op.outcome.failures).items():
        print(f"  failed in {count} of {len(ops)} operations: {line}")

    problems = []
    if args.trace:
        metrics, problems = per_layer(args, ops, tracer)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        print(f"  {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(args, ops, meter, setup_samples, peak_rss_mb)
    if not seed_changes_inputs(workloads, args):
        problems.append(f"seed self-test: seeds {args.seed} and {args.seed + 1} give the same inputs")
    for line in problems:
        print(f"  {line}")

    missing = set(units) - set(metrics)
    if missing:
        fail(f"metrics {sorted(missing)} listed in BENCHMARK.json were not measured")
    attempted = sum(op.outcome.attempted for op in ops)
    failed = sum(op.outcome.failed for op in ops)
    correct = (
        not problems
        and all(op.outcome.wrong == 0 for op in ops)
        and any(op.outcome.latencies for op in ops)
    )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
