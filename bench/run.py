"""Benchmark of mzvint on three workloads: relation_sweep, verify_suites and
cold_cli.

    python3 bench/run.py --workload relation_sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run it from the root of a checkout: it imports mzvint from ``src/``. One
process runs one workload, in a closed loop with a single caller. A run
makes one untimed warm-up pass over the workload's fixed list of ops, then
repeats timed passes until ``--seconds`` have passed, and at least three
times. ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones; ``--trace 0`` reports the end-to-end
metrics. ``--workload all`` runs each workload in a process of its own.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import tracing
from workloads import WORKLOADS, Workload

SRC = Path(__file__).resolve().parent.parent / "src"

SETUP_REPEATS = 15
MIN_PASSES = 3
PERCENTILES = ("50", "90", "95", "99", "99.9", "99.99")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
LAYER_SPANS = ("cli", "reduction", "shuffle", "stuffle", "relations")
PER_LAYER = {
    "cli.calls": "count",
    "cli.self_s": "s",
    "cli.parse_s": "s",
    "rationals.bernoulli_calls": "count",
    "rationals.bernoulli_s": "s",
    "rationals.bernoulli_max_n": "count",
    "reduction.calls": "count",
    "reduction.self_s": "s",
    "reduction.terms_in": "count",
    "reduction.terms_out": "count",
    "reduction.cache_entries": "count",
    "reduction.cache_hit_ratio": "ratio",
    "shuffle.calls": "count",
    "shuffle.self_s": "s",
    "shuffle.terms_out": "count",
    "shuffle.memo_entries": "count",
    "stuffle.calls": "count",
    "stuffle.self_s": "s",
    "stuffle.terms_out": "count",
    "stuffle.cache_entries": "count",
    "stuffle.cache_hit_ratio": "ratio",
    "series.checks": "count",
    "series.checks_failed": "count",
    "series.self_s": "s",
    "series.mpl_cache_entries": "count",
    "series.harmonic_cache_entries": "count",
    "relations.calls": "count",
    "relations.self_s": "s",
    "relations.terms_out": "count",
    "trace.overhead_s": "s",
}


def use_checkout_source() -> bool:
    """Put the checkout's ``src/`` first on the import path; False when the
    checkout has no mzvint source."""
    if not (SRC / "mzvint" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def tail_percentile(n: int) -> str:
    """The highest of :data:`PERCENTILES` with at least ten of ``n`` samples
    above its nearest-rank sample; the median when none has."""
    best = PERCENTILES[0]
    for p in PERCENTILES:
        if n - _rank(p, n) >= 10:
            best = p
    return best


def _rank(p: str, n: int) -> int:
    return math.ceil(Fraction(p) * n / 100)


def percentile(sorted_values: list[float], p: str) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[_rank(p, len(sorted_values)) - 1]


def setup(make: Callable[[], Workload]) -> Workload:
    """Import mzvint afresh, make the workload's inputs and empty the caches."""
    for name in [m for m in sys.modules if m == "mzvint" or m.startswith("mzvint.")]:
        del sys.modules[name]
    importlib.import_module("mzvint")
    workload = make()
    tracing.reset_caches()
    return workload


@dataclass
class Run:
    workload: Workload
    setup_s: float
    walls: list[float] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    op_times: list[list[float]] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    failed: int = 0
    attempted: int = 0
    peak_rss_mb: float = 0.0
    tracer: tracing.Tracer = field(default_factory=tracing.Tracer)
    tally: tracing.CacheTally = field(default_factory=tracing.CacheTally)

    def digest(self) -> str:
        """sha256 of the outputs of one pass, sorted by input."""
        keyed = sorted(zip(map(self.workload.key, self.workload.ops), self.outputs))
        return hashlib.sha256("\n".join(f"{k}\t{o}" for k, o in keyed).encode()).hexdigest()


def _run_pass(run: Run, traced: bool, timed: bool = True) -> list[str]:
    workload = run.workload
    outputs, wall = [], 0.0
    if not workload.reset_each_op:
        tracing.reset_caches()
    gc.collect()  # every pass starts from the same collector state
    for i, op in enumerate(workload.ops):
        if workload.reset_each_op:
            tracing.reset_caches()
        # The cyclic collector is off while an op is timed, and collects the
        # op's new objects right after it, untimed. Left on, its full
        # collections (tens of ms each) land on whichever ops happen to
        # cross its thresholds, which varies from pass to pass and run to
        # run. Memory the op keeps still shows in peak_rss_mb.
        gc.disable()
        start = time.perf_counter()
        try:
            output = workload.run(op)
        except Exception:  # an op that raises is a failed op; the run goes on
            output = "error: " + traceback.format_exc()
        elapsed = time.perf_counter() - start
        gc.collect(0)
        gc.enable()
        wall += elapsed
        outputs.append(output)
        if traced and workload.reset_each_op:
            run.tally.read()
        elif timed and not traced:
            run.op_times[i].append(elapsed)
    if traced and not workload.reset_each_op:
        run.tally.read()
    if timed:
        (run.traced_walls if traced else run.walls).append(wall)
    return outputs


def _check(workload: Workload, op, output: str) -> bool:
    try:
        return workload.check(op, output)
    except Exception:  # a malformed output fails its check
        return False


def measure(make: Callable[[], Workload], seconds: float, trace: bool, setup_repeats: int = SETUP_REPEATS) -> Run:
    """Set up ``setup_repeats`` times, run one untimed warm-up pass, then
    run passes for ``seconds`` (at least :data:`MIN_PASSES` of each kind)
    and check every output."""
    times = []
    for _ in range(setup_repeats):
        start = time.perf_counter()
        workload = setup(make)
        times.append(time.perf_counter() - start)
    run = Run(workload, statistics.median(times))
    run.op_times = [[] for _ in workload.ops]
    mismatches = [0] * len(workload.ops)
    # the warm-up pass lets lazy set-up inside mzvint finish; its outputs
    # are the ones checked, and every later pass must print the same
    run.outputs = _run_pass(run, traced=False, timed=False)
    start = time.perf_counter()
    while (
        len(run.walls) < MIN_PASSES
        or (trace and len(run.traced_walls) < MIN_PASSES)
        or time.perf_counter() - start < seconds
    ):
        traced = trace and len(run.traced_walls) < len(run.walls)
        uninstall = tracing.install(run.tracer) if traced else None
        try:
            outputs = _run_pass(run, traced)
        finally:
            if uninstall is not None:
                uninstall()
        for i, (a, b) in enumerate(zip(outputs, run.outputs)):
            mismatches[i] += a != b
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passes = 1 + len(run.walls) + len(run.traced_walls)
    run.attempted = passes * len(workload.ops)
    for op, output, differs in zip(workload.ops, run.outputs, mismatches):
        if not _check(workload, op, output):
            run.failed += passes
            print(f"FAIL {workload.key(op)}: {output[:300]!r}", file=sys.stderr)
        elif differs:
            run.failed += differs
            print(f"FAIL {workload.key(op)}: output differs between passes", file=sys.stderr)
    return run


def end_to_end(run: Run) -> dict[str, float]:
    # each op's latency is its median over the untraced passes
    per_op = sorted(statistics.median(t) for t in run.op_times)
    wall = statistics.median(run.walls)
    return {
        "setup_s": run.setup_s,
        "wall_s": wall,
        "ops_per_s": len(per_op) / wall,
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_tail_ms": percentile(per_op, tail_percentile(len(per_op))) * 1e3,
        "peak_rss_mb": run.peak_rss_mb,
    }


def per_layer(run: Run) -> dict[str, float]:
    """Per-layer metrics per traced pass."""
    t, tally, passes = run.tracer, run.tally, len(run.traced_walls)
    metrics = {}
    for layer in LAYER_SPANS:
        metrics[f"{layer}.calls"] = t.calls[layer] / passes
        metrics[f"{layer}.self_s"] = t.self_s[layer] / passes
    for key in ("reduction.terms_in", "reduction.terms_out", "shuffle.terms_out", "stuffle.terms_out",
                "series.checks", "series.checks_failed", "relations.terms_out"):
        metrics[key] = t.counts[key] / passes
    metrics.update({
        "cli.parse_s": t.total_s["cli.parse"] / passes,
        "rationals.bernoulli_calls": t.calls["rationals"] / passes,
        "rationals.bernoulli_s": t.total_s["rationals"] / passes,
        "rationals.bernoulli_max_n": t.counts["rationals.bernoulli_max_n"],
        "reduction.cache_entries": tally.entries["mzvint.reduction._pi_plus_index"],
        "reduction.cache_hit_ratio": tally.hit_ratio("mzvint.reduction._pi_plus_index"),
        "shuffle.memo_entries": tally.entries["mzvint.shuffle._MEMO"],
        "stuffle.cache_entries": tally.entries["mzvint.stuffle._pair_sorted"],
        "stuffle.cache_hit_ratio": tally.hit_ratio("mzvint.stuffle._pair_sorted"),
        "series.self_s": t.self_s["series"] / passes,
        "series.mpl_cache_entries": tally.entries["mzvint.series._mpl_cached"],
        "series.harmonic_cache_entries": tally.entries["mzvint.series._harmonic_cached"],
        # passes alternate, so each traced pass is paired with the untraced one before it
        "trace.overhead_s": statistics.median(b - a for a, b in zip(run.walls, run.traced_walls)),
    })
    return {name: metrics[name] for name in PER_LAYER}


def report(name: str, run: Run, seed: int, trace: bool) -> dict:
    metrics = per_layer(run) if trace else end_to_end(run)
    units = PER_LAYER if trace else END_TO_END
    n = len(run.workload.ops)
    tail = tail_percentile(n)
    for key, value in metrics.items():
        print(f"{name} {key} {value:.6g} {units[key]}")
    if not trace:
        print(f"{name} failed_frac {run.failed / run.attempted:.6g} ratio")
    print(json.dumps({"detail": {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "ops_per_pass": n,
        "passes": len(run.walls),
        "traced_passes": len(run.traced_walls),
        "setup_repeats": SETUP_REPEATS,
        "op_tail": f"p{tail} of {n} ops, {n - _rank(tail, n)} above it; each op timed as its median over the passes",
        "failed_frac": run.failed / run.attempted,
        "output_sha256": run.digest(),
    }}))
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def _run_all(args: argparse.Namespace) -> int:
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        print(child.stdout, end="", flush=True)
        if child.returncode != 0:
            print(f"error: workload {name} exited with {child.returncode}", file=sys.stderr)
            return child.returncode
        results[name] = json.loads(child.stdout.splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_checkout_source():
        print(f"error: no mzvint source at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    cls = WORKLOADS[args.workload]
    run = measure(lambda: cls(args.seed), args.seconds, bool(args.trace))
    print(json.dumps(report(args.workload, run, args.seed, bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
