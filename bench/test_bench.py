"""Tests of the benchmark itself: the tail percentile, self time of nested
spans, the cache reset, and one tiny run of each workload.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import gc
import importlib
import json
import math

import pytest

import run
import tracing
import workloads

assert run.use_checkout_source()

TINY = {
    "relation_sweep": lambda seed: workloads.RelationSweep(seed, max_depth=2, lo=-1, hi=3, max_weight=4),
    "verify_suites": lambda seed: workloads.VerifySuites(seed, calls=2, cases=2),
    "cold_cli": lambda seed: workloads.ColdCli(seed, blocks=1),
}


def test_tail_percentile_keeps_ten_samples_above_it():
    assert run.tail_percentile(1000) == "99"
    assert run.tail_percentile(999) == "95"
    assert run.tail_percentile(200) == "95"
    assert run.tail_percentile(199) == "90"
    assert run.tail_percentile(10_000) == "99.9"
    for n in range(20, 2000):
        p = run.tail_percentile(n)
        assert n - run._rank(p, n) >= 10
        higher = run.PERCENTILES[run.PERCENTILES.index(p) + 1]
        assert n - run._rank(higher, n) < 10
    values = list(range(1, 1001))
    assert run.percentile(values, "99") == 990
    assert run.percentile(values, "50") == 500


def test_self_time_subtracts_nested_spans():
    ticks = iter([0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda: None)
    inner = tracer.wrap("inner", lambda f: f())
    outer = tracer.wrap("outer", lambda: (inner(leaf), inner(lambda: None)))
    outer()
    # outer 0..10 holds inner 2..5 (which holds leaf 3..4) and inner 6..7
    assert tracer.total_s == {"outer": 10.0, "inner": 4.0, "leaf": 1.0}
    assert tracer.self_s == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}
    assert tracer.calls == {"outer": 1, "inner": 2, "leaf": 1}


def test_span_closes_when_the_call_raises():
    tracer = tracing.Tracer()

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("layer", fail)()
    assert tracer.calls["layer"] == 1
    assert tracer._open == []


def _warm_every_table():
    import mzvint

    mzvint.pi_plus((1, -3, 2))
    mzvint.shuffle((-1, 2), (2,))
    mzvint.stuffle((1, 2), (2,))
    mzvint.mpl_coefficients((2,), 5)
    mzvint.harmonic_sum((2,), 5)
    mzvint.zeta_real_approx((2,), 10)


def test_reset_caches_empties_every_table():
    _warm_every_table()
    assert all(entries for entries, _, _ in tracing.table_stats().values())
    tracing.reset_caches()
    assert [entries for entries, _, _ in tracing.table_stats().values()] == [0] * len(tracing.CACHE_TABLES)


def test_reset_caches_fails_loudly_on_a_missing_table(monkeypatch):
    monkeypatch.delattr(importlib.import_module("mzvint.series"), "_mpl_cached")
    with pytest.raises(RuntimeError, match="_mpl_cached"):
        tracing.reset_caches()


def test_install_wraps_every_binding_and_uninstall_restores():
    relations = importlib.import_module("mzvint.relations")
    original = relations.pi_plus
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert importlib.import_module("mzvint.cli").pi_plus is relations.pi_plus is not original
        tracing.reset_caches()
        relations.dsr_relation((-1, 4), (2,))
    finally:
        uninstall()
    assert relations.pi_plus is original
    for layer in ("relations", "reduction", "shuffle", "stuffle", "rationals"):
        assert tracer.calls[layer] > 0, layer
    assert tracer.counts["rationals.bernoulli_max_n"] >= 1


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_has_no_failures(name, trace):
    result = run.measure(lambda: TINY[name](3), seconds=0, trace=trace, setup_repeats=1)
    ops = len(result.workload.ops)
    assert result.failed == 0
    assert result.attempted == ops * (1 + len(result.walls) + len(result.traced_walls))
    if trace:
        metrics = run.per_layer(result)
        assert list(metrics) == list(run.PER_LAYER)
        busy = {"relation_sweep": "relations.calls", "verify_suites": "series.checks", "cold_cli": "cli.calls"}
        assert metrics[busy[name]] > 0
        assert metrics["series.checks_failed"] == 0
    else:
        metrics = run.end_to_end(result)
        assert list(metrics) == list(run.END_TO_END)
        assert all(math.isfinite(v) and v > 0 for v in metrics.values())


def test_collector_is_back_on_after_a_run():
    result = run.measure(lambda: TINY["cold_cli"](3), seconds=0, trace=False, setup_repeats=1)
    assert result.failed == 0
    assert gc.isenabled()


def test_wrong_output_counts_as_failed():
    class Wrong(workloads.VerifySuites):
        def run(self, op):
            return super().run(op).replace(" pass", " passed")

    result = run.measure(lambda: Wrong(1, calls=2, cases=2), seconds=0, trace=False, setup_repeats=1)
    assert result.failed == result.attempted > 0


def test_relation_sweep_digest_does_not_depend_on_the_seed():
    first = run.measure(lambda: TINY["relation_sweep"](1), seconds=0, trace=False, setup_repeats=1)
    second = run.measure(lambda: TINY["relation_sweep"](2), seconds=0, trace=False, setup_repeats=1)
    assert first.workload.ops != second.workload.ops
    assert first.digest() == second.digest()


def test_same_seed_gives_same_inputs():
    for make in TINY.values():
        assert make(5).ops == make(5).ops


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.SRC.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_main_without_source_exits_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "cold_cli", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
