"""Spans around mzvint's layers, and control of its memo tables.

The spans are recorded from outside the program: :func:`install` replaces a
public function at every ``mzvint`` module attribute that is bound to it, so
each caller reaches the wrapper through the name it already looks up
(``mzvint.relations.pi_plus``, ``mzvint.series.shuffle``, ...). Spans are
aggregated as they close, so memory stays bounded however many there are.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from typing import Callable

# Every memo table of the program. A workload that says it runs cold must
# start with all of them empty.
CACHE_TABLES = (
    ("mzvint.shuffle", "_MEMO"),
    ("mzvint.reduction", "_pi_plus_index"),
    ("mzvint.stuffle", "_pair_sorted"),
    ("mzvint.series", "_mpl_cached"),
    ("mzvint.series", "_harmonic_cached"),
    ("mzvint.series", "_zeta_real_cached"),
    ("mzvint.rationals", "_bernoulli_lower"),
)


def _tables() -> list[tuple[str, object]]:
    out = []
    for module, name in CACHE_TABLES:
        # import_module, not attribute access: the package attributes
        # mzvint.shuffle and mzvint.stuffle are the functions, not the modules.
        table = getattr(importlib.import_module(module), name, None)
        if table is None:
            raise RuntimeError(f"memo table {module}.{name} is missing; update CACHE_TABLES")
        out.append((f"{module}.{name}", table))
    return out


def _size(table) -> int:
    return len(table) if isinstance(table, dict) else table.cache_info().currsize


def table_stats() -> dict[str, tuple[int, int, int]]:
    """(entries, hits, misses) of every memo table; plain dicts count no hits."""
    stats = {}
    for name, table in _tables():
        if isinstance(table, dict):
            stats[name] = (len(table), 0, 0)
        else:
            info = table.cache_info()
            stats[name] = (info.currsize, info.hits, info.misses)
    return stats


def reset_caches() -> None:
    """Empty every memo table, through ``mzvint.clear_caches`` when the package
    has it, and fail unless all of them are empty afterwards."""
    tables = _tables()
    clear = getattr(importlib.import_module("mzvint"), "clear_caches", None)
    if clear is not None:
        clear()
    else:
        for _, table in tables:
            if isinstance(table, dict):
                table.clear()
            else:
                table.cache_clear()
    warm = [name for name, table in tables if _size(table)]
    if warm:
        raise RuntimeError(f"memo tables still hold entries after the reset: {warm}")


class CacheTally:
    """Memo table readings taken at the end of each pass or cold op: the
    largest size seen and the hits and misses summed over the readings."""

    def __init__(self) -> None:
        self.entries: dict[str, int] = defaultdict(int)
        self.hits: dict[str, int] = defaultdict(int)
        self.misses: dict[str, int] = defaultdict(int)

    def read(self) -> None:
        for name, (entries, hits, misses) in table_stats().items():
            self.entries[name] = max(self.entries[name], entries)
            self.hits[name] += hits
            self.misses[name] += misses

    def hit_ratio(self, name: str) -> float:
        lookups = self.hits[name] + self.misses[name]
        return self.hits[name] / lookups if lookups else 0.0


class Tracer:
    """Per layer: spans closed, their total time, their self time (total
    minus the time covered by child spans) and counters set by hooks."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        # time covered by the children of each open span, innermost last
        self._open: list[float] = []

    def wrap(self, layer: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` inside a span of ``layer``; ``after(tracer, args, result)``
        runs once the span has closed."""
        clock, open_spans = self.clock, self._open

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = open_spans.pop()
                self.calls[layer] += 1
                self.total_s[layer] += duration
                self.self_s[layer] += duration - children
                if open_spans:
                    open_spans[-1] += duration
            if after is not None:
                after(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _count_terms(key: str) -> Callable:
    def after(tracer: Tracer, args: tuple, result) -> None:
        tracer.counts[key] += len(result)

    return after


def _pi_plus(tracer: Tracer, args: tuple, result) -> None:
    # a bare index is one term; an IndexSum has one term per support element
    tracer.counts["reduction.terms_in"] += 1 if isinstance(args[0], (tuple, list)) else len(args[0])
    tracer.counts["reduction.terms_out"] += len(result)


def _bernoulli(tracer: Tracer, args: tuple, result) -> None:
    key = "rationals.bernoulli_max_n"
    tracer.counts[key] = max(tracer.counts[key], args[0])


def _series_check(tracer: Tracer, args: tuple, report) -> None:
    tracer.counts["series.checks"] += 1
    if not report.passed:
        tracer.counts["series.checks_failed"] += 1


def _relation(tracer: Tracer, args: tuple, rel) -> None:
    tracer.counts["relations.terms_out"] += len(rel.difference)


def _parser(tracer: Tracer, args: tuple, parser) -> None:
    parser.parse_args = tracer.wrap("cli.parse", parser.parse_args)


# (layer, defining module, function, hook). Argument parsing is its own
# layer, "cli.parse", so that the cli layer's self time leaves it out.
SPANS = (
    ("cli", "mzvint.cli", "main", None),
    ("cli.parse", "mzvint.cli", "build_parser", _parser),
    ("cli.parse", "mzvint.cli", "parse_index", None),
    ("rationals", "mzvint.rationals", "bernoulli", _bernoulli),
    ("reduction", "mzvint.reduction", "pi_plus", _pi_plus),
    ("shuffle", "mzvint.shuffle", "shuffle", _count_terms("shuffle.terms_out")),
    ("stuffle", "mzvint.stuffle", "stuffle", _count_terms("stuffle.terms_out")),
    ("series", "mzvint.series", "verify_reduction", _series_check),
    ("series", "mzvint.series", "verify_shuffle", _series_check),
    ("series", "mzvint.series", "verify_stuffle", _series_check),
    ("relations", "mzvint.relations", "dsr_relation", _relation),
    ("relations", "mzvint.relations", "relation_json_line", None),
)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every function in :data:`SPANS` wherever an ``mzvint`` module
    binds it; returns the function that puts the originals back."""
    targets = []
    for layer, module, name, after in SPANS:
        original = getattr(importlib.import_module(module), name, None)
        if original is None:
            raise RuntimeError(f"traced function {module}.{name} is missing; update SPANS")
        targets.append((original, tracer.wrap(layer, original, after)))
    modules = [m for name, m in list(sys.modules.items()) if name == "mzvint" or name.startswith("mzvint.")]
    patched: list[tuple[object, str, object]] = []
    for original, wrapper in targets:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    patched.append((mod, attr, original))

    def uninstall() -> None:
        for mod, attr, original in patched:
            setattr(mod, attr, original)

    return uninstall
