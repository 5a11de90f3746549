"""The public surface: every exported name resolves."""

from __future__ import annotations

import importlib
import pkgutil

import mzvint

# the package-level names the benchmark harness calls
BENCH_NAMES = (
    "pi_plus",
    "shuffle",
    "stuffle",
    "mpl_coefficients",
    "harmonic_sum",
    "zeta_real_approx",
    "clear_caches",
)


def test_exported_names_resolve():
    modules = [mzvint] + [
        importlib.import_module(f"mzvint.{info.name}") for info in pkgutil.iter_modules(mzvint.__path__)
    ]
    for module in modules:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
    assert set(BENCH_NAMES) <= set(mzvint.__all__)
    # the package attributes shadow the modules of the same name
    assert callable(mzvint.shuffle) and callable(mzvint.stuffle)
