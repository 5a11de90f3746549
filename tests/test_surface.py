"""The public surface: every exported name resolves."""

from __future__ import annotations

import importlib
import os
import pkgutil
import re
import subprocess
import sys

import mzvint

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

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


def test_package_imports_no_private_name():
    # dunders are allowed; a private name here means __init__ reached into a module
    private = [name for name in vars(mzvint) if name.startswith("_") and not name.startswith("__")]
    assert private == []


def test_reimport_leaves_one_copy_of_each_module():
    # the benchmark re-imports the package; a class held in typing's cache of
    # subscriptions would keep every old mzvint.indices alive, and through
    # MEMO_TABLES every module that defines a memo table
    code = """
import collections, gc, importlib, sys
for _ in range(3):
    for name in [m for m in sys.modules if m.split(".")[0] == "mzvint"]:
        del sys.modules[name]
    importlib.import_module("mzvint")
gc.collect()
names = [o["__name__"] for o in gc.get_objects() if isinstance(o, dict) and "__builtins__" in o and "__file__" in o]
print(sorted(n for n, c in collections.Counter(names).items() if c > 1 and n.split(".")[0] == "mzvint"))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_readme_lists_each_memo_table_once():
    from mzvint.indices import MEMO_TABLES

    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        section = f.read().split("\n## Memo tables\n", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"^- `mzvint\.(\w+)\.(\w+)`", section, flags=re.MULTILINE)
    assert len(names) == len(MEMO_TABLES)
    tables = [getattr(importlib.import_module(f"mzvint.{module}"), name) for module, name in names]
    registered = {id(table) for table in MEMO_TABLES}
    assert {id(table) for table in tables} == registered, names
