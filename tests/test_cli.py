"""Command-line surface: parsing, output stability, exit codes."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest

import mzvint.cli as cli
from mzvint.cli import MAX_ENTRY, MAX_EVAL_TERMS, MAX_LETTERS, IndexSyntaxError, main, parse_index

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_index_basic():
    assert parse_index("(0,3)") == (0, 3)
    assert parse_index("()") == ()
    assert parse_index("(5)") == (5,)
    assert parse_index(" ( 1 , -2 , 3 ) ") == (1, -2, 3)


def test_parse_index_unicode_minus():
    assert parse_index("(−1, 4)") == (-1, 4)


def test_parse_index_errors_carry_positions():
    with pytest.raises(IndexSyntaxError) as info:
        parse_index("0,3)")
    assert info.value.position == 0
    with pytest.raises(IndexSyntaxError):
        parse_index("(0,3")
    with pytest.raises(IndexSyntaxError) as info:
        parse_index("(1,,2)")
    assert "empty" in str(info.value)
    with pytest.raises(IndexSyntaxError) as info:
        parse_index("(1,x)")
    assert "x" in str(info.value)


def test_m_index_command(capsys):
    for text, expected in (
        ("(0,3)", {"index": [0, 3], "m": 1, "classification": "admissible"}),
        ("(1)", {"index": [1], "m": 0, "classification": "regularizable_only"}),
    ):
        code, out, _ = run_cli(capsys, "m-index", text)
        assert code == 0
        assert json.loads(out) == expected


def test_m_index_empty_index(capsys):
    code, out, _ = run_cli(capsys, "m-index", "()")
    assert code == 0
    assert json.loads(out) == {"index": [], "m": "inf", "classification": "admissible"}


def test_pi_plus_command_machine_output(capsys):
    code, out, _ = run_cli(capsys, "pi-plus", "(0,3)")
    assert code == 0
    assert out.strip() == '{"terms":[{"coeff":"1","index":[2]},{"coeff":"-1","index":[3]}]}'


def test_pi_plus_command_pretty(capsys):
    code, out, _ = run_cli(capsys, "pi-plus", "(−1, 4)", "--pretty")
    assert code == 0
    assert out.strip() == "1/2·(2) - 1/2·(3)"


# --pretty output of each sum command, with negative and non-integral
# coefficients; the sha256 is of the concatenated stdout
PRETTY_CORPUS = (
    ("pi-plus", "(1,-3,2)"),
    ("pi-plus", "(0,0,4)"),
    ("pi-plus", "(-2,-1,3)"),
    ("shuffle", "(1,-2)", "(0,3)"),
    ("stuffle", "(1,-3)", "(2,-1)"),
    ("relation", "(1,-1,4)", "(2)"),
    ("relation", "(-1,4)", "(0,3)"),
)


def test_pretty_output_pinned(capsys):
    outs = []
    for argv in PRETTY_CORPUS:
        code, out, err = run_cli(capsys, *argv, "--pretty")
        assert code == 0 and err == ""
        outs.append(out)
    text = "".join(outs)
    assert text.startswith("-1/16·(-2) - 1/24·(-1) + 1/16·(0)")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "9b948a1e62607c0f98dc9e7757a88680fcb4e2fdc391bd27003fef03c70034f0"
    )


def test_shuffle_and_stuffle_commands(capsys):
    code, out, _ = run_cli(capsys, "shuffle", "(2)", "(3)")
    assert code == 0
    assert json.loads(out) == {
        "terms": [
            {"coeff": "6", "index": [1, 4]},
            {"coeff": "3", "index": [2, 3]},
            {"coeff": "1", "index": [3, 2]},
        ]
    }
    code, out, _ = run_cli(capsys, "stuffle", "(2)", "(3)")
    assert code == 0
    assert json.loads(out) == {
        "terms": [
            {"coeff": "1", "index": [5]},
            {"coeff": "1", "index": [2, 3]},
            {"coeff": "1", "index": [3, 2]},
        ]
    }


def test_relation_command_difference(capsys):
    code, out, _ = run_cli(capsys, "relation", "(2)", "(3)")
    assert code == 0
    data = json.loads(out)
    assert data["difference"]["terms"] == [
        {"coeff": "-1", "index": [5]},
        {"coeff": "6", "index": [1, 4]},
        {"coeff": "2", "index": [2, 3]},
    ]


def test_usage_lines(capsys):
    for argv, usage in (
        (["m-index"], "usage: mzvint m-index [-h] index"),
        (["pi-plus"], "usage: mzvint pi-plus [-h] [--pretty] index"),
        (["shuffle", "(1)"], "usage: mzvint shuffle [-h] [--pretty] left right"),
        (["stuffle", "(1)"], "usage: mzvint stuffle [-h] [--pretty] left right"),
        (["relation", "(1)"], "usage: mzvint relation [-h] [--pretty] left right"),
    ):
        with pytest.raises(SystemExit) as info:
            main([argv[0], "-h"])
        assert info.value.code == 0
        assert capsys.readouterr().out.splitlines()[0] == usage
        # a missing index is a usage error that names it
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        missing = usage.split()[-1]
        assert capsys.readouterr().err == (
            f"{usage}\nmzvint {argv[0]}: error: the following arguments are required: {missing}\n"
        )


# argv whose output is argparse's own: help, usage errors, the top usage line
PARSER_CORPUS = (
    (),
    ("-h",),
    ("--help",),
    ("bogus",),
    ("-x",),
    ("--",),
    ("-h", "m-index"),
    *((command, "-h") for command in cli.COMMANDS),
    ("m-index",),
    ("pi-plus",),
    ("shuffle", "(1)"),
    ("stuffle", "(1)"),
    ("relation", "(1)"),
    ("verify", "--cases"),
    ("eval",),
    ("m-index", "(1)", "extra"),
    ("verify", "--suite", "nope"),
    ("eval", "(2)", "--terms", "x"),
    ("shuffle", "(1)", "(2)", "--bogus"),
)


def _outcome(capsys, argv):
    try:
        code = ("return", main(list(argv)))
    except SystemExit as exc:
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("columns", ["40", "80", "200"])
def test_one_command_parser_prints_as_the_full_parser(monkeypatch, capsys, columns):
    monkeypatch.setenv("COLUMNS", columns)
    got = {argv: _outcome(capsys, argv) for argv in PARSER_CORPUS}
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert got == {argv: _outcome(capsys, argv) for argv in PARSER_CORPUS}
    # the full parser has no metavar: its errors call the command by its dest
    assert got[()][2].endswith("error: the following arguments are required: command\n")
    assert "error: argument command: invalid choice: 'bogus'" in got[("bogus",)][2]


def _subcommands(parser):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


def test_build_parser_builds_only_the_named_subcommand():
    assert _subcommands(cli.build_parser("m-index")) == ["m-index"]
    everything = ["m-index", "pi-plus", "shuffle", "stuffle", "relation", "verify", "eval"]
    for command in (None, "bogus", "-h"):
        assert _subcommands(cli.build_parser(command)) == everything


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    built = []
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command) or full(command))
    monkeypatch.setattr(sys, "argv", ["mzvint", "m-index", "(0,3)"])
    assert main() == 0
    assert built == ["m-index"]
    assert json.loads(capsys.readouterr().out)["m"] == 1


def test_sum_commands_look_up_their_op_when_run(monkeypatch, capsys):
    import mzvint.cli as cli
    from mzvint.indices import IndexSum

    # the bench tracer rebinds these names in mzvint.cli
    for name, result in (("pi_plus", (7,)), ("shuffle", (8,)), ("stuffle", (9,))):
        monkeypatch.setattr(cli, name, lambda *ks, result=result: IndexSum.single(result + ks[-1]))
    assert run_cli(capsys, "pi-plus", "(1)", "--pretty") == (0, "1·(7,1)\n", "")
    assert run_cli(capsys, "shuffle", "(2)", "(3)", "--pretty") == (0, "1·(8,3)\n", "")
    code, out, _ = run_cli(capsys, "stuffle", "(2)", "(4)")
    assert code == 0 and out == '{"terms":[{"coeff":"1","index":[9,4]}]}\n'


@pytest.mark.parametrize(
    "argv", [("m-index", "(1)"), ("shuffle", "(1,-100,2)", "(3)")], ids=["short", "long"]
)
def test_closed_stdout_exits_1_silently(argv):
    with subprocess.Popen(
        [sys.executable, "-m", "mzvint.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=ENV,
    ) as proc:
        # the read end closes long before the child has started up and written
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait() == 1
    assert err == b""


def test_unopened_stdout_exits_1_silently():
    # `>&-`: fd 1 is not open at all, so the interpreter has no sys.stdout
    result = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "mzvint.cli", "m-index", "(1)"],
        stderr=subprocess.PIPE,
        env=ENV,
    )
    assert result.returncode == 1
    assert result.stderr == b""


def test_eval_command(capsys):
    code, out, _ = run_cli(capsys, "eval", "(2)", "--terms", "20000")
    assert code == 0
    data = json.loads(out)
    assert abs(data["value"] - 1.6449340668) < 1e-3
    assert data["terms"] == 20000


def test_eval_rejects_non_admissible(capsys):
    code, _, err = run_cli(capsys, "eval", "(1)")
    assert code == 2
    assert "admissible" in err


def test_eval_rejects_terms_above_bound(capsys):
    code, out, err = run_cli(capsys, "eval", "(2)", "--terms", str(MAX_EVAL_TERMS + 1))
    assert code == 2
    assert out == ""
    assert err == f"error: --terms must be <= {MAX_EVAL_TERMS}, got {MAX_EVAL_TERMS + 1}\n"
    # the README's example stays within the bound
    assert MAX_EVAL_TERMS >= 100000


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "m-index", "(0,3")
    assert code == 2
    assert "position" in err


def test_byte_identical_repeated_invocations(capsys):
    first = run_cli(capsys, "relation", "(2)", "(0,3)")
    second = run_cli(capsys, "relation", "(2)", "(0,3)")
    assert first == second


def test_verify_single_suite_summary(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "stuffle", "--cases", "40", "--seed", "7"
    )
    assert code == 0
    assert out.strip() == "stuffle: 40/40 pass"


def test_verify_seed_reproducible(capsys):
    a = run_cli(capsys, "verify", "--suite", "m-formula", "--cases", "30", "--seed", "3")
    b = run_cli(capsys, "verify", "--suite", "m-formula", "--cases", "30", "--seed", "3")
    assert a == b


def test_verify_all_suites(capsys):
    code, out, _ = run_cli(capsys, "verify", "--cases", "15", "--seed", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == [
        "reduction: 15/15 pass",
        "shuffle: 15/15 pass",
        "stuffle: 15/15 pass",
        "homomorphism: 15/15 pass",
        "m-formula: 15/15 pass",
    ]


def test_verify_explicit_order(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "reduction", "--cases", "2", "--order", "8")
    assert code == 0
    assert out.strip() == "reduction: 2/2 pass"


def test_verify_order_zero_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--cases", "1", "--order", "0")
    assert code == 2
    assert out == ""
    assert err == "error: truncation order must be >= 1, got 0\n"


# FAIL lines of `verify --cases 3 --seed 0` with every check failing: the
# corpus each seed draws and the labels it prints
FORCED_FAILURES_SEED_0 = """\
reduction: 0/3 pass
  FAIL reduction (0,3) order=60
  FAIL reduction (2,3) order=60
  FAIL reduction (-2) order=60
shuffle: 0/3 pass
  FAIL shuffle (-3) () order=60
  FAIL shuffle (2,-3) (0,-3,0) order=60
  FAIL shuffle (1) (-3,-3,2) order=60
stuffle: 0/3 pass
  FAIL stuffle (-2) (2,-3) order=50
  FAIL stuffle (1,3) (-2,3) order=50
  FAIL stuffle (0) (-1,2) order=50
homomorphism: 0/3 pass
  FAIL homomorphism (1) (1,0)
  FAIL homomorphism (0) (-1)
  FAIL homomorphism (-2,3) ()
m-formula: 0/3 pass
  FAIL m-formula (-3,-1,-1) ()
  FAIL m-formula (-4) (0,1)
  FAIL m-formula (-2,-3) (-4)
"""


def test_verify_corpus_and_labels_pinned(monkeypatch, capsys):
    import mzvint.cli as cli
    from mzvint.series import Report

    for name in ("verify_reduction", "verify_shuffle", "verify_stuffle"):
        monkeypatch.setattr(cli, name, lambda *args: Report(False, 0, args[-1]))
    for name in ("min_formula_holds", "is_homomorphic"):
        monkeypatch.setattr(cli, name, lambda *args: False)
    code, out, err = run_cli(capsys, "verify", "--cases", "3", "--seed", "0")
    assert code == 1 and err == ""
    assert out == FORCED_FAILURES_SEED_0
    code, out, _ = run_cli(capsys, "verify", "--cases", "3", "--seed", "0", "--order", "9")
    assert out == FORCED_FAILURES_SEED_0.replace("order=60", "order=9").replace("order=50", "order=9")
    # a longer corpus reaches every depth and entry range of the suite table
    code, out, _ = run_cli(capsys, "verify", "--cases", "40", "--seed", "0")
    assert out.count("FAIL") == 200
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "cdba8c22784a15e45731096af805c7c9d142c069322530d8335c092328d9423e"
    )


def test_cli_import_loads_no_process_pool():
    code = (
        "import sys, mzvint.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=ENV)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_entry_bound(monkeypatch, capsys):
    import mzvint.cli as cli

    code, out, _ = run_cli(capsys, "pi-plus", f"(1,-{MAX_ENTRY},2)")
    assert code == 0 and json.loads(out)["terms"]

    def never(*args):
        raise AssertionError("computation reached past the entry bound")

    monkeypatch.setattr(cli, "m_index", never)
    monkeypatch.setattr(cli, "pi_plus", never)
    code, out, err = run_cli(capsys, "m-index", f"({MAX_ENTRY + 1})")
    assert code == 2 and out == ""
    assert err == f"error: entry {MAX_ENTRY + 1} outside -{MAX_ENTRY}..{MAX_ENTRY} (at position 1)\n"
    code, out, err = run_cli(capsys, "pi-plus", f"(1,-{MAX_ENTRY + 1},2)")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "(at position 3)" in err
    assert parse_index(f"(1,-{MAX_ENTRY},2)") == (1, -MAX_ENTRY, 2)
    # the cold CLI benchmark runs entries down to -63
    assert MAX_ENTRY >= 63


def test_letter_bound(monkeypatch, capsys):
    import mzvint.cli as cli

    def text(k):
        return "(" + ",".join(map(str, k)) + ")"

    def letters(k):
        return len(k) + sum(map(abs, k))

    ones = (MAX_LETTERS - 5) // 2
    # the deepest recursion of each sum command, at the cap
    at_cap = (
        ("stuffle", (0,) * MAX_LETTERS, (0,) * MAX_LETTERS),
        ("pi-plus", (1,) * ones + (-1, 2)),
        ("shuffle", (100, MAX_LETTERS - 102), (2,)),
    )
    over_cap = (
        ("stuffle", (0,) * (MAX_LETTERS + 1), (0,)),
        ("pi-plus", (1,) * (ones + 1) + (-1, 2)),
        ("shuffle", (100, MAX_LETTERS - 101), (2,)),
        ("stuffle", (1,) * 1200, (1,)),
        ("shuffle", (50,) * 30, (2,)),
        ("pi-plus", (1,) * 397 + (-1, 2)),
    )
    for command, *ks in at_cap:
        assert max(map(letters, ks)) >= MAX_LETTERS - 1
        code, out, err = run_cli(capsys, command, *map(text, ks))
        assert code == 0 and err == "" and json.loads(out)["terms"], command

    def never(*args):
        raise AssertionError("computation reached past the letter bound")

    for name in ("pi_plus", "shuffle", "stuffle"):
        monkeypatch.setattr(cli, name, never)
    for command, *ks in over_cap:
        assert max(map(letters, ks)) > MAX_LETTERS
        code, out, err = run_cli(capsys, command, *map(text, ks))
        assert code == 2 and out == "", command
        assert err.startswith(f"error: index over {MAX_LETTERS} letters")
        assert err.count("\n") == 1
    # the README's and CI's (1,-100,2) stays valid
    assert letters((1, -MAX_ENTRY, 2)) <= MAX_LETTERS


def test_verify_rejects_negative_cases(capsys):
    code, out, err = run_cli(capsys, "verify", "--cases", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: --cases must be >= 0, got -1\n"


def test_internal_error_exit_code(monkeypatch, capsys):
    import mzvint.relations as relations
    from mzvint.indices import IndexSum

    # a product that breaks the closure guarantee: (1) is positive but not admissible
    monkeypatch.setattr(relations, "stuffle", lambda k, k2: IndexSum.single((1,)))
    code, out, err = run_cli(capsys, "relation", "(2)", "(3)")
    assert code == 1
    assert out == ""
    assert err.startswith("internal error: stuffle expansion contains")
    assert err.count("\n") == 1


def test_out_of_memory_ends_in_one_line(monkeypatch, capsys):
    def exhausted(*indices):
        raise MemoryError

    monkeypatch.setattr(cli, "stuffle", exhausted)
    code, out, err = run_cli(capsys, "stuffle", "(2)", "(3)")
    assert code == 1
    assert out == ""
    assert err == "internal error: out of memory\n"  # one line, no traceback


def test_relation_of_pair_whose_raw_product_exhausts_memory(capsys):
    # multiplying the raw pair needs over 1 GB; reducing each index first does not
    code, out, err = run_cli(capsys, "relation", "(1,-20,25)", "(1,-20,25)")
    assert (code, err) == (0, "")
    assert len(json.loads(out)["difference"]["terms"]) == 15735
