"""Command-line surface: parsing, output stability, exit codes."""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import mzvint.cli as cli
from mzvint.cli import MAX_ENTRY, MAX_EVAL_TERMS, MAX_LETTERS, IndexSyntaxError, main, parse_index
from mzvint.reduction import pi_plus
from mzvint.shuffle import shuffle
from mzvint.stuffle import stuffle

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


@pytest.mark.parametrize("text", ["(1_0)", "(+3)", "(٣)", "(１２)"])
def test_entries_are_ascii_digits(capsys, text):
    # int() alone reads each of these; (1_0) is a typo of (1,0), not (10)
    code, out, err = run_cli(capsys, "m-index", text)
    assert (code, out) == (2, "")
    assert err == f"error: not an integer: {text[1:-1]!r} (at position 1)\n"


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


# stdout of pi-plus on indices with many non-positive entries, which no
# benchmark digest covers
@pytest.mark.parametrize(
    "index, digest",
    [
        ("(1,-3,-3,-3,-3,-3,-3,2)", "d2820c2b08a1662d8101821b4509e6d35031fadbd55ce6cc829c0ce2bfe763ef"),
        ("(3,-9,-9,-9,4)", "0e130837408697a891a0016d6106ba3576b022efa0fcc7c41d21ce07242b9701"),
        ("(" + "0," * 40 + "2)", "37d5d2f5d341192b5a43a6007c6c47599b206d827d2b305bf471a889ede938ac"),
    ],
)
def test_pi_plus_output_pinned(capsys, index, digest):
    code, out, err = run_cli(capsys, "pi-plus", index)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, op",
    [
        (("pi-plus", "(1,-3,4)"), lambda: pi_plus((1, -3, 4))),
        (("pi-plus", "(-2,-1,3)"), lambda: pi_plus((-2, -1, 3))),
        (("pi-plus", "()"), lambda: pi_plus(())),
        (("shuffle", "(1,-2)", "(0,3)"), lambda: shuffle((1, -2), (0, 3))),
        (("stuffle", "(1,-3)", "(2,-1)"), lambda: stuffle((1, -3), (2, -1))),
        (("stuffle", "()", "()"), lambda: stuffle((), ())),
    ],
)
def test_sum_commands_match_json_dumps(capsys, argv, op):
    s = op()
    terms = [{"coeff": str(c), "index": list(index)} for index, c in s.terms()]
    assert run_cli(capsys, *argv) == (0, json.dumps({"terms": terms}, separators=(",", ":")) + "\n", "")


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


def _outcome(capsys, argv, run=main):
    try:
        code = ("return", run(list(argv)))
    except SystemExit as exc:
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("columns", ["40", "80", "200"])
def test_declined_argv_prints_as_the_full_parser(monkeypatch, capsys, columns):
    # help and usage errors: the reader leaves every such argv to argparse,
    # and main prints exactly what the full parser prints
    monkeypatch.setenv("COLUMNS", columns)
    assert [argv for argv in PARSER_CORPUS if cli._read_argv(list(argv)) is not None] == []
    got = {argv: _outcome(capsys, argv) for argv in PARSER_CORPUS}
    parse = cli.build_parser().parse_args
    assert got == {argv: _outcome(capsys, argv, parse) for argv in PARSER_CORPUS}
    # the full parser has no metavar: its errors call the command by its dest
    assert got[()][2].endswith("error: the following arguments are required: command\n")
    assert "error: argument command: invalid choice: 'bogus'" in got[("bogus",)][2]


# commands with an option that takes a value: the reader leaves them to argparse
VALUED = {command for command, (_, _, arguments) in cli.COMMANDS.items()
          if any(flag.startswith("-") and keywords.get("action") != "store_true" for flag, keywords in arguments)}


def _counting_builds(monkeypatch):
    """A list that gains an entry at each build of the full parser, which is
    unbuilt to start with."""
    full = cli.build_parser
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(True) or full())
    monkeypatch.setattr(cli, "_PARSER", None)
    return built


# one argv per command that uses every option the command has, and the
# argv shapes the benchmark's cold_cli and verify_suites workloads issue
READER_CORPUS = (
    ("m-index", "(0,3)"),
    ("pi-plus", "(-1,4)", "--pretty"),
    ("shuffle", "--pretty", "(2)", "(3)"),
    ("stuffle", "(1,2)", "--pretty", "(2,1)"),
    ("relation", "(2)", "(3)", "--pretty"),
    ("verify", "--suite", "reduction", "--seed", "3", "--cases", "1", "--order", "8"),
    ("eval", "(2)", "--terms", "20"),
    ("m-index", "(-3,0,9)"),
    ("stuffle", "(1,2,3)", "(2,1,3)"),
    ("pi-plus", "(1,-3,2)"),
    ("shuffle", "(-2,1,1)", "(2,3,1)"),
    ("verify", "--suite", "all", "--cases", "1", "--seed", "3"),
)


def test_reader_builds_no_parser_for_a_well_formed_argv(monkeypatch, capsys):
    # the reader reads the switch-only lines; the verify and eval lines go to
    # the one full parser, which the first of them builds
    assert {argv[0] for argv in READER_CORPUS} == set(cli.COMMANDS)
    assert VALUED == {"verify", "eval"}
    full = cli.build_parser
    built = _counting_builds(monkeypatch)
    for argv in READER_CORPUS:
        read = cli._read_argv(list(argv))
        if argv[0] in VALUED:
            assert read is None, argv
        else:
            assert read is not None, argv
            assert vars(read) == vars(full().parse_args(argv))
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "") and out, argv
    assert built == [True]


def test_declined_argv_build_the_full_parser_once(monkeypatch, capsys):
    built = _counting_builds(monkeypatch)
    declined = (("verify", "--cases", "0", "--seed=3"), ("eval", "(2)", "--terms=5"),
                ("relation", "(2)", "(3)", "--pre"))
    outputs = {argv: set() for argv in declined}
    for i in range(20):
        argv = declined[i % len(declined)]
        assert cli._read_argv(list(argv)) is None
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "") and out, argv
        outputs[argv].add(out)
    assert built == [True]
    assert outputs[declined[0]] == {"".join(f"{suite}: 0/0 pass\n" for suite in cli.SUITES)}
    assert outputs[declined[1]] == {run_cli(capsys, "eval", "(2)", "--terms", "5")[1]}
    assert outputs[declined[2]] == {run_cli(capsys, "relation", "(2)", "(3)", "--pretty")[1]}


INDEX_TEXTS = st.sampled_from(["(1)", "(0,3)", "()", "(2,-1,3)", "(−1,4)", "", " 7", "x", "(1"])
TOKENS = st.one_of(
    INDEX_TEXTS,
    st.sampled_from(["1.5", "-1", "0x10", "1_0", "-"]),
    st.integers(-3, 600).map(str),
    st.sampled_from(["--pretty", "--suite", "--seed", "--cases", "--order", "--terms", "--seed=4", "--",
                     "-h", "--help", "--pre", "--s", "--se", "--cas", "-p"]),
    st.sampled_from([*cli.SUITES, "all", "nope", "Shuffle"]),
)


@st.composite
def well_formed_argv(draw):
    """A command word, an index text per positional and some of its options
    with valid values, options and positionals in any order."""
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    groups = []
    for flag, keywords in cli.COMMANDS[command][2]:
        if not flag.startswith("-"):
            groups.append([draw(INDEX_TEXTS)])
        elif draw(st.booleans()):
            if keywords.get("action"):
                groups.append([flag])
            else:
                value = st.sampled_from(keywords["choices"]) if "choices" in keywords else st.integers(0, 600)
                groups.append([flag, str(draw(value))])
    return [command, *(token for group in draw(st.permutations(groups)) for token in group)]


ARGV = st.one_of(
    well_formed_argv(),
    # a well-formed argv with one token put in: mostly a near miss
    st.builds(lambda argv, token, i: argv[:i] + [token] + argv[i:],
              well_formed_argv(), TOKENS, st.integers(1, 12)),
    st.builds(lambda command, tokens: [command, *tokens],
              st.sampled_from([*cli.COMMANDS, "bogus", "--pretty"]), st.lists(TOKENS, max_size=8)),
)


@settings(max_examples=400, deadline=None)
@given(argv=ARGV)
def test_reader_reads_as_argparse_or_declines(argv):
    read = cli._read_argv(argv)
    if read is not None:
        # argparse exits on help or an error; where the reader reads, it must not
        assert vars(read) == vars(cli.build_parser().parse_args(argv))


def test_commands_table_holds_only_what_the_reader_reads():
    # _read_argv declines every command with a valued option; of the others
    # it reads a switch's dest as flag[2:], False unless given, and a
    # positional by its name alone, so it would misread an entry with any
    # other keyword (nargs, dest, default, say)
    for command, (_, defaults, arguments) in cli.COMMANDS.items():
        positionals = ["(1)" for flag, _ in arguments if not flag.startswith("-")]
        if command in VALUED:
            assert cli._read_argv([command, *positionals]) is None, command
        else:
            assert cli._read_argv([command, *positionals]) is not None, command
            for flag, keywords in arguments:
                if flag.startswith("-"):
                    assert re.fullmatch("--[a-z]+", flag), (command, flag)
                    assert keywords.keys() <= {"action", "help"}, (command, flag)
                else:
                    assert keywords.keys() <= {"help"}, (command, flag)
        if defaults["func"] is cli._cmd_sum:
            assert defaults["names"] == tuple(flag for flag, _ in arguments if not flag.startswith("-"))


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    built = _counting_builds(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["mzvint", "m-index", "(0,3)"])
    assert main() == 0
    assert built == []
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
    assert err == "error: real evaluation requires an admissible index, got (1)\n"


def test_relation_rejects_non_admissible_in_index_syntax(capsys):
    assert run_cli(capsys, "relation", "(0,2)", "(2)") == (
        2, "", "error: index (0,2) is not admissible; zeta symbols are only defined for admissible indices\n"
    )


def test_eval_rejects_terms_above_bound(capsys):
    code, out, err = run_cli(capsys, "eval", "(2)", "--terms", str(MAX_EVAL_TERMS + 1))
    assert code == 2
    assert out == ""
    assert err == f"error: --terms must be <= {MAX_EVAL_TERMS}, got {MAX_EVAL_TERMS + 1}\n"
    # the README's example stays within the bound
    assert MAX_EVAL_TERMS >= 100000


@pytest.mark.parametrize("argv", [
    ("eval", "(79)"),  # terms^m of the tail hint is past float range
    ("eval", "(-55,58)", "--terms", str(MAX_EVAL_TERMS)),  # n^55 is past float range
    ("eval", "(-51,54)", "--terms", str(MAX_EVAL_TERMS)),  # the sum overflows to inf, then NaN
], ids=["hint", "term", "sum"])
def test_eval_where_floats_overflow(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    if argv[1] == "(79)":
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["value"] == 1.0
        assert 0 < data["error_hint"] < 1e-300  # 1 / (78 * 10000^78)
    else:
        assert (code, out) == (2, "")
        assert err == f"error: the float partial sum of {argv[1]} over {MAX_EVAL_TERMS} terms overflows\n"
    assert "Traceback" not in err and "NaN" not in out and "Infinity" not in out


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


def test_verify_order_cap(capsys):
    cap = cli.MAX_ORDER
    code, out, err = run_cli(capsys, "verify", "--cases", "0", "--order", str(cap))
    assert (code, err) == (0, "")
    assert out == "".join(f"{suite}: 0/0 pass\n" for suite in cli.SUITES)
    # above the cap no case runs: not one suite line is printed
    code, out, err = run_cli(capsys, "verify", "--order", str(cap + 1))
    assert (code, out) == (2, "")
    assert err == f"error: --order must be <= {cap}, got {cap + 1}\n"


@pytest.mark.parametrize("order", [0, -7, cli.MAX_ORDER + 1])
@pytest.mark.parametrize("scope", [("--cases", "0"), ("--suite", "homomorphism", "--cases", "1")])
def test_verify_order_bounds_without_a_series_case(capsys, order, scope):
    # no series check runs here, so only the up-front check can refuse the order
    code, out, err = run_cli(capsys, "verify", *scope, "--order", str(order))
    assert (code, out) == (2, "")
    if order < 1:
        assert err == f"error: truncation order must be >= 1, got {order}\n"
    else:
        assert err == f"error: --order must be <= {cli.MAX_ORDER}, got {order}\n"


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
    # Python 3.11 can raise SystemError, not MemoryError, when memory runs out
    # inside the lru_cache recursion
    for error, line in (
        (MemoryError(), "internal error: out of memory\n"),
        (SystemError("error return without exception set"), "internal error: error return without exception set\n"),
    ):

        def exhausted(*indices):
            raise error

        monkeypatch.setattr(cli, "stuffle", exhausted)
        code, out, err = run_cli(capsys, "stuffle", "(2)", "(3)")
        assert code == 1
        assert out == ""
        assert err == line  # one line, no traceback


def test_relation_of_pair_whose_raw_product_exhausts_memory(capsys):
    # multiplying the raw pair needs over 1 GB; reducing each index first does not
    code, out, err = run_cli(capsys, "relation", "(1,-20,25)", "(1,-20,25)")
    assert (code, err) == (0, "")
    assert len(json.loads(out)["difference"]["terms"]) == 15735
