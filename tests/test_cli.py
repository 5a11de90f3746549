"""Command-line surface: parsing, output stability, exit codes."""

from __future__ import annotations

import json

import pytest

from mzvint.cli import MAX_EVAL_TERMS, IndexSyntaxError, main, parse_index


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
    code, out, _ = run_cli(capsys, "m-index", "(0,3)")
    assert code == 0
    assert json.loads(out) == {"index": [0, 3], "m": 1, "classification": "admissible"}


def test_m_index_empty_index(capsys):
    code, out, _ = run_cli(capsys, "m-index", "()")
    assert code == 0
    assert json.loads(out) == {"index": [], "m": "inf", "classification": "admissible"}


def test_classify_command(capsys):
    code, out, _ = run_cli(capsys, "classify", "(1)")
    assert code == 0
    assert json.loads(out)["classification"] == "regularizable_only"


def test_pi_plus_command_machine_output(capsys):
    code, out, _ = run_cli(capsys, "pi-plus", "(0,3)")
    assert code == 0
    assert out.strip() == '{"terms":[{"coeff":"1","index":[2]},{"coeff":"-1","index":[3]}]}'


def test_pi_plus_command_pretty(capsys):
    code, out, _ = run_cli(capsys, "pi-plus", "(−1, 4)", "--pretty")
    assert code == 0
    assert out.strip() == "1/2·(2) - 1/2·(3)"


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


def test_relation_out_appends_jsonl(tmp_path, capsys):
    target = tmp_path / "relations.jsonl"
    run_cli(capsys, "relation", "(2)", "(3)", "--out", str(target))
    run_cli(capsys, "relation", "(2)", "(2)", "--out", str(target))
    lines = target.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["pair"] == [[2], [3]]
    assert json.loads(lines[1])["pair"] == [[2], [2]]


def test_relation_out_unwritable_path(tmp_path, capsys):
    target = tmp_path / "missing" / "relations.jsonl"
    code, out, err = run_cli(capsys, "relation", "(2)", "(3)", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot open --out file")
    assert err.count("\n") == 1
    assert not target.exists()


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


def test_verify_jobs_deterministic(capsys):
    serial = run_cli(
        capsys, "verify", "--suite", "stuffle", "--cases", "24", "--seed", "11"
    )
    parallel = run_cli(
        capsys,
        "verify",
        "--suite",
        "stuffle",
        "--cases",
        "24",
        "--seed",
        "11",
        "--jobs",
        "2",
    )
    assert serial == parallel


def test_verify_failure_exit_code(monkeypatch, capsys):
    import mzvint.cli as cli

    def always_fail(case):
        return False, "forced failure"

    monkeypatch.setattr(cli, "_run_case", always_fail)
    code, out, _ = run_cli(capsys, "verify", "--suite", "stuffle", "--cases", "3")
    assert code == 1
    assert "0/3 pass" in out
    assert "FAIL forced failure" in out


def test_env_var_sets_default_order(monkeypatch, capsys):
    monkeypatch.setenv("MZVINT_ORDER", "25")
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "reduction", "--cases", "10", "--seed", "2"
    )
    assert code == 0
    assert out.strip() == "reduction: 10/10 pass"


def test_env_var_rejects_garbage(monkeypatch, capsys):
    monkeypatch.setenv("MZVINT_ORDER", "sixty")
    code, out, err = run_cli(capsys, "verify", "--suite", "reduction", "--cases", "1")
    assert code == 2
    assert out == ""
    assert err == "error: MZVINT_ORDER must be an integer, got 'sixty'\n"
    monkeypatch.setenv("MZVINT_ORDER", "0")
    code, _, err = run_cli(capsys, "verify", "--suite", "reduction", "--cases", "1")
    assert code == 2
    assert err == "error: MZVINT_ORDER must be >= 1, got 0\n"


def test_env_var_read_only_by_verify(monkeypatch, capsys):
    monkeypatch.setenv("MZVINT_ORDER", "abc")
    code, out, err = run_cli(capsys, "m-index", "(1)")
    assert code == 0 and err == ""
    assert json.loads(out)["m"] == 0
    # an explicit --order wins, so the variable is never parsed
    code, out, _ = run_cli(capsys, "verify", "--suite", "reduction", "--cases", "2", "--order", "8")
    assert code == 0
    assert out.strip() == "reduction: 2/2 pass"


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
