"""Command-line front end.

Machine output is compact JSON with a fixed key order, so identical
invocations are byte-identical; ``--pretty`` switches the sum-valued
commands to a human-readable rendering. Exit codes: 0 on success, 1 when
any verification check fails, on an internal error, or when stdout is
closed (by its reader, or never open; silently, no traceback), 2 on usage
errors, among them an index over ``MAX_ENTRY`` or ``MAX_LETTERS``.

``main`` reads a well-formed argv of a command whose options are all
switches straight from the ``COMMANDS`` table, since building the parser
cost most of a small command's time; valued options, help, errors and every
other argv go to the full argparse parser, built once per process.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import Sequence

from .indices import (
    Index,
    INFINITY,
    classify,
    format_index,
    m_index,
    terms_json,
)
from .reduction import pi_plus
from .relations import dsr_relation, is_homomorphic, min_formula_holds, relation_json_line
from .series import verify_reduction, verify_shuffle, verify_stuffle, zeta_real_approx
from .shuffle import shuffle
from .stuffle import stuffle

__all__ = ["IndexSyntaxError", "parse_index", "main"]

DEFAULT_SERIES_ORDER = 60
DEFAULT_HARMONIC_ORDER = 50
# eval keeps two float lists of --terms + 1 entries (about 75 MB at this bound)
MAX_EVAL_TERMS = 1_000_000
# verify --order: a series check costs about N^3; the dearest shuffle case of
# the corpus, (3,-3,-3) with itself, takes about 9 s and 22 MB at this bound
# on a shared 2-core x86-64 host
MAX_ORDER = 500
# |entry| bound of parsed indices: the positive reduction behind pi-plus and
# the shuffle recursion both grow steeply with the largest entry
MAX_ENTRY = 100
# letters of an index's word (depth + sum of |k_i|), which bound the recursion
MAX_LETTERS = 120
# the full parser, built by main on the first argv that _read_argv declines
_PARSER: argparse.ArgumentParser | None = None


class IndexSyntaxError(ValueError):
    """Malformed index text; carries the offending position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse_index(text: str) -> Index:
    """Parse ``"(k1,k2,...)"`` (``"()"`` for the empty index).

    An entry is an optional minus sign (the ASCII hyphen or the Unicode
    minus) followed by ASCII digits, with spaces around it allowed. Every
    entry must lie in -MAX_ENTRY..MAX_ENTRY, and the index may have at most
    MAX_LETTERS letters (depth + sum of |k_i|).
    """
    s = text.strip()
    offset = text.index(s) if s else 0
    if not s.startswith("("):
        raise IndexSyntaxError("expected '('", offset)
    if not s.endswith(")") or len(s) < 2:
        raise IndexSyntaxError("expected ')'", offset + max(len(s) - 1, 1))
    inner = s[1:-1]
    if not inner.strip():
        return ()
    entries: list[int] = []
    letters = 0
    chunk_start = offset + 1
    for chunk in inner.split(","):
        token = chunk.strip()
        position = chunk_start + (len(chunk) - len(chunk.lstrip()))
        if not token:
            raise IndexSyntaxError("empty entry", position)
        digits = token[1:] if token[0] in "-−" else token
        try:
            if not (digits.isascii() and digits.isdigit()):  # int() alone also reads 1_0, +3, ٣, １２
                raise ValueError(token)
            entry = int(token.replace("−", "-"))
        except ValueError:  # also a digit string past int()'s length limit
            raise IndexSyntaxError(f"not an integer: {token!r}", position) from None
        if abs(entry) > MAX_ENTRY:
            raise IndexSyntaxError(f"entry {entry} outside -{MAX_ENTRY}..{MAX_ENTRY}", position)
        letters += 1 + abs(entry)
        if letters > MAX_LETTERS:
            raise IndexSyntaxError(f"index over {MAX_LETTERS} letters (depth + sum |k_i|)", position)
        entries.append(entry)
        chunk_start += len(chunk) + 1
    return tuple(entries)


def _dumps(payload: object) -> str:
    return json.dumps(payload, separators=(",", ":"))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_m_index(args: argparse.Namespace) -> int:
    k = parse_index(args.index)
    m = m_index(k)
    payload = {
        "index": list(k),
        "m": "inf" if m == INFINITY else int(m),
        "classification": classify(k).value,
    }
    print(_dumps(payload))
    return 0


def _cmd_sum(args: argparse.Namespace) -> int:
    # look the op up when the command runs, so rebinding it here is seen
    s = globals()[args.op](*(parse_index(getattr(args, name)) for name in args.names))
    print(s.pretty() if args.pretty else terms_json(s))
    return 0


def _cmd_relation(args: argparse.Namespace) -> int:
    rel = dsr_relation(parse_index(args.left), parse_index(args.right))
    if args.pretty:
        print(f"pair: {format_index(rel.pair[0])} {format_index(rel.pair[1])}")
        print(f"shuffle:    {rel.shuffle_expansion.pretty()}")
        print(f"stuffle:    {rel.stuffle_expansion.pretty()}")
        print(f"difference: {rel.difference.pretty()}")
    else:
        print(relation_json_line(rel))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    k = parse_index(args.index)
    if args.terms > MAX_EVAL_TERMS:
        raise ValueError(f"--terms must be <= {MAX_EVAL_TERMS}, got {args.terms}")
    value, hint = zeta_real_approx(k, args.terms)
    print(_dumps({"index": list(k), "terms": args.terms, "value": value, "error_hint": hint}))
    return 0


# ---------------------------------------------------------------------------
# verification driver

# suite -> (indices per case, max depth, lowest entry, highest entry, check,
# default truncation order). A check is the name of a function in this module,
# looked up when a case runs, so rebinding it here is seen. A check with a
# default order is a series or harmonic oracle called as check(*ks, order);
# one without is a product check run on both shuffle and stuffle. The table
# order is the ``--suite all`` order.
SUITES = {
    "reduction": (1, 3, -3, 4, "verify_reduction", DEFAULT_SERIES_ORDER),
    "shuffle": (2, 3, -3, 3, "verify_shuffle", DEFAULT_SERIES_ORDER),
    "stuffle": (2, 3, -3, 3, "verify_stuffle", DEFAULT_HARMONIC_ORDER),
    "homomorphism": (2, 3, -2, 3, "is_homomorphic", None),
    "m-formula": (2, 4, -4, 4, "min_formula_holds", None),
}


def _sample_index(rng: random.Random, max_depth: int, lo: int, hi: int) -> Index:
    return tuple(rng.randint(lo, hi) for _ in range(rng.randint(0, max_depth)))


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.cases < 0:
        raise ValueError(f"--cases must be >= 0, got {args.cases}")
    # up front: a run with no series case (--cases 0, or a product suite) never checks it
    if args.order is not None and args.order < 1:
        raise ValueError(f"truncation order must be >= 1, got {args.order}")
    if args.order is not None and args.order > MAX_ORDER:
        raise ValueError(f"--order must be <= {MAX_ORDER}, got {args.order}")
    any_failed = False
    for suite in SUITES if args.suite == "all" else (args.suite,):
        per_case, max_depth, lo, hi, check_name, order = SUITES[suite]
        if order is not None and args.order is not None:
            order = args.order
        rng = random.Random(f"{args.seed}:{suite}")
        failures = []
        for _ in range(args.cases):
            ks = tuple(_sample_index(rng, max_depth, lo, hi) for _ in range(per_case))
            check = globals()[check_name]
            label = " ".join([suite, *map(format_index, ks)])
            if order is None:
                if not all(check(product, *ks) for product in (shuffle, stuffle)):
                    failures.append(label)
            elif not check(*ks, order).passed:
                failures.append(f"{label} order={order}")
        print(f"{suite}: {args.cases - len(failures)}/{args.cases} pass")
        for label in failures:
            print(f"  FAIL {label}")
        any_failed = any_failed or bool(failures)
    return 1 if any_failed else 0


# ---------------------------------------------------------------------------
# parser

# subcommands in help order: command -> (help, defaults, arguments), where an
# argument is (name or flag, add_argument keywords); a sum command prints one
# sum: its op is the name of a function in this module, called on the indices
# of its positionals in the order of its names
COMMANDS = {
    "m-index": ("print the regularizability index and classification", {"func": _cmd_m_index},
                [("index", {"help": "index text, e.g. '(0,3)' or '()'"})]),
    **{
        command: (help_text, {"func": _cmd_sum, "op": op, "names": names},
                  [*((name, {}) for name in names),
                   ("--pretty", {"action": "store_true", "help": "human-readable sum output"})])
        for command, op, names, help_text in (
            ("pi-plus", "pi_plus", ("index",), "reduce an index to positive-index form"),
            ("shuffle", "shuffle", ("left", "right"), "shuffle product of two indices"),
            ("stuffle", "stuffle", ("left", "right"), "stuffle product of two indices"),
        )
    },
    "relation": ("emit the double-product relation for a pair", {"func": _cmd_relation},
                 [("left", {}), ("right", {}), ("--pretty", {"action": "store_true"})]),
    "verify": ("run randomized verification suites", {"func": _cmd_verify}, [
        ("--suite", {"choices": [*SUITES, "all"], "default": "all"}),
        ("--seed", {"type": int, "default": 0}),
        ("--cases", {"type": int, "default": 100}),
        ("--order", {"type": int, "default": None, "help": "truncation order of the reduction "
         "and shuffle series checks and bound of the stuffle harmonic check, for every such "
         f"case, 1..{MAX_ORDER} (defaults: {DEFAULT_SERIES_ORDER} series, "
         f"{DEFAULT_HARMONIC_ORDER} harmonic)"}),
    ]),
    "eval": ("floating-point estimate of an admissible zeta value", {"func": _cmd_eval}, [
        ("index", {}),
        ("--terms", {"type": int, "default": 10000,
                     "help": f"partial-sum bound, at most {MAX_EVAL_TERMS}"}),
    ]),
}


def build_parser() -> argparse.ArgumentParser:
    """The ``mzvint`` parser with all seven subcommands."""
    parser = argparse.ArgumentParser(
        prog="mzvint",
        description="Exact double-shuffle algebra for multiple zeta values of integer indices. "
        f"Indices must satisfy |k_i| <= {MAX_ENTRY} and depth + sum |k_i| <= {MAX_LETTERS}.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, defaults, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
        p.set_defaults(**defaults)
    return parser


def _read_argv(argv: Sequence[str]) -> argparse.Namespace | None:
    """The Namespace ``build_parser().parse_args(argv)`` returns, read from
    ``COMMANDS`` without a parser when the command's options are all
    ``store_true`` switches: its exact switches among exactly as many
    positionals as it takes. None for anything else, which the full parser
    answers: a command with a valued option, any other token starting with
    ``-`` (``-h``, ``--``, ``--pre``, ``-1``), a wrong number of positionals."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, defaults, arguments = COMMANDS[argv[0]]
    spec = dict(arguments)
    values: dict = {"command": argv[0], **defaults}
    names = []
    for flag, keywords in arguments:
        if not flag.startswith("-"):
            names.append(flag)
        elif keywords.get("action") != "store_true":  # a valued option
            return None
        else:
            values[flag[2:]] = flag in argv
    args = []
    for token in argv[1:]:
        if not token.startswith("-"):
            args.append(token)
        elif token not in spec:
            return None
    if len(args) != len(names):
        return None
    return argparse.Namespace(**values, **dict(zip(names, args)))


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command (``argv`` defaults to ``sys.argv[1:]``) and return its
    exit code. A switch-only command's well-formed argv is read from
    ``COMMANDS``; any other goes to the process's one full parser."""
    global _PARSER
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv)
    if args is None:
        _PARSER = _PARSER or build_parser()
        args = _PARSER.parse_args(argv)
    if sys.stdout is None:  # fd 1 was never open: the output could not go out
        return 1
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, SystemError) as exc:
        # a broken invariant (e.g. RecursionError), or Python 3.11 out of memory (SystemError)
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("internal error: out of memory", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout: exit 1 quietly; fd 1 goes to devnull so
        # the interpreter's own flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
