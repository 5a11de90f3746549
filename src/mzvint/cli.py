"""Command-line front end.

Machine output is compact JSON with a fixed key order, so identical
invocations are byte-identical; ``--pretty`` switches the sum-valued
commands to a human-readable rendering. Exit codes: 0 on success, 1 when
any verification check fails or on an internal error, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, Sequence

from .indices import (
    AdmissibilityError,
    Index,
    IndexSum,
    INFINITY,
    classify,
    format_index,
    m_index,
)
from .reduction import pi_plus
from .relations import dsr_relation, is_homomorphic, min_formula_holds, relation_json_line
from .series import verify_reduction, verify_shuffle, verify_stuffle, zeta_real_approx
from .shuffle import shuffle
from .stuffle import stuffle

__all__ = ["IndexSyntaxError", "parse_index", "main"]

ENV_ORDER = "MZVINT_ORDER"
DEFAULT_SERIES_ORDER = 60
DEFAULT_HARMONIC_ORDER = 50
# eval keeps two float lists of --terms + 1 entries (about 75 MB at this bound)
MAX_EVAL_TERMS = 1_000_000
SUITES = ("reduction", "shuffle", "stuffle", "homomorphism", "m-formula")


class IndexSyntaxError(ValueError):
    """Malformed index text; carries the offending position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse_index(text: str) -> Index:
    """Parse ``"(k1,k2,...)"`` (``"()"`` for the empty index).

    Spaces around entries are allowed and the Unicode minus sign is accepted
    alongside the ASCII hyphen.
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
    chunk_start = offset + 1
    for chunk in inner.split(","):
        token = chunk.strip()
        position = chunk_start + (len(chunk) - len(chunk.lstrip()))
        if not token:
            raise IndexSyntaxError("empty entry", position)
        try:
            entries.append(int(token.replace("−", "-")))
        except ValueError:
            raise IndexSyntaxError(f"not an integer: {token!r}", position) from None
        chunk_start += len(chunk) + 1
    return tuple(entries)


def _dumps(payload: object) -> str:
    return json.dumps(payload, separators=(",", ":"))


def _print_sum(s: IndexSum, pretty: bool) -> None:
    print(s.pretty() if pretty else _dumps(s.to_json_dict()))


def _m_json(value: int | float) -> int | str:
    return "inf" if value == INFINITY else int(value)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_m_index(args: argparse.Namespace) -> int:
    k = parse_index(args.index)
    payload = {
        "index": list(k),
        "m": _m_json(m_index(k)),
        "classification": classify(k).value,
    }
    print(_dumps(payload))
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    k = parse_index(args.index)
    print(_dumps({"index": list(k), "classification": classify(k).value}))
    return 0


def _cmd_pi_plus(args: argparse.Namespace) -> int:
    _print_sum(pi_plus(parse_index(args.index)), args.pretty)
    return 0


def _cmd_shuffle(args: argparse.Namespace) -> int:
    _print_sum(shuffle(parse_index(args.left), parse_index(args.right)), args.pretty)
    return 0


def _cmd_stuffle(args: argparse.Namespace) -> int:
    _print_sum(stuffle(parse_index(args.left), parse_index(args.right)), args.pretty)
    return 0


def _cmd_relation(args: argparse.Namespace) -> int:
    rel = dsr_relation(parse_index(args.left), parse_index(args.right))
    line = relation_json_line(rel)
    # open before printing, so a bad path fails the command with no output
    try:
        out = open(args.out, "a", encoding="utf-8") if args.out else contextlib.nullcontext()
    except OSError as exc:
        raise ValueError(f"cannot open --out file {args.out!r}: {exc.strerror}") from None
    with out:
        if args.pretty:
            print(f"pair: {format_index(rel.pair[0])} {format_index(rel.pair[1])}")
            print(f"shuffle:    {rel.shuffle_expansion.pretty()}")
            print(f"stuffle:    {rel.stuffle_expansion.pretty()}")
            print(f"difference: {rel.difference.pretty()}")
        else:
            print(line)
        if args.out:
            out.write(line + "\n")
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


def _sample_index(rng: random.Random, max_depth: int, lo: int, hi: int) -> Index:
    return tuple(rng.randint(lo, hi) for _ in range(rng.randint(0, max_depth)))


def _generate_cases(suite: str, seed: int, cases: int, series_order: int, harmonic_order: int):
    rng = random.Random(f"{seed}:{suite}")
    out = []
    for _ in range(cases):
        if suite == "reduction":
            out.append(("reduction", _sample_index(rng, 3, -3, 4), series_order))
        elif suite == "shuffle":
            out.append(
                ("shuffle", _sample_index(rng, 3, -3, 3), _sample_index(rng, 3, -3, 3), series_order)
            )
        elif suite == "stuffle":
            out.append(
                ("stuffle", _sample_index(rng, 3, -3, 3), _sample_index(rng, 3, -3, 3), harmonic_order)
            )
        elif suite == "m-formula":
            out.append(
                ("m-formula", _sample_index(rng, 4, -4, 4), _sample_index(rng, 4, -4, 4))
            )
        elif suite == "homomorphism":
            out.append(
                ("homomorphism", _sample_index(rng, 3, -2, 3), _sample_index(rng, 3, -2, 3))
            )
        else:
            raise ValueError(f"unknown suite {suite!r}")
    return out


def _run_case(case: tuple) -> tuple[bool, str]:
    kind = case[0]
    if kind == "reduction":
        _, k, order = case
        ok = verify_reduction(k, order).passed
        return ok, f"reduction {format_index(k)} order={order}"
    if kind == "shuffle":
        _, k, k2, order = case
        ok = verify_shuffle(k, k2, order).passed
        return ok, f"shuffle {format_index(k)} {format_index(k2)} order={order}"
    if kind == "stuffle":
        _, k, k2, order = case
        ok = verify_stuffle(k, k2, order).passed
        return ok, f"stuffle {format_index(k)} {format_index(k2)} order={order}"
    if kind == "m-formula":
        _, k, k2 = case
        ok = all(min_formula_holds(product, k, k2) for product in (shuffle, stuffle))
        return ok, f"m-formula {format_index(k)} {format_index(k2)}"
    if kind == "homomorphism":
        _, k, k2 = case
        ok = all(is_homomorphic(product, k, k2) for product in (shuffle, stuffle))
        return ok, f"homomorphism {format_index(k)} {format_index(k2)}"
    raise ValueError(f"unknown case kind {kind!r}")


def _run_cases(cases: list, jobs: int) -> Iterable[tuple[bool, str]]:
    if jobs <= 1:
        return [_run_case(case) for case in cases]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        # map preserves submission order, keeping the aggregate deterministic
        return list(pool.map(_run_case, cases, chunksize=8))


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.cases < 0:
        raise ValueError(f"--cases must be >= 0, got {args.cases}")
    suites = SUITES if args.suite == "all" else (args.suite,)
    order = args.order if args.order is not None else _default_order()
    series_order = order if order is not None else DEFAULT_SERIES_ORDER
    harmonic_order = order if order is not None else DEFAULT_HARMONIC_ORDER
    any_failed = False
    for suite in suites:
        cases = _generate_cases(suite, args.seed, args.cases, series_order, harmonic_order)
        results = _run_cases(cases, args.jobs)
        failures = [label for ok, label in results if not ok]
        print(f"{suite}: {len(cases) - len(failures)}/{len(cases)} pass")
        for label in failures:
            print(f"  FAIL {label}")
        if failures:
            any_failed = True
    return 1 if any_failed else 0


# ---------------------------------------------------------------------------
# parser


def _default_order() -> int | None:
    raw = os.environ.get(ENV_ORDER)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{ENV_ORDER} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{ENV_ORDER} must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mzvint",
        description="Exact double-shuffle algebra for multiple zeta values of integer indices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("m-index", help="print the regularizability index and classification")
    p.add_argument("index", help="index text, e.g. '(0,3)' or '()'")
    p.set_defaults(func=_cmd_m_index)

    p = sub.add_parser("classify", help="print the admissibility classification")
    p.add_argument("index")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("pi-plus", help="reduce an index to positive-index form")
    p.add_argument("index")
    p.add_argument("--pretty", action="store_true", help="human-readable sum output")
    p.set_defaults(func=_cmd_pi_plus)

    p = sub.add_parser("shuffle", help="shuffle product of two indices")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_shuffle)

    p = sub.add_parser("stuffle", help="stuffle product of two indices")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_stuffle)

    p = sub.add_parser("relation", help="emit the double-product relation for a pair")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--out", default=None, help="append the relation as one JSON line to this file")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_relation)

    p = sub.add_parser("verify", help="run randomized verification suites")
    p.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=100)
    p.add_argument(
        "--order",
        type=int,
        default=None,
        help=f"truncation order for series/harmonic checks "
        f"(defaults: {DEFAULT_SERIES_ORDER} series, {DEFAULT_HARMONIC_ORDER} harmonic; "
        f"also settable via {ENV_ORDER})",
    )
    p.add_argument("--jobs", type=int, default=1, help="parallel workers for case execution")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("eval", help="floating-point estimate of an admissible zeta value")
    p.add_argument("index")
    p.add_argument(
        "--terms", type=int, default=10000, help=f"partial-sum bound, at most {MAX_EVAL_TERMS}"
    )
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IndexSyntaxError, AdmissibilityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # a broken invariant (e.g. RecursionError): report it, no traceback
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
