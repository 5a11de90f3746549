"""The three workloads: their seeded inputs, one op each, and the oracle
that checks an op's output.

An op's output is the text the program produced; :meth:`Workload.check`
re-derives what that text must satisfy from the input alone, with the
series and harmonic-sum oracles, which share no code with the algebra.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import random
from fractions import Fraction

# Truncation orders of the output checks. Checks run outside the timed region.
SERIES_ORDER = 12
HARMONIC_BOUND = 12

Index = tuple[int, ...]


def m_index(k: Index) -> int | float:
    """Regularizability index from its definition: the least
    weight - depth over the suffixes of k (infinity for the empty index)."""
    return min((sum(k[i:]) - (len(k) - i) for i in range(len(k))), default=float("inf"))


def fmt(k: Index) -> str:
    return "(" + ",".join(map(str, k)) + ")"


def parse(text: str) -> Index:
    """Inverse of :func:`fmt`."""
    return tuple(int(e) for e in text[1:-1].split(",") if e)


def _terms(payload: dict) -> dict[Index, Fraction]:
    return {tuple(t["index"]): Fraction(t["coeff"]) for t in payload["terms"]}


def _series(terms: dict[Index, Fraction]) -> list[Fraction]:
    mpl = importlib.import_module("mzvint.series").mpl_coefficients
    out = [Fraction(0)] * (SERIES_ORDER + 1)
    for index, coeff in terms.items():
        for n, c in enumerate(mpl(index, SERIES_ORDER).coeffs):
            out[n] += coeff * c
    return out


def _series_product(k: Index, k2: Index) -> list[Fraction]:
    mpl = importlib.import_module("mzvint.series").mpl_coefficients
    return list((mpl(k, SERIES_ORDER) * mpl(k2, SERIES_ORDER)).coeffs)


def _harmonic(terms: dict[Index, Fraction]) -> Fraction:
    harmonic_sum = importlib.import_module("mzvint.series").harmonic_sum
    return sum((c * harmonic_sum(index, HARMONIC_BOUND) for index, c in terms.items()), Fraction(0))


def _harmonic_product(k: Index, k2: Index) -> Fraction:
    harmonic_sum = importlib.import_module("mzvint.series").harmonic_sum
    return harmonic_sum(k, HARMONIC_BOUND) * harmonic_sum(k2, HARMONIC_BOUND)


def _positive_admissible(k: Index) -> bool:
    return not k or (min(k) >= 1 and m_index(k) > 0)


def run_cli(argv: list[str]) -> str:
    """``mzvint.cli.main`` in-process; the output is the exit code, then
    stdout, then stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = importlib.import_module("mzvint.cli").main(argv)
    return f"{code}\n{out.getvalue()}\0{err.getvalue()}"


def _cli_result(output: str) -> tuple[int, str, str]:
    code, rest = output.split("\n", 1)
    out, err = rest.split("\0", 1)
    return int(code), out, err


class Workload:
    """A fixed list of ops made from a seed; one pass runs each op once."""

    name = ""
    # Whether every op starts cold (caches reset before each op) or only
    # the pass does (later ops reuse memo entries of earlier ones).
    reset_each_op = False

    ops: list

    def run(self, op) -> str:
        raise NotImplementedError

    def check(self, op, output: str) -> bool:
        raise NotImplementedError

    def key(self, op) -> str:
        """The op's input as text, the sort key of the output digest."""
        raise NotImplementedError


class RelationSweep(Workload):
    """dsr_relation and relation_json_line for every unordered pair of
    admissible indices in a box, in seeded order, caches reset per pass."""

    name = "relation_sweep"

    def __init__(self, seed: int, max_depth: int = 3, lo: int = -2, hi: int = 4, max_weight: int = 5) -> None:
        box = [
            k
            for d in range(1, max_depth + 1)
            for k in itertools.product(range(lo, hi + 1), repeat=d)
            if sum(k) <= max_weight and m_index(k) > 0
        ]
        self.ops = list(itertools.combinations_with_replacement(box, 2))
        random.Random(seed).shuffle(self.ops)
        self.relations = importlib.import_module("mzvint.relations")

    def run(self, op) -> str:
        return self.relations.relation_json_line(self.relations.dsr_relation(*op))

    def check(self, op, output: str) -> bool:
        k, k2 = op
        rel = json.loads(output)
        shuffle, stuffle = _terms(rel["shuffle"]), _terms(rel["stuffle"])
        difference = {i: shuffle.get(i, 0) - stuffle.get(i, 0) for i in shuffle.keys() | stuffle.keys()}
        return (
            rel["pair"] == [list(k), list(k2)]
            and _terms(rel["difference"]) == {i: c for i, c in difference.items() if c}
            and all(map(_positive_admissible, shuffle.keys() | stuffle.keys()))
            # pi_plus keeps series coefficients, so both expansions keep
            # the product identities of the unreduced products
            and _series(shuffle) == _series_product(k, k2)
            and _harmonic(stuffle) == _harmonic_product(k, k2)
        )

    def key(self, op) -> str:
        return f"{fmt(op[0])} {fmt(op[1])}"


class VerifySuites(Workload):
    """``mzvint verify --suite all --cases c --seed s`` in-process for the
    verify seeds 0..calls-1 in that order, caches reset per pass.

    Each call runs the five suites, so every op has the same mix. Neither
    the corpus nor its order depends on the workload seed, which this
    workload takes only to share the constructor signature. One case in a few
    hundred costs a hundred times the median, so a corpus drawn from the
    seed, at the size one run affords, moves the total time by 15-30 %
    between seeds; and since later calls reuse memo entries of earlier
    ones, a seeded order moves the median and tail op by 10-35 %.
    """

    name = "verify_suites"
    suites = ("reduction", "shuffle", "stuffle", "homomorphism", "m-formula")

    def __init__(self, seed: int, calls: int = 100, cases: int = 1) -> None:
        self.cases = cases
        self.ops = list(range(calls))

    def argv(self, op) -> list[str]:
        return ["verify", "--suite", "all", "--cases", str(self.cases), "--seed", str(op)]

    def run(self, op) -> str:
        return run_cli(self.argv(op))

    def check(self, op, output: str) -> bool:
        code, out, err = _cli_result(output)
        expected = "".join(f"{suite}: {self.cases}/{self.cases} pass\n" for suite in self.suites)
        return code == 0 and not err and out == expected

    def key(self, op) -> str:
        return " ".join(self.argv(op))


class ColdCli(Workload):
    """One-shot CLI commands with every cache reset before each op.

    Each block of 20 ops has fixed counts per kind, and each kind spreads
    its size over a fixed range, so the latency spectrum is alike on every
    seed while the inputs differ. The cheapest 35 % are ``m-index`` (almost
    all argparse and JSON); the next 30 % are small ``stuffle`` and
    ``pi-plus`` calls of near-equal cost, so the median op lies among them;
    the dearest 35 % are deep Bernoulli reductions, several negative
    interior entries, d-run shuffles and deep stuffles, and hold the tail.
    """

    name = "cold_cli"
    reset_each_op = True

    def __init__(self, seed: int, blocks: int = 40) -> None:
        rng = random.Random(seed)

        def entries(n: int, lo: int, hi: int) -> tuple[int, ...]:
            return tuple(rng.randint(lo, hi) for _ in range(n))

        def split(total: int, n: int, hi: int) -> tuple[int, ...]:
            # n entries in 1..hi summing to total: the size is fixed, the shape is drawn
            parts = [1] * n
            for _ in range(total - n):
                j = rng.choice([j for j in range(n) if parts[j] < hi])
                parts[j] += 1
            return tuple(parts)

        ops: list[tuple[str, ...]] = []
        for i in range(7 * blocks):
            ops.append(("m-index", fmt(entries(1 + i % 6, -9, 9))))
        for i in range(3 * blocks):
            ops.append(("stuffle", fmt(entries(3, 1, 3)), fmt(entries(3, 1, 3))))
            ops.append(("pi-plus", fmt((rng.randint(1, 3), -2 - i % 4, rng.randint(2, 4)))))
        for i in range(2 * blocks):
            # one deep interior entry: Bernoulli numbers up to B_63 dominate
            n = 24 + (40 * i) // (2 * blocks)
            ops.append(("pi-plus", fmt((rng.randint(1, 4), -n, rng.randint(2, 5)))))
            # negative interior entries of total size 6..15: the reduction recursion dominates
            inner = tuple(-e for e in split(6 + i // 2 % 10, 2 + i % 2, 9))
            ops.append(("pi-plus", fmt((rng.randint(1, 3),) + inner + (rng.randint(2, 5),))))
            # a leading entry -2..-7 becomes a d-run in the word rewriting,
            # against positive entries of total weight 7..14
            positive = split(7 + i // 6 % 8, 5, 4)
            ops.append(("shuffle", fmt((-2 - i % 6,) + positive[:2]), fmt(positive[2:])))
        for i in range(blocks):
            ops.append(("stuffle", fmt(entries(4 + i % 2, -2, 3)), fmt(entries(4 + i // 2 % 2, -2, 3))))
        rng.shuffle(ops)
        self.ops = ops

    def run(self, op) -> str:
        return run_cli(list(op))

    def check(self, op, output: str) -> bool:
        code, out, err = _cli_result(output)
        if code != 0 or err:
            return False
        command, *args = op
        payload = json.loads(out)
        if command == "m-index":
            k = parse(args[0])
            m = m_index(k)
            classification = "admissible" if m > 0 else "regularizable_only" if m == 0 else "non_regularizable"
            return payload == {"index": list(k), "m": "inf" if m == float("inf") else m, "classification": classification}
        terms = _terms(payload)
        if command == "pi-plus":
            return _series(terms) == _series({parse(args[0]): Fraction(1)})
        k, k2 = parse(args[0]), parse(args[1])
        if command == "shuffle":
            return _series(terms) == _series_product(k, k2)
        return _harmonic(terms) == _harmonic_product(k, k2)

    def key(self, op) -> str:
        return " ".join(op)


WORKLOADS = {w.name: w for w in (RelationSweep, VerifySuites, ColdCli)}
