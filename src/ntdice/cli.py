"""Command-line interface: one subcommand per package operation.

Each subcommand is one row of ``COMMANDS``: a ``run(args)`` function whose
docstring is the help text and which returns ``(payload, text_lines)``
without printing, the public operations it exercises, and its argparse
arguments.  ``main`` prints the payload with --json (stable field names,
exact rationals as "num/den" strings) and the text lines otherwise.  Exit
codes: 0 on success, 1 on domain and file errors, 2 on usage errors.

This module imports only ``ntdice.core`` itself; each ``run`` function
reaches its operations through the lazy package namespace
(``ntdice.classify``), so a process loads only the modules its subcommand
runs: ``analyze``, ``dice2word`` and ``word2dice`` load ``core`` alone,
``concat`` and ``irreducible`` add ``algebra``, ``similar`` and
``normalize2`` add ``rewriting``, ``near-half``, ``optimize`` and ``bounds``
add ``rewriting`` and ``constructions`` (``construct`` also ``algebra``),
``enumerate`` and ``scan-max`` add ``enumeration``, and ``verify-fair`` adds
``enumeration`` and ``rewriting``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

import ntdice

from .core import DEFAULT_BUDGET, DiceError, DiceSet, DiceSetError

CACHE_DIR_ENV = "NTDICE_CACHE_DIR"


def _analyze(args):
    """classify a word (counts, probabilities, flags)"""
    verdict = ntdice.classify(args.word)
    counts = verdict.counts
    flags = ("balanced", "nontransitive", "fair")
    payload = {
        "n": counts.n,
        "counts": list(counts.as_tuple()),
        "p": str(verdict.p_ab) if verdict.balanced else None,
        **{name: getattr(verdict, name) for name in flags},
    }
    lines = [
        f"word: {args.word}",
        f"n: {counts.n}",
        f"N(A>B): {counts.ab}   P(A>B): {verdict.p_ab}",
        f"N(B>C): {counts.bc}   P(B>C): {verdict.p_bc}",
        f"N(C>A): {counts.ca}   P(C>A): {verdict.p_ca}",
        "  ".join(f"{name}: {'yes' if payload[name] else 'no'}" for name in flags),
    ]
    return payload, lines


def _dice2word(args):
    """convert a dice-set JSON object to its word"""
    try:
        obj = json.loads(args.dice_json)
    except json.JSONDecodeError as exc:
        raise DiceSetError(f"malformed dice-set JSON: {exc}") from None
    dice = DiceSet.from_json(obj)
    word = ntdice.word_from_dice(dice)
    return {"word": word, "n": dice.n}, [word]


def _word2dice(args):
    """convert a complete word to its dice sets"""
    payload = ntdice.dice_from_word(args.word).to_json()
    lines = [f"{name}: {' '.join(map(str, reversed(payload[name])))}" for name in "ABC"]
    return payload, lines


def _concat(args):
    """concatenate two complete words"""
    word = ntdice.concat(args.word1, args.word2)
    left, right, actual = map(ntdice.pair_counts, (args.word1, args.word2, word))
    p_ab = ntdice.combined_probability(left.n, left.ab, right.n, right.ab)
    payload = {
        "word": word,
        "n": actual.n,
        "counts": list(actual.as_tuple()),
        "predicted_counts": list(ntdice.predict_counts(left, right).predicted.as_tuple()),
        "p_ab": str(p_ab),
    }
    lines = [
        word,
        f"counts: {payload['counts']}  (predicted {payload['predicted_counts']})",
        f"P(A>B): {p_ab}",
    ]
    return payload, lines


def _irreducible(args):
    """binary-split irreducibility check"""
    report = ntdice.is_irreducible(args.word)
    line = f"reducible: split after {report.witness_split} letters"
    return dataclasses.asdict(report), ["irreducible" if report.irreducible else line]


def _construct(args):
    """irreducible balanced non-transitive word, n >= 3"""
    word = ntdice.construct_irreducible(args.n)
    verdict = ntdice.classify(word)
    irreducible = ntdice.is_irreducible(word).irreducible
    payload = {
        "n": args.n,
        "word": word,
        "counts": list(verdict.counts.as_tuple()),
        "p": str(verdict.p_ab),
        "irreducible": irreducible,
    }
    lines = [
        word,
        f"counts: {payload['counts']}  P(A>B): {verdict.p_ab}",
        f"irreducible: {'yes' if irreducible else 'no'}",
    ]
    return payload, lines


def _near_half(args):
    """family with probability 1/2 + 1/(2n^2)"""
    word = ntdice.construct_near_half(args.m)
    verdict = ntdice.classify(word)
    excess = verdict.p_ab - Fraction(1, 2)
    payload = {
        "m": args.m,
        "n": verdict.counts.n,
        "word": word,
        "counts": list(verdict.counts.as_tuple()),
        "p": str(verdict.p_ab),
        "excess": str(excess),
    }
    line = f"n: {verdict.counts.n}  P(A>B): {verdict.p_ab}  excess: {excess}"
    return payload, [word, line]


def _optimize(args):
    """drive the block family to its maximum probability"""
    report = ntdice.optimize_max_prob(args.n)
    payload = report.to_json()
    lines = [
        f"n: {report.n}  p: {report.p}  rounds: {report.rounds}",
        f"target excess: {report.target_excess}",
        f"achieved counts: {payload['achieved_counts']}",
        f"achieved P(A>B): {payload['achieved_probability']}",
        f"gap: {report.gap}",
        f"moves applied: {len(report.moves.moves)}",
    ]
    return payload, lines


def _bounds(args):
    """exact limit constants and comparisons against 1/9"""
    report = ntdice.bound_report(monotone_limit=args.monotone_limit)
    lines = [f"excess bound: {report.bound}"]
    for name, surd in (
        ("limit excess", report.limit_excess),
        ("limit excess (sqrt 154 variant)", report.limit_excess_variant_154),
        ("limit excess (shortened form)", report.limit_excess_shortened),
    ):
        lo, hi = surd.enclosure()
        sign = "-" if surd.b < 0 else "+"
        lines.append(
            f"{name}: ({surd.a} {sign} {abs(surd.b)}*sqrt({surd.d}))/{surd.c} "
            f"in [{float(lo):.6f}, {float(hi):.6f}]"
        )
    lines.append(f"all below bound: {all(report.below_bound.values())}")
    lines.append(f"root growth certified for p <= {report.monotone_certified_upto}")
    lines.extend(f"note: {note}" for note in report.errata)
    return report.to_json(), lines


def _enumerate(args):
    """exhaustive scan of all words at fixed n"""
    from .enumeration import stats_to_json

    stats = ntdice.enumerate_words(args.n, long_run=args.long_run)
    lines = [
        f"n: {stats.n}",
        f"total words: {stats.total_words}",
        f"balanced: {stats.count_balanced}",
        f"balanced non-transitive: {stats.count_balanced_nontransitive}",
        f"fair: {stats.count_fair}",
        f"max probability: {stats.max_prob}",
    ]
    if args.out:
        out_path = args.out
        cache_dir = os.environ.get(CACHE_DIR_ENV)
        if cache_dir and not os.path.isabs(out_path):
            os.makedirs(cache_dir, exist_ok=True)
            out_path = os.path.join(cache_dir, out_path)
        ntdice.cache_stats(stats, out_path)
        ntdice.load_stats(out_path)  # round-trip integrity check
        lines.append(f"stats written to {out_path}")
    return stats_to_json(stats), lines


def _scan_max(args):
    """maximum probability over balanced non-transitive words"""
    result = ntdice.max_probability(args.n, long_run=args.long_run)
    if result is None:
        payload = {"n": args.n, "max_prob": None, "witnesses": []}
        return payload, ["no balanced non-transitive word exists"]
    prob, witnesses = result
    payload = {"n": args.n, "max_prob": str(prob), "witnesses": list(witnesses)}
    lines = [f"max probability: {prob}"] + [f"witness: {word}" for word in witnesses]
    return payload, lines


def _verify_fair(args):
    """fair-word census and block-product reachability"""
    report = ntdice.verify_fair_conjecture(args.n, bfs_budget=args.budget)
    payload = dataclasses.asdict(report)
    return payload, [f"{key}: {value}" for key, value in payload.items()]


def _similar(args):
    """breadth-first rewrite search between two words"""
    result = ntdice.similar(args.word1, args.word2, budget=args.budget)
    path = result.path.to_json() if result.path is not None else None
    payload = {"outcome": result.outcome, "explored": result.explored, "path": path}
    lines = [f"outcome: {result.outcome} (explored {result.explored} words)"]
    if result.path is not None:
        lines.append(f"moves: {len(result.path.moves)}")
    return payload, lines


def _normalize2(args):
    """normal form of a fair two-letter word"""
    path = ntdice.normalize_two_letter_fair(args.word)
    return path.to_json(), [f"normal form: {path.end}", f"moves: {len(path.moves)}"]


def _arg(*names: str, **options) -> tuple[tuple[str, ...], dict]:
    return names, options


_WORD = _arg("word")
_TWO_WORDS = (_arg("word1"), _arg("word2"))
_N = _arg("--n", type=int, required=True)
_LONG_RUN = _arg("--long-run", action="store_true")
_BUDGET = _arg("--budget", type=int, default=DEFAULT_BUDGET)
_DICE_JSON = _arg("dice_json", help='e.g. {"n":3,"A":[1,5,9],"B":[3,4,8],"C":[2,6,7]}')
_OUT = _arg("--out", help=f"write stats JSON (relative paths honor ${CACHE_DIR_ENV})")


class Command(NamedTuple):
    """A subcommand: its run function, whose docstring is the help text, the
    public operations it exercises (directly or via its report) and its arguments."""

    run: Callable[[argparse.Namespace], tuple[dict, list[str]]]
    operations: tuple[str, ...]
    arguments: tuple[tuple[tuple[str, ...], dict], ...]


COMMANDS = {
    "analyze": Command(_analyze, ("parse_word", "pair_counts", "classify"), (_WORD,)),
    "dice2word": Command(_dice2word, ("word_from_dice",), (_DICE_JSON,)),
    "word2dice": Command(_word2dice, ("dice_from_word",), (_WORD,)),
    "concat": Command(
        _concat, ("concat", "predict_counts", "combined_probability"), _TWO_WORDS
    ),
    "irreducible": Command(_irreducible, ("is_irreducible",), (_WORD,)),
    "construct": Command(_construct, ("construct_irreducible",), (_N,)),
    "near-half": Command(
        _near_half, ("construct_near_half",), (_arg("--m", type=int, required=True),)
    ),
    "optimize": Command(
        _optimize,
        ("optimize_max_prob", "stage_word", "max_shift_rounds", "apply_move", "find_shift_sites"),
        (_N,),
    ),
    "bounds": Command(
        _bounds,
        ("bound_report",),
        (_arg("--monotone-limit", type=int, default=1_000_000),),
    ),
    "enumerate": Command(
        _enumerate,
        ("enumerate_words", "cache_stats", "load_stats"),
        (_N, _LONG_RUN, _OUT),
    ),
    "scan-max": Command(_scan_max, ("max_probability",), (_N, _LONG_RUN)),
    "verify-fair": Command(_verify_fair, ("verify_fair_conjecture",), (_N, _BUDGET)),
    "similar": Command(_similar, ("similar",), _TWO_WORDS + (_BUDGET,)),
    "normalize2": Command(_normalize2, ("normalize_two_letter_fair",), (_WORD,)),
}

# The test suite checks that this covers every public operation once.
COMMAND_OPERATIONS = {name: command.operations for name, command in COMMANDS.items()}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ntdice",
        description="Exact analysis of balanced non-transitive dice words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.run.__doc__)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        for names, options in command.arguments:
            p.add_argument(*names, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, lines = COMMANDS[args.command].run(args)
    except (DiceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(payload, separators=(",", ":")) if args.json else "\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
