"""Command-line interface: one subcommand per package operation.

Human-readable output by default, machine-readable with --json (stable
field names, exact rationals as "num/den" strings).  Exit codes: 0 on
success, 1 on domain errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import (
    DiceError,
    DiceSet,
    classify,
    combined_probability,
    concat,
    construct_irreducible,
    construct_near_half,
    dice_from_word,
    is_irreducible,
    normalize_two_letter_fair,
    optimize_max_prob,
    pair_counts,
    predict_counts,
    similar,
    word_from_dice,
)
from .constructions import bound_report
from .enumeration import (
    cache_stats,
    enumerate_words,
    load_stats,
    max_probability,
    stats_to_json,
    verify_fair_conjecture,
)

CACHE_DIR_ENV = "NTDICE_CACHE_DIR"

# Which public operations each subcommand exercises (directly or via its
# report); the test suite checks this table covers every operation once.
COMMAND_OPERATIONS = {
    "analyze": ("parse_word", "pair_counts", "classify"),
    "dice2word": ("word_from_dice",),
    "word2dice": ("dice_from_word",),
    "concat": ("concat", "predict_counts", "combined_probability"),
    "irreducible": ("is_irreducible",),
    "construct": ("construct_irreducible",),
    "near-half": ("construct_near_half",),
    "optimize": ("optimize_max_prob", "stage_word", "max_shift_rounds", "apply_move", "find_shift_sites"),
    "bounds": ("bound_report",),
    "enumerate": ("enumerate_words", "cache_stats", "load_stats"),
    "scan-max": ("max_probability",),
    "verify-fair": ("verify_fair_conjecture",),
    "similar": ("similar",),
    "normalize2": ("normalize_two_letter_fair",),
}


def _dumps(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _frac(value: Fraction | None) -> str | None:
    return None if value is None else str(value)


def _verdict_json(word: str) -> dict:
    verdict = classify(word)
    counts = verdict.counts
    return {
        "n": counts.n,
        "counts": [counts.ab, counts.bc, counts.ca],
        "p": str(verdict.p_ab) if verdict.balanced else None,
        "balanced": verdict.balanced,
        "nontransitive": verdict.nontransitive,
        "fair": verdict.fair,
    }


def _print_verdict(word: str) -> None:
    verdict = classify(word)
    counts = verdict.counts
    print(f"word: {word}")
    print(f"n: {counts.n}")
    print(f"N(A>B): {counts.ab}   P(A>B): {verdict.p_ab}")
    print(f"N(B>C): {counts.bc}   P(B>C): {verdict.p_bc}")
    print(f"N(C>A): {counts.ca}   P(C>A): {verdict.p_ca}")
    flags = []
    for name, value in (
        ("balanced", verdict.balanced),
        ("nontransitive", verdict.nontransitive),
        ("fair", verdict.fair),
    ):
        flags.append(f"{name}: {'yes' if value else 'no'}")
    print("  ".join(flags))


def _cmd_analyze(args) -> int:
    if args.json:
        print(_dumps(_verdict_json(args.word)))
    else:
        _print_verdict(args.word)
    return 0


def _cmd_dice2word(args) -> int:
    dice = DiceSet.from_json(json.loads(args.dice_json))
    word = word_from_dice(dice)
    if args.json:
        print(_dumps({"word": word, "n": dice.n}))
    else:
        print(word)
    return 0


def _cmd_word2dice(args) -> int:
    dice = dice_from_word(args.word)
    if args.json:
        print(_dumps(dice.to_json()))
    else:
        for name, labels in (("A", dice.a), ("B", dice.b), ("C", dice.c)):
            print(f"{name}: {' '.join(map(str, sorted(labels, reverse=True)))}")
    return 0


def _cmd_concat(args) -> int:
    word = concat(args.word1, args.word2)
    left = pair_counts(args.word1)
    right = pair_counts(args.word2)
    prediction = predict_counts(left, right)
    actual = pair_counts(word)
    p_ab = combined_probability(left.n, left.ab, right.n, right.ab)
    payload = {
        "word": word,
        "n": actual.n,
        "counts": [actual.ab, actual.bc, actual.ca],
        "predicted_counts": [
            prediction.predicted.ab,
            prediction.predicted.bc,
            prediction.predicted.ca,
        ],
        "p_ab": str(p_ab),
    }
    if args.json:
        print(_dumps(payload))
    else:
        print(word)
        print(f"counts: {payload['counts']}  (predicted {payload['predicted_counts']})")
        print(f"P(A>B): {p_ab}")
    return 0


def _cmd_irreducible(args) -> int:
    report = is_irreducible(args.word)
    if args.json:
        print(
            _dumps(
                {
                    "irreducible": report.irreducible,
                    "witness_split": report.witness_split,
                }
            )
        )
    else:
        if report.irreducible:
            print("irreducible")
        else:
            print(f"reducible: split after {report.witness_split} letters")
    return 0


def _cmd_construct(args) -> int:
    word = construct_irreducible(args.n)
    verdict = classify(word)
    report = is_irreducible(word)
    payload = {
        "n": args.n,
        "word": word,
        "counts": [verdict.counts.ab, verdict.counts.bc, verdict.counts.ca],
        "p": str(verdict.p_ab),
        "irreducible": report.irreducible,
    }
    if args.json:
        print(_dumps(payload))
    else:
        print(word)
        print(f"counts: {payload['counts']}  P(A>B): {payload['p']}")
        print(f"irreducible: {'yes' if report.irreducible else 'no'}")
    return 0


def _cmd_near_half(args) -> int:
    word = construct_near_half(args.m)
    verdict = classify(word)
    excess = verdict.p_ab - Fraction(1, 2)
    payload = {
        "m": args.m,
        "n": verdict.counts.n,
        "word": word,
        "counts": [verdict.counts.ab, verdict.counts.bc, verdict.counts.ca],
        "p": str(verdict.p_ab),
        "excess": str(excess),
    }
    if args.json:
        print(_dumps(payload))
    else:
        print(word)
        print(f"n: {verdict.counts.n}  P(A>B): {verdict.p_ab}  excess: {excess}")
    return 0


def _cmd_optimize(args) -> int:
    report = optimize_max_prob(args.n)
    if args.json:
        print(_dumps(report.to_json()))
    else:
        sq = args.n * args.n
        print(f"n: {report.n}  p: {report.p}  rounds: {report.rounds}")
        print(f"target excess: {report.target_excess}")
        print(f"achieved counts: {list(report.achieved.as_tuple())}")
        print(f"achieved P(A>B): {Fraction(report.achieved.ab, sq)}")
        print(f"gap: {report.gap}")
        print(f"moves applied: {len(report.moves.moves)}")
    return 0


def _cmd_bounds(args) -> int:
    report = bound_report(monotone_limit=args.monotone_limit)
    if args.json:
        print(_dumps(report.to_json()))
    else:
        print(f"excess bound: {report.bound}")
        for name, surd in (
            ("limit excess", report.limit_excess),
            ("limit excess (sqrt 154 variant)", report.limit_excess_variant_154),
            ("limit excess (shortened form)", report.limit_excess_shortened),
        ):
            lo, hi = surd.enclosure()
            sign = "-" if surd.b < 0 else "+"
            coeff = abs(surd.b)
            print(
                f"{name}: ({surd.a} {sign} {coeff}*sqrt({surd.d}))/{surd.c} "
                f"in [{float(lo):.6f}, {float(hi):.6f}]"
            )
        print(f"all below bound: {all(report.below_bound.values())}")
        print(f"root growth certified for p <= {report.monotone_certified_upto}")
        for note in report.errata:
            print(f"note: {note}")
    return 0


def _resolve_out(path: str) -> str:
    cache_dir = os.environ.get(CACHE_DIR_ENV)
    if cache_dir and not os.path.isabs(path):
        os.makedirs(cache_dir, exist_ok=True)
        return os.path.join(cache_dir, path)
    return path


def _cmd_enumerate(args) -> int:
    stats = enumerate_words(args.n, long_run=args.long_run)
    if args.out:
        out_path = _resolve_out(args.out)
        cache_stats(stats, out_path)
        load_stats(out_path)  # round-trip integrity check
    payload = stats_to_json(stats)
    if args.json:
        print(_dumps(payload))
    else:
        print(f"n: {stats.n}")
        print(f"total words: {stats.total_words}")
        print(f"balanced: {stats.count_balanced}")
        print(f"balanced non-transitive: {stats.count_balanced_nontransitive}")
        print(f"fair: {stats.count_fair}")
        print(f"max probability: {_frac(stats.max_prob)}")
        if args.out:
            print(f"stats written to {_resolve_out(args.out)}")
    return 0


def _cmd_scan_max(args) -> int:
    result = max_probability(args.n, long_run=args.long_run)
    if result is None:
        payload = {"n": args.n, "max_prob": None, "witnesses": []}
    else:
        prob, witnesses = result
        payload = {"n": args.n, "max_prob": str(prob), "witnesses": list(witnesses)}
    if args.json:
        print(_dumps(payload))
    else:
        if result is None:
            print("no balanced non-transitive word exists")
        else:
            print(f"max probability: {payload['max_prob']}")
            for word in payload["witnesses"]:
                print(f"witness: {word}")
    return 0


def _cmd_verify_fair(args) -> int:
    report = verify_fair_conjecture(args.n, bfs_budget=args.budget)
    payload = {
        "n": report.n,
        "fair_words_found": report.fair_words_found,
        "parity_ok": report.parity_ok,
        "reachable_same_perm": report.reachable_same_perm,
        "reachable_mixed_perm": report.reachable_mixed_perm,
        "not_reachable_same_perm": report.not_reachable_same_perm,
        "not_reachable_mixed_perm": report.not_reachable_mixed_perm,
        "unresolved_same_perm": report.unresolved_same_perm,
        "unresolved_mixed_perm": report.unresolved_mixed_perm,
    }
    if args.json:
        print(_dumps(payload))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return 0


def _cmd_similar(args) -> int:
    result = similar(args.word1, args.word2, budget=args.budget)
    payload = {
        "outcome": result.outcome,
        "explored": result.explored,
        "path": result.path.to_json() if result.path is not None else None,
    }
    if args.json:
        print(_dumps(payload))
    else:
        print(f"outcome: {result.outcome} (explored {result.explored} words)")
        if result.path is not None:
            print(f"moves: {len(result.path.moves)}")
    return 0


def _cmd_normalize2(args) -> int:
    path = normalize_two_letter_fair(args.word)
    if args.json:
        print(_dumps(path.to_json()))
    else:
        print(f"normal form: {path.end}")
        print(f"moves: {len(path.moves)}")
    return 0


_HANDLERS = {
    "analyze": _cmd_analyze,
    "dice2word": _cmd_dice2word,
    "word2dice": _cmd_word2dice,
    "concat": _cmd_concat,
    "irreducible": _cmd_irreducible,
    "construct": _cmd_construct,
    "near-half": _cmd_near_half,
    "optimize": _cmd_optimize,
    "bounds": _cmd_bounds,
    "enumerate": _cmd_enumerate,
    "scan-max": _cmd_scan_max,
    "verify-fair": _cmd_verify_fair,
    "similar": _cmd_similar,
    "normalize2": _cmd_normalize2,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ntdice",
        description="Exact analysis of balanced non-transitive dice words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("analyze", "classify a word (counts, probabilities, flags)")
    p.add_argument("word")

    p = add("dice2word", "convert a dice-set JSON object to its word")
    p.add_argument("dice_json", help='e.g. {"n":3,"A":[1,5,9],"B":[3,4,8],"C":[2,6,7]}')

    p = add("word2dice", "convert a complete word to its dice sets")
    p.add_argument("word")

    p = add("concat", "concatenate two complete words")
    p.add_argument("word1")
    p.add_argument("word2")

    p = add("irreducible", "binary-split irreducibility check")
    p.add_argument("word")

    p = add("construct", "irreducible balanced non-transitive word, n >= 3")
    p.add_argument("--n", type=int, required=True)

    p = add("near-half", "family with probability 1/2 + 1/(2n^2)")
    p.add_argument("--m", type=int, required=True)

    p = add("optimize", "drive the block family to its maximum probability")
    p.add_argument("--n", type=int, required=True)

    p = add("bounds", "exact limit constants and comparisons against 1/9")
    p.add_argument("--monotone-limit", type=int, default=1_000_000)

    p = add("enumerate", "exhaustive scan of all words at fixed n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--long-run", action="store_true")
    p.add_argument("--out", help=f"write stats JSON (relative paths honor ${CACHE_DIR_ENV})")

    p = add("scan-max", "maximum probability over balanced non-transitive words")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--long-run", action="store_true")

    p = add("verify-fair", "fair-word census and block-product reachability")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, default=2_000_000)

    p = add("similar", "breadth-first rewrite search between two words")
    p.add_argument("word1")
    p.add_argument("word2")
    p.add_argument("--budget", type=int, default=2_000_000)

    p = add("normalize2", "normal form of a fair two-letter word")
    p.add_argument("word")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except DiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
