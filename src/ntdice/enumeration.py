"""Exhaustive generation and classification of all dice words at fixed n.

The scan is the package's ground truth: every closed-form count elsewhere
can be rediscovered here.  Two pieces share one pruning test, which asks
whether the final counts a prefix can still reach admit a word the filter
passes:

* the statistics come from a layered count DP.  It reads words left to
  right and keeps, for each count of letters placed so far, the
  multiplicity of every reachable triple of running win counts.  Words
  that share both collapse into one state, and a state is dropped as soon
  as the three counts can no longer meet.  The relabel A->B->C->A maps
  states and pruning onto themselves, so a layer builds one letter tally
  per orbit of it, and n = 7 (399,072,960 words) takes under 0.1 s;
* words themselves come from a depth-first walk in lexicographic order
  that cuts every prefix no completion of which passes the filter and
  remembers the states so cut.  It lists the witnesses of the maximum
  and feeds a consumer the words matching its filter.

Everything runs in one process; the results never depend on the worker
count a caller passes.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Iterator

from .core import (
    DEFAULT_BUDGET,
    DiceError,
    DomainError,
    PairCounts,
    Verdict,
    _require_budget,
    classify,
    verdict_from_counts,
)

MAX_SIDES = 7
LONG_RUN_SIDES = 7  # n = 7 has 399,072,960 words; the scan must be confirmed
WITNESS_CAP = 10

STATS_FORMAT_VERSION = 1


class CacheFormatError(DiceError):
    """A stats file is malformed or carries an unknown format version."""


class CacheIntegrityError(DiceError):
    """A stats file contradicts itself or its witnesses fail re-verification."""


@dataclass(frozen=True)
class EnumFilter:
    """Conjunctive word filter: set flags that matching words must have."""

    balanced: bool = False
    nontransitive: bool = False
    fair: bool = False
    counts: tuple[int, int, int] | None = None

    def __post_init__(self) -> None:
        if (c := self.counts) is not None and not (
                type(c) is tuple and len(c) == 3 and all(type(v) is int for v in c)):
            raise DomainError(f"counts must be a tuple of three ints, got {c!r}")

    def matches(self, verdict: Verdict) -> bool:
        if self.balanced and not verdict.balanced:
            return False
        if self.nontransitive and not verdict.nontransitive:
            return False
        if self.fair and not verdict.fair:
            return False
        if self.counts is not None and verdict.counts.as_tuple() != self.counts:
            return False
        return True


@dataclass(frozen=True)
class EnumStats:
    """Aggregate results of one exhaustive scan."""

    n: int
    total_words: int
    count_balanced: int
    count_balanced_nontransitive: int
    count_fair: int
    max_prob: Fraction | None
    max_witnesses: tuple[str, ...]
    histogram: dict[Fraction, int]


def total_word_count(n: int) -> int:
    """(3n)! / (n!)^3, the number of complete words on n sides."""
    return math.factorial(3 * n) // math.factorial(n) ** 3


def _require_int(n: int) -> None:
    if type(n) is not int:
        raise DomainError(f"n must be an int, got {n!r}")


def _exact_int(value, field: str) -> int:
    """A stats-file integer: a JSON int, not a float, string or bool."""
    if type(value) is not int:
        raise TypeError(f"{field} must be an int, got {value!r}")
    return value


def _check_sides(n: int, long_run: bool) -> None:
    _require_int(n)
    if not 1 <= n <= MAX_SIDES:
        raise DomainError(f"enumeration supports 1 <= n <= {MAX_SIDES}, got {n}")
    if n >= LONG_RUN_SIDES and not long_run:
        raise DomainError(
            f"n={n} scans {total_word_count(n):,} words; pass long_run=True "
            "to confirm"
        )


Placed = tuple[int, int, int]  # letters A, B, C placed so far
Counts = tuple[int, int, int]  # running N(A>B), N(B>C), N(C>A)


def _steps(
    n: int, placed: Placed, counts: Counts
) -> Iterator[tuple[str, Placed, Counts]]:
    """Each letter that can come next, in lexicographic order, with the
    state after it: a new letter beats every placed label of the die it is
    matched against (A beats B, B beats C, C beats A)."""
    pa, pb, pc = placed
    ab, bc, ca = counts
    if pa < n:
        yield "A", (pa + 1, pb, pc), (ab + pb, bc, ca)
    if pb < n:
        yield "B", (pa, pb + 1, pc), (ab, bc + pc, ca)
    if pc < n:
        yield "C", (pa, pb, pc + 1), (ab, bc, ca + pa)


def _pruner(n: int, filt: EnumFilter) -> Callable[[Placed, Counts], bool] | None:
    """A test of whether some completion of a prefix can pass filt; None
    when filt passes every word.

    Each letter still to come adds between the current and the full tally
    of the letter it beats, so the final N(A>B) lies in
    [ab + ra*pb, ab + ra*n], and likewise for the other two.  Each interval
    is clipped to the range the filter allows that count and must stay
    non-empty; for balanced words the three must also meet.  At a complete
    word every interval is a point, so the test is the filter itself."""
    if filt == EnumFilter():
        return None
    sq = n * n
    least = sq // 2 + 1 if filt.nontransitive else (sq + 1) // 2 if filt.fair else 0
    most = sq // 2 if filt.fair else sq  # fair: an empty range when n^2 is odd
    lo, hi = [least] * 3, [most] * 3
    if filt.counts is not None:
        lo = [max(least, c) for c in filt.counts]
        hi = [min(most, c) for c in filt.counts]
    if any(l > h for l, h in zip(lo, hi)):
        return lambda placed, counts: False  # no word can pass
    (la, lb, lc), (ha, hb, hc) = lo, hi
    balanced = filt.balanced
    low, high = max(lo), min(hi)  # the range all three share when balanced

    def alive(placed: Placed, counts: Counts) -> bool:
        pa, pb, pc = placed
        ab, bc, ca = counts
        ra, rb, rc = n - pa, n - pb, n - pc
        lo_ab, hi_ab = ab + ra * pb, ab + ra * n
        lo_bc, hi_bc = bc + rb * pc, bc + rb * n
        lo_ca, hi_ca = ca + rc * pa, ca + rc * n
        if balanced:  # max(lows) <= min(highs), spelt out: max() and min() cost more
            top = hi_ab if hi_ab < hi_bc else hi_bc
            top = hi_ca if hi_ca < top else top
            top = high if high < top else top
            return lo_ab <= top and lo_bc <= top and lo_ca <= top and low <= top
        return (lo_ab <= ha and la <= hi_ab and lo_bc <= hb and lb <= hi_bc
                and lo_ca <= hc and lc <= hi_ca)

    return alive


def _orbit_rep(placed: Placed) -> tuple[Placed, int]:
    """The largest rotation rho^j(placed) of a tally, and j."""
    pa, pb, pc = placed
    return max(((pa, pb, pc), 0), ((pc, pa, pb), 1), ((pb, pc, pa), 2))


def _balanced_histogram(n: int) -> dict[int, int]:
    """Balanced words keyed by their common count, by the layered count DP.

    Layer k maps letter tallies P of k-letter prefixes to dicts M[P] from
    running counts X to the number of prefixes reaching them; a state is
    kept only while its three reachable final counts can still meet, so
    every state that survives to (n, n, n) is balanced.  The relabel
    rho: A->B->C->A maps the prefixes at (P, X) one to one onto those at
    rho P = (pc, pa, pb), rho X = (ca, ab, bc), and only permutes the
    pruner's three intervals, which share one range, so M[rho P][rho X] =
    M[P][X].  A layer thus holds one tally per orbit, its largest rotation,
    pulled from the tallies one letter shorter (a last A adds pb to ab, a B
    pc to bc, a C pa to ca), each read from its orbit's held tally with the
    keys rotated back as they are translated.  (p, p, p) is its own orbit."""
    alive = _pruner(n, EnumFilter(balanced=True))
    layer: dict[Placed, dict[Counts, int]] = {(0, 0, 0): {(0, 0, 0): 1}}
    for k in range(1, 3 * n + 1):
        nxt: dict[Placed, dict[Counts, int]] = {}
        for placed in {_orbit_rep((pa, pb, k - pa - pb))[0]
                       for pa in range(n + 1)
                       for pb in range(max(0, k - pa - n), min(n, k - pa) + 1)}:
            bucket: dict[Counts, int] = {}
            for i in range(3):  # the last letter; a negative tally is never held
                rep, j = _orbit_rep(tuple(p - (s == i) for s, p in enumerate(placed)))
                x, y, z = j, (j + 1) % 3, (j + 2) % 3  # rep's slots, in order
                dx, dy, dz = (placed[(i + 1) % 3] * (s == i) for s in range(3))
                for key, mult in layer.get(rep, {}).items():
                    counts = (key[x] + dx, key[y] + dy, key[z] + dz)
                    if counts in bucket:
                        bucket[counts] += mult
                    elif alive(placed, counts):
                        bucket[counts] = mult
            nxt[placed] = bucket
        layer = nxt
    return {counts[0]: mult for counts, mult in layer.get((n, n, n), {}).items()}


def _walk(n: int, filt: EnumFilter, emit: Callable[[str, Counts], bool | None]) -> None:
    """Hand every complete word passing filt, with its counts, to emit in
    lexicographic order, until emit returns True.

    A depth-first walk in A, B, C order that cuts a prefix as soon as the
    pruner says no completion can pass, and remembers the states so cut,
    so a state met again under another prefix is cut at once.  A filter
    that passes every word cuts nothing."""
    alive = _pruner(n, filt)
    path: list[str] = []
    dead: set[tuple[Placed, Counts]] = set()
    stopped = False

    def visit(placed: Placed, counts: Counts) -> bool:
        nonlocal stopped
        if alive is not None and (
            not alive(placed, counts) or (placed, counts) in dead
        ):
            return False
        if len(path) == 3 * n:
            stopped = bool(emit("".join(path), counts))
            return True
        live = False
        for letter, placed2, counts2 in _steps(n, placed, counts):
            path.append(letter)
            live = visit(placed2, counts2) or live
            path.pop()
            if stopped:
                return True
        if not live:
            dead.add((placed, counts))
        return live

    visit((0, 0, 0), (0, 0, 0))


def _witnesses(n: int, best: int) -> list[str]:
    """The lexicographically-first WITNESS_CAP words whose three counts all
    equal best."""
    found: list[str] = []

    def keep(word: str, _counts: Counts) -> bool:
        found.append(word)
        return len(found) == WITNESS_CAP

    _walk(n, EnumFilter(counts=(best, best, best)), keep)
    return found


def _build_stats(n: int, hist: dict[int, int]) -> EnumStats:
    sq = n * n
    best = max((v for v in hist if 2 * v > sq), default=-1)
    count_fair = hist.get(sq // 2, 0) if sq % 2 == 0 else 0
    count_bnt = sum(cnt for value, cnt in hist.items() if 2 * value > sq)
    return EnumStats(
        n=n,
        total_words=total_word_count(n),
        count_balanced=sum(hist.values()),
        count_balanced_nontransitive=count_bnt,
        count_fair=count_fair,
        max_prob=Fraction(best, sq) if best >= 0 else None,
        max_witnesses=tuple(_witnesses(n, best)) if best >= 0 else (),
        histogram={Fraction(v, sq): c for v, c in sorted(hist.items())},
    )


def enumerate_words(
    n: int,
    filt: EnumFilter | None = None,
    consumer: Callable[[str, Verdict], None] | None = None,
    workers: int = 1,
    long_run: bool = False,
) -> EnumStats:
    """Account for every complete word on n sides exactly once.

    With a consumer, the words matching filt (conjunctive flags; all words
    when filt is None) are handed to it with their verdicts in
    lexicographic order, by a depth-first walk that cuts every prefix no
    completion of which can match; the consumer's return value is
    ignored.  The statistics come from the layered count DP and their
    witnesses from the same walk, whatever the arguments.  Everything runs
    in this process: workers is accepted and ignored.
    """
    _check_sides(n, long_run)
    if consumer is not None:
        # Many words share their counts, and a verdict is immutable.
        verdict = cache(lambda counts: verdict_from_counts(PairCounts(n, *counts)))

        def deliver(word: str, counts: Counts) -> None:
            consumer(word, verdict(counts))

        _walk(n, filt or EnumFilter(), deliver)
    return _build_stats(n, _balanced_histogram(n))


def max_probability(
    n: int, workers: int = 1, long_run: bool = False
) -> tuple[Fraction, tuple[str, ...]] | None:
    """Maximum common probability over balanced non-transitive words.

    Returns (probability, up to 10 lexicographically-first witnesses), or
    None when no balanced non-transitive word exists at this n.
    """
    _require_int(n)
    if n < 2:
        raise DomainError(f"maximum-probability scan needs n >= 2, got {n}")
    stats = enumerate_words(n, workers=workers, long_run=long_run)
    if stats.max_prob is None:
        return None
    return stats.max_prob, stats.max_witnesses


# ---------------------------------------------------------------------------
# Fair-structure verification
# ---------------------------------------------------------------------------

_PERMS = ("ABC", "ACB", "BAC", "BCA", "CAB", "CBA")


def _canonical_blocks() -> list[str]:
    return [x + y + z + z + y + x for x, y, z in _PERMS]


@dataclass(frozen=True)
class FairConjectureReport:
    """Fair-word census plus reachability toward canonical block products.

    Two readings of "product of six-letter blocks xyzzyx" are reported
    separately: every block built from one fixed letter permutation
    (same_perm), or each block free to choose its own (mixed_perm).
    Unresolved counts are nonzero only when the search budget ran out
    before the frontier was exhausted.
    """

    n: int
    fair_words_found: int
    parity_ok: bool
    reachable_same_perm: int
    reachable_mixed_perm: int
    not_reachable_same_perm: int
    not_reachable_mixed_perm: int
    unresolved_same_perm: int
    unresolved_mixed_perm: int


def verify_fair_conjecture(
    n: int, bfs_budget: int = DEFAULT_BUDGET
) -> FairConjectureReport:
    """Census of fair words at n and their similarity to block products.

    Odd n carry no fair words at all (the fair count n^2/2 would not be an
    integer), so odd n short-circuit with a parity-only report.  Even n
    must satisfy n <= 4, where the reachable set of the canonical products
    stays exhaustively searchable.
    """
    _require_int(n)
    if not 1 <= n <= MAX_SIDES:
        raise DomainError(f"supported range is 1 <= n <= {MAX_SIDES}, got {n}")
    _require_budget(bfs_budget)
    if n % 2:
        return FairConjectureReport(
            n=n,
            fair_words_found=0,
            parity_ok=True,
            reachable_same_perm=0,
            reachable_mixed_perm=0,
            not_reachable_same_perm=0,
            not_reachable_mixed_perm=0,
            unresolved_same_perm=0,
            unresolved_mixed_perm=0,
        )
    if n > 4:
        raise DomainError(
            f"similarity verification is exhaustive only up to n=4, got {n}"
        )

    fair_set: set[str] = set()
    _walk(n, EnumFilter(fair=True), lambda word, _counts: fair_set.add(word))

    blocks = _canonical_blocks()
    same_seeds = {block * (n // 2) for block in blocks}

    mixed_seeds = {"".join(p) for p in itertools.product(blocks, repeat=n // 2)}

    from .rewriting import similarity_class

    class_same, same_done = similarity_class(same_seeds, bfs_budget)
    class_mixed, mixed_done = similarity_class(mixed_seeds, bfs_budget)

    reach_same = len(fair_set & class_same)
    reach_mixed = len(fair_set & class_mixed)
    return FairConjectureReport(
        n=n,
        fair_words_found=len(fair_set),
        parity_ok=True,
        reachable_same_perm=reach_same,
        reachable_mixed_perm=reach_mixed,
        not_reachable_same_perm=(len(fair_set) - reach_same) if same_done else 0,
        not_reachable_mixed_perm=(len(fair_set) - reach_mixed) if mixed_done else 0,
        unresolved_same_perm=0 if same_done else len(fair_set) - reach_same,
        unresolved_mixed_perm=0 if mixed_done else len(fair_set) - reach_mixed,
    )


# ---------------------------------------------------------------------------
# Stats caching
# ---------------------------------------------------------------------------


def stats_to_json(stats: EnumStats) -> dict:
    return {
        "format_version": STATS_FORMAT_VERSION,
        "n": stats.n,
        "total_words": stats.total_words,
        "count_balanced": stats.count_balanced,
        "count_balanced_nontransitive": stats.count_balanced_nontransitive,
        "count_fair": stats.count_fair,
        "max_prob": str(stats.max_prob) if stats.max_prob is not None else None,
        "max_witnesses": list(stats.max_witnesses),
        "histogram": {str(k): v for k, v in stats.histogram.items()},
    }


def cache_stats(stats: EnumStats, path: str | os.PathLike) -> None:
    """Write stats to a self-describing JSON file.

    The file is written under a temporary name in the same directory and
    then renamed over path, so a write that fails part-way leaves any
    earlier file at path whole."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    fh = open(tmp, "w", encoding="utf-8")
    try:
        with fh:
            json.dump(stats_to_json(stats), fh, indent=1, sort_keys=False)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_stats(path: str | os.PathLike) -> EnumStats:
    """Read a stats file, checking that its counts agree with its histogram
    and with n, and re-verifying every stored witness."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CacheFormatError(f"not a stats file: {exc}") from exc
    version = obj.get("format_version") if isinstance(obj, dict) else None
    if version != STATS_FORMAT_VERSION:
        raise CacheFormatError(
            f"unsupported stats format version {version!r}, "
            f"expected {STATS_FORMAT_VERSION}"
        )
    try:
        if not all(isinstance(word, str) for word in obj["max_witnesses"]):
            raise TypeError("witnesses must be words")
        max_prob = obj["max_prob"]
        if max_prob is not None and not isinstance(max_prob, str):
            raise TypeError(f"max_prob must be a string or null, got {max_prob!r}")
        counts = {
            field: _exact_int(obj[field], field)
            for field in ("n", "total_words", "count_balanced",
                          "count_balanced_nontransitive", "count_fair")
        }
        stats = EnumStats(
            **counts,
            max_prob=Fraction(max_prob) if max_prob is not None else None,
            max_witnesses=tuple(obj["max_witnesses"]),
            histogram={
                Fraction(k): _exact_int(v, f"histogram[{k!r}]")
                for k, v in obj["histogram"].items()
            },
        )
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CacheFormatError(f"malformed stats file: {exc}") from exc
    _check_consistent(stats)
    for word in stats.max_witnesses:
        try:
            verdict = classify(word)
        except DiceError as exc:
            raise CacheIntegrityError(f"witness {word!r} invalid: {exc}") from exc
        if verdict.counts.n != stats.n:
            raise CacheIntegrityError(
                f"witness {word!r} has {verdict.counts.n} sides, file says {stats.n}"
            )
        if not (verdict.balanced and verdict.nontransitive):
            raise CacheIntegrityError(
                f"witness {word!r} is not balanced non-transitive"
            )
        if verdict.p_ab != stats.max_prob:
            raise CacheIntegrityError(
                f"witness {word!r} has probability {verdict.p_ab}, "
                f"file says {stats.max_prob}"
            )
    return stats


def _check_consistent(stats: EnumStats) -> None:
    """Every derived field must match what n and the histogram imply."""
    n = stats.n
    if not 1 <= n <= MAX_SIDES:
        raise CacheIntegrityError(f"n={n} outside 1..{MAX_SIDES}")
    hist = stats.histogram
    for prob, cnt in hist.items():
        if (prob * n * n).denominator != 1 or not 0 <= prob <= 1 or cnt < 1:
            raise CacheIntegrityError(f"histogram entry {prob}: {cnt} impossible at n={n}")
    half = Fraction(1, 2)
    above = [prob for prob in hist if prob > half]
    max_prob = max(above, default=None)
    witnesses = list(stats.max_witnesses)
    for field, stored, implied in (
        ("total_words", stats.total_words, total_word_count(n)),
        ("count_balanced", stats.count_balanced, sum(hist.values())),
        (
            "count_balanced_nontransitive",
            stats.count_balanced_nontransitive,
            sum(hist[prob] for prob in above),
        ),
        ("count_fair", stats.count_fair, hist.get(half, 0)),
        ("max_prob", stats.max_prob, max_prob),
        ("witness count", len(witnesses), min(WITNESS_CAP, hist.get(max_prob, 0))),
    ):
        if stored != implied:
            raise CacheIntegrityError(
                f"{field} is {stored}, but n and the histogram imply {implied}"
            )
    if witnesses != sorted(set(witnesses)):
        raise CacheIntegrityError("witnesses are not in strict lexicographic order")
