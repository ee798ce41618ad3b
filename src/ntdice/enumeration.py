"""Exhaustive generation and classification of all dice words at fixed n.

The scan is the package's ground truth: every closed-form count elsewhere
can be rediscovered here.  Two pieces share one pruning window, the range
of running N(A>B) from which the final counts a prefix can still reach
admit a word the filter passes:

* every count comes from a layered count DP.  It reads words left to
  right and keeps, for each count of letters placed and each pair of
  running N(B>C), N(C>A), one int that packs the multiplicity of every
  running N(A>B) into fixed-width fields, so integer shifts, sums and
  masks do the per-count work.  The window becomes a mask that drops a
  state as soon as the three counts can no longer meet, and n = 7
  (399,072,960 words) takes about 0.02 s;
* words themselves come from a depth-first walk in lexicographic order
  that cuts every prefix no completion of which passes the filter and
  remembers the states so cut.  It lists the witnesses of the maximum
  and feeds a consumer the words matching its filter.

Everything runs in one process; the results never depend on the worker
count a caller passes.
"""

from __future__ import annotations

import errno
import itertools
import json
import math
import os
from fractions import Fraction
from functools import cache
from typing import Callable, Iterator, NamedTuple

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


class _FilterFields(NamedTuple):
    balanced: bool = False
    nontransitive: bool = False
    fair: bool = False
    counts: tuple[int, int, int] | None = None


class EnumFilter(_FilterFields):
    """Conjunctive word filter: set flags that matching words must have.
    Construction checks that counts, when given, is a tuple of three ints."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "EnumFilter":
        self = super().__new__(cls, *args, **kwargs)
        if (c := self.counts) is not None and not (
                type(c) is tuple and len(c) == 3 and all(type(v) is int for v in c)):
            raise DomainError(f"counts must be a tuple of three ints, got {c!r}")
        return self

    # _replace builds through _make, which would otherwise skip the check
    _make = classmethod(lambda cls, fields: cls(*fields))

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


class EnumStats(NamedTuple):
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
Window = Callable[[Placed, int, int], tuple[int, int]]  # see _pruner


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


def _pruner(n: int, filt: EnumFilter) -> Window | None:
    """A window(placed, bc, ca) -> (lo, hi) of the running N(A>B) from which
    some completion of a prefix can pass filt, empty when lo > hi; None when
    filt passes every word.

    Each letter still to come adds between the current and the full tally
    of the letter it beats, so the final N(A>B) lies in
    [ab + ra*pb, ab + ra*n], and likewise for the other two.  Each interval
    is clipped to the range the filter allows that count and must stay
    non-empty; for balanced words the three must also meet.  Solved for ab
    this is one interval, which a condition free of ab empties.  At a
    complete word every interval is a point, so the test is the filter."""
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
        return lambda placed, bc, ca: (1, 0)  # no word can pass
    (la, lb, lc), (ha, hb, hc) = lo, hi
    balanced = filt.balanced
    low, high = max(lo), min(hi)  # the range all three share when balanced

    def window(placed: Placed, bc: int, ca: int) -> tuple[int, int]:
        pa, pb, pc = placed
        ra, rb, rc = n - pa, n - pb, n - pc
        lo_bc, hi_bc = bc + rb * pc, bc + rb * n
        lo_ca, hi_ca = ca + rc * pa, ca + rc * n
        if balanced:  # the range bc and ca share, spelt out: max() and min() cost more
            top = hi_bc if hi_bc < hi_ca else hi_ca
            top = high if high < top else top
            bottom = lo_bc if lo_bc > lo_ca else lo_ca
            bottom = low if low > bottom else bottom
            return (bottom - ra * n, top - ra * pb) if bottom <= top else (1, 0)
        if lo_bc <= hb and lb <= hi_bc and lo_ca <= hc and lc <= hi_ca:
            return la - ra * n, ha - ra * pb
        return 1, 0

    return window


def _balanced_histogram(n: int) -> dict[int, int]:
    """Balanced words keyed by their common count, by the layered count DP.

    Layer k maps each letter tally (pa, pb, pc) of k-letter prefixes to a
    dict from running counts (bc, ca) to one packed int, whose w-bit field
    at offset ab*w counts the prefixes reaching (ab, bc, ca); 2**w exceeds
    the word total, so no field ever carries into the next.  A last A adds
    pb to every ab, a shift of the packed int; a last B adds pc to bc and a
    last C pa to ca, which only move the key.  The pruner's window on ab
    becomes a mask, so every state that survives to (n, n, n) is balanced,
    and field t of key (t, t) counts the words whose common count is t."""
    window = _pruner(n, EnumFilter(balanced=True))
    w = total_word_count(n).bit_length()
    layer: dict[Placed, dict[tuple[int, int], int]] = {(0, 0, 0): {(0, 0): 1}}
    for k in range(1, 3 * n + 1):
        nxt: dict[Placed, dict[tuple[int, int], int]] = {}
        for pa in range(max(0, k - 2 * n), min(n, k) + 1):
            for pb in range(max(0, k - pa - n), min(n, k - pa) + 1):
                pc = k - pa - pb
                placed = (pa, pb, pc)  # a negative tally is never held
                bucket = {key: packed << pb * w
                          for key, packed in layer.get((pa - 1, pb, pc), {}).items()}
                for prev, db, dc in ((pa, pb - 1, pc), pc, 0), ((pa, pb, pc - 1), 0, pa):
                    for (bc, ca), packed in layer.get(prev, {}).items():
                        key = (bc + db, ca + dc)
                        bucket[key] = bucket.get(key, 0) + packed
                kept = {}
                for (bc, ca), packed in bucket.items():
                    lo, hi = window(placed, bc, ca)
                    lo = lo if lo > 0 else 0
                    if lo <= hi and (
                            packed := packed & ((1 << (hi - lo + 1) * w) - 1) << lo * w):
                        kept[bc, ca] = packed
                nxt[placed] = kept
        layer = nxt
    return {t: packed >> t * w for (t, _), packed in layer[(n, n, n)].items()}


def _walk(n: int, filt: EnumFilter, emit: Callable[[str, Counts], bool | None]) -> None:
    """Hand every complete word passing filt, with its counts, to emit in
    lexicographic order, until emit returns True.

    A depth-first walk in A, B, C order that cuts a prefix as soon as its
    N(A>B) leaves the pruner's window, and remembers the states so cut,
    so a state met again under another prefix is cut at once.  A filter
    that passes every word cuts nothing."""
    window = _pruner(n, filt)
    path: list[str] = []
    dead: set[tuple[Placed, Counts]] = set()
    stopped = False

    def visit(placed: Placed, counts: Counts) -> bool:
        nonlocal stopped
        if window is not None:
            ab, bc, ca = counts
            lo, hi = window(placed, bc, ca)
            if not lo <= ab <= hi or (placed, counts) in dead:
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


def _derive_stats(n: int, hist: dict[int, int], witnesses: tuple[str, ...]) -> EnumStats:
    """The statistics that n and a histogram of common counts imply, with
    the given witnesses of the maximum."""
    sq = n * n
    above = [v for v in hist if 2 * v > sq]
    best = max(above, default=None)
    return EnumStats(
        n=n,
        total_words=total_word_count(n),
        count_balanced=sum(hist.values()),
        count_balanced_nontransitive=sum(hist[v] for v in above),
        count_fair=hist.get(sq // 2, 0) if sq % 2 == 0 else 0,
        max_prob=Fraction(best, sq) if best is not None else None,
        max_witnesses=witnesses,
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
    stats = _derive_stats(n, _balanced_histogram(n), ())
    if stats.max_prob is None:
        return stats
    best = int(stats.max_prob * n * n)
    return stats._replace(max_witnesses=tuple(_witnesses(n, best)))


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


class FairConjectureReport(NamedTuple):
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

    Fair words are counted by the count DP, not walked or stored: the
    moves keep counts, so a class seeded by block products holds only fair
    words.  Odd n carry none (the fair count n^2/2 would not be an
    integer), so the DP is not run and nothing seeds a class.
    Even n must satisfy n <= 4, where the reachable set of the canonical
    products stays exhaustively searchable.
    """
    _require_int(n)
    if not 1 <= n <= MAX_SIDES:
        raise DomainError(f"supported range is 1 <= n <= {MAX_SIDES}, got {n}")
    _require_budget(bfs_budget)
    if n % 2 == 0 and n > 4:
        raise DomainError(
            f"similarity verification is exhaustive only up to n=4, got {n}"
        )

    fair_words = 0
    # The seeds are lists in generation order, so a budget cuts each search
    # at the same word in every process.
    same_seeds: list[str] = []
    mixed_seeds: list[str] = []
    if n % 2 == 0:  # odd n have no fair word to count or seed from
        fair_words = _balanced_histogram(n).get(n * n // 2, 0)
        blocks = [x + y + z + z + y + x for x, y, z in itertools.permutations("ABC")]
        same_seeds = [block * (n // 2) for block in blocks]
        mixed_seeds = ["".join(p) for p in itertools.product(blocks, repeat=n // 2)]

    from .rewriting import similarity_class

    class_same, same_done = similarity_class(same_seeds, bfs_budget)
    class_mixed, mixed_done = similarity_class(mixed_seeds, bfs_budget)

    reach_same = len(class_same)
    reach_mixed = len(class_mixed)
    return FairConjectureReport(
        n=n,
        fair_words_found=fair_words,
        parity_ok=True,
        reachable_same_perm=reach_same,
        reachable_mixed_perm=reach_mixed,
        not_reachable_same_perm=(fair_words - reach_same) if same_done else 0,
        not_reachable_mixed_perm=(fair_words - reach_mixed) if mixed_done else 0,
        unresolved_same_perm=0 if same_done else fair_words - reach_same,
        unresolved_mixed_perm=0 if mixed_done else fair_words - reach_mixed,
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
    earlier file at path whole.  An error that names a file names path,
    never the temporary file."""
    target = os.fspath(path)
    if os.path.isdir(target):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), target)
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "w", encoding="utf-8")
        try:
            with fh:
                json.dump(stats_to_json(stats), fh, indent=1, sort_keys=False)
                fh.write("\n")
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.filename is None:
            raise
        raise OSError(exc.errno, exc.strerror, target) from exc


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
        witnesses = obj["max_witnesses"]
        if type(witnesses) is not list or not all(type(w) is str for w in witnesses):
            raise TypeError("witnesses must be a list of words")
        max_prob = obj["max_prob"]
        if max_prob is not None and not isinstance(max_prob, str):
            raise TypeError(f"max_prob must be a string or null, got {max_prob!r}")
        for text in [*obj["histogram"], *([max_prob] if max_prob else [])]:
            if str(Fraction(text)) != text:
                raise ValueError(f"{text!r} is not a fraction as the writer spells it")
        counts = {
            field: _exact_int(obj[field], field)
            for field in ("n", "total_words", "count_balanced",
                          "count_balanced_nontransitive", "count_fair")
        }
        stats = EnumStats(
            **counts,
            max_prob=Fraction(max_prob) if max_prob is not None else None,
            max_witnesses=tuple(witnesses),
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
        if hist.get(1 - prob) != cnt:  # reversing a word maps a count x to n^2 - x
            raise CacheIntegrityError(
                f"histogram entry {prob}: {cnt} is not mirrored at {1 - prob}")
    implied = _derive_stats(
        n, {int(prob * n * n): cnt for prob, cnt in hist.items()}, stats.max_witnesses
    )
    witnesses = list(stats.max_witnesses)
    checks = [(field, getattr(stats, field), getattr(implied, field))
              for field in EnumStats._fields]
    checks.append(
        ("witness count", len(witnesses), min(WITNESS_CAP, hist.get(stats.max_prob, 0))))
    for field, stored, want in checks:
        if stored != want:
            raise CacheIntegrityError(
                f"{field} is {stored}, but n and the histogram imply {want}"
            )
    if witnesses != sorted(set(witnesses)):
        raise CacheIntegrityError("witnesses are not in strict lexicographic order")
