"""Word construction families and exact evaluation of their probabilities.

Three families live here:

* an irreducible balanced non-transitive word for every n >= 3, built by
  prepending copies of the fair block ABCCBA to a 3- or 4-sided seed;
* a balanced non-transitive family whose probability 1/2 + 1/(2n^2)
  approaches 1/2, showing the lower bound is sharp;
* a staged block family for even n >= 6 that a greedy shift optimizer
  drives toward the largest probability this construction can reach,
  ending below 1/2 + 1/9.

All decisions are made in integer or rational arithmetic.  The square
roots appearing in the closed-form limits are handled symbolically as
(a + b*sqrt(d))/c with certified rational enclosures.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .core import DiceSet, DomainError, PairCounts, pair_counts
from .rewriting import (
    MovePath,
    PairExchange,
    TripleShift,
    _reverse,
    _shift_sites,
    apply_move,
)

# Base vocabulary.  FAIR_BLOCK is the unique (up to relabeling) fair
# 2-sided word; SEED3/SEED4 are irreducible balanced non-transitive words
# on 3 and 4 sides; CANONICAL3 generates every balanced non-transitive
# 3-sided word under similarity; DENSE4 is the 4-sided word with win
# counts (9, 9, 9), probability 9/16.
FAIR_BLOCK = "ABCCBA"
SEED3 = "ACBBACCBA"
SEED4 = "CBBAACACBACB"
CANONICAL3 = "CBABACACB"
DENSE4 = "CBABAACCBCBA"


@dataclass(frozen=True)
class BaseWords:
    """The five named base words used by the construction families."""

    fair_block: str
    seed3: str
    seed4: str
    canonical3: str
    dense4: str


def base_words() -> BaseWords:
    return BaseWords(
        fair_block=FAIR_BLOCK,
        seed3=SEED3,
        seed4=SEED4,
        canonical3=CANONICAL3,
        dense4=DENSE4,
    )


# Previously published dice tables (3-, 4- and 5-sided) whose common win
# count equals floor((n^2 + 2) / 2); kept as data for the formula check.
REFERENCE_DICE_TABLES = (
    DiceSet(n=3, a=frozenset({9, 5, 1}), b=frozenset({8, 4, 3}), c=frozenset({7, 6, 2})),
    DiceSet(
        n=4,
        a=frozenset({12, 10, 3, 1}),
        b=frozenset({9, 8, 7, 2}),
        c=frozenset({11, 6, 5, 4}),
    ),
    DiceSet(
        n=5,
        a=frozenset({15, 11, 7, 4, 3}),
        b=frozenset({14, 10, 9, 5, 2}),
        c=frozenset({13, 12, 8, 6, 1}),
    ),
)


def construct_irreducible(n: int) -> str:
    """An irreducible balanced non-transitive word on n sides, n >= 3.

    Odd n = 3 + 2k uses FAIR_BLOCK^k + SEED3; even n = 4 + 2k uses
    FAIR_BLOCK^k + SEED4.  All three win counts equal (n^2 + 2) // 2.
    """
    if n < 3:
        raise DomainError(
            f"no balanced non-transitive set exists on {n} sides (need n >= 3)"
        )
    if n % 2:
        k = (n - 3) // 2
        return FAIR_BLOCK * k + SEED3
    k = (n - 4) // 2
    return FAIR_BLOCK * k + SEED4


def construct_near_half(m: int) -> str:
    """A balanced non-transitive word with probability 1/2 + 1/(2n^2).

    n = 2m + 1 sides; all win counts equal 2m^2 + 2m + 1, so the excess
    over 1/2 shrinks quadratically with m.
    """
    if m < 1:
        raise DomainError(f"parameter m must be at least 1, got {m}")
    return "ACBCBA" + "ABCCBA" * (m - 1) + "BAC"


# ---------------------------------------------------------------------------
# Staged block words for even n >= 6
# ---------------------------------------------------------------------------

STAGE_UNMIXED_FAIR = "unmixed-fair"
STAGE_MIXED_FAIR = "mixed-fair"
STAGE_SHIFTED = "shifted"

STAGES = (STAGE_UNMIXED_FAIR, STAGE_MIXED_FAIR, STAGE_SHIFTED)


def _block_params(n: int) -> tuple[int, int, int]:
    """Return (p, h, c): block width p = n//6, half h = n//2, c = h - 3p."""
    if n < 6 or n % 2 or n % 6 not in (0, 2, 4):
        raise DomainError(
            f"staged words exist for even n >= 6 only, got n={n}"
        )
    p = n // 6
    h = n // 2
    return p, h, h - 3 * p


def stage_word(n: int, stage: str) -> str:
    """Build the staged block word for even n >= 6.

    With p = n//6, h = n//2 and c = h - 3p (0, 1 or 2 by residue):

    * unmixed-fair:  A^h B^h C^h C^h B^h A^h, fair for every even n.
    * mixed-fair:    A^h B^(h-p) C^h B^p C^(h-p) B^h C^p A^h, still fair
      but exposing CA windows (C^p directly before the final A run).
    * shifted:       B^p A^h B^c C^h B^(2p) C^(h-p) B^h A^h C^p, balanced
      and non-transitive with every win count equal to n^2/2 + p*h.

    The shifted word's excess p*h/n^2 is 1/12 at n = 6p, and equals
    p(3p+1)/(6p+2)^2 resp. p(3p+2)/(6p+4)^2 for the other residues.
    """
    p, h, c = _block_params(n)
    if stage == STAGE_UNMIXED_FAIR:
        return "A" * h + "B" * h + "C" * (2 * h) + "B" * h + "A" * h
    if stage == STAGE_MIXED_FAIR:
        return (
            "A" * h
            + "B" * (h - p)
            + "C" * h
            + "B" * p
            + "C" * (h - p)
            + "B" * h
            + "C" * p
            + "A" * h
        )
    if stage == STAGE_SHIFTED:
        return (
            "B" * p
            + "A" * h
            + "B" * c
            + "C" * h
            + "B" * (2 * p)
            + "C" * (h - p)
            + "B" * h
            + "A" * h
            + "C" * p
        )
    raise DomainError(f"unknown stage {stage!r}; expected one of {STAGES}")


def max_shift_rounds(n: int) -> int:
    """Largest number m of extra shift rounds the block family supports.

    Each round relocates one B forward and one C backward and then applies
    n/2 triple shifts; the middle region's exchange capacity bounds m via
    a residue-dependent quadratic inequality, decided here by integer
    evaluation only (no square roots):

    * n = 6p:    m^2 - 13p*m + 4p^2            >= 0
    * n = 6p+2:  m^2 - (13p+4)*m + 4p^2-p-1    >= 0
    * n = 6p+4:  m^2 - (13p+8)*m + 4p^2-2p-4   >= 0

    The polynomial decreases on 0 <= m <= 2p, so the answer is the floor of
    its smaller root (lin - sqrt(lin^2 - 4*const))/2, taken with math.isqrt
    and capped at 2p; m = 0 (do nothing) is always admissible.
    """
    p, _, c = _block_params(n)
    if c == 0:
        lin, const = 13 * p, 4 * p * p
    elif c == 1:
        lin, const = 13 * p + 4, 4 * p * p - p - 1
    else:
        lin, const = 13 * p + 8, 4 * p * p - 2 * p - 4
    if const < 0:  # even one round is infeasible
        return 0
    disc = lin * lin - 4 * const
    root = math.isqrt(disc)
    return min(2 * p, (lin - root - (root * root != disc)) // 2)


@dataclass(frozen=True)
class OptimizerReport:
    """Outcome of driving the shifted block word to its maximum."""

    n: int
    p: int
    stage_words: dict[str, str]
    rounds: int
    target_excess: Fraction
    achieved: PairCounts
    moves: MovePath
    gap: Fraction

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "rounds": self.rounds,
            "target_excess": str(self.target_excess),
            "achieved_counts": list(self.achieved.as_tuple()),
            "achieved_probability": str(
                Fraction(self.achieved.ab, self.n * self.n)
            ),
            "gap": str(self.gap),
            "stage_words": dict(self.stage_words),
            "moves": self.moves.to_json(),
        }


def _paired_cb_flip(word: str, left: int, moves: list[PairExchange]) -> str | None:
    """Reverse the CB window at 0-based left cell, paired with the nearest
    disjoint BC window (ties to the smaller index), and record the exchange.
    Returns the flipped word, or None when no complementary window exists."""
    near = [c for c in (word.rfind("BC", 0, left), word.find("BC", left + 2)) if c >= 0]
    if not near:
        return None
    comp = min(near, key=lambda c: (abs(c - left), c))
    lo, hi = sorted((left + 1, comp + 1))
    moves.append(PairExchange(i=lo, j=hi))
    return _reverse(word, lo, hi)


def _manufacture(word: str, window: str, moves: list[PairExchange]) -> tuple[str, bool]:
    """Make an AB (or CA) window by bubbling the B of the first AC+B run
    left to its A (or the C of the last CB+A run right to its A), one paired
    CB flip per cell.  Returns the word reached, partial when a flip finds no
    partner so that the recorded moves still lead to it, and whether the
    window was made."""
    if window == "AB":
        run = re.search("AC+B", word)
        cells = run and range(run.end() - 2, run.start(), -1)
    else:
        run = re.search(".*(CB+A)", word)
        cells = run and range(run.start(1), run.end() - 2)
    if not cells:
        return word, False
    for left in cells:
        flipped = _paired_cb_flip(word, left, moves)
        if flipped is None:
            return word, False
        word = flipped
    return word, True


def optimize_max_prob(n: int) -> OptimizerReport:
    """Drive the shifted block word to the family's maximum probability.

    Starting from the shifted stage, the loop applies the leftmost
    available triple shift; when none exists it manufactures the missing
    AB or CA window with count-preserving paired exchanges (deterministic:
    leftmost relocation, nearest complementary window).  The target is
    n/2 shifts per supported round.  Any shortfall is reported as a
    positive gap, never hidden.
    """
    p, h, _ = _block_params(n)
    stage_words = {s: stage_word(n, s) for s in STAGES}
    start = stage_words[STAGE_SHIFTED]
    rounds = max_shift_rounds(n)
    needed = rounds * h
    target_excess = Fraction((p + rounds) * h, n * n)

    moves: list[PairExchange | TripleShift] = []
    word = start
    applied = 0
    # each round needs at most two window manufactures; a stall budget
    # guarantees termination even if a manufacture undoes another's work
    stalls_left = 4 * rounds + 8
    while applied < needed:
        move = next(_shift_sites(word), None)
        if move is not None:
            word = apply_move(word, move)
            moves.append(move)
            applied += 1
            continue
        stalls_left -= 1
        missing = next((pair for pair in ("AB", "CA") if pair not in word), None)
        if stalls_left < 0 or missing is None:
            break  # out of stalls, or windows exist but cannot be made disjoint
        word, made = _manufacture(word, missing, moves)
        if not made:
            break
    achieved = pair_counts(word)
    achieved_excess = Fraction(achieved.ab, n * n) - Fraction(1, 2)
    return OptimizerReport(
        n=n,
        p=p,
        stage_words=stage_words,
        rounds=rounds,
        target_excess=target_excess,
        achieved=achieved,
        moves=MovePath(start=start, moves=tuple(moves), end=word),
        gap=target_excess - achieved_excess,
    )


# ---------------------------------------------------------------------------
# Exact surd bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurdValue:
    """The exact real number (a + b*sqrt(d)) / c with integers, c > 0."""

    a: int
    b: int
    c: int
    d: int

    def enclosure(self, digits: int = 15) -> tuple[Fraction, Fraction]:
        """A rational interval containing the value, width <= |b|/(c*10^digits)."""
        scale = 10**digits
        s = math.isqrt(self.d * scale * scale)
        lo_root = Fraction(s, scale)
        hi_root = Fraction(s + 1, scale)
        if self.b >= 0:
            lo = Fraction(self.a + self.b * lo_root, self.c)
            hi = Fraction(self.a + self.b * hi_root, self.c)
        else:
            lo = Fraction(self.a + self.b * hi_root, self.c)
            hi = Fraction(self.a + self.b * lo_root, self.c)
        return lo, hi

    def less_than(self, bound: Fraction) -> bool:
        """Exact comparison against a rational, by squaring integers only."""
        # (a + b*sqrt(d))/c < u/v  <=>  b*v*sqrt(d) < u*c - a*v  (c, v > 0)
        u, v = bound.numerator, bound.denominator
        lhs = self.b * v  # coefficient of sqrt(d)
        rhs = u * self.c - self.a * v
        if lhs <= 0:
            if rhs > 0:
                return True
            # both sides non-positive: flip signs and square
            return lhs * lhs * self.d > rhs * rhs
        if rhs <= 0:
            return False
        return lhs * lhs * self.d < rhs * rhs

    def to_json(self) -> dict:
        lo, hi = self.enclosure()
        return {
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "d": self.d,
            "enclosure": [_decimal(lo, 16, math.floor), _decimal(hi, 16, math.ceil)],
        }


def _decimal(value: Fraction, digits: int, rounding: Callable[[Fraction], int]) -> str:
    """Fixed-point decimal string, rounded by math.floor or math.ceil, so a
    printed enclosure [floor(lo), ceil(hi)] still contains the value."""
    scaled = rounding(value * 10**digits)
    sign = "-" if scaled < 0 else ""
    text = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


# Excess-limit constants of the block family.  The quadratic
# m^2 - 13p*m + 4p^2 has discriminant (13^2 - 16) p^2 = 153 p^2, so the
# n = 6p limit is (15 - sqrt(153))/24; a variant with sqrt(154) and a
# shortened form (13 - sqrt(153))/24 that drops the 1/12 term both
# circulate and are reported alongside, flagged as inconsistent.
LIMIT_EXCESS = SurdValue(a=15, b=-1, c=24, d=153)
LIMIT_EXCESS_VARIANT_154 = SurdValue(a=15, b=-1, c=24, d=154)
LIMIT_EXCESS_SHORTENED = SurdValue(a=13, b=-1, c=24, d=153)

EXCESS_BOUND = Fraction(1, 9)


@dataclass(frozen=True)
class BoundReport:
    """Exact limit constants, comparison verdicts, and errata flags."""

    limit_excess: SurdValue
    limit_excess_variant_154: SurdValue
    limit_excess_shortened: SurdValue
    bound: Fraction
    below_bound: dict[str, bool]
    errata: tuple[str, ...]
    monotone_certified_upto: int

    def to_json(self) -> dict:
        return {
            "bound": str(self.bound),
            "limit_excess": self.limit_excess.to_json(),
            "limit_excess_variant_154": self.limit_excess_variant_154.to_json(),
            "limit_excess_shortened": self.limit_excess_shortened.to_json(),
            "below_bound": dict(self.below_bound),
            "errata": list(self.errata),
            "monotone_certified_upto": self.monotone_certified_upto,
        }


# Growth of the two round-count roots at p, as (s, t, u, v, w): it holds
# iff (s*p + t)^2 < 676*(u*p^2 + v*p + w).
_ROOT_GROWTH = ((306, 92, 153, 108, 20), (306, 200, 153, 216, 80))


def certify_root_monotonicity(limit: int) -> bool:
    """Certify by integer arithmetic that the round-count root expressions
    13p+4 - sqrt(153p^2+108p+20) and 13p+8 - sqrt(153p^2+216p+80) increase
    for p = 1..limit.

    Each step reduces to an inequality between squared integers:
    growth at p holds iff (306p + 92)^2 < 676*(153p^2 + 108p + 20) for the
    first expression, and (306p + 200)^2 < 676*(153p^2 + 216p + 80) for
    the second.  The right side minus the left is a quadratic in p
    (9792p^2 + 16704p + 5056 and 9792p^2 + 23616p + 14080); with every
    coefficient positive it is positive at every p >= 1, so one look at
    the coefficients certifies every limit at once.
    """
    for s, t, u, v, w in _ROOT_GROWTH:
        coefficients = (676 * u - s * s, 676 * v - 2 * s * t, 676 * w - t * t)
        if min(coefficients) <= 0:
            return False
    return True


def bound_report(monotone_limit: int = 1_000_000) -> BoundReport:
    """Evaluate the family's limit constants exactly and compare to 1/9."""
    if monotone_limit < 0:
        raise DomainError(f"monotone limit must be >= 0, got {monotone_limit}")
    below = {
        "limit_excess": LIMIT_EXCESS.less_than(EXCESS_BOUND),
        "limit_excess_variant_154": LIMIT_EXCESS_VARIANT_154.less_than(
            EXCESS_BOUND
        ),
        "limit_excess_shortened": LIMIT_EXCESS_SHORTENED.less_than(EXCESS_BOUND),
    }
    errata = (
        "a sqrt(154) variant of the n=6p limit constant disagrees with the "
        "discriminant of m^2 - 13p*m + 4p^2, which is 13^2 - 16 = 153; "
        "both values are reported",
        "a shortened limit form (13 - sqrt(153))/24 omits the 1/12 term of "
        "the full limit 1/12 + (13 - sqrt(153))/24 = (15 - sqrt(153))/24; "
        "both values are reported",
    )
    monotone_ok = certify_root_monotonicity(monotone_limit)
    return BoundReport(
        limit_excess=LIMIT_EXCESS,
        limit_excess_variant_154=LIMIT_EXCESS_VARIANT_154,
        limit_excess_shortened=LIMIT_EXCESS_SHORTENED,
        bound=EXCESS_BOUND,
        below_bound=below,
        errata=errata,
        monotone_certified_upto=monotone_limit if monotone_ok else 0,
    )
