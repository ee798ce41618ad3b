"""Word construction families and exact evaluation of their probabilities.

Three families live here:

* an irreducible balanced non-transitive word for every n >= 3, built by
  prepending copies of the fair block ABCCBA to a 3- or 4-sided seed;
* a balanced non-transitive family whose probability 1/2 + 1/(2n^2)
  approaches 1/2, showing the lower bound is sharp;
* a staged block family for even n >= 6 that a greedy shift optimizer
  drives toward the largest probability this construction can reach,
  tending to 1/2 + (15 - sqrt(153))/24.

All decisions are made in integer or rational arithmetic.  The square
roots appearing in the closed-form limits are handled symbolically as
(a + b*sqrt(d))/c with certified rational enclosures.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Callable, NamedTuple

from .core import DiceSet, DomainError, PairCounts, pair_counts
from .rewriting import (
    MovePath,
    PairExchange,
    TripleShift,
    _reverse,
    _shift_sites,
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


class BaseWords(NamedTuple):
    """The five named base words used by the construction families."""

    fair_block: str
    seed3: str
    seed4: str
    canonical3: str
    dense4: str


def base_words() -> BaseWords:
    return BaseWords(FAIR_BLOCK, SEED3, SEED4, CANONICAL3, DENSE4)


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

    FAIR_BLOCK^k followed by SEED3 for odd n = 3 + 2k, or by SEED4 for
    even n = 4 + 2k; k = (n - 3) // 2 in both cases.  All three win counts
    equal (n^2 + 2) // 2.
    """
    if type(n) is not int:
        raise DomainError(f"n must be an int, got {n!r}")
    if n < 3:
        raise DomainError(
            f"no balanced non-transitive set exists on {n} sides (need n >= 3)"
        )
    return FAIR_BLOCK * ((n - 3) // 2) + (SEED3 if n % 2 else SEED4)


def construct_near_half(m: int) -> str:
    """A balanced non-transitive word with probability 1/2 + 1/(2n^2).

    n = 2m + 1 sides; all win counts equal 2m^2 + 2m + 1, so the excess
    over 1/2 shrinks quadratically with m.
    """
    if type(m) is not int:
        raise DomainError(f"m must be an int, got {m!r}")
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
    if type(n) is not int:
        raise DomainError(f"n must be an int, got {n!r}")
    if n < 6 or n % 2:
        raise DomainError(f"staged words exist for even n >= 6 only, got n={n}")
    p, h = n // 6, n // 2
    return p, h, h - 3 * p


def stage_word(n: int, stage: str) -> str:
    """Build the staged block word for even n >= 6.

    Each stage is a table of runs; with p = n//6, h = n//2 and c = h - 3p:

    * unmixed-fair:  A^h B^h C^h C^h B^h A^h, fair for every even n.
    * mixed-fair:    A^h B^(h-p) C^h B^p C^(h-p) B^h C^p A^h, still fair
      but exposing CA windows (C^p directly before the final A run).
    * shifted:       B^p A^h B^c C^h B^(2p) C^(h-p) B^h A^h C^p, balanced
      and non-transitive with every win count equal to n^2/2 + p*h.

    The shifted word's excess p*h/n^2 is 1/12 at n = 6p, and equals
    p(3p+1)/(6p+2)^2 resp. p(3p+2)/(6p+4)^2 for the other residues.
    """
    p, h, c = _block_params(n)
    if stage not in STAGES:  # a tuple scan, so an unhashable stage fails here too
        raise DomainError(f"unknown stage {stage!r}; expected one of {STAGES}")
    runs = {
        STAGE_UNMIXED_FAIR: zip("ABCBA", (h, h, 2 * h, h, h)),
        STAGE_MIXED_FAIR: zip("ABCBCBCA", (h, h - p, h, p, h - p, h, p, h)),
        STAGE_SHIFTED: zip("BABCBCBAC", (p, h, c, h, 2 * p, h - p, h, h, p)),
    }[stage]
    return "".join(letter * k for letter, k in runs)


def max_shift_rounds(n: int) -> int:
    """Largest number m of extra shift rounds the block family supports.

    Each round relocates one B forward and one C backward and then applies
    n/2 triple shifts; with c = h - 3p (0, 1 or 2 for n = 6p, 6p+2, 6p+4),
    the middle region's exchange capacity bounds m by

        m^2 - (13p + 4c)*m + 4p^2 - c*p - c^2 >= 0,

    decided here by integer evaluation only (no square roots).  The
    polynomial decreases on 0 <= m <= 2p, so the answer is the floor of
    its smaller root (lin - sqrt(lin^2 - 4*const))/2, taken with math.isqrt
    and capped at 2p; m = 0 (do nothing) is always admissible.
    """
    p, _, c = _block_params(n)
    lin, const = 13 * p + 4 * c, (4 * p - c) * p - c * c
    if const < 0:  # even one round is infeasible
        return 0
    disc = lin * lin - 4 * const
    root = math.isqrt(disc)
    return min(2 * p, (lin - root - (root * root != disc)) // 2)


class OptimizerReport(NamedTuple):
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
    before, after = word.rfind("BC", 0, left), word.find("BC", left + 2)
    if after < 0 or 0 <= before and 2 * left <= before + after:
        lo, hi = before + 1, left + 1
    else:
        lo, hi = left + 1, after + 1
    if lo < 1:  # no BC window on either side
        return None
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
            # _shift_sites yields only disjoint AB/BC/CA windows it found,
            # so reversing them is the shift; replay re-checks every move
            word = _reverse(word, *move)
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


class SurdValue(NamedTuple):
    """The exact real number (a + b*sqrt(d)) / c with integers, c > 0."""

    a: int
    b: int
    c: int
    d: int

    def enclosure(self, digits: int = 15) -> tuple[Fraction, Fraction]:
        """A rational interval containing the value, width <= |b|/(c*10^digits)."""
        scale = 10**digits
        s = math.isqrt(self.d * scale * scale)
        # a + b*r is monotone in r, so its ends sit at the root's bounds
        ends = (Fraction(self.a + self.b * Fraction(r, scale), self.c) for r in (s, s + 1))
        lo, hi = sorted(ends)
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


class BoundReport(NamedTuple):
    """Exact limit constants and errata flags."""

    limit_excess: SurdValue
    limit_excess_variant_154: SurdValue
    limit_excess_shortened: SurdValue
    errata: tuple[str, ...]
    monotone_certified_upto: int

    def to_json(self) -> dict:
        return {
            "limit_excess": self.limit_excess.to_json(),
            "limit_excess_variant_154": self.limit_excess_variant_154.to_json(),
            "limit_excess_shortened": self.limit_excess_shortened.to_json(),
            "errata": list(self.errata),
            "monotone_certified_upto": self.monotone_certified_upto,
        }


# Growth of the two round-count roots at p, as (s, t, u, v, w): it holds
# iff (s*p + t)^2 < 676*(u*p^2 + v*p + w).
_ROOT_GROWTH = ((306, 92, 153, 108, 20), (306, 200, 153, 216, 80))


def certify_root_monotonicity() -> bool:
    """Certify by integer arithmetic that the round-count root expressions
    13p+4 - sqrt(153p^2+108p+20) and 13p+8 - sqrt(153p^2+216p+80) increase
    for every p >= 1.

    Each step reduces to an inequality between squared integers:
    growth at p holds iff (306p + 92)^2 < 676*(153p^2 + 108p + 20) for the
    first expression, and (306p + 200)^2 < 676*(153p^2 + 216p + 80) for
    the second.  The right side minus the left is a quadratic in p
    (9792p^2 + 16704p + 5056 and 9792p^2 + 23616p + 14080); with every
    coefficient positive it is positive at every p >= 1, so one look at
    the coefficients certifies every p at once.
    """
    for s, t, u, v, w in _ROOT_GROWTH:
        coefficients = (676 * u - s * s, 676 * v - 2 * s * t, 676 * w - t * t)
        if min(coefficients) <= 0:
            return False
    return True


def bound_report(monotone_limit: int = 1_000_000) -> BoundReport:
    """The family's exact limit constants, their errata and the root-growth
    certificate.  The certificate holds for every p, so monotone_limit is
    only echoed as monotone_certified_upto (0 if the certificate fails)."""
    if type(monotone_limit) is not int:
        raise DomainError(f"monotone limit must be an int, got {monotone_limit!r}")
    if monotone_limit < 0:
        raise DomainError(f"monotone limit must be >= 0, got {monotone_limit}")
    errata = (
        "a sqrt(154) variant of the n=6p limit constant disagrees with the "
        "discriminant of m^2 - 13p*m + 4p^2, which is 13^2 - 16 = 153; "
        "both values are reported",
        "a shortened limit form (13 - sqrt(153))/24 omits the 1/12 term of "
        "the full limit 1/12 + (13 - sqrt(153))/24 = (15 - sqrt(153))/24; "
        "both values are reported",
    )
    monotone_ok = certify_root_monotonicity()
    return BoundReport(
        limit_excess=LIMIT_EXCESS,
        limit_excess_variant_154=LIMIT_EXCESS_VARIANT_154,
        limit_excess_shortened=LIMIT_EXCESS_SHORTENED,
        errata=errata,
        monotone_certified_upto=monotone_limit if monotone_ok else 0,
    )
