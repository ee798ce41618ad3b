"""Concatenation laws and irreducibility analysis for dice words.

Concatenating an m-sided word with an n-sided word (labels of the second
shifted above the first) adds the operand counts plus the m*n cross pairs:

    N(A>B) of the product = N(A>B) left + N(A>B) right + m*n

and likewise for the other two pairs.  The same identity in probability
form reads P = 1/2 + ((left - m^2/2) + (right - n^2/2)) / (m+n)^2.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .core import (
    DomainError,
    PairCounts,
    pair_counts,
    require_complete,
    verdict_from_counts,
)


class ConcatPrediction(NamedTuple):
    """Counts predicted for a concatenation from operand counts alone."""

    m: int
    n: int
    predicted: PairCounts


class IrreducibilityReport(NamedTuple):
    """Result of the binary-split irreducibility check.

    witness_split is the length of the shortest proper prefix such that
    the prefix and the remaining suffix are both balanced non-transitive
    words; absent when the word is irreducible.
    """

    irreducible: bool
    witness_split: int | None = None


def concat(w1: str, w2: str) -> str:
    """Concatenate two complete words (labels of w2 sit above w1's)."""
    require_complete(w1)
    require_complete(w2)
    return w1 + w2


def predict_counts(c1: PairCounts, c2: PairCounts) -> ConcatPrediction:
    """Predict concatenation counts without inspecting any letters."""
    m, n = c1.n, c2.n
    cross = m * n
    return ConcatPrediction(
        m=m,
        n=n,
        predicted=PairCounts(
            n=m + n,
            ab=c1.ab + c2.ab + cross,
            bc=c1.bc + c2.bc + cross,
            ca=c1.ca + c2.ca + cross,
        ),
    )


def combined_probability(m: int, m_ab: int, n: int, n_ab: int) -> Fraction:
    """Exact P(A>B) of a concatenation from the two operand counts.

    Computes 1/2 + ((m_ab - m^2/2) + (n_ab - n^2/2)) / (m+n)^2 over the
    rationals; equals (m_ab + n_ab + m*n) / (m+n)^2.
    """
    if not 0 <= m_ab <= m * m:
        raise DomainError(f"count {m_ab} outside 0..{m * m}")
    if not 0 <= n_ab <= n * n:
        raise DomainError(f"count {n_ab} outside 0..{n * n}")
    if m + n < 1:
        raise DomainError("empty word has no win probabilities")
    half = Fraction(1, 2)
    excess = (m_ab - half * m * m) + (n_ab - half * n * n)
    return half + Fraction(excess, (m + n) ** 2)


def is_irreducible(word: str) -> IrreducibilityReport:
    """Check whether a balanced non-transitive word splits into two.

    A word is reducible when some proper prefix and the matching suffix
    are both balanced and non-transitive; the first witness in increasing
    prefix length is returned.  One scan keeps the prefix's letter tallies
    and win counts, records each balanced non-transitive prefix (m letters
    of each kind) and ends with the word's own counts; by the concatenation
    law a prefix's suffix has those minus the prefix's minus m*(n - m), so
    every split is decided by integer comparisons in O(L) total.
    """
    n = require_complete(word)
    na = nb = nc = 0
    ab = bc = ca = 0
    splits = []
    for pos, ch in enumerate(word, start=1):
        if ch == "A":
            ab += nb
            na += 1
        elif ch == "B":
            bc += nc
            nb += 1
        else:
            ca += na
            nc += 1
        if na == nb == nc and ab == bc == ca and 2 * ab > na * na:
            splits.append((pos, na, ab))
    verdict = verdict_from_counts(PairCounts(n=n, ab=ab, bc=bc, ca=ca))
    if not (verdict.balanced and verdict.nontransitive):
        raise DomainError(
            "irreducibility is defined only for balanced non-transitive words"
        )
    # balanced word and prefix give a balanced suffix; the empty one fails
    for pos, m, prefix in splits:
        if 2 * (ab - prefix - m * (n - m)) > (n - m) ** 2:
            return IrreducibilityReport(irreducible=False, witness_split=pos)
    return IrreducibilityReport(irreducible=True, witness_split=None)


def verify_concat_law(w1: str, w2: str) -> bool:
    """Compare scanned counts of a concatenation against the prediction."""
    actual = pair_counts(concat(w1, w2))
    predicted = predict_counts(pair_counts(w1), pair_counts(w2)).predicted
    return actual == predicted
