"""Core types and exact win counting for three-dice label words.

A word over the alphabet ``A``/``B``/``C`` encodes which of three dice owns
each label: position ``i`` (1-based) holds the letter of the die carrying
label ``i``.  A word is *complete* when the three letters occur equally
often; complete words of length ``3n`` are in bijection with triples of
pairwise-disjoint n-element sets partitioning ``{1, ..., 3n}``.

All probabilities are exact ``fractions.Fraction`` values.  Classification
predicates (balanced, non-transitive, fair) are decided by integer
comparisons only; floating point is never consulted.

Every record of the package (counts, verdicts, moves, reports) is a
``typing.NamedTuple``: immutable, hashed and compared as the tuple of its
fields, so it also equals a plain tuple of the same values.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

LETTERS = ("A", "B", "C")


class DiceError(Exception):
    """Base class for every domain error raised by this package."""


class WordFormatError(DiceError):
    """A word string contains a character other than A, B or C."""


class IncompleteWordError(DiceError):
    """The operation needs equal letter counts, which the word lacks."""


class DiceSetError(DiceError):
    """A dice set violates the disjoint-partition invariants."""


class DomainError(DiceError):
    """The arguments lie outside the operation's domain."""


def letter_counts(word: str) -> tuple[int, int, int]:
    """Return (#A, #B, #C), rejecting any other character."""
    a = word.count("A")
    b = word.count("B")
    c = word.count("C")
    if a + b + c != len(word):
        for pos, ch in enumerate(word, start=1):
            if ch not in "ABC":
                raise WordFormatError(
                    f"illegal character {ch!r} at position {pos}"
                )
    return a, b, c


def require_complete(word: str) -> int:
    """Validate equal letter counts and return the number of sides n."""
    a, b, c = letter_counts(word)
    if not (a == b == c):
        raise IncompleteWordError(f"incomplete word: counts {a},{b},{c}")
    return a


# The default and the ceiling of every similarity-search state budget.  A
# BFS holds about 100 B per state, so this allows about 0.2 GB.
DEFAULT_BUDGET = 2_000_000


def _require_budget(budget: int) -> None:
    if type(budget) is not int:
        raise DomainError(f"search budget must be an int, got {budget!r}")
    if budget < 1:
        raise DomainError(f"search budget must be at least 1, got {budget}")
    if budget > DEFAULT_BUDGET:
        raise DomainError(f"search budget must be at most {DEFAULT_BUDGET}, got {budget}")


class DiceWord(NamedTuple):
    """A parsed word plus its letter counts and completeness flag."""

    text: str
    counts: tuple[int, int, int]
    complete: bool

    @property
    def n(self) -> int:
        """Sides per die; only meaningful for complete words."""
        if not self.complete:
            raise IncompleteWordError(
                f"incomplete word: counts {','.join(map(str, self.counts))}"
            )
        return self.counts[0]

    def __str__(self) -> str:
        return self.text


def parse_word(text: str) -> DiceWord:
    """Parse a letter string into a DiceWord, flagging completeness."""
    counts = letter_counts(text)
    complete = counts[0] == counts[1] == counts[2]
    return DiceWord(text=text, counts=counts, complete=complete)


# JSON names of the Python types json.loads returns, for error messages.
_JSON_TYPES = {list: "array", str: "string", int: "number", float: "number",
               bool: "boolean", type(None): "null"}


class DiceSet(NamedTuple):
    """Three pairwise-disjoint n-element label sets covering 1..3n."""

    n: int
    a: frozenset[int]
    b: frozenset[int]
    c: frozenset[int]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "A": sorted(self.a),
            "B": sorted(self.b),
            "C": sorted(self.c),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DiceSet":
        """Parse {"n": int, "A": [ints], "B": [ints], "C": [ints]} strictly:
        exact ints only (no bools, floats or strings) and n distinct labels
        per die.  Range and disjointness are checked by word_from_dice."""
        if not isinstance(obj, dict):
            raise DiceSetError(
                f"malformed dice-set object: the input must be a JSON object, "
                f"got {_JSON_TYPES.get(type(obj), type(obj).__name__)}"
            )
        if type(obj.get("n")) is not int:
            raise DiceSetError("malformed dice-set object: n must be an int")
        n = obj["n"]
        dice = []
        for name in LETTERS:
            labels = obj.get(name)
            if not isinstance(labels, list) or any(type(x) is not int for x in labels):
                raise DiceSetError(
                    f"malformed dice-set object: {name} must be a list of ints"
                )
            if len(labels) != n or len(set(labels)) != n:
                raise DiceSetError(
                    f"die {name} must list {n} distinct labels, got {labels}"
                )
            dice.append(frozenset(labels))
        return cls(n, *dice)


class PairCounts(NamedTuple):
    """Exact win counts N(A>B), N(B>C), N(C>A) for an n-sided dice word."""

    n: int
    ab: int
    bc: int
    ca: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.ab, self.bc, self.ca)


class Verdict(NamedTuple):
    """Classification of a complete word; the exact probabilities are
    built from the counts when read."""

    counts: PairCounts
    balanced: bool
    nontransitive: bool
    fair: bool

    p_ab = property(lambda self: Fraction(self.counts.ab, self.counts.n ** 2))
    p_bc = property(lambda self: Fraction(self.counts.bc, self.counts.n ** 2))
    p_ca = property(lambda self: Fraction(self.counts.ca, self.counts.n ** 2))


def _validate_dice(d: DiceSet) -> None:
    if d.n < 1:
        raise DiceSetError(f"sides must be positive, got n={d.n}")
    for name, labels in (("A", d.a), ("B", d.b), ("C", d.c)):
        if len(labels) != d.n:
            raise DiceSetError(
                f"die {name} has {len(labels)} labels, expected {d.n}"
            )
    total = 3 * d.n
    seen: dict[int, str] = {}
    for name, labels in (("A", d.a), ("B", d.b), ("C", d.c)):
        for label in labels:
            if not 1 <= label <= total:
                raise DiceSetError(f"label {label} outside 1..{total}")
            if label in seen:
                raise DiceSetError(
                    f"label {label} assigned to both {seen[label]} and {name}"
                )
            seen[label] = name
    # Sizes and disjointness above force the union to be exactly 1..3n.


def word_from_dice(d: DiceSet) -> str:
    """Build the word whose i-th letter names the die owning label i."""
    _validate_dice(d)
    owner = {}
    for name, labels in (("A", d.a), ("B", d.b), ("C", d.c)):
        for label in labels:
            owner[label] = name
    return "".join(owner[i] for i in range(1, 3 * d.n + 1))


def dice_from_word(word: str) -> DiceSet:
    """Invert word_from_dice; requires a complete word."""
    n = require_complete(word)
    groups: dict[str, list[int]] = {"A": [], "B": [], "C": []}
    for i, ch in enumerate(word, start=1):
        groups[ch].append(i)
    return DiceSet(
        n=n,
        a=frozenset(groups["A"]),
        b=frozenset(groups["B"]),
        c=frozenset(groups["C"]),
    )


def pair_counts(word: str) -> PairCounts:
    """Count winning label pairs in one left-to-right scan.

    Scanning labels in increasing order, a letter X at the current position
    beats every previously seen label of the die it is matched against, so
    running letter tallies give N(A>B), N(B>C), N(C>A) in O(L).
    """
    n = require_complete(word)
    na = nb = nc = 0
    ab = bc = ca = 0
    for ch in word:
        if ch == "A":
            ab += nb
            na += 1
        elif ch == "B":
            bc += nc
            nb += 1
        else:
            ca += na
            nc += 1
    return PairCounts(n=n, ab=ab, bc=bc, ca=ca)


def verdict_from_counts(counts: PairCounts) -> Verdict:
    """Derive the exact classification flags from win counts."""
    n = counts.n
    if n < 1:
        raise DomainError("empty word has no win probabilities")
    sq = n * n
    _, ab, bc, ca = counts
    return Verdict(
        counts=counts,
        balanced=(ab == bc == ca),
        nontransitive=(2 * ab > sq and 2 * bc > sq and 2 * ca > sq),
        fair=(2 * ab == sq and 2 * bc == sq and 2 * ca == sq),
    )


def classify(word: str) -> Verdict:
    """Classify a complete word as balanced / non-transitive / fair."""
    return verdict_from_counts(pair_counts(word))
