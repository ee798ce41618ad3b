"""Probability-preserving rewrites, the count-raising triple shift, and
breadth-first similarity search over the rewrite graph.

Move inventory (windows are adjacent letter pairs, 1-based left cell):

* ``PairExchange(i, j)``: the windows read ``xy`` at i and ``yx`` at j for
  the same unordered letter pair; both are reversed simultaneously.  Win
  counts are unchanged (the two adjacent transpositions cancel).
* ``TripleRotate``: moves the leading (or trailing) block of three distinct
  letters to the other end of a complete word.  Counts are unchanged.
* ``TripleShift(i, j, k)``: three pairwise-disjoint windows reading AB, BC
  and CA become BA, CB and AC together; every win count rises by exactly 1,
  so balance is preserved while the common probability gains 1/n^2.

Two words are *similar* when a sequence of the two count-preserving moves
turns one into the other.  ``similar`` runs a deterministic breadth-first
search (dedup by word value, moves expanded in canonical order) and so
returns the shortest, lexicographically-least move path when one exists.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from .core import DiceError, DomainError, require_complete


class MoveError(DiceError):
    """A rewrite move does not match the word at its stated windows."""


class NormalizationError(DiceError):
    """The fair-word normalization procedure could not complete.

    Raised when no complementary exchange window exists for a required
    bubbling step; any such word is a reportable finding.
    """


@dataclass(frozen=True)
class PairExchange:
    """Simultaneous reversal of an xy window at i and a yx window at j."""

    i: int
    j: int


@dataclass(frozen=True)
class TripleRotate:
    """Move the first (to_back) or last block of three distinct letters."""

    to_back: bool


@dataclass(frozen=True)
class TripleShift:
    """Replace AB at i, BC at j, CA at k by BA, CB, AC all together."""

    i: int
    j: int
    k: int


Move = Union[PairExchange, TripleRotate, TripleShift]


def move_to_json(move: Move) -> dict:
    if isinstance(move, PairExchange):
        return {"kind": "pair-exchange", "i": move.i, "j": move.j}
    if isinstance(move, TripleRotate):
        kind = "rotate-front-to-back" if move.to_back else "rotate-back-to-front"
        return {"kind": kind}
    if isinstance(move, TripleShift):
        return {"kind": "triple-shift", "i": move.i, "j": move.j, "k": move.k}
    raise TypeError(f"not a move: {move!r}")


def _field(obj: dict, name: str, kind: type) -> int | str:
    """obj[name], which must be exactly of type kind (a bool is no int)."""
    value = obj.get(name)
    if type(value) is not kind:
        raise MoveError(f"field {name!r} must be {kind.__name__}, got {value!r}")
    return value


def move_from_json(obj: dict) -> Move:
    if not isinstance(obj, dict):
        raise MoveError(f"a move must be a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind == "pair-exchange":
        return PairExchange(i=_field(obj, "i", int), j=_field(obj, "j", int))
    if kind == "rotate-front-to-back":
        return TripleRotate(to_back=True)
    if kind == "rotate-back-to-front":
        return TripleRotate(to_back=False)
    if kind == "triple-shift":
        i, j, k = (_field(obj, name, int) for name in "ijk")
        return TripleShift(i=i, j=j, k=k)
    raise MoveError(f"unknown move kind {kind!r}")


@dataclass(frozen=True)
class MovePath:
    """A start word, an ordered move list, and the resulting end word."""

    start: str
    moves: tuple[Move, ...]
    end: str

    def replay(self) -> list[str]:
        """Re-apply every move, returning all intermediate words.

        The returned list begins with start and ends with end; a mismatch
        raises MoveError.
        """
        words = [self.start]
        current = self.start
        for move in self.moves:
            current = apply_move(current, move, require_completeness=False)
            words.append(current)
        if current != self.end:
            raise MoveError(
                f"replay ended at {current!r}, path claims {self.end!r}"
            )
        return words

    def to_json(self) -> dict:
        return {
            "start": self.start,
            "moves": [move_to_json(m) for m in self.moves],
            "end": self.end,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MovePath":
        if not isinstance(obj, dict) or not isinstance(obj.get("moves"), list):
            raise MoveError("a move path must be a JSON object with a moves list")
        return cls(
            start=_field(obj, "start", str),
            moves=tuple(move_from_json(m) for m in obj["moves"]),
            end=_field(obj, "end", str),
        )


def _check_window(word: str, i: int, what: str) -> None:
    if not 1 <= i <= len(word) - 1:
        raise MoveError(f"{what} window at {i} out of range for length {len(word)}")


def apply_move(word: str, move: Move, require_completeness: bool = True) -> str:
    """Apply one rewrite move, validating its window preconditions."""
    if require_completeness:
        require_complete(word)
    if isinstance(move, PairExchange):
        i, j = move.i, move.j
        _check_window(word, i, "pair-exchange")
        _check_window(word, j, "pair-exchange")
        if abs(i - j) < 2:
            raise MoveError(f"pair-exchange windows at {i} and {j} overlap")
        x, y = word[i - 1], word[i]
        if x == y:
            raise MoveError(f"window at {i} reads {x}{y}, needs two distinct letters")
        if word[j - 1] != y or word[j] != x:
            raise MoveError(
                f"window at {j} reads {word[j - 1]}{word[j]}, expected {y}{x}"
            )
        letters = list(word)
        letters[i - 1], letters[i] = y, x
        letters[j - 1], letters[j] = x, y
        return "".join(letters)
    if isinstance(move, TripleRotate):
        if len(word) < 3:
            raise MoveError("triple rotation needs at least three letters")
        block = word[:3] if move.to_back else word[-3:]
        if len(set(block)) != 3:
            raise MoveError(f"block {block!r} must hold three distinct letters")
        if move.to_back:
            return word[3:] + word[:3]
        return word[-3:] + word[:-3]
    if isinstance(move, TripleShift):
        i, j, k = move.i, move.j, move.k
        for pos, pattern in ((i, "AB"), (j, "BC"), (k, "CA")):
            _check_window(word, pos, "triple-shift")
            if word[pos - 1 : pos + 1] != pattern:
                raise MoveError(
                    f"window at {pos} reads {word[pos - 1:pos + 1]!r}, "
                    f"expected {pattern!r}"
                )
        for p, q in ((i, j), (i, k), (j, k)):
            if abs(p - q) < 2:
                raise MoveError(f"triple-shift windows at {p} and {q} overlap")
        letters = list(word)
        letters[i - 1], letters[i] = "B", "A"
        letters[j - 1], letters[j] = "C", "B"
        letters[k - 1], letters[k] = "A", "C"
        return "".join(letters)
    raise TypeError(f"not a move: {move!r}")


def _windows(word: str, pattern: str) -> Iterator[int]:
    """1-based left cells of every window reading the two-letter pattern."""
    at = word.find(pattern)
    while at >= 0:
        yield at + 1
        at = word.find(pattern, at + 1)


def _shift_sites(word: str) -> Iterator[TripleShift]:
    """Pairwise-disjoint AB/BC/CA window triples, yielded lazily in
    lexicographic (i, j, k) order, so taking the first site costs three
    str.find scans rather than a listing of every triple."""
    bc_at = list(_windows(word, "BC"))
    ca_at = list(_windows(word, "CA"))
    for i in _windows(word, "AB"):
        for j in bc_at:
            if abs(i - j) < 2:
                continue
            for k in ca_at:
                if abs(i - k) < 2 or abs(j - k) < 2:
                    continue
                yield TripleShift(i=i, j=j, k=k)


def find_shift_sites(word: str) -> list[TripleShift]:
    """All pairwise-disjoint AB/BC/CA window triples, leftmost-first: the
    whole of the lazy ``_shift_sites`` walk, listed."""
    require_complete(word)
    return list(_shift_sites(word))


# ---------------------------------------------------------------------------
# Two-letter fair-word normalization
# ---------------------------------------------------------------------------


def two_letter_wins(word: str) -> int:
    """N(A>B) for a word over {A, B}: pairs with the A label on top."""
    nb = 0
    wins = 0
    for ch in word:
        if ch == "B":
            nb += 1
        else:
            wins += nb
    return wins


def normalize_two_letter_fair(word: str) -> MovePath:
    """Rewrite a fair two-letter word into its repeated-block normal form.

    A word of length 4m over {A, B} with 2m letters each is fair when
    N(A>B) = 2m^2.  The word is transformed by pair exchanges only, fixing
    positions left to right toward (ABBA)^m, or (BAAB)^m when the word
    starts with B.  Every exchange pairs a bubbling step with the nearest
    feasible complementary window to its right, so all intermediates stay
    fair; if no complementary window exists the word is reported via
    NormalizationError rather than silently skipped.
    """
    bad = set(word) - {"A", "B"}
    if bad:
        raise DomainError(f"expected a word over A and B, found {sorted(bad)!r}")
    length = len(word)
    if length % 4:
        raise DomainError(f"length {length} is not a multiple of 4")
    m = length // 4
    a = word.count("A")
    if a != 2 * m:
        raise DomainError(f"unequal letter counts: {a} A vs {length - a} B")
    wins = two_letter_wins(word)
    if wins != 2 * m * m:
        raise DomainError(f"not fair: N(A>B)={wins}, fair value is {2 * m * m}")
    if m == 0:
        return MovePath(start=word, moves=(), end=word)

    block = "ABBA" if word[0] == "A" else "BAAB"
    target = block * m
    moves: list[PairExchange] = []
    w = list(word)
    for z in range(length):
        need = target[z]
        while w[z] != need:
            j = z + 1
            while w[j] != need:
                j += 1
            # Window (j-1, j) reads other+need; reversing it drags the
            # needed letter one cell left.  Pair it with a disjoint
            # need+other window in the unfixed region.
            other = w[j - 1]
            comp = None
            for c in range(z, length - 1):
                if abs(c - (j - 1)) < 2:
                    continue
                if w[c] == need and w[c + 1] == other:
                    comp = c
                    break
            if comp is None:
                raise NormalizationError(
                    f"no complementary {need}{other} window while fixing "
                    f"position {z + 1} of {word!r}"
                )
            w[j - 1], w[j] = need, other
            w[comp], w[comp + 1] = other, need
            lo, hi = sorted((j, comp + 1))
            moves.append(PairExchange(i=lo, j=hi))
    end = "".join(w)
    return MovePath(start=word, moves=tuple(moves), end=end)


# ---------------------------------------------------------------------------
# Similarity search
# ---------------------------------------------------------------------------

OUTCOME_FOUND = "found"
OUTCOME_NOT_SIMILAR = "not-similar"
OUTCOME_BUDGET_EXCEEDED = "budget-exceeded"

DEFAULT_BUDGET = 2_000_000


@dataclass(frozen=True)
class SimilarityResult:
    """Outcome of a breadth-first similarity search.

    outcome separates a proved negative (frontier exhausted) from an
    unknown (state budget hit before exhaustion).
    """

    outcome: str
    path: MovePath | None
    explored: int


def _neighbor_moves(word: str) -> Iterator[tuple[Move, str]]:
    """Deterministic move enumeration: exchanges by ascending windows,
    then the two rotations."""
    length = len(word)
    windows = []
    for i in range(1, length):
        x, y = word[i - 1], word[i]
        if x != y:
            windows.append((i, x, y))
    for a in range(len(windows)):
        i, x, y = windows[a]
        for b in range(a + 1, len(windows)):
            j, u, v = windows[b]
            if j - i < 2:
                continue
            if u == y and v == x:
                letters = list(word)
                letters[i - 1], letters[i] = y, x
                letters[j - 1], letters[j] = x, y
                yield PairExchange(i=i, j=j), "".join(letters)
    if length >= 3:
        if len(set(word[:3])) == 3:
            yield TripleRotate(to_back=True), word[3:] + word[:3]
        if len(set(word[-3:])) == 3:
            yield TripleRotate(to_back=False), word[-3:] + word[:-3]


def similar(w1: str, w2: str, budget: int = DEFAULT_BUDGET) -> SimilarityResult:
    """Search for a count-preserving rewrite path from w1 to w2.

    Breadth-first with canonical expansion order, so the returned path is
    shortest and, among shortest paths, lexicographically least in the move
    order.  The move set is closed under inverses, making reachability
    symmetric in the two words.
    """
    if budget < 1:
        raise DomainError(f"search budget must be at least 1, got {budget}")
    require_complete(w1)
    require_complete(w2)
    if len(w1) != len(w2):
        raise DomainError(f"length mismatch: {len(w1)} vs {len(w2)}")
    if w1 == w2:
        return SimilarityResult(
            outcome=OUTCOME_FOUND,
            path=MovePath(start=w1, moves=(), end=w2),
            explored=1,
        )
    parent: dict[str, tuple[str, Move]] = {}
    seen = {w1}
    queue = deque([w1])
    while queue:
        if len(seen) > budget:
            return SimilarityResult(
                outcome=OUTCOME_BUDGET_EXCEEDED, path=None, explored=len(seen)
            )
        current = queue.popleft()
        for move, nxt in _neighbor_moves(current):
            if nxt in seen:
                continue
            seen.add(nxt)
            parent[nxt] = (current, move)
            if nxt == w2:
                moves: list[Move] = []
                node = nxt
                while node != w1:
                    prev, mv = parent[node]
                    moves.append(mv)
                    node = prev
                moves.reverse()
                return SimilarityResult(
                    outcome=OUTCOME_FOUND,
                    path=MovePath(start=w1, moves=tuple(moves), end=w2),
                    explored=len(seen),
                )
            queue.append(nxt)
    return SimilarityResult(
        outcome=OUTCOME_NOT_SIMILAR, path=None, explored=len(seen)
    )


def similarity_class(
    seeds: Iterable[str], budget: int = DEFAULT_BUDGET
) -> tuple[frozenset[str], bool]:
    """All words reachable from the seed set, plus an exhaustion flag.

    Returns (reachable, exhausted); exhausted is False when the state
    budget stopped the search before the frontier emptied, in which case
    membership of absent words is unknown rather than refuted.
    """
    if budget < 1:
        raise DomainError(f"search budget must be at least 1, got {budget}")
    seeds = list(seeds)
    for w in seeds:
        require_complete(w)
    seen: set[str] = set(seeds)
    queue = deque(seeds)
    while queue:
        if len(seen) > budget:
            return frozenset(seen), False
        current = queue.popleft()
        for _, nxt in _neighbor_moves(current):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return frozenset(seen), True
