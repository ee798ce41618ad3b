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

Exchanges and shifts both reverse two-letter windows, and one kernel,
``_reverse(word, *cells)``, performs every such reversal for ``apply_move``,
the similarity search, the normal form and the shift optimizer; words stay
``str`` throughout.

Two words are *similar* when a sequence of the two count-preserving moves
turns one into the other.  ``similar`` runs a deterministic breadth-first
search (dedup by word value, moves expanded in canonical order) and so
returns the shortest, lexicographically-least move path when one exists.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, KeysView, NamedTuple, Union

from .core import DEFAULT_BUDGET, DiceError, DomainError, require_complete
from .core import _JSON_TYPES, _require_budget


class MoveError(DiceError):
    """A rewrite move does not match the word at its stated windows."""


class NormalizationError(DiceError):
    """The fair-word normalization procedure could not complete.

    Raised when no complementary exchange window exists for a required
    bubbling step; any such word is a reportable finding.
    """


class PairExchange(NamedTuple):
    """Simultaneous reversal of an xy window at i and a yx window at j."""

    i: int
    j: int


class TripleRotate(NamedTuple):
    """Move the first (to_back) or last block of three distinct letters."""

    to_back: bool


class TripleShift(NamedTuple):
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
        kind = _JSON_TYPES.get(type(obj), type(obj).__name__)
        raise MoveError(f"a move must be a JSON object, got {kind}")
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


class MovePath(NamedTuple):
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


def _reverse(word: str, *cells: int) -> str:
    """Reverse the two-letter windows at pairwise-disjoint 1-based cells: the
    one place that rewrites letters.  Slicing costs O(L) per cell with small
    constants, on the short BFS words and the long optimizer words alike."""
    for i in cells:
        word = word[: i - 1] + word[i] + word[i - 1] + word[i + 1 :]
    return word


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
        return _reverse(word, i, j)
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
        return _reverse(word, i, j, k)
    raise TypeError(f"not a move: {move!r}")


def _windows(word: str, pattern: str, start: int = 1) -> Iterator[int]:
    """1-based left cells, from start on, of every window reading the
    two-letter pattern."""
    at = word.find(pattern, start - 1)
    while at >= 0:
        yield at + 1
        at = word.find(pattern, at + 1)


def _shift_sites(word: str) -> Iterator[TripleShift]:
    """Pairwise-disjoint AB/BC/CA window triples, yielded lazily in
    lexicographic (i, j, k) order: three nested str.find walks, so taking
    the first site stops at the first disjoint triple rather than listing
    every window."""
    for i in _windows(word, "AB"):
        for j in _windows(word, "BC"):
            if abs(i - j) < 2:
                continue
            for k in _windows(word, "CA"):
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
    w = word
    for z in range(length):
        need = target[z]
        while w[z] != need:
            # Cells z..j-1 hold the other letter, so the window ending at j
            # reads other+need; reversing it drags the needed letter one
            # cell left.  Pair it with the first need+other window, which
            # therefore starts after j and is disjoint from it.
            j = w.index(need, z + 1)
            other = w[j - 1]
            comp = w.find(need + other, j + 1)
            if comp < 0:
                raise NormalizationError(
                    f"no complementary {need}{other} window while fixing "
                    f"position {z + 1} of {word!r}"
                )
            w = _reverse(w, j, comp + 1)
            moves.append(PairExchange(i=j, j=comp + 1))
    return MovePath(start=word, moves=tuple(moves), end=w)


# ---------------------------------------------------------------------------
# Similarity search
# ---------------------------------------------------------------------------

OUTCOME_FOUND = "found"
OUTCOME_NOT_SIMILAR = "not-similar"
OUTCOME_BUDGET_EXCEEDED = "budget-exceeded"


class SimilarityResult(NamedTuple):
    """Outcome of a breadth-first similarity search.

    outcome separates a proved negative (frontier exhausted) from an
    unknown (state budget hit before exhaustion).
    """

    outcome: str
    path: MovePath | None
    explored: int


_TO_BACK, _TO_FRONT = TripleRotate(to_back=True), TripleRotate(to_back=False)


def _neighbors(word: str) -> Iterator[tuple[str, int | TripleRotate, int]]:
    """Deterministic move enumeration, as (next word, i, j): the pair
    exchanges at windows i < j in ascending order, then the two rotations,
    which come as i = the TripleRotate and j = 0.  No move object is built
    per edge: ``similar`` builds the exchanges of the path it returns."""
    for i in range(1, len(word)):
        x, y = word[i - 1], word[i]
        if x != y:
            for j in _windows(word, y + x, i + 2):
                yield _reverse(word, i, j), i, j
    if len(word) >= 3:
        if len(set(word[:3])) == 3:
            yield word[3:] + word[:3], _TO_BACK, 0
        if len(set(word[-3:])) == 3:
            yield word[-3:] + word[:-3], _TO_FRONT, 0


def _search(
    seeds: Iterable[str], budget: int, target: str | None = None
) -> tuple[dict[str, str | None], bool]:
    """Breadth-first search from the seeds, expanding moves in canonical
    order and stopping once target is seen.

    Returns (parent, exhausted): parent maps every word seen to the word it
    was first reached from, or None for a seed; exhausted is False when the
    state budget stopped the search with words left to expand.
    """
    parent = dict.fromkeys(seeds)
    queue = deque(parent)
    while queue and target not in parent:
        if len(parent) > budget:
            return parent, False
        current = queue.popleft()
        for nxt, _, _ in _neighbors(current):
            if nxt not in parent:
                parent[nxt] = current
                if nxt == target:
                    break
                queue.append(nxt)
    return parent, not queue


def similar(w1: str, w2: str, budget: int = DEFAULT_BUDGET) -> SimilarityResult:
    """Search for a count-preserving rewrite path from w1 to w2.

    Breadth-first with canonical expansion order, so the returned path is
    shortest and, among shortest paths, lexicographically least in the move
    order.  The move set is closed under inverses, making reachability
    symmetric in the two words.
    """
    _require_budget(budget)
    require_complete(w1)
    require_complete(w2)
    if len(w1) != len(w2):
        raise DomainError(f"length mismatch: {len(w1)} vs {len(w2)}")
    parent, exhausted = _search((w1,), budget, target=w2)
    if w2 not in parent:
        outcome = OUTCOME_NOT_SIMILAR if exhausted else OUTCOME_BUDGET_EXCEEDED
        return SimilarityResult(outcome=outcome, path=None, explored=len(parent))
    moves: list[Move] = []
    node = w2
    while node != w1:
        # The search took the first edge from prev to node in canonical order.
        prev = parent[node]
        i, j = next((i, j) for nxt, i, j in _neighbors(prev) if nxt == node)
        moves.append(PairExchange(i=i, j=j) if j else i)
        node = prev
    moves.reverse()
    return SimilarityResult(
        outcome=OUTCOME_FOUND,
        path=MovePath(start=w1, moves=tuple(moves), end=w2),
        explored=len(parent),
    )


def similarity_class(
    seeds: Iterable[str], budget: int = DEFAULT_BUDGET
) -> tuple[KeysView[str], bool]:
    """All words reachable from the seed set, plus an exhaustion flag.

    Returns (reachable, exhausted); exhausted is False when the state
    budget stopped the search before the frontier emptied, in which case
    membership of absent words is unknown rather than refuted.  reachable
    is a read-only, set-like view of the search's table, not a copy: it
    equals a set of the same words but is not hashable.
    """
    _require_budget(budget)
    seeds = list(seeds)
    for w in seeds:
        require_complete(w)
    parent, exhausted = _search(seeds, budget)
    return parent.keys(), exhausted
