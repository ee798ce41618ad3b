"""Reference computations the benchmark checks ntdice against.

Nothing here imports ntdice.  Each function recomputes a quantity by a
route the package does not take, so agreement is evidence that the
package's answer is right, not merely repeatable:

* win counts by the all-pairs definition (small words) or by bisecting
  sorted label lists (large words), never by the package's running scan;
* the word total as a product of two binomials;
* balanced histograms by brute force (n <= 4) or by a layered count DP
  (n = 5, 6) that tracks (N(A>B), N(B>C), N(C>A)) per letter-count state;
* similarity classes by a breadth-first closure over its own move
  generator, and move paths replayed by its own window checks;
* irreducibility by one prefix scan plus the concatenation law;
* the shift-round polynomials of the block family, evaluated directly.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from fractions import Fraction


def multinomial(n: int) -> int:
    """(3n)! / (n!)^3 as C(3n, n) * C(2n, n)."""
    return math.comb(3 * n, n) * math.comb(2 * n, n)


def labels(word: str) -> dict[str, list[int]]:
    """1-based positions of each letter, ascending."""
    out: dict[str, list[int]] = {"A": [], "B": [], "C": []}
    for pos, ch in enumerate(word, start=1):
        out[ch].append(pos)
    return out


def wins_all_pairs(word: str) -> tuple[int, int, int]:
    """N(A>B), N(B>C), N(C>A) by comparing every pair of labels."""
    lab = labels(word)
    a, b, c = lab["A"], lab["B"], lab["C"]
    return (
        sum(1 for x in a for y in b if x > y),
        sum(1 for x in b for y in c if x > y),
        sum(1 for x in c for y in a if x > y),
    )


def wins_sorted(word: str) -> tuple[int, int, int]:
    """The same counts in O(n log n), by bisecting the sorted label lists."""
    lab = labels(word)
    a, b, c = lab["A"], lab["B"], lab["C"]
    return (
        sum(bisect_left(b, x) for x in a),
        sum(bisect_left(c, x) for x in b),
        sum(bisect_left(a, x) for x in c),
    )


def flags(counts: tuple[int, int, int], n: int) -> tuple[bool, bool, bool]:
    """(balanced, non-transitive, fair) from integer counts."""
    ab, bc, ca = counts
    sq = n * n
    return (
        ab == bc == ca,
        min(counts) * 2 > sq,
        ab * 2 == sq and bc * 2 == sq and ca * 2 == sq,
    )


def all_words(n: int) -> list[str]:
    """Every complete word on n sides, in lexicographic order."""
    out: list[str] = []

    def rec(prefix: str, a: int, b: int, c: int) -> None:
        if a == b == c == n:
            out.append(prefix)
            return
        if a < n:
            rec(prefix + "A", a + 1, b, c)
        if b < n:
            rec(prefix + "B", a, b + 1, c)
        if c < n:
            rec(prefix + "C", a, b, c + 1)

    rec("", 0, 0, 0)
    return out


def brute_census(n: int) -> dict[tuple[int, int, int], list[str]]:
    """Every complete word on n sides grouped by its all-pairs counts
    (feasible for n <= 4: 34,650 words at n = 4)."""
    groups: dict[tuple[int, int, int], list[str]] = {}
    for word in all_words(n):
        groups.setdefault(wins_all_pairs(word), []).append(word)
    return groups


def balanced_histogram_brute(n: int) -> dict[int, int]:
    """Common count -> number of balanced words, by brute force."""
    return {
        counts[0]: len(words)
        for counts, words in sorted(brute_census(n).items())
        if counts[0] == counts[1] == counts[2]
    }


def balanced_histogram_dp(n: int) -> dict[int, int]:
    """Common count -> number of balanced words, by a layered count DP.

    Words are read left to right.  A state is the letters placed so far
    (na, nb, nc) and the running counts (ab, bc, ca); placing an A adds nb
    to ab, a B adds nc to bc, a C adds na to ca.  Each remaining A adds
    between nb and n to ab, so the final ab lies in [ab + ra*nb, ab + ra*n]
    (likewise bc, ca); a state whose three intervals do not meet can never
    end balanced and is dropped.
    """
    layer: dict[tuple[int, int, int], dict[tuple[int, int, int], int]] = {
        (0, 0, 0): {(0, 0, 0): 1}
    }
    for _ in range(3 * n):
        nxt: dict[tuple[int, int, int], dict[tuple[int, int, int], int]] = {}
        for (na, nb, nc), triples in layer.items():
            for letter in "ABC":
                if letter == "A" and na < n:
                    state, step = (na + 1, nb, nc), (nb, 0, 0)
                elif letter == "B" and nb < n:
                    state, step = (na, nb + 1, nc), (0, nc, 0)
                elif letter == "C" and nc < n:
                    state, step = (na, nb, nc + 1), (0, 0, na)
                else:
                    continue
                pa, pb, pc = state
                ra, rb, rc = n - pa, n - pb, n - pc
                dest = nxt.setdefault(state, {})
                for (ab, bc, ca), mult in triples.items():
                    ab2, bc2, ca2 = ab + step[0], bc + step[1], ca + step[2]
                    lo = max(ab2 + ra * pb, bc2 + rb * pc, ca2 + rc * pa)
                    hi = min(ab2 + ra * n, bc2 + rb * n, ca2 + rc * n)
                    if lo > hi:
                        continue
                    key = (ab2, bc2, ca2)
                    dest[key] = dest.get(key, 0) + mult
        layer = nxt
    final = layer.get((n, n, n), {})
    return {
        ab: mult for (ab, bc, ca), mult in sorted(final.items()) if ab == bc == ca
    }


def census_summary(n: int, hist: dict[int, int]) -> dict:
    """Counts and maximum that an exhaustive scan at n must report."""
    sq = n * n
    nontransitive = [v for v in hist if 2 * v > sq]
    return {
        "total_words": multinomial(n),
        "count_balanced": sum(hist.values()),
        "count_balanced_nontransitive": sum(hist[v] for v in nontransitive),
        "count_fair": hist.get(sq // 2, 0) if sq % 2 == 0 else 0,
        "max_prob": Fraction(max(nontransitive), sq) if nontransitive else None,
        "histogram": {Fraction(v, sq): c for v, c in hist.items()},
    }


# ---------------------------------------------------------------------------
# Moves, paths and similarity
# ---------------------------------------------------------------------------


def _swap_windows(word: str, i: int, j: int) -> str:
    w = list(word)
    w[i - 1], w[i] = w[i], w[i - 1]
    w[j - 1], w[j] = w[j], w[j - 1]
    return "".join(w)


def neighbors(word: str) -> set[str]:
    """Words one count-preserving move away: two disjoint windows reading
    xy and yx reversed together, or a leading/trailing block of three
    distinct letters moved to the other end."""
    out = set()
    length = len(word)
    for i in range(1, length):
        x, y = word[i - 1], word[i]
        if x == y:
            continue
        for j in range(i + 2, length):
            if word[j - 1] == y and word[j] == x:
                out.add(_swap_windows(word, i, j))
    if length >= 3 and len(set(word[:3])) == 3:
        out.add(word[3:] + word[:3])
    if length >= 3 and len(set(word[-3:])) == 3:
        out.add(word[-3:] + word[:-3])
    return out


def closure(seeds) -> set[str]:
    """Every word reachable from the seeds by count-preserving moves."""
    seen = set(seeds)
    queue = deque(seen)
    while queue:
        for nxt in neighbors(queue.popleft()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def distance(w1: str, w2: str) -> int | None:
    """Fewest count-preserving moves from w1 to w2, or None."""
    dist = {w1: 0}
    queue = deque([w1])
    while queue:
        cur = queue.popleft()
        if cur == w2:
            return dist[cur]
        for nxt in neighbors(cur):
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    return None


def _window(word: str, pos: int) -> str:
    if not 1 <= pos <= len(word) - 1:
        raise ValueError(f"window {pos} outside a word of length {len(word)}")
    return word[pos - 1 : pos + 1]


def replay_move(word: str, move: dict) -> str:
    """Apply one move given in the package's JSON form, checking each
    window it names; raises ValueError on a move that does not fit."""
    kind = move["kind"]
    if kind == "pair-exchange":
        i, j = move["i"], move["j"]
        wi, wj = _window(word, i), _window(word, j)
        if abs(i - j) < 2 or wi[0] == wi[1] or wj != wi[::-1]:
            raise ValueError(f"pair-exchange {i},{j} does not fit {word}")
        return _swap_windows(word, i, j)
    if kind == "triple-shift":
        pos = (move["i"], move["j"], move["k"])
        if [_window(word, p) for p in pos] != ["AB", "BC", "CA"]:
            raise ValueError(f"triple-shift {pos} does not fit {word}")
        if min(abs(p - q) for p, q in ((pos[0], pos[1]), (pos[0], pos[2]), (pos[1], pos[2]))) < 2:
            raise ValueError(f"triple-shift windows {pos} overlap")
        w = list(word)
        for p in pos:
            w[p - 1], w[p] = w[p], w[p - 1]
        return "".join(w)
    if kind in ("rotate-front-to-back", "rotate-back-to-front"):
        front = kind == "rotate-front-to-back"
        block = word[:3] if front else word[-3:]
        if len(word) < 3 or len(set(block)) != 3:
            raise ValueError(f"{kind} does not fit {word}")
        return word[3:] + word[:3] if front else word[-3:] + word[:-3]
    raise ValueError(f"unknown move kind {kind!r}")


def replay_path(path: dict) -> tuple[str, int]:
    """Replay a JSON move path; return (end word, triple shifts applied).
    Raises ValueError when a move does not fit or the end differs."""
    word = path["start"]
    shifts = 0
    for move in path["moves"]:
        word = replay_move(word, move)
        shifts += move["kind"] == "triple-shift"
    if word != path["end"]:
        raise ValueError(f"path replays to {word}, claims {path['end']}")
    return word, shifts


# ---------------------------------------------------------------------------
# Irreducibility and the block family
# ---------------------------------------------------------------------------


def irreducible_split(word: str) -> int | None:
    """First split point whose prefix and suffix are both balanced and
    non-transitive, or None.  Prefix counts come from one running scan;
    suffix counts from the concatenation law
    N(suffix) = N(word) - N(prefix) - m*(n - m) for an m-sided prefix."""
    n = len(word) // 3
    total = wins_sorted(word)
    na = nb = nc = ab = bc = ca = 0
    for pos, ch in enumerate(word[:-1], start=1):
        if ch == "A":
            ab += nb
            na += 1
        elif ch == "B":
            bc += nc
            nb += 1
        else:
            ca += na
            nc += 1
        if not na == nb == nc:
            continue
        m = na
        left = (ab, bc, ca)
        right = tuple(t - p - m * (n - m) for t, p in zip(total, left))
        lb, lnt, _ = flags(left, m)
        rb, rnt, _ = flags(right, n - m)
        if lb and lnt and rb and rnt:
            return pos
    return None


def round_poly(n: int, m: int) -> int:
    """The block family's admissibility polynomial at m for even n >= 6:
    n = 6p: m^2 - 13p*m + 4p^2; n = 6p+2: m^2 - (13p+4)m + 4p^2-p-1;
    n = 6p+4: m^2 - (13p+8)m + 4p^2-2p-4."""
    p, r = divmod(n, 6)
    lin, const = {
        0: (13 * p, 4 * p * p),
        2: (13 * p + 4, 4 * p * p - p - 1),
        4: (13 * p + 8, 4 * p * p - 2 * p - 4),
    }[r]
    return m * m - lin * m + const


def rounds_ok(n: int, m: int) -> bool:
    """m extra rounds are admissible (m = 0 always is) and m + 1 are not."""
    return (m == 0 or round_poly(n, m) >= 0) and round_poly(n, m + 1) < 0


def surd_in(lo: Fraction, hi: Fraction, a: int, b: int, c: int, d: int) -> bool:
    """lo <= (a + b*sqrt(d))/c <= hi, decided in integers (c > 0)."""

    def le(x: Fraction) -> bool:  # x <= (a + b*sqrt(d))/c  <=>  c*x - a <= b*sqrt(d)
        t = c * x - a
        if b >= 0:
            return t <= 0 or t * t <= b * b * d
        return t <= 0 and t * t >= b * b * d

    def ge(x: Fraction) -> bool:  # x >= value  <=>  b*sqrt(d) <= c*x - a
        t = c * x - a
        if b >= 0:
            return t >= 0 and b * b * d <= t * t
        return t >= 0 or b * b * d >= t * t

    return le(lo) and ge(hi)
