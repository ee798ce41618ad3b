"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's single-pass counting so
they can certify it: pair counts via the O(L^2) all-pairs definition, and
reverse-direction counts via a separate right-to-left scan.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from ntdice import enumerate_words


def brute_counts(word: str) -> tuple[int, int, int]:
    """All-pairs oracle for N(A>B), N(B>C), N(C>A)."""
    ab = bc = ca = 0
    for i in range(len(word)):
        for j in range(i):
            hi, lo = word[i], word[j]
            if hi == "A" and lo == "B":
                ab += 1
            elif hi == "B" and lo == "C":
                bc += 1
            elif hi == "C" and lo == "A":
                ca += 1
    return ab, bc, ca


def brute_reverse_counts(word: str) -> tuple[int, int, int]:
    """Right-to-left oracle for the opposite orientations N(B>A), N(C>B), N(A>C)."""
    ba = cb = ac = 0
    seen_a = seen_b = seen_c = 0
    for ch in reversed(word):
        if ch == "A":
            ba += seen_b
            seen_a += 1
        elif ch == "B":
            cb += seen_c
            seen_b += 1
        else:
            ac += seen_a
            seen_c += 1
    return ba, cb, ac


def random_complete_word(rng: random.Random, n: int) -> str:
    letters = list("A" * n + "B" * n + "C" * n)
    rng.shuffle(letters)
    return "".join(letters)


# Settings of every property test: no deadline and no example database;
# each test also fixes its own @seed.
PROPERTY = settings(deadline=None, database=None, max_examples=300)


def complete_words(max_sides: int) -> st.SearchStrategy[str]:
    """Hypothesis strategy: complete words on 0..max_sides sides."""
    return st.integers(0, max_sides).flatmap(
        lambda n: st.permutations("A" * n + "B" * n + "C" * n).map("".join)
    )


@pytest.fixture(scope="session")
def stats_n6():
    """The full n=6 scan (17,153,136 words), computed once per session."""
    return enumerate_words(6)


@pytest.fixture(scope="session")
def bnt_words_n3() -> list[str]:
    """All balanced non-transitive words on 3 sides, lexicographic."""
    found: list[str] = []
    from ntdice import EnumFilter

    enumerate_words(
        3,
        filt=EnumFilter(balanced=True, nontransitive=True),
        consumer=lambda w, v: found.append(w),
    )
    return found
