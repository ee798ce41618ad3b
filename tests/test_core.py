"""Core word/dice types, exact counting, and classification."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, seed

from ntdice import (
    DiceSet,
    DiceSetError,
    DomainError,
    IncompleteWordError,
    WordFormatError,
    classify,
    dice_from_word,
    pair_counts,
    parse_word,
    word_from_dice,
)

from conftest import (
    PROPERTY,
    brute_counts,
    brute_reverse_counts,
    complete_words,
    random_complete_word,
)

RELABEL = str.maketrans("ABC", "BCA")


class TestParseWord:
    def test_complete_word(self):
        w = parse_word("ACBBACCBA")
        assert w.complete
        assert w.n == 3
        assert w.counts == (3, 3, 3)

    def test_incomplete_word_flagged(self):
        w = parse_word("ABCA")
        assert not w.complete
        assert w.counts == (2, 1, 1)
        with pytest.raises(IncompleteWordError, match="counts 2,1,1"):
            _ = w.n

    def test_illegal_character(self):
        with pytest.raises(WordFormatError, match="'X' at position 2"):
            parse_word("AXB")

    def test_empty_word_is_complete(self):
        assert parse_word("").complete


class TestDiceWordConversion:
    def test_word_from_dice_3_sided(self):
        d = DiceSet(
            n=3,
            a=frozenset({9, 5, 1}),
            b=frozenset({8, 4, 3}),
            c=frozenset({7, 6, 2}),
        )
        assert word_from_dice(d) == "ACBBACCBA"

    def test_word_from_dice_identity_layout(self):
        d = DiceSet(n=1, a=frozenset({1}), b=frozenset({2}), c=frozenset({3}))
        assert word_from_dice(d) == "ABC"

    def test_word_from_dice_4_sided(self):
        d = DiceSet(
            n=4,
            a=frozenset({10, 7, 5, 4}),
            b=frozenset({12, 9, 3, 2}),
            c=frozenset({11, 8, 6, 1}),
        )
        assert word_from_dice(d) == "CBBAACACBACB"

    def test_dice_from_word(self):
        d = dice_from_word("ABCCBA")
        assert d == DiceSet(
            n=2, a=frozenset({1, 6}), b=frozenset({2, 5}), c=frozenset({3, 4})
        )
        assert dice_from_word("ABC") == DiceSet(
            n=1, a=frozenset({1}), b=frozenset({2}), c=frozenset({3})
        )
        assert dice_from_word("ACBBACCBA") == DiceSet(
            n=3,
            a=frozenset({1, 5, 9}),
            b=frozenset({3, 4, 8}),
            c=frozenset({2, 6, 7}),
        )

    def test_dice_from_incomplete_word(self):
        with pytest.raises(IncompleteWordError):
            dice_from_word("ABCA")

    def test_overlapping_labels_named(self):
        d = DiceSet(
            n=1, a=frozenset({1}), b=frozenset({1}), c=frozenset({3})
        )
        with pytest.raises(DiceSetError, match="label 1"):
            word_from_dice(d)

    def test_out_of_range_label_named(self):
        d = DiceSet(n=1, a=frozenset({1}), b=frozenset({2}), c=frozenset({7}))
        with pytest.raises(DiceSetError, match="label 7"):
            word_from_dice(d)

    def test_wrong_die_size(self):
        d = DiceSet(n=2, a=frozenset({1}), b=frozenset({2, 5}), c=frozenset({3, 4}))
        with pytest.raises(DiceSetError, match="die A"):
            word_from_dice(d)
        empty = DiceSet(n=0, a=frozenset(), b=frozenset(), c=frozenset())
        with pytest.raises(DiceSetError, match="sides must be positive"):
            word_from_dice(empty)

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 8)
            word = random_complete_word(rng, n)
            assert word_from_dice(dice_from_word(word)) == word
        d = dice_from_word(random_complete_word(rng, 5))
        assert dice_from_word(word_from_dice(d)) == d

    def test_json_round_trip(self):
        d = dice_from_word("ACBBACCBA")
        assert DiceSet.from_json(d.to_json()) == d

    @pytest.mark.parametrize(
        "obj",
        [
            {"n": 3.7, "A": [1.9, 5.2, 9.0], "B": [3, 4, 8, 8], "C": [2, 6, 7]},
            {"n": 3, "A": [1, 5, 9], "B": [3, 4, 8, 8], "C": [2, 6, 7]},
            {"n": 3, "A": [1, 5, 9], "B": [3, 4, 4], "C": [2, 6, 7]},
            {"n": 3, "A": [1, 5, 9], "B": [3, 4], "C": [2, 6, 7]},
            {"n": 3, "A": [1, 5, 9], "B": ["3", 4, 8], "C": [2, 6, 7]},
            {"n": 3, "A": [1, 5, 9.0], "B": [3, 4, 8], "C": [2, 6, 7]},
            {"n": 3, "A": [1, 5, True], "B": [3, 4, 8], "C": [2, 6, 7]},
            {"n": True, "A": [1], "B": [2], "C": [3]},
            {"n": "3", "A": [1, 5, 9], "B": [3, 4, 8], "C": [2, 6, 7]},
            {"n": 3, "A": [1, 5, 9], "B": [3, 4, 8]},
            {"n": 3, "A": (1, 5, 9), "B": [3, 4, 8], "C": [2, 6, 7]},
            [3, [1, 5, 9], [3, 4, 8], [2, 6, 7]],
        ],
    )
    def test_from_json_requires_exact_ints_and_n_distinct_labels(self, obj):
        with pytest.raises(DiceSetError):
            DiceSet.from_json(obj)


class TestPairCounts:
    def test_known_words(self):
        assert pair_counts("ACBBACCBA").as_tuple() == (5, 5, 5)
        assert pair_counts("CBBAACACBACBABCCBA").as_tuple() == (19, 19, 19)
        assert pair_counts("ABC").as_tuple() == (0, 0, 1)

    def test_incomplete_rejected(self):
        with pytest.raises(IncompleteWordError):
            pair_counts("AAB")

    def test_scan_matches_all_pairs_oracle(self):
        rng = random.Random(20240)
        for _ in range(1000):
            n = rng.randint(1, 12)
            word = random_complete_word(rng, n)
            counts = pair_counts(word)
            assert counts.as_tuple() == brute_counts(word)

    def test_complement_law(self):
        # each orientation pair partitions the n^2 label pairs
        rng = random.Random(99)
        for _ in range(300):
            n = rng.randint(1, 10)
            word = random_complete_word(rng, n)
            counts = pair_counts(word)
            ba, cb, ac = brute_reverse_counts(word)
            assert counts.ab + ba == n * n
            assert counts.bc + cb == n * n
            assert counts.ca + ac == n * n


class TestClassify:
    def test_balanced_nontransitive(self):
        v = classify("ACBBACCBA")
        assert v.balanced and v.nontransitive and not v.fair
        assert v.p_ab == v.p_bc == v.p_ca == Fraction(5, 9)

    def test_fair(self):
        v = classify("ABCCBA")
        assert v.balanced and v.fair and not v.nontransitive
        assert v.p_ab == Fraction(1, 2)

    def test_all_flags_false(self):
        v = classify("ABC")
        assert not v.balanced and not v.nontransitive and not v.fair

    def test_fair_forces_even_sides(self):
        rng = random.Random(5)
        seen_fair = 0
        for _ in range(3000):
            n = rng.randint(1, 6)
            v = classify(random_complete_word(rng, n))
            if v.fair:
                seen_fair += 1
                assert n % 2 == 0
        assert seen_fair  # the property was actually exercised

    def test_empty_word_rejected(self):
        with pytest.raises(DomainError):
            classify("")


class TestCountingProperties:
    @seed(20203)
    @PROPERTY
    @given(complete_words(10))
    def test_pair_counts_match_all_pairs_oracle(self, word):
        assert pair_counts(word).as_tuple() == brute_counts(word)

    @seed(20204)
    @PROPERTY
    @given(complete_words(10))
    def test_cyclic_relabel_rotates_counts(self, word):
        # A -> B -> C -> A turns N(C>A) into N(A>B), N(A>B) into N(B>C)
        # and N(B>C) into N(C>A)
        ab, bc, ca = pair_counts(word).as_tuple()
        assert pair_counts(word.translate(RELABEL)).as_tuple() == (ca, ab, bc)
