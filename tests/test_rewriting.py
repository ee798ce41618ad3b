"""Rewrite moves, fair-word normalization, and similarity search."""

import itertools
import random

import pytest
from hypothesis import given, seed

from ntdice import (
    DomainError,
    MovePath,
    PairExchange,
    TripleRotate,
    TripleShift,
    apply_move,
    classify,
    find_shift_sites,
    normalize_two_letter_fair,
    pair_counts,
    similar,
    similarity_class,
)
from ntdice.rewriting import (
    MoveError,
    OUTCOME_BUDGET_EXCEEDED,
    OUTCOME_FOUND,
    OUTCOME_NOT_SIMILAR,
    move_from_json,
    move_to_json,
    two_letter_wins,
)

from conftest import PROPERTY, complete_words, random_complete_word


def _valid_exchanges(word):
    sites = []
    for i in range(1, len(word)):
        x, y = word[i - 1], word[i]
        if x == y:
            continue
        for j in range(i + 2, len(word)):
            if word[j - 1] == y and word[j] == x:
                sites.append(PairExchange(i=i, j=j))
    return sites


class TestApplyMove:
    def test_pair_exchange(self):
        out = apply_move("ABCCBA", PairExchange(1, 5))
        assert out == "BACCAB"
        assert pair_counts(out).as_tuple() == (2, 2, 2)

    def test_triple_rotate(self):
        out = apply_move("ABCCBA", TripleRotate(to_back=True))
        assert out == "CBAABC"
        assert pair_counts(out).as_tuple() == (2, 2, 2)
        back = apply_move(out, TripleRotate(to_back=False))
        assert back == "ABCCBA"

    def test_triple_shift_raises_each_count(self):
        out = apply_move("ABBCCA", TripleShift(1, 3, 5))
        assert out == "BACBAC"
        assert pair_counts("ABBCCA").as_tuple() == (2, 0, 2)
        assert pair_counts(out).as_tuple() == (3, 1, 3)

    def test_overlapping_windows_rejected(self):
        with pytest.raises(MoveError, match="overlap"):
            apply_move("ABCCBA", PairExchange(1, 2))

    def test_pattern_mismatch_named_window(self):
        with pytest.raises(MoveError, match="window at 3"):
            apply_move("ABCCBA", PairExchange(3, 5))

    def test_out_of_range(self):
        with pytest.raises(MoveError, match="out of range"):
            apply_move("ABCCBA", PairExchange(1, 6))

    def test_rotate_requires_distinct_block(self):
        with pytest.raises(MoveError, match="distinct"):
            apply_move("AABBCC", TripleRotate(to_back=True))

    def test_shift_window_patterns_checked(self):
        with pytest.raises(MoveError, match="expected 'BC'"):
            apply_move("ABBCCA", TripleShift(1, 4, 5))


class TestFindShiftSites:
    def test_single_site(self):
        assert find_shift_sites("ABBCCA") == [TripleShift(1, 3, 5)]

    def test_overlapping_windows_excluded(self):
        assert find_shift_sites("ABCCBA") == []

    def test_no_ca_window(self):
        assert find_shift_sites("AABBCCCCBBAA") == []

    def test_sites_are_leftmost_first(self):
        rng = random.Random(3)
        for _ in range(50):
            word = random_complete_word(rng, 5)
            sites = find_shift_sites(word)
            keyed = [(s.i, s.j, s.k) for s in sites]
            assert keyed == sorted(keyed)

    @seed(20204)
    @PROPERTY
    @given(complete_words(6))
    def test_matches_brute_force_property(self, word):
        cells = range(1, len(word))
        brute = [
            TripleShift(i, j, k)
            for i, j, k in itertools.product(cells, repeat=3)
            if (word[i - 1 : i + 1], word[j - 1 : j + 1], word[k - 1 : k + 1])
            == ("AB", "BC", "CA")
            and min(abs(i - j), abs(i - k), abs(j - k)) >= 2
        ]
        assert find_shift_sites(word) == brute


class TestMoveInvariance:
    def test_exchange_and_rotate_preserve_counts(self):
        rng = random.Random(41)
        cases = 0
        while cases < 1000:
            word = random_complete_word(rng, rng.randint(2, 8))
            moves = list(_valid_exchanges(word))
            if len(set(word[:3])) == 3:
                moves.append(TripleRotate(to_back=True))
            if len(set(word[-3:])) == 3:
                moves.append(TripleRotate(to_back=False))
            if not moves:
                continue
            move = rng.choice(moves)
            assert pair_counts(apply_move(word, move)) == pair_counts(word)
            cases += 1

    def test_shift_increments_all_counts(self):
        rng = random.Random(42)
        cases = 0
        while cases < 1000:
            word = random_complete_word(rng, rng.randint(2, 7))
            sites = find_shift_sites(word)
            if not sites:
                continue
            before = pair_counts(word)
            after = pair_counts(apply_move(word, rng.choice(sites)))
            assert after.as_tuple() == (
                before.ab + 1,
                before.bc + 1,
                before.ca + 1,
            )
            cases += 1


class TestNormalizeTwoLetterFair:
    def test_already_canonical(self):
        path = normalize_two_letter_fair("ABBA")
        assert path.moves == ()
        assert path.end == "ABBA"

    def test_unmixed_fair_word(self):
        path = normalize_two_letter_fair("AABBBBAA")
        assert path.end == "ABBAABBA"
        replay = path.replay()
        assert all(two_letter_wins(w) == 8 for w in replay)

    def test_unfair_rejected(self):
        with pytest.raises(DomainError, match="N\\(A>B\\)=1"):
            normalize_two_letter_fair("ABAB")

    def test_mirrored_target_for_b_start(self):
        path = normalize_two_letter_fair("BAAB")
        assert path.end == "BAAB"
        path = normalize_two_letter_fair("BAABBAAB")
        assert path.end == "BAABBAAB"

    def test_exhaustive_up_to_length_12(self):
        for m in (1, 2, 3):
            length = 4 * m
            fair_value = 2 * m * m
            for positions in itertools.combinations(range(length), 2 * m):
                letters = ["B"] * length
                for i in positions:
                    letters[i] = "A"
                word = "".join(letters)
                if two_letter_wins(word) != fair_value:
                    continue
                path = normalize_two_letter_fair(word)
                target = ("ABBA" if word[0] == "A" else "BAAB") * m
                assert path.end == target
                assert len(path.moves) <= length * length
                assert all(
                    two_letter_wins(w) == fair_value for w in path.replay()
                )

    def test_rejects_three_letter_words(self):
        with pytest.raises(DomainError):
            normalize_two_letter_fair("ABCCBA")

    def test_empty_word(self):
        path = normalize_two_letter_fair("")
        assert path.moves == () and path.end == ""

    def test_odd_structure_rejected(self):
        with pytest.raises(DomainError, match="multiple of 4"):
            normalize_two_letter_fair("AB")
        with pytest.raises(DomainError, match="unequal"):
            normalize_two_letter_fair("AAAB")

    def test_random_larger_fair_words(self):
        rng = random.Random(77)
        done = 0
        while done < 200:
            m = rng.randint(5, 8)
            letters = list("A" * 2 * m + "B" * 2 * m)
            rng.shuffle(letters)
            word = "".join(letters)
            if two_letter_wins(word) != 2 * m * m:
                continue
            path = normalize_two_letter_fair(word)
            assert path.end == ("ABBA" if word[0] == "A" else "BAAB") * m
            assert len(path.moves) <= len(word) ** 2
            done += 1


class TestMovePathSerialization:
    def test_json_round_trip(self):
        path = similar("AABBCCCCBBAA", "ABCCBAABCCBA").path
        assert MovePath.from_json(path.to_json()) == path

    def test_move_kinds(self):
        for move in (
            PairExchange(2, 9),
            TripleRotate(True),
            TripleRotate(False),
            TripleShift(1, 3, 5),
        ):
            assert move_from_json(move_to_json(move)) == move

    @pytest.mark.parametrize(
        "obj",
        [
            {"kind": "triple-shift", "i": 1.9, "j": True, "k": "5"},
            {"kind": "triple-shift", "i": 1, "j": 3, "k": 5.0},
            {"kind": "triple-shift", "i": 1, "j": 3, "k": False},
            {"kind": "triple-shift", "j": 3, "k": 5},
            {"kind": "pair-exchange", "i": 2},
            {"kind": "pair-exchange", "i": "2", "j": 9},
            {"kind": "pair-exchange", "i": 2, "j": None},
            ["pair-exchange", 2, 9],
        ],
    )
    def test_malformed_move_rejected(self, obj):
        with pytest.raises(MoveError):
            move_from_json(obj)

    @pytest.mark.parametrize(
        "field,value",
        [("start", 5), ("start", None), ("end", ["A"]), ("moves", "x"), ("moves", None)],
    )
    def test_malformed_path_rejected(self, field, value):
        obj = similar("AABBCCCCBBAA", "ABCCBAABCCBA").path.to_json()
        obj[field] = value
        with pytest.raises(MoveError):
            MovePath.from_json(obj)
        del obj[field]
        with pytest.raises(MoveError):
            MovePath.from_json(obj)


class TestSimilar:
    def test_reflexive(self):
        result = similar("ACBBACCBA", "ACBBACCBA")
        assert result.outcome == OUTCOME_FOUND
        assert result.path.moves == ()

    def test_block_sorting_chain(self):
        result = similar("AABBCCCCBBAA", "ABCCBAABCCBA")
        assert result.outcome == OUTCOME_FOUND
        replay = result.path.replay()
        assert replay[0] == "AABBCCCCBBAA"
        assert replay[-1] == "ABCCBAABCCBA"
        base = classify("AABBCCCCBBAA")
        assert all(classify(w) == base for w in replay)

    def test_length_mismatch(self):
        with pytest.raises(DomainError, match="length mismatch"):
            similar("ABC", "ABCCBA")

    def test_budget_exhaustion_reported(self):
        result = similar("AABBCCCCBBAA", "ABCCBAABCCBA", budget=3)
        assert result.outcome == OUTCOME_BUDGET_EXCEEDED
        assert result.path is None

    def test_budget_below_one_rejected(self):
        assert similar("AABBCCCCBBAA", "ABCCBAABCCBA", budget=1).explored >= 1
        assert similarity_class(["CBABACACB"], budget=1)[1] is False
        for budget in (0, -1):
            with pytest.raises(DomainError, match="budget"):
                similar("AABBCCCCBBAA", "ABCCBAABCCBA", budget=budget)
            with pytest.raises(DomainError, match="budget"):
                similar("ACBBACCBA", "ACBBACCBA", budget=budget)
            with pytest.raises(DomainError, match="budget"):
                similarity_class(["CBABACACB"], budget=budget)

    def test_proved_negative_is_distinct(self):
        # The two 3-sided orbits carry identical counts (5,5,5) yet admit
        # no connecting move: each is a pure rotation orbit with no valid
        # pair-exchange window anywhere (exhaustively checkable).
        result = similar("ACBBACCBA", "CBABACACB")
        assert result.outcome == OUTCOME_NOT_SIMILAR
        assert result.explored == 3

    def test_similarity_class_of_canonical3(self):
        cls, exhausted = similarity_class(["CBABACACB"])
        assert exhausted
        assert cls == {"CBABACACB", "BACACBCBA", "ACBCBABAC"}

    def test_shortest_path_is_deterministic(self):
        a = similar("AABBCCCCBBAA", "ABCCBAABCCBA")
        b = similar("AABBCCCCBBAA", "ABCCBAABCCBA")
        assert a == b

    def test_reachability_is_symmetric(self):
        # the move set is closed under inverses, so searching from either
        # end agrees on reachability and on shortest path length
        forward = similar("AABBCCCCBBAA", "ABCCBAABCCBA")
        backward = similar("ABCCBAABCCBA", "AABBCCCCBBAA")
        assert forward.outcome == backward.outcome == OUTCOME_FOUND
        assert len(forward.path.moves) == len(backward.path.moves)
        assert similar("CBABACACB", "ACBBACCBA").outcome == OUTCOME_NOT_SIMILAR

    def test_four_sided_words_form_one_class(self):
        # the 3-sided disconnection is a length-9 anomaly: on 4 sides all
        # 18 balanced non-transitive words are mutually similar
        from ntdice import EnumFilter, enumerate_words
        from ntdice.constructions import DENSE4, SEED4

        words = []
        enumerate_words(
            4,
            filt=EnumFilter(balanced=True, nontransitive=True),
            consumer=lambda w, v: words.append(w),
        )
        assert len(words) == 18
        cls, exhausted = similarity_class([SEED4])
        assert exhausted
        assert cls == frozenset(words)
        assert similar(SEED4, DENSE4).outcome == OUTCOME_FOUND
