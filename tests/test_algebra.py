"""Concatenation laws, combined probabilities, irreducibility."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

from ntdice import (
    DomainError,
    EnumFilter,
    IncompleteWordError,
    IrreducibilityReport,
    WordFormatError,
    classify,
    combined_probability,
    concat,
    enumerate_words,
    is_irreducible,
    pair_counts,
    predict_counts,
)
from ntdice.algebra import verify_concat_law
from ntdice.constructions import FAIR_BLOCK, SEED3, SEED4, construct_irreducible

from conftest import PROPERTY, complete_words, random_complete_word


def reference_is_irreducible(word: str) -> IrreducibilityReport:
    """The former implementation: classify every qualifying prefix and
    suffix from scratch, O(L^2) overall."""
    verdict = classify(word)
    if not (verdict.balanced and verdict.nontransitive):
        raise DomainError(
            "irreducibility is defined only for balanced non-transitive words"
        )
    na = nb = nc = 0
    for pos, ch in enumerate(word[:-1], start=1):
        if ch == "A":
            na += 1
        elif ch == "B":
            nb += 1
        else:
            nc += 1
        if pos % 3 or not (na == nb == nc):
            continue
        left = classify(word[:pos])
        if not (left.balanced and left.nontransitive):
            continue
        right = classify(word[pos:])
        if right.balanced and right.nontransitive:
            return IrreducibilityReport(irreducible=False, witness_split=pos)
    return IrreducibilityReport(irreducible=True, witness_split=None)


def _balanced_words(n: int) -> list[str]:
    words: list[str] = []
    enumerate_words(n, filt=EnumFilter(balanced=True), consumer=lambda w, v: words.append(w))
    return words


# every balanced word on 2 and 3 sides: the fair ones, the balanced
# non-transitive ones and the balanced transitive ones
BALANCED_PIECES = _balanced_words(2) + _balanced_words(3)


class TestConcat:
    def test_counts_add_with_cross_term(self):
        word = concat("ABCCBA", "ACBBACCBA")
        assert pair_counts(word).as_tuple() == (13, 13, 13)

    def test_empty_right_identity(self):
        assert concat("ACBBACCBA", "") == "ACBBACCBA"
        assert pair_counts(concat("ACBBACCBA", "")).as_tuple() == (5, 5, 5)

    def test_fair_block_squared_stays_fair(self):
        word = concat("ABCCBA", "ABCCBA")
        assert pair_counts(word).as_tuple() == (8, 8, 8)
        assert classify(word).fair

    def test_incomplete_operand_rejected(self):
        with pytest.raises(IncompleteWordError):
            concat("AB", "ABC")
        with pytest.raises(IncompleteWordError):
            concat("ABC", "AB")


class TestPredictCounts:
    def test_prediction_matches_examples(self):
        left = pair_counts("ABCCBA")
        right = pair_counts("ACBBACCBA")
        pred = predict_counts(left, right)
        assert pred.predicted.as_tuple() == (13, 13, 13)
        assert pred.predicted.n == 5

    def test_empty_identity(self):
        left = pair_counts("")
        right = pair_counts("ACBBACCBA")
        assert predict_counts(left, right).predicted == right

    def test_double_seed3(self):
        c = pair_counts(SEED3)
        pred = predict_counts(c, c).predicted
        assert pred.as_tuple() == (19, 19, 19)
        assert pair_counts(SEED3 + SEED3) == pred

    def test_law_on_random_pairs(self):
        rng = random.Random(11)
        for _ in range(200):
            w1 = random_complete_word(rng, rng.randint(1, 8))
            w2 = random_complete_word(rng, rng.randint(1, 8))
            assert verify_concat_law(w1, w2)

    @seed(20201)
    @PROPERTY
    @given(complete_words(8), complete_words(8))
    def test_law_property(self, w1, w2):
        left, right = pair_counts(w1), pair_counts(w2)
        assert pair_counts(concat(w1, w2)) == predict_counts(left, right).predicted


class TestCombinedProbability:
    def test_fair_plus_fair(self):
        assert combined_probability(2, 2, 2, 2) == Fraction(1, 2)

    def test_known_values(self):
        assert combined_probability(2, 2, 3, 5) == Fraction(13, 25)
        assert combined_probability(3, 5, 3, 5) == Fraction(19, 36)

    def test_agrees_with_scanned_concat(self):
        rng = random.Random(12)
        for _ in range(100):
            w1 = random_complete_word(rng, rng.randint(1, 6))
            w2 = random_complete_word(rng, rng.randint(1, 6))
            c1, c2 = pair_counts(w1), pair_counts(w2)
            got = combined_probability(c1.n, c1.ab, c2.n, c2.ab)
            joint = pair_counts(w1 + w2)
            assert got == Fraction(joint.ab, joint.n**2)

    def test_counts_out_of_range(self):
        with pytest.raises(DomainError):
            combined_probability(2, 5, 2, 2)
        with pytest.raises(DomainError, match="count 5 outside 0..4"):
            combined_probability(2, 2, 2, 5)

    def test_two_empty_words_rejected(self):
        with pytest.raises(DomainError, match="^empty word has no win probabilities$"):
            combined_probability(0, 0, 0, 0)


class TestIrreducibility:
    def test_seed3_irreducible(self):
        assert is_irreducible("ACBBACCBA").irreducible

    def test_explicit_split_found(self):
        report = is_irreducible("ACBBACCBAACBBACCBA")
        assert not report.irreducible
        assert report.witness_split == 9

    def test_fair_block_prefix_stays_irreducible(self):
        report = is_irreducible(concat("ABCCBA", "ACBBACCBA"))
        assert report.irreducible

    def test_rejects_non_qualifying_words(self):
        with pytest.raises(DomainError):
            is_irreducible("ABCCBA")  # fair, not non-transitive

    def test_error_contract(self):
        transitive = next(w for w in _balanced_words(3) if 2 * pair_counts(w).ab < 9)
        not_bnt = "irreducibility is defined only for balanced non-transitive words"
        cases = [
            ("", DomainError, "empty word has no win probabilities"),
            ("AB", IncompleteWordError, "incomplete word: counts 1,1,0"),
            ("ABX", WordFormatError, "illegal character 'X' at position 3"),
            ("ABCCBA", DomainError, not_bnt),
            (transitive, DomainError, not_bnt),
        ]
        for word, error, message in cases:
            with pytest.raises(error) as caught:
                is_irreducible(word)
            assert type(caught.value) is error, word
            assert str(caught.value) == message, word

    def test_witness_is_self_certifying(self):
        word = construct_irreducible(3) + construct_irreducible(4)
        report = is_irreducible(word)
        assert not report.irreducible
        s = report.witness_split
        for part in (word[:s], word[s:]):
            v = classify(part)
            assert v.balanced and v.nontransitive

    def test_matches_reference_on_products(self, bnt_words_n3):
        words = [construct_irreducible(n) for n in range(3, 40)]
        for a in bnt_words_n3 + [FAIR_BLOCK, SEED4]:
            for b in bnt_words_n3 + [SEED4]:
                words += [a + b, a + FAIR_BLOCK + b, FAIR_BLOCK + a + b + a]
        reducible = 0
        for word in words:
            report = is_irreducible(word)
            assert report == reference_is_irreducible(word), word
            reducible += not report.irreducible
        assert 0 < reducible < len(words)

    @seed(20202)
    @PROPERTY
    @given(st.lists(st.sampled_from(BALANCED_PIECES), min_size=1, max_size=5))
    def test_matches_reference_property(self, pieces):
        word = "".join(pieces)
        verdict = classify(word)
        if not (verdict.balanced and verdict.nontransitive):
            with pytest.raises(DomainError):
                is_irreducible(word)
            return
        assert is_irreducible(word) == reference_is_irreducible(word)


class TestPrependFairBlock:
    def test_preserves_balanced_nontransitive(self, bnt_words_n3):
        corpus = list(bnt_words_n3)
        corpus += [construct_irreducible(n) for n in range(3, 11)]
        for word in corpus:
            v = classify(concat(FAIR_BLOCK, word))
            assert v.balanced and v.nontransitive


class TestFairBlockPowersPlusTriple:
    def test_never_balanced(self):
        # the trailing ABC contributes one extra C-over-A pair, so the
        # third count always exceeds the other two by exactly 1
        for k in range(0, 21):
            counts = pair_counts(FAIR_BLOCK * k + "ABC")
            assert counts.ca == counts.ab + 1 == counts.bc + 1
            assert not classify(FAIR_BLOCK * k + "ABC").balanced
