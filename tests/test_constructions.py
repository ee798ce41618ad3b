"""Construction families, the shift optimizer, and exact surd bounds."""

import math
from fractions import Fraction

import pytest

from ntdice import (
    DomainError,
    PairExchange,
    TripleShift,
    classify,
    is_irreducible,
    pair_counts,
    word_from_dice,
)
from ntdice.constructions import (
    CANONICAL3,
    DENSE4,
    FAIR_BLOCK,
    LIMIT_EXCESS,
    LIMIT_EXCESS_SHORTENED,
    LIMIT_EXCESS_VARIANT_154,
    REFERENCE_DICE_TABLES,
    SEED3,
    SEED4,
    STAGE_MIXED_FAIR,
    STAGE_SHIFTED,
    STAGE_UNMIXED_FAIR,
    SurdValue,
    base_words,
    bound_report,
    certify_root_monotonicity,
    construct_irreducible,
    construct_near_half,
    max_shift_rounds,
    optimize_max_prob,
    stage_word,
)


class TestBaseWords:
    def test_fair_block(self):
        assert classify(FAIR_BLOCK).fair

    def test_seeds_irreducible(self):
        for word in (SEED3, SEED4, CANONICAL3):
            v = classify(word)
            assert v.balanced and v.nontransitive
            assert is_irreducible(word).irreducible

    def test_dense4_counts(self):
        assert pair_counts(DENSE4).as_tuple() == (9, 9, 9)
        assert classify(DENSE4).p_ab == Fraction(9, 16)

    def test_accessor(self):
        words = base_words()
        assert words.fair_block == FAIR_BLOCK
        assert words.dense4 == DENSE4


class TestConstructIrreducible:
    def test_known_small_cases(self):
        assert construct_irreducible(3) == "ACBBACCBA"
        assert construct_irreducible(4) == "CBBAACACBACB"
        assert construct_irreducible(5) == FAIR_BLOCK + SEED3
        assert pair_counts(construct_irreducible(5)).as_tuple() == (13, 13, 13)

    def test_counts_formula(self):
        for n in range(3, 25):
            counts = pair_counts(construct_irreducible(n))
            expect = (n * n + 2) // 2
            assert counts.as_tuple() == (expect, expect, expect)

    def test_rejects_small_n(self):
        for n in (0, 1, 2):
            with pytest.raises(DomainError):
                construct_irreducible(n)


class TestConstructNearHalf:
    def test_first_member(self):
        word = construct_near_half(1)
        assert word == "ACBCBABAC"
        assert pair_counts(word).as_tuple() == (5, 5, 5)

    def test_counts_and_excess(self):
        for m in (2, 3, 10):
            word = construct_near_half(m)
            n = 2 * m + 1
            v = classify(word)
            assert v.counts.as_tuple() == (2 * m * m + 2 * m + 1,) * 3
            assert v.p_ab - Fraction(1, 2) == Fraction(1, 2 * n * n)
            assert v.balanced and v.nontransitive

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            construct_near_half(0)


class TestStageWords:
    def test_unmixed_fair_display(self):
        assert stage_word(6, STAGE_UNMIXED_FAIR) == "AAABBBCCCCCCBBBAAA"

    def test_shifted_probability_at_6(self):
        v = classify(stage_word(6, STAGE_SHIFTED))
        assert v.counts.as_tuple() == (21, 21, 21)
        assert v.p_ab == Fraction(7, 12)

    def test_shifted_excess_at_8(self):
        v = classify(stage_word(8, STAGE_SHIFTED))
        assert v.p_ab - Fraction(1, 2) == Fraction(1, 16)
        assert v.p_ab == Fraction(9, 16)

    @pytest.mark.parametrize("n", [6, 8, 10, 12, 14, 16, 18, 20, 22, 24])
    def test_stage_contracts(self, n):
        p, h = n // 6, n // 2
        assert classify(stage_word(n, STAGE_UNMIXED_FAIR)).fair
        mixed = stage_word(n, STAGE_MIXED_FAIR)
        assert classify(mixed).fair
        assert "CA" in mixed
        v = classify(stage_word(n, STAGE_SHIFTED))
        assert v.balanced and v.nontransitive
        assert v.p_ab - Fraction(1, 2) == Fraction(p * h, n * n)

    def test_rejects_bad_n(self):
        for n in (4, 5, 7, 9):
            with pytest.raises(DomainError):
                stage_word(n, STAGE_UNMIXED_FAIR)
        with pytest.raises(DomainError):
            stage_word(6, "nonsense")


class TestMaxShiftRounds:
    def test_examples(self):
        assert max_shift_rounds(6) == 0   # 1 - 13 + 4 < 0 at m=1
        assert max_shift_rounds(8) == 0   # 1 - 17 + 2 < 0 at m=1
        assert max_shift_rounds(12) == 0  # 1 - 26 + 16 < 0 at m=1
        assert max_shift_rounds(24) == 1  # 1 - 52 + 64 >= 0, m=2 fails

    def test_infeasible_round_means_zero(self):
        assert max_shift_rounds(10) == 0

    def test_matches_root_floor(self):
        # sqrt(153 p^2) is irrational (153 = 9 * 17), so the real root
        # p(13 - sqrt(153))/2 floors to (13p - isqrt(153 p^2) - 1) // 2
        for p in (1, 2, 3, 4, 5, 10, 77, 1000, 123456):
            s = math.isqrt(153 * p * p)
            assert max_shift_rounds(6 * p) == (13 * p - s - 1) // 2

    @pytest.mark.parametrize("residue", [0, 2, 4])
    def test_result_is_the_last_admissible_round_count(self, residue):
        # independent of any root formula: evaluate the residue's polynomial
        # at m and m + 1 (m = 0 also when even one round is infeasible)
        for p in list(range(1, 400)) + [10**5 + 7, 10**6]:
            n = 6 * p + residue
            lin, const = {
                0: (13 * p, 4 * p * p),
                2: (13 * p + 4, 4 * p * p - p - 1),
                4: (13 * p + 8, 4 * p * p - 2 * p - 4),
            }[residue]
            m = max_shift_rounds(n)
            assert 0 <= m <= 2 * p
            if const < 0:
                assert m == 0
                continue
            assert m * m - lin * m + const >= 0, n
            assert m == 2 * p or (m + 1) ** 2 - lin * (m + 1) + const < 0, n


class TestOptimizer:
    @pytest.mark.parametrize("n,prob", [(6, Fraction(7, 12)), (8, Fraction(9, 16)), (12, Fraction(7, 12))])
    def test_zero_round_targets(self, n, prob):
        report = optimize_max_prob(n)
        assert report.rounds == 0
        assert report.gap == 0
        assert Fraction(report.achieved.ab, n * n) == prob

    def test_one_round_at_24(self):
        report = optimize_max_prob(24)
        assert report.rounds == 1
        assert report.gap == 0
        assert report.achieved.as_tuple() == (348, 348, 348)
        # replay the log: exchanges never change counts, shifts add one
        from ntdice import apply_move

        word = report.moves.start
        counts = pair_counts(word).as_tuple()
        for move in report.moves.moves:
            word = apply_move(word, move)
            new_counts = pair_counts(word).as_tuple()
            if isinstance(move, TripleShift):
                assert new_counts == tuple(c + 1 for c in counts)
            else:
                assert isinstance(move, PairExchange)
                assert new_counts == counts
            counts = new_counts
        assert word == report.moves.end

    def test_multi_round_cases_close_gap(self):
        for n, rounds in ((26, 1), (42, 2), (60, 3)):
            report = optimize_max_prob(n)
            assert report.rounds == rounds
            assert report.gap == 0
            v = classify(report.moves.end)
            assert v.balanced and v.nontransitive

    def test_final_probability_below_conjecture_bound(self):
        bound = Fraction(1, 2) + Fraction(1, 9)
        for n in range(6, 25, 2):
            report = optimize_max_prob(n)
            v = classify(report.moves.end)
            assert v.balanced and v.nontransitive
            assert Fraction(report.achieved.ab, n * n) < bound


def _root_growth_by_loop(limit):
    """The per-p check the closed-form certificate replaces: growth at p
    holds iff (306p + 92)^2 < 676*(153p^2 + 108p + 20) and
    (306p + 200)^2 < 676*(153p^2 + 216p + 80)."""
    for pp in range(1, limit + 1):
        lhs = 306 * pp + 92
        if lhs * lhs >= 676 * (153 * pp * pp + 108 * pp + 20):
            return False
        lhs = 306 * pp + 200
        if lhs * lhs >= 676 * (153 * pp * pp + 216 * pp + 80):
            return False
    return True


class TestBounds:
    def test_verdicts(self):
        report = bound_report(monotone_limit=1000)
        assert report.below_bound == {
            "limit_excess": True,
            "limit_excess_variant_154": True,
            "limit_excess_shortened": True,
        }
        assert report.monotone_certified_upto == 1000
        assert any("153" in note for note in report.errata)

    def test_negative_monotone_limit_rejected(self):
        assert bound_report(monotone_limit=0).monotone_certified_upto == 0
        for limit in (-1, -5):
            with pytest.raises(DomainError, match="monotone limit"):
                bound_report(monotone_limit=limit)

    def test_enclosures_match_known_digits(self):
        lo, hi = LIMIT_EXCESS.enclosure()
        assert Fraction("0.1096") < lo <= hi < Fraction("0.1097")
        lo, hi = LIMIT_EXCESS_VARIANT_154.enclosure()
        assert Fraction("0.1079") < lo <= hi < Fraction("0.1080")
        assert hi - lo <= Fraction(1, 10**12)

    def test_verdicts_stable_under_refinement(self):
        for surd in (LIMIT_EXCESS, LIMIT_EXCESS_VARIANT_154, LIMIT_EXCESS_SHORTENED):
            narrow_lo, narrow_hi = surd.enclosure(digits=30)
            wide_lo, wide_hi = surd.enclosure(digits=15)
            assert wide_lo <= narrow_lo <= narrow_hi <= wide_hi
            # the exact comparison never depends on the enclosure width
            assert surd.less_than(Fraction(1, 9))

    def test_exact_comparison_edges(self):
        # sqrt(4) = 2 exactly: (2 + 0*sqrt(4))/1 style checks
        assert SurdValue(0, 1, 1, 4).less_than(Fraction(3)) is True
        assert SurdValue(0, 1, 1, 4).less_than(Fraction(2)) is False
        assert SurdValue(0, -1, 1, 2).less_than(Fraction(0)) is True
        assert SurdValue(5, -1, 1, 4).less_than(Fraction(3)) is False
        assert SurdValue(5, -1, 1, 4).less_than(Fraction(4)) is True

    def test_monotonicity_certificate(self):
        assert certify_root_monotonicity(10_000)
        for limit in (0, 1, 2, 100, 10_000):
            assert certify_root_monotonicity(limit) == _root_growth_by_loop(limit)

    def test_monotonicity_certificate_reads_its_inequalities(self, monkeypatch):
        # 676*(100p^2 + 108p + 20) - (306p + 92)^2 = -26036p^2 + 16704p + 5056
        # is negative at every p >= 1: this growth inequality never holds
        failing = ((306, 92, 100, 108, 20),)
        monkeypatch.setattr("ntdice.constructions._ROOT_GROWTH", failing)
        assert not certify_root_monotonicity(10)


class TestReferenceTables:
    def test_probability_formula_on_published_tables(self):
        for dice in REFERENCE_DICE_TABLES:
            v = classify(word_from_dice(dice))
            expect = (dice.n * dice.n + 2) // 2
            assert v.counts.as_tuple() == (expect, expect, expect)
            assert v.balanced and v.nontransitive
            assert v.p_ab == Fraction(expect, dice.n * dice.n)
