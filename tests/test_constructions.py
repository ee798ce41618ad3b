"""Construction families, the shift optimizer, and exact surd bounds."""

import hashlib
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

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
    _manufacture,
    _paired_cb_flip,
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

from conftest import PROPERTY


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


# SHA-256 of json.dumps(optimize_max_prob(n).to_json(), sort_keys=True),
# captured before the optimizer's site search and window pairing were
# rewritten; the reports must not change by a single byte.
OPTIMIZER_REPORT_SHA256 = {
    6: "cb4b9102e50d64861929ae4e0a07b95e5db34965251341c0e620972d1ceff498",
    8: "3f538b296775e63912497661f495d16cb3b358f134e25cd65b03c2a4f0ba4a6e",
    10: "735ec9dd2650cd2379585432309b8cd6a6f54b36bbf40af97375311f06f1c799",
    12: "127c30bf866f1f5fe1cbfd89a01e62f9943501f229efde5411afb41c6ebbac56",
    14: "fb73abad4cccd3869371607ee13564cdca032919140ce92e4914216b8030fc8c",
    16: "1159d7c413763dc696b1a629ffcc3383344e3f9d0f9845a4276d527976c8b244",
    18: "0eb0d82bb87283928aebc17525724ee27d4ed81ce273e8338dc074c4e71dcf35",
    20: "2512f561a0af34fd8929acd72e50c1fbccdb42c381c65c8cdb34da62963f36d5",
    22: "8a94dfc4ff7f28b7b325b9e38bbe614dd94401b245a4392daf1ee05851ab7635",
    24: "e65984b65f608507f3f5943b8425d6faafa3d81cec3c161d0a6ee0ce80d4a32c",
    26: "346fa04338e3f7c70549e8fe857750a2e59d5c2ba76582ebf76d6e23e026bf08",
    28: "00abc7830bc18f16fc98c4c4b9b068c2e295f8f7a38b91959768fc4c2de66e61",
    30: "0984a895dc9dd2c29bcf8727cd0c5b7b56076737dc6364395a28e194c1998707",
    32: "e282d74b5e749f240c3dba960a8f9512a7abb23e69b964f9f9e34d668b6b727b",
    34: "2cfaea43ec39d9284430cfe5f8ddd025c8427194a45833ac8059b9590442e743",
    36: "81b6ccb58c6099c851df3b247bc4b5c63ecc16e75554b7d395bef64c2c1909e2",
    38: "74147fed29c863249ab4e17a569d14245b8e77420fa36821662c091aaa8ffc94",
    40: "7e8e19cb3653e0ac875708162cfeded73d848d0e0b946735e8accb5ab203b020",
    42: "7a2f16657759347a4a406e8b2c9cec5213e9cfe168ba5990c41619ef1651eaf1",
    44: "7dd3485062893a86104e85e0c490b4d3ebb9bd46cd76e3d7383b185b1867edbd",
    46: "3be9c1008fb433d7c386fed237814a5691960a404e219ffd61549dac3bf8b49c",
    48: "ca7a622634457fc5fbb3abb51db2aca947d9e94b925fd843ae9d336d28ae8721",
    50: "19e18977fd3a0cc045a72d9bdc4a84bf5a6ec872a6a84483b0d4c1dab0147c3e",
    52: "57e3502b286f710c3eb78cb55fe3a85879ffaf696e8ea79b4b2a65ab38c595ac",
    54: "387d5fb670e51e5d1c6486b55f8dbb73f38714e69959267dcb069552e76e32e3",
    56: "bf3e711f1c22a0f9b24d34bc3ae26c9abb13626ef88f62a75d175781aabd053a",
    58: "824a45ed6962e45079149458b4cc1a4afa8e95ba180f89da7c6ec773449b8da5",
    60: "be8b56039dc5cddeec6858d5240b1f074a38d1dccc52de228cae0e37f35d4407",
    62: "66b04472694d5ebe6458f52c85a81d883e720015ba34cd0c8d94b9fe50f145c5",
    64: "7ded90507ae547145289bbd636559ed00d8f26e8be308705f150866ebd730b8e",
    66: "90ca766270a213335b597a60dc7d565c8d7f986170a838d24ce9c826723167f3",
    68: "1cb4cf7621afa4b3e548377238c8b23d8b1c97b128e602b4c57ff2c40a56db4d",
    70: "c96b0aa6dc56bce2cfe951fd4494c28ec330fa058c1f80f759a27a8cbcb5ec08",
    72: "bd4df7d5f57a028bd63b5b7e985efe6bacbaea0ccd7d9463fe26bedf06aeb573",
    74: "8c77fe3acca91a103563fbc074523dfc4814af06d7afca9e27a22a7eddc76f24",
    76: "97e326ede6ccd358e43fad56ab4d10faa0e35ff63eff4fcdac5e9b5407c14836",
    78: "326d7b38ede8511e050be97945c4a8ec01154c6f52d2a5c29b3694e3ff8117f5",
    80: "f278396aea5a93be79000f665b0e3a80257c46a6010bf8e31d1f7c99bc8203ec",
    82: "d264ed9a84e5a0e205b6bc440596d124fe599e6c217d4c3b14165c0b79172700",
    84: "800d50a1da8d29ea37ec0f4bc5b92a57cac95b5146a6712b93c41efc0892fb3a",
    86: "27a391a0942597745341c5cea9f923536df46cb41049a1e3bbc69cc8f3fdbbec",
    88: "6753713fac43a42714174fc72a67971f521b7559994513c3d7a0732aa990b99b",
    90: "6000ce76abcc6daf128f5effc8b27a302af34f021f2e3e7b3b0b306a79a58007",
    92: "a40316e0d496d3546f7d084154a12f2786f86454bf2aa44515a5417e533dc723",
    94: "224a54a4a993459f565ed74fa8a539bd131e7165570aa314ba9e86b2be6f88bb",
    96: "2ac003e1cef6611481c75a516c18ffd1e7b397b4209c7e8a6a875fa63c9906dc",
    98: "e804fdad240339650389e13a9e3d1f7ddc38279c293944252c81bcbf64a9632b",
    100: "5ba29d44ddc95cd4d9ca6228204430cae237b21be9448221ee4b7f7b24226138",
    102: "b9d38960ef7c3cb9d4c43378099dc39839aa3a243090b1fb44f04e4853b9323c",
    104: "b5a9a96547c4afd72ebd0a585221644bf3739d3a76e7bf70731aa6ad5b2ddc16",
    106: "3b4dbb3306d84eaf65f2ffa8aae74ed14c087fd70a5ffef011aec228461a1d41",
    108: "9c980b489739f9258c798fa0a6083cf518f7fc03576aabe7bb71f02c403a2de5",
    110: "e879932f1287107c08eed680277bc00f26b7151e440fad09318a7107419db9b4",
    112: "e6197b98f839eaf3a43e321faf2e9b76f4795a0385f335b0327553388175d3a0",
    114: "286640f7da90d896aa564baf48516a81349f55e368a86e3e4f2801328c962962",
    116: "ff1ad2953e92b5ef99389b8a8968f3cd1edd82168d853aeef481f77620d8926d",
    118: "a66ddc95a31d13e2cdcde996d810c8e89891ba71d8ed5cd4a1dbed94a1770e2a",
    120: "f24950e4845e87f36a7149aa922a5359b490a05aa9ab8f3a33afdcfcc6c45a91",
    122: "1491b9a57811f7f26a40e0cf5f24d211e191833e8ff3774bb8e992cb18620d8f",
    124: "b8ab79df95feb454cf7e4c0660b82cdbe37639b79c10df96907f424bf234225d",
    126: "5b07b0b89081f3ba9c304536bf15ef44d5abfd0a534cf6c429e3c47e5bf2415a",
    128: "33477cc47acc50a7a5745bb398a49b583b7bc3c2211c4c8ce9c18df4b5d84278",
    130: "1fec3c44d9f834533bbd7888835823f95d663ea5b67def0f66da459d95216dd3",
    168: "b58420bbee23b5642b6b97d9ccf3dff663a10713df84170571e92b8033c3cf13",
    170: "633e8bd9f0c065508b04111cb6f1c126e2be4b7b965ca82937eed3b5843c81ba",
    172: "b34032ed803c95a4fcf4ca3470b840ddf1f01ed1d8e9fbde602265d504b5e458",
    216: "ba3b6b2c933e4a707ea917513203617e5e9aed37e4521d2458796c7babc27edc",
    240: "8e7229c35361ecb4797a055f12cc0d289ade29071071f77099a30c930cd51f57",
}


def reference_paired_cb_flip(w, left, moves):
    """The linear scan the str.find pairing replaced: the nearest BC window
    at distance >= 2 from left, ties to the smaller index."""
    best = None
    for c in range(len(w) - 1):
        if abs(c - left) < 2:
            continue
        if w[c] == "B" and w[c + 1] == "C":
            dist = abs(c - left)
            if best is None or dist < best[0]:
                best = (dist, c)
    if best is None:
        return False
    comp = best[1]
    w[left], w[left + 1] = "B", "C"
    w[comp], w[comp + 1] = "C", "B"
    lo, hi = sorted((left + 1, comp + 1))
    moves.append(PairExchange(i=lo, j=hi))
    return True


def reference_manufacture_ab(w, moves):
    """The cell scan the regex search replaced: the leftmost B preceded by
    one or more Cs and then an A is bubbled left to that A."""
    target = None
    for b in range(len(w)):
        if w[b] != "B":
            continue
        back = b - 1
        while back >= 0 and w[back] == "C":
            back -= 1
        if back >= 0 and back < b - 1 and w[back] == "A":
            target = (back, b)
            break
    if target is None:
        return False
    a, b = target
    for cur in range(b, a + 1, -1):
        if not reference_paired_cb_flip(w, cur - 1, moves):
            return False
    return True


def reference_manufacture_ca(w, moves):
    """The mirror scan: the rightmost C followed by one or more Bs and then
    an A is bubbled right to that A."""
    target = None
    for c in range(len(w) - 1, -1, -1):
        if w[c] != "C":
            continue
        fwd = c + 1
        while fwd < len(w) and w[fwd] == "B":
            fwd += 1
        if fwd < len(w) and fwd > c + 1 and w[fwd] == "A":
            target = (c, fwd)
            break
    if target is None:
        return False
    c, fwd = target
    for cur in range(c, fwd - 1):
        if not reference_paired_cb_flip(w, cur, moves):
            return False
    return True


def _flip(word, left, moves):
    flipped = _paired_cb_flip(word, left, moves)
    return flipped is not None, word if flipped is None else flipped


def _manufacture_ab(word, moves):
    word, made = _manufacture(word, "AB", moves)
    return made, word


def _manufacture_ca(word, moves):
    word, made = _manufacture(word, "CA", moves)
    return made, word


def _run_both(fn, reference, letters, *args):
    """Run fn (str in, (succeeded, word) out) on the word and its
    list-mutating reference on a copy of the letters; return both
    (succeeded, resulting word, appended moves) outcomes."""
    word, got_moves = "".join(letters), []
    got = (*fn(word, *args, got_moves), got_moves)
    w, want_moves = list(letters), []
    want = (reference(w, *args, want_moves), "".join(w), want_moves)
    return got, want


def _flip_both(letters, left):
    return _run_both(_flip, reference_paired_cb_flip, letters, left)


class TestOptimizerGolden:
    @pytest.mark.parametrize("n", sorted(OPTIMIZER_REPORT_SHA256))
    def test_report_bytes_pinned(self, n):
        text = json.dumps(optimize_max_prob(n).to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == OPTIMIZER_REPORT_SHA256[n]

    def test_pinned_set(self):
        assert set(OPTIMIZER_REPORT_SHA256) == set(range(6, 131, 2)) | {
            168, 170, 172, 216, 240
        }


class TestPairedCbFlip:
    @pytest.mark.parametrize(
        "letters,left,comp",
        [
            ("BCCBBC", 2, 0),  # BC at 0 and 4, both two cells away
            ("BCACBABC", 3, 0),  # BC at 0 and 6, both three cells away
            ("CBBCABC", 0, 2),  # nearest lies right
            ("BCACCBB", 4, 0),  # only a left window
        ],
    )
    def test_nearest_window_ties_to_smaller_index(self, letters, left, comp):
        got, want = _flip_both(letters, left)
        assert got == want
        assert got[0] and got[2] == [PairExchange(*sorted((left + 1, comp + 1)))]

    @pytest.mark.parametrize("letters", ["CCCBBB", "BCB", "CBCB", "ACBA"])
    def test_no_window_mutates_nothing(self, letters):
        for left in range(len(letters) - 1):
            got, want = _flip_both(letters, left)
            assert got == want == (False, letters, [])

    @seed(20203)
    @PROPERTY
    @given(st.lists(st.sampled_from("BBCCA"), max_size=24))
    def test_matches_reference_property(self, letters):
        for left in range(len(letters) - 1):
            got, want = _flip_both(letters, left)
            if want[0]:
                # The reference wrote BC over the window at left whatever it
                # read; the flip reverses it.  The two differ only off the CB
                # windows every caller passes.
                word = list(want[1])
                word[left : left + 2] = letters[left + 1], letters[left]
                want = (True, "".join(word), want[2])
            assert got == want, (letters, left)


class TestManufacture:
    @pytest.mark.parametrize(
        "fn,reference",
        [
            (_manufacture_ab, reference_manufacture_ab),
            (_manufacture_ca, reference_manufacture_ca),
        ],
    )
    def test_matches_reference_on_two_targets(self, fn, reference):
        # two A-C..C-B and two C-B..B-A runs: leftmost resp. rightmost is taken
        letters = list("BCACCBBCBBAACCBCBBBA")
        got, want = _run_both(fn, reference, letters)
        assert got == want and got[2]

    @seed(20205)
    @PROPERTY
    @given(st.lists(st.sampled_from("ABBCC"), max_size=24))
    def test_matches_reference_property(self, letters):
        for fn, reference in (
            (_manufacture_ab, reference_manufacture_ab),
            (_manufacture_ca, reference_manufacture_ca),
        ):
            got, want = _run_both(fn, reference, letters)
            assert got == want, (letters, fn.__name__)


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
