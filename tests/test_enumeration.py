"""Exhaustive scans: totals, filters, determinism, caching, fair census."""

import itertools
import json
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from ntdice import (
    DomainError,
    EnumFilter,
    cache_stats,
    classify,
    enumerate_words,
    load_stats,
    max_probability,
    verify_fair_conjecture,
)
from ntdice.core import DEFAULT_BUDGET
from ntdice.enumeration import (
    WITNESS_CAP,
    CacheFormatError,
    CacheIntegrityError,
    FairConjectureReport,
    _balanced_histogram,
    _pruner,
    _steps,
    _walk,
    total_word_count,
)
from ntdice.rewriting import similarity_class


class TestGeneration:
    def test_totals_match_multinomial(self):
        for n, expect in ((1, 6), (2, 90), (3, 1680), (4, 34650)):
            assert total_word_count(n) == expect
            assert enumerate_words(n).total_words == expect

    def test_no_duplicates_and_lexicographic(self):
        for n in (1, 2, 3):
            seen = []
            enumerate_words(n, filt=EnumFilter(), consumer=lambda w, v: seen.append(w))
            assert len(seen) == total_word_count(n)
            assert len(set(seen)) == len(seen)
            assert seen == sorted(seen)

    def test_stream_and_stats_engines_agree(self):
        for n in (1, 2, 3, 4):
            census = _Census()
            enumerate_words(n, consumer=lambda w, v: census.add(w, classify(w)))
            assert census.summary() == _summary(enumerate_words(n))

    def test_engines_agree_at_n5(self):
        # 756,756 words: the largest size where the full visit is cheap
        census = _Census()
        enumerate_words(5, consumer=census.add)
        assert census.summary() == _summary(enumerate_words(5))

    def test_worker_determinism(self):
        s1 = enumerate_words(3, workers=1)
        s2 = enumerate_words(3, workers=2)
        s4 = enumerate_words(3, workers=4)
        assert s1 == s2 == s4

    def test_streamed_matches_identical_across_workers(self):
        def collect(workers):
            got = []
            enumerate_words(
                3,
                filt=EnumFilter(balanced=True),
                consumer=lambda w, v: got.append(w),
                workers=workers,
            )
            return got

        assert collect(1) == collect(2)

    def test_enumeration_never_starts_a_process(self, monkeypatch):
        def refuse(self):
            raise AssertionError("an enumeration started a process")

        monkeypatch.setattr("multiprocessing.process.BaseProcess.start", refuse)
        assert enumerate_words(5, workers=4) == enumerate_words(5)
        assert max_probability(4, workers=2) == max_probability(4)
        streamed = {}
        for workers in (1, 4):
            got = streamed[workers] = []
            stats = enumerate_words(
                4, consumer=lambda w, v: got.append(w), workers=workers
            )
            assert stats == enumerate_words(4)
        assert streamed[4] == streamed[1]
        assert len(streamed[1]) == total_word_count(4)

    def test_parallel_stream_delivers_every_word_in_order(self):
        for workers in (2, 3):
            seen = []
            stats = enumerate_words(
                3, consumer=lambda w, v: seen.append((w, v)), workers=workers
            )
            assert [w for w, _ in seen] == sorted(w for w, _ in seen)
            assert len(seen) == total_word_count(3)
            assert all(v == classify(w) for w, v in seen)
            assert stats == enumerate_words(3)

    def test_domain_errors(self):
        for n in (0, -1, 8):
            with pytest.raises(DomainError):
                enumerate_words(n)
        with pytest.raises(DomainError, match="long_run"):
            enumerate_words(7)
        with pytest.raises(DomainError, match="n >= 2"):
            max_probability(1)
        for n in (0, 8):
            with pytest.raises(DomainError, match="supported range"):
                verify_fair_conjecture(n)

    @pytest.mark.parametrize("n", [True, False, 3.0, "3", None])
    @pytest.mark.parametrize(
        "call", [enumerate_words, max_probability, verify_fair_conjecture]
    )
    def test_sides_must_be_an_int(self, call, n):
        with pytest.raises(DomainError, match="n must be an int"):
            call(n)


class _Census:
    """Totals, histogram and witnesses of the maximum, rebuilt from the
    words and verdicts a consumer receives."""

    def __init__(self):
        self.total = 0
        self.balanced = []

    def add(self, word, verdict):
        self.total += 1
        if verdict.balanced:
            self.balanced.append((word, verdict.p_ab))

    def summary(self):
        histogram = Counter(p for _, p in self.balanced)
        best = max((p for p in histogram if p > Fraction(1, 2)), default=None)
        witnesses = sorted(w for w, p in self.balanced if p == best)
        return self.total, dict(histogram), best, witnesses[:WITNESS_CAP]


def _summary(stats):
    return (
        stats.total_words,
        stats.histogram,
        stats.max_prob,
        list(stats.max_witnesses),
    )


@lru_cache(maxsize=None)
def _classified_words(n):
    """Every word on n sides in lexicographic order, built letter by letter
    and classified one by one, with no pruning."""
    words = [""]
    for _ in range(3 * n):
        words = [w + x for w in words for x in "ABC" if w.count(x) < n]
    return tuple((w, classify(w)) for w in words)


def _filters(n, balanced, nontransitive, fair):
    """The flags with no count target and with four: one balanced, one
    unbalanced and two that no word reaches."""
    classified = _classified_words(n)
    bal = [v.counts.as_tuple() for _, v in classified if v.balanced]
    sq = n * n
    return [EnumFilter(balanced, nontransitive, fair, counts) for counts in (
        None,
        bal[-1] if bal else (sq // 2,) * 3,  # balanced
        classified[len(classified) // 2][1].counts.as_tuple(),  # unbalanced
        (sq + 1,) * 3,  # unreachable
        (-1, sq // 2, sq // 2),  # unreachable
    )]


FLAGS = list(itertools.product((False, True), repeat=3))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("balanced, nontransitive, fair", FLAGS)
def test_pruned_stream_is_exact(n, balanced, nontransitive, fair):
    classified = _classified_words(n)
    for filt in _filters(n, balanced, nontransitive, fair):
        got = []
        enumerate_words(n, filt=filt, consumer=lambda w, v: got.append((w, v)))
        assert got == [(w, v) for w, v in classified if filt.matches(v)]


def reference_balanced_histogram(n):
    """The layered count DP as it was before the orbit reduction: every
    letter tally of every layer, pushed forward letter by letter, with the
    balanced interval test written out by max() and min()."""

    def meet(placed, counts):
        (pa, pb, pc), (ab, bc, ca) = placed, counts
        ra, rb, rc = n - pa, n - pb, n - pc
        lows = (ab + ra * pb, bc + rb * pc, ca + rc * pa, 0)
        return max(lows) <= min(ab + ra * n, bc + rb * n, ca + rc * n, n * n)

    layer = {(0, 0, 0): {(0, 0, 0): 1}}
    for _ in range(3 * n):
        nxt = {}
        for placed, states in layer.items():
            for counts, mult in states.items():
                for _letter, placed2, counts2 in _steps(n, placed, counts):
                    bucket = nxt.setdefault(placed2, {})
                    if counts2 in bucket:
                        bucket[counts2] += mult
                    elif meet(placed2, counts2):
                        bucket[counts2] = mult
        layer = nxt
    return {counts[0]: mult for counts, mult in layer.get((n, n, n), {}).items()}


def reference_pruner(n, filt):
    """The pruner as a yes-or-no test on a whole state, as it was before it
    became a window on N(A>B): whether some completion of a prefix can pass
    filt; None when filt passes every word."""
    if filt == EnumFilter():
        return None
    sq = n * n
    least = sq // 2 + 1 if filt.nontransitive else (sq + 1) // 2 if filt.fair else 0
    most = sq // 2 if filt.fair else sq  # fair: an empty range when n^2 is odd
    lo, hi = [least] * 3, [most] * 3
    if filt.counts is not None:
        lo = [max(least, c) for c in filt.counts]
        hi = [min(most, c) for c in filt.counts]
    if any(l > h for l, h in zip(lo, hi)):
        return lambda placed, counts: False  # no word can pass
    (la, lb, lc), (ha, hb, hc) = lo, hi
    balanced = filt.balanced
    low, high = max(lo), min(hi)  # the range all three share when balanced

    def alive(placed, counts):
        pa, pb, pc = placed
        ab, bc, ca = counts
        ra, rb, rc = n - pa, n - pb, n - pc
        lo_ab, hi_ab = ab + ra * pb, ab + ra * n
        lo_bc, hi_bc = bc + rb * pc, bc + rb * n
        lo_ca, hi_ca = ca + rc * pa, ca + rc * n
        if balanced:
            top = min(hi_ab, hi_bc, hi_ca, high)
            return lo_ab <= top and lo_bc <= top and lo_ca <= top and low <= top
        return (lo_ab <= ha and la <= hi_ab and lo_bc <= hb and lb <= hi_bc
                and lo_ca <= hc and lc <= hi_ca)

    return alive


@lru_cache(maxsize=None)
def _reachable_states(n):
    """Every (placed, counts) that some prefix on n sides reaches, the empty
    prefix included."""
    layer = {((0, 0, 0), (0, 0, 0))}
    states = set(layer)
    for _ in range(3 * n):
        layer = {(p2, c2) for p, c in layer for _, p2, c2 in _steps(n, p, c)}
        states |= layer
    return frozenset(states)


def _passes(window, placed, counts):
    """Whether counts' N(A>B) lies in the window of placed and the other two."""
    ab, bc, ca = counts
    lo, hi = window(placed, bc, ca)
    return lo <= ab <= hi


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("balanced, nontransitive, fair", FLAGS)
def test_window_matches_reference_pruner(n, balanced, nontransitive, fair):
    for filt in _filters(n, balanced, nontransitive, fair):
        window, alive = _pruner(n, filt), reference_pruner(n, filt)
        assert (window is None) == (alive is None) == (filt == EnumFilter())
        if window is None:
            continue
        for placed, counts in _reachable_states(n):
            assert _passes(window, placed, counts) == alive(placed, counts), (
                filt, placed, counts)


def _rho(triple):
    """The relabel A->B->C->A on a tally (pa, pb, pc) or on counts (ab, bc, ca)."""
    x, y, z = triple
    return z, x, y


class TestOrbitDP:
    """The packed count DP against the plain one, and the relabel symmetry
    of the balanced window that the relabel cut of a bar walk would use."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_reference(self, n):
        assert _balanced_histogram(n) == reference_balanced_histogram(n)

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize(
        "filt", [EnumFilter(balanced=True), EnumFilter(balanced=True, nontransitive=True)]
    )
    def test_balanced_pruner_commutes_with_relabel(self, n, filt):
        window = _pruner(n, filt)
        verdicts = set()
        for placed, counts in _reachable_states(n):
            verdict = _passes(window, placed, counts)
            assert _passes(window, _rho(placed), _rho(counts)) == verdict, (placed, counts)
            verdicts.add(verdict)
        assert verdicts == {True, False} or n < 3

    def test_pinned_at_n12(self):
        hist = _balanced_histogram(12)
        assert sum(hist.values()) == 673_115_123_364
        assert sum(c for t, c in hist.items() if t > 72) == 244_189_181_673
        assert hist[72] == 184_736_760_018
        assert max(hist) == 88


class TestKnownCensusValues:
    def test_n1_has_no_balanced_word(self):
        stats = enumerate_words(1)
        assert stats.count_balanced == 0
        assert stats.max_prob is None

    def test_n2_has_no_balanced_nontransitive_word(self):
        stats = enumerate_words(2)
        assert stats.count_balanced_nontransitive == 0
        assert max_probability(2) is None
        # but fair words exist
        assert stats.count_fair == 6

    def test_n3_unique_probability(self):
        prob, witnesses = max_probability(3)
        assert prob == Fraction(5, 9)
        assert witnesses
        stats = enumerate_words(3)
        assert stats.histogram[Fraction(5, 9)] == 6
        assert stats.count_balanced_nontransitive == 6

    def test_n4_reaches_nine_sixteenths(self):
        prob, witnesses = max_probability(4)
        assert prob >= Fraction(9, 16)
        for word in witnesses:
            v = classify(word)
            assert v.balanced and v.nontransitive and v.p_ab == prob

    def test_histogram_keys_only_balanced(self):
        stats = enumerate_words(3)
        assert sum(stats.histogram.values()) == stats.count_balanced
        assert stats.count_fair == 0  # odd n cannot be fair

    def test_n7_long_run(self):
        prob, witnesses = max_probability(7, long_run=True)
        assert prob == Fraction(29, 49)
        assert prob < Fraction(1, 2) + Fraction(1, 9)
        assert witnesses == (
            "AABACCCCBCBBBBBAAAACC",
            "AACCBCCBBBBABAAAACCCB",
            "AACCCBBCBBBABAAAACCCB",
            "AACCCBCBBBBABAAAACCBC",
            "AACCCCBBBBBABAAAACBCC",
            "ABAACCCCBCBBBBABAAACC",
            "ACCCBBBBABAAAACCACCBB",
            "ACCCBBBBABAAACAACCCBB",
            "BAAACCCCBCBBBABBAAACC",
            "BAAACCCCBCBBBBAABAACC",
        )
        for word in witnesses:
            v = classify(word)
            assert v.balanced and v.nontransitive and v.p_ab == prob
        stats = enumerate_words(7, long_run=True)
        assert stats.total_words == 399_072_960
        assert stats.count_balanced == 379_566
        assert stats.count_balanced_nontransitive == 189_783
        assert stats.histogram[prob] == 24

    @pytest.mark.parametrize("n", range(1, 11))
    def test_histogram_reversal_symmetry(self, n):
        # reversing a word turns every win count v into n^2 - v; the scan
        # stops at n = 7, the count DP under it runs on
        counts = _balanced_histogram(n)
        assert {n * n - v: c for v, c in counts.items()} == counts
        assert (n < 2) == (not counts)
        if n <= 7:
            hist = enumerate_words(n, long_run=n == 7).histogram
            assert {1 - p: c for p, c in hist.items()} == hist


class TestFilters:
    @pytest.mark.parametrize(
        "counts",
        [(1, 2), (1, 2, 3, 4), ("a", 1, 1), (True, 1, 1), (5.0, 5, 5), [5, 5, 5], 5],
    )
    def test_malformed_counts_rejected(self, counts):
        with pytest.raises(DomainError, match="counts must be a tuple of three ints"):
            EnumFilter(counts=counts)

    def test_counts_filter(self):
        got = []
        enumerate_words(
            3,
            filt=EnumFilter(counts=(5, 5, 5)),
            consumer=lambda w, v: got.append(w),
        )
        assert len(got) == 6
        assert all(classify(w).nontransitive for w in got)

    def test_conjunctive_flags(self):
        fair = []
        enumerate_words(2, filt=EnumFilter(fair=True), consumer=lambda w, v: fair.append(w))
        balanced = []
        enumerate_words(
            2, filt=EnumFilter(balanced=True), consumer=lambda w, v: balanced.append(w)
        )
        assert set(fair) <= set(balanced)
        assert len(fair) == 6

    def test_consumer_receives_matching_verdicts(self):
        def check(word, verdict):
            assert verdict == classify(word)
            assert verdict.balanced

        enumerate_words(2, filt=EnumFilter(balanced=True), consumer=check)


class TestOracleAgreement:
    def test_constructed_words_found_in_census(self):
        from ntdice.constructions import construct_irreducible, construct_near_half

        for n in (3, 4, 5):
            stats = enumerate_words(n)
            expect = (n * n + 2) // 2
            prob = Fraction(expect, n * n)
            assert stats.histogram[prob] >= 1
            assert classify(construct_irreducible(n)).p_ab == prob
        stats5 = enumerate_words(5)
        assert classify(construct_near_half(2)).p_ab in stats5.histogram

    def test_closed_forms_rediscovered_at_n6(self, stats_n6):
        from ntdice.constructions import (
            STAGE_SHIFTED,
            construct_irreducible,
            stage_word,
        )

        # the staged word's 7/12 and the irreducible family's 19/36 both
        # appear in the full census with at least one word each
        shifted = classify(stage_word(6, STAGE_SHIFTED)).p_ab
        assert shifted == Fraction(7, 12)
        assert stats_n6.histogram[shifted] >= 1
        built = classify(construct_irreducible(6)).p_ab
        assert built == Fraction(19, 36)
        assert stats_n6.histogram[built] >= 1


def reference_verify_fair_conjecture(n, bfs_budget=DEFAULT_BUDGET):
    """The fair census ``verify_fair_conjecture`` ran before it counted
    instead of collecting: every fair word in a set, intersected with each
    class, and a parity-only record at odd n.  Its seeds are lists in
    generation order, as the census builds them."""
    if n % 2:
        return FairConjectureReport(
            n=n,
            fair_words_found=0,
            parity_ok=True,
            reachable_same_perm=0,
            reachable_mixed_perm=0,
            not_reachable_same_perm=0,
            not_reachable_mixed_perm=0,
            unresolved_same_perm=0,
            unresolved_mixed_perm=0,
        )
    fair_set = set()
    _walk(n, EnumFilter(fair=True), lambda word, _counts: fair_set.add(word))
    blocks = [x + y + z + z + y + x for x, y, z in ("ABC", "ACB", "BAC", "BCA", "CAB", "CBA")]
    same_seeds = [block * (n // 2) for block in blocks]
    mixed_seeds = ["".join(p) for p in itertools.product(blocks, repeat=n // 2)]
    class_same, same_done = similarity_class(same_seeds, bfs_budget)
    class_mixed, mixed_done = similarity_class(mixed_seeds, bfs_budget)
    reach_same = len(fair_set & class_same)
    reach_mixed = len(fair_set & class_mixed)
    return FairConjectureReport(
        n=n,
        fair_words_found=len(fair_set),
        parity_ok=True,
        reachable_same_perm=reach_same,
        reachable_mixed_perm=reach_mixed,
        not_reachable_same_perm=(len(fair_set) - reach_same) if same_done else 0,
        not_reachable_mixed_perm=(len(fair_set) - reach_mixed) if mixed_done else 0,
        unresolved_same_perm=0 if same_done else len(fair_set) - reach_same,
        unresolved_mixed_perm=0 if mixed_done else len(fair_set) - reach_mixed,
    )


class TestFairConjecture:
    def test_counting_census_matches_reference(self):
        for n in range(1, 6):
            for budget in (1, 10, 50, DEFAULT_BUDGET):
                want = reference_verify_fair_conjecture(n, budget)
                assert verify_fair_conjecture(n, budget) == want, (n, budget)

    def test_budget_cut_record_pinned(self):
        report = verify_fair_conjecture(4, bfs_budget=10)
        assert report == (4, 156, True, 14, 36, 0, 0, 142, 120)
        assert report._fields == (
            "n", "fair_words_found", "parity_ok",
            "reachable_same_perm", "reachable_mixed_perm",
            "not_reachable_same_perm", "not_reachable_mixed_perm",
            "unresolved_same_perm", "unresolved_mixed_perm",
        )

    def test_odd_n_short_circuits_by_parity(self):
        for n in (1, 3, 5, 7):
            report = verify_fair_conjecture(n)
            assert report.fair_words_found == 0
            assert report.parity_ok

    def test_odd_n_scan_concurs(self):
        for n in (1, 3, 5):
            assert enumerate_words(n).count_fair == 0

    def test_n2_all_fair_words_reach_blocks(self):
        report = verify_fair_conjecture(2)
        assert report.fair_words_found == 6
        assert report.reachable_same_perm == 6
        assert report.reachable_mixed_perm == 6
        assert report.unresolved_same_perm == 0
        assert report.unresolved_mixed_perm == 0

    def test_fair_census_walks_no_word(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the fair census walked words")

        reports = [verify_fair_conjecture(n) for n in (2, 3, 4)]
        monkeypatch.setattr("ntdice.enumeration._walk", refuse)
        monkeypatch.setattr("ntdice.enumeration._witnesses", refuse)
        assert [verify_fair_conjecture(n) for n in (2, 3, 4)] == reports

    def test_odd_n_build_no_count_dp(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the fair census ran the count DP at odd n")

        reports = [verify_fair_conjecture(n) for n in (1, 3, 5, 7)]
        monkeypatch.setattr("ntdice.enumeration._balanced_histogram", refuse)
        assert [verify_fair_conjecture(n) for n in (1, 3, 5, 7)] == reports

    def test_even_n_above_four_rejected(self):
        with pytest.raises(DomainError):
            verify_fair_conjecture(6)

    def test_budget_below_one_rejected(self):
        assert verify_fair_conjecture(2, bfs_budget=1).fair_words_found == 6
        for n in (3, 4):
            for budget in (0, -1):
                with pytest.raises(DomainError, match="budget"):
                    verify_fair_conjecture(n, bfs_budget=budget)

    def test_budget_above_ceiling_or_not_an_int_rejected(self):
        from ntdice.core import DEFAULT_BUDGET

        for n in (3, 4):
            with pytest.raises(DomainError, match=f"at most {DEFAULT_BUDGET}, got"):
                verify_fair_conjecture(n, bfs_budget=DEFAULT_BUDGET + 1)
            with pytest.raises(DomainError, match="must be an int, got 5.0"):
                verify_fair_conjecture(n, bfs_budget=5.0)

    def test_budget_exhaustion_reported_as_unresolved(self):
        report = verify_fair_conjecture(4, bfs_budget=10)
        assert report.unresolved_same_perm > 0
        assert (
            report.reachable_same_perm
            + report.not_reachable_same_perm
            + report.unresolved_same_perm
            == report.fair_words_found
        )


def _unreduced(text):
    """The fraction text spells, with numerator and denominator doubled."""
    p, q = Fraction(text).as_integer_ratio()
    return f"{2 * p}/{2 * q}"


class TestStatsCache:
    def test_round_trip(self, tmp_path):
        for n in range(1, 8):
            stats = enumerate_words(n, long_run=n == 7)
            path = tmp_path / f"n{n}.json"
            cache_stats(stats, path)
            assert load_stats(path) == stats

    def test_tampered_witness_detected(self, tmp_path):
        # each tampered word still sorts first, so only the witness
        # re-check can refuse it
        path = tmp_path / "stats.json"
        for n, witness, message in (
            (3, "AAABBBCCC", "not balanced non-transitive"),  # counts (0, 0, 9)
            (3, "AAABBBCCD", "invalid"),
            (3, "ABC", "has 1 sides"),
            (5, "AABCBCBACCCBBAA", "has probability 13/25"),
        ):
            cache_stats(enumerate_words(n), path)
            obj = json.loads(path.read_text())
            obj["max_witnesses"][0] = witness
            path.write_text(json.dumps(obj))
            with pytest.raises(CacheIntegrityError, match=message):
                load_stats(path)

    def test_version_mismatch_detected(self, tmp_path):
        stats = enumerate_words(2)
        path = tmp_path / "n2.json"
        cache_stats(stats, path)
        obj = json.loads(path.read_text())
        obj["format_version"] = 99
        path.write_text(json.dumps(obj))
        with pytest.raises(CacheFormatError):
            load_stats(path)

    def test_inconsistent_counts_detected(self, tmp_path):
        path = tmp_path / "n3.json"
        path.write_text(
            json.dumps(
                {
                    "format_version": 1,
                    "n": 3,
                    "total_words": 1,
                    "count_balanced": 999999,
                    "count_balanced_nontransitive": 0,
                    "count_fair": 0,
                    "max_prob": None,
                    "max_witnesses": [],
                    "histogram": {"1/2": 1},
                }
            )
        )
        with pytest.raises(CacheIntegrityError):
            load_stats(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", 99),
            ("n", 0),
            ("total_words", 1679),
            ("count_balanced", 1),
            ("count_balanced_nontransitive", 7),
            ("count_fair", 1),
            ("max_prob", None),
            ("histogram", {"5/9": 6}),
            ("histogram", {"1/2": 1, "5/9": 6}),
        ],
    )
    def test_each_derived_field_checked(self, tmp_path, field, value):
        path = tmp_path / "n3.json"
        cache_stats(enumerate_words(3), path)
        obj = json.loads(path.read_text())
        obj[field] = value
        path.write_text(json.dumps(obj))
        with pytest.raises(CacheIntegrityError):
            load_stats(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("total_words", 1679, "total_words is 1679, but n and the histogram imply 1680"),
            ("count_balanced", 1, "count_balanced is 1, but n and the histogram imply 12"),
            ("count_balanced_nontransitive", 7,
             "count_balanced_nontransitive is 7, but n and the histogram imply 6"),
            ("count_fair", 1, "count_fair is 1, but n and the histogram imply 0"),
            ("max_prob", None, "max_prob is None, but n and the histogram imply 5/9"),
            ("max_witnesses", ["ACBBACCBA"], "witness count is 1, but n and the histogram imply 6"),
        ],
    )
    def test_integrity_error_names_field(self, tmp_path, field, value, message):
        path = tmp_path / "n3.json"
        cache_stats(enumerate_words(3), path)
        obj = json.loads(path.read_text())
        obj[field] = value
        path.write_text(json.dumps(obj))
        with pytest.raises(CacheIntegrityError) as info:
            load_stats(path)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "field, spoil",
        [
            ("n", lambda v: v + 0.9),
            ("n", str),
            ("n", float),
            ("total_words", float),
            ("count_balanced", bool),
            ("count_balanced_nontransitive", float),
            ("count_fair", str),
            ("histogram", lambda h: {k: float(v) for k, v in h.items()}),
            ("histogram", lambda h: {k: str(v) for k, v in h.items()}),
            ("histogram", list),
            ("max_prob", lambda p: float(Fraction(p))),
            ("max_prob", lambda p: [p]),
            ("max_prob", lambda p: "1/0"),
            ("histogram", lambda h: {"1/0": 1}),
            ("max_witnesses", lambda ws: dict.fromkeys(ws, 1)),
            ("max_witnesses", "".join),
            ("max_witnesses", lambda ws: ws[:-1] + [5]),
            ("max_prob", _unreduced),
            ("max_prob", lambda p: f" {p}"),
            ("histogram", lambda h: {_unreduced(k): v for k, v in h.items()}),
            ("histogram", lambda h: {**h, **{_unreduced(k): v for k, v in h.items()}}),
        ],
        ids=[
            "n-3.9", "n-str", "n-float", "total_words-float", "count_balanced-bool",
            "count_balanced_nontransitive-float", "count_fair-str", "histogram-float-values",
            "histogram-str-values", "histogram-list", "max_prob-float", "max_prob-list",
            "max_prob-zero-denominator", "histogram-zero-denominator",
            "max_witnesses-object", "max_witnesses-string", "max_witnesses-int-entry",
            "max_prob-unreduced", "max_prob-padded", "histogram-unreduced-keys",
            "histogram-merged-keys",
        ],
    )
    def test_field_types_are_strict(self, tmp_path, field, spoil):
        path = tmp_path / "n3.json"
        cache_stats(enumerate_words(3), path)
        obj = json.loads(path.read_text())
        obj[field] = spoil(obj[field])
        path.write_text(json.dumps(obj))
        with pytest.raises(CacheFormatError):
            load_stats(path)

    @pytest.mark.parametrize(
        "prob, fields",
        [
            ("11/25", ("count_balanced",)),
            ("14/25", ("count_balanced", "count_balanced_nontransitive")),
        ],
    )
    def test_asymmetric_histogram_rejected(self, tmp_path, prob, fields):
        # one more word at prob, and every count it feeds raised to match
        path = tmp_path / "n5.json"
        cache_stats(enumerate_words(5), path)
        obj = json.loads(path.read_text())
        obj["histogram"][prob] += 1
        for field in fields:
            obj[field] += 1
        path.write_text(json.dumps(obj))
        # the loader reads entries in order, so 11/25 meets its mirror first
        message = r"histogram entry 11/25: \d+ is not mirrored at 14/25"
        with pytest.raises(CacheIntegrityError, match=message):
            load_stats(path)

    def test_witness_order_and_cap_checked(self, tmp_path):
        path = tmp_path / "n4.json"
        cache_stats(enumerate_words(4), path)
        good = json.loads(path.read_text())
        assert len(good["max_witnesses"]) >= 2
        for witnesses in (
            good["max_witnesses"][::-1],
            good["max_witnesses"][:1] * 2,
            good["max_witnesses"][:-1],
            good["max_witnesses"] * 2,
        ):
            path.write_text(json.dumps({**good, "max_witnesses": witnesses}))
            with pytest.raises(CacheIntegrityError):
                load_stats(path)

    def test_failed_write_keeps_earlier_file(self, tmp_path, monkeypatch):
        path = tmp_path / "n3.json"
        cache_stats(enumerate_words(3), path)
        before = path.read_bytes()

        def fail(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", fail)
        with pytest.raises(OSError, match="disk full"):
            cache_stats(enumerate_words(4), path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_stats(tmp_path / "absent.json")

    def test_corrupt_json_detected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CacheFormatError):
            load_stats(path)
