"""Record semantics: every public record type is an immutable NamedTuple.

Each record compares, hashes and prints as the tuple of its fields, cannot
be changed after construction and survives a pickle round trip.
"""

import pickle
from fractions import Fraction

import pytest

import ntdice
from ntdice import (
    BoundReport,
    ConcatPrediction,
    DiceSet,
    DiceWord,
    DomainError,
    EnumFilter,
    EnumStats,
    FairConjectureReport,
    IrreducibilityReport,
    MovePath,
    OptimizerReport,
    PairCounts,
    PairExchange,
    SimilarityResult,
    SurdValue,
    TripleRotate,
    TripleShift,
    Verdict,
    classify,
)
from ntdice.constructions import BaseWords

COUNTS = PairCounts(3, 5, 5, 5)
SURD = SurdValue(15, -1, 24, 153)
PATH = MovePath("AABBBBAA", (PairExchange(2, 6), PairExchange(3, 5)), "ABBAABBA")

# (type, field values, repr text); dict-valued fields make the last three
# unhashable, as the tuple of their fields is.
SAMPLES = [
    (DiceWord, ("ABC", (1, 1, 1), True),
     "DiceWord(text='ABC', counts=(1, 1, 1), complete=True)"),
    (DiceSet, (1, frozenset({1}), frozenset({2}), frozenset({3})),
     "DiceSet(n=1, a=frozenset({1}), b=frozenset({2}), c=frozenset({3}))"),
    (PairCounts, (3, 5, 5, 5), "PairCounts(n=3, ab=5, bc=5, ca=5)"),
    (Verdict, (COUNTS, True, True, False),
     "Verdict(counts=PairCounts(n=3, ab=5, bc=5, ca=5), balanced=True, "
     "nontransitive=True, fair=False)"),
    (ConcatPrediction, (2, 3, PairCounts(5, 13, 13, 13)),
     "ConcatPrediction(m=2, n=3, predicted=PairCounts(n=5, ab=13, bc=13, ca=13))"),
    (IrreducibilityReport, (False, 9), "IrreducibilityReport(irreducible=False, witness_split=9)"),
    (PairExchange, (2, 6), "PairExchange(i=2, j=6)"),
    (TripleRotate, (True,), "TripleRotate(to_back=True)"),
    (TripleShift, (1, 4, 7), "TripleShift(i=1, j=4, k=7)"),
    (MovePath, (PATH.start, PATH.moves, PATH.end),
     "MovePath(start='AABBBBAA', moves=(PairExchange(i=2, j=6), PairExchange(i=3, j=5)), "
     "end='ABBAABBA')"),
    (SimilarityResult, ("found", PATH, 92),
     f"SimilarityResult(outcome='found', path={PATH!r}, explored=92)"),
    (BaseWords, ("ABCCBA", "ACBBACCBA", "CBBAACACBACB", "CBABACACB", "CBABAACCBCBA"),
     "BaseWords(fair_block='ABCCBA', seed3='ACBBACCBA', seed4='CBBAACACBACB', "
     "canonical3='CBABACACB', dense4='CBABAACCBCBA')"),
    (SurdValue, (15, -1, 24, 153), "SurdValue(a=15, b=-1, c=24, d=153)"),
    (EnumFilter, (True, False, False, (5, 5, 5)),
     "EnumFilter(balanced=True, nontransitive=False, fair=False, counts=(5, 5, 5))"),
    (FairConjectureReport, (2, 6, True, 6, 6, 0, 0, 0, 0),
     "FairConjectureReport(n=2, fair_words_found=6, parity_ok=True, reachable_same_perm=6, "
     "reachable_mixed_perm=6, not_reachable_same_perm=0, not_reachable_mixed_perm=0, "
     "unresolved_same_perm=0, unresolved_mixed_perm=0)"),
    (OptimizerReport,
     (8, 1, {"shifted": "AB"}, 0, Fraction(1, 16), PairCounts(8, 36, 36, 36),
      MovePath("AB", (), "AB"), Fraction(0)),
     "OptimizerReport(n=8, p=1, stage_words={'shifted': 'AB'}, rounds=0, "
     "target_excess=Fraction(1, 16), achieved=PairCounts(n=8, ab=36, bc=36, ca=36), "
     "moves=MovePath(start='AB', moves=(), end='AB'), gap=Fraction(0, 1))"),
    (BoundReport, (SURD, SURD, SURD, ("note",), 100),
     f"BoundReport(limit_excess={SURD!r}, limit_excess_variant_154={SURD!r}, "
     f"limit_excess_shortened={SURD!r}, errata=('note',), monotone_certified_upto=100)"),
    (EnumStats, (2, 90, 6, 0, 6, None, (), {Fraction(1, 2): 6}),
     "EnumStats(n=2, total_words=90, count_balanced=6, count_balanced_nontransitive=0, "
     "count_fair=6, max_prob=None, max_witnesses=(), histogram={Fraction(1, 2): 6})"),
]
UNHASHABLE = {OptimizerReport, EnumStats}

params = pytest.mark.parametrize(
    "cls,values,text", SAMPLES, ids=[cls.__name__ for cls, _, _ in SAMPLES]
)


def test_samples_cover_every_public_record_type():
    exported = {getattr(ntdice, name) for name in ntdice.__all__}
    records = {obj for obj in exported if isinstance(obj, type) and issubclass(obj, tuple)}
    assert {cls for cls, _, _ in SAMPLES} == records | {BaseWords}
    assert len(SAMPLES) == 18


@params
def test_same_type_equality(cls, values, text):
    record = cls(*values)
    assert record == cls(*values) and not record != cls(*values)
    # the first field holds no validated value in any record
    other = cls("other", *values[1:])
    assert record != other and not record == other


@params
def test_hash_is_the_hash_of_the_field_tuple(cls, values, text):
    record = cls(*values)
    if cls in UNHASHABLE:
        for value in (record, values):
            with pytest.raises(TypeError, match="unhashable"):
                hash(value)
    else:
        assert hash(record) == hash(values)
        assert hash(record) == hash(cls(*values))


@params
def test_repr_text(cls, values, text):
    assert repr(cls(*values)) == text


@params
def test_fields_and_new_attributes_cannot_be_set(cls, values, text):
    record = cls(*values)
    for name in (cls._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
    assert tuple(record) == values


@params
def test_pickle_round_trip(cls, values, text):
    copy = pickle.loads(pickle.dumps(cls(*values)))
    assert type(copy) is cls and copy == cls(*values)


def test_records_are_tuples():
    assert PairCounts(3, 5, 5, 5) == (3, 5, 5, 5)
    assert sorted([PairExchange(4, 8), PairExchange(2, 6)]) == [(2, 6), (4, 8)]
    n, ab, bc, ca = COUNTS
    assert (n, ab, bc, ca) == (3, 5, 5, 5)


def test_verdict_probabilities_are_built_from_the_counts():
    verdict = classify("ACBBACCBA")
    assert verdict == classify("CBABACACB") == Verdict(COUNTS, True, True, False)
    assert (verdict.p_ab, verdict.p_bc, verdict.p_ca) == (Fraction(5, 9),) * 3
    lopsided = classify("AABBCC")
    assert (lopsided.p_ab, lopsided.p_bc, lopsided.p_ca) == (
        Fraction(0), Fraction(0), Fraction(1))


@pytest.mark.parametrize(
    "build",
    [
        lambda: EnumFilter(counts=[5, 5, 5]),
        lambda: EnumFilter(False, False, False, (5, 5)),
        lambda: EnumFilter(counts=(5, 5, True)),
        lambda: EnumFilter(counts=(5, 5, 5))._replace(counts="555"),
        lambda: EnumFilter._make((False, False, False, (5.0, 5, 5))),
    ],
    ids=["list", "positional-pair", "bool", "replace", "make"],
)
def test_enum_filter_rejects_bad_counts(build):
    with pytest.raises(DomainError, match="counts must be a tuple of three ints"):
        build()
