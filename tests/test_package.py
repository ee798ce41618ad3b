"""The lazy package namespace: exported names, their owners, star import."""

import importlib

import pytest

import ntdice

# name -> owning module, the package's exports written out
EXPORTS = {
    **dict.fromkeys(
        [
            "DiceError", "DiceSet", "DiceSetError", "DiceWord", "DomainError",
            "IncompleteWordError", "PairCounts", "Verdict", "WordFormatError",
            "classify", "dice_from_word", "pair_counts", "parse_word", "word_from_dice",
        ],
        "core",
    ),
    **dict.fromkeys(
        [
            "ConcatPrediction", "IrreducibilityReport", "combined_probability",
            "concat", "is_irreducible", "predict_counts",
        ],
        "algebra",
    ),
    **dict.fromkeys(
        [
            "MoveError", "MovePath", "NormalizationError", "PairExchange",
            "SimilarityResult", "TripleRotate", "TripleShift", "apply_move",
            "find_shift_sites", "normalize_two_letter_fair", "similar",
            "similarity_class",
        ],
        "rewriting",
    ),
    **dict.fromkeys(
        [
            "BoundReport", "OptimizerReport", "SurdValue", "base_words", "bound_report",
            "construct_irreducible", "construct_near_half", "max_shift_rounds",
            "optimize_max_prob", "stage_word",
        ],
        "constructions",
    ),
    **dict.fromkeys(
        [
            "EnumFilter", "EnumStats", "FairConjectureReport", "cache_stats",
            "enumerate_words", "load_stats", "max_probability", "verify_fair_conjecture",
        ],
        "enumeration",
    ),
}


def test_all_lists_the_exports():
    assert ntdice.__all__ == list(EXPORTS)


@pytest.mark.parametrize("name", list(EXPORTS))
def test_name_is_its_owners_object(name):
    owner = importlib.import_module(f"ntdice.{EXPORTS[name]}")
    assert getattr(ntdice, name) is getattr(owner, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ntdice.no_such_name
    assert not hasattr(ntdice, "no_such_name")


def test_star_import_binds_every_name():
    namespace = {}
    exec("from ntdice import *", namespace)
    assert set(EXPORTS) <= set(namespace)
    assert all(namespace[name] is getattr(ntdice, name) for name in EXPORTS)


def test_dir_lists_all_and_the_exports():
    listing = dir(ntdice)
    assert "__all__" in listing
    assert set(EXPORTS) <= set(listing)
