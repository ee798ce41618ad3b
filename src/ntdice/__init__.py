"""Exact-arithmetic toolkit for balanced non-transitive dice words.

The package namespace is lazy (PEP 562): ``import ntdice`` loads no
submodule, and the first access to an exported name, such as
``ntdice.classify``, imports the module that defines it (``core``,
``algebra``, ``rewriting``, ``constructions`` or ``enumeration``) and binds
the name in the package.  A CLI process therefore loads only the modules
its subcommand runs; see ``ntdice.cli``.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Owning module -> the names it exports through the package.
_EXPORTS = {
    "core": (
        "DiceError", "DiceSet", "DiceSetError", "DiceWord", "DomainError",
        "IncompleteWordError", "PairCounts", "Verdict", "WordFormatError",
        "classify", "dice_from_word", "pair_counts", "parse_word", "word_from_dice",
    ),
    "algebra": (
        "ConcatPrediction", "IrreducibilityReport", "combined_probability",
        "concat", "is_irreducible", "predict_counts",
    ),
    "rewriting": (
        "MoveError", "MovePath", "NormalizationError", "PairExchange",
        "SimilarityResult", "TripleRotate", "TripleShift", "apply_move",
        "find_shift_sites", "normalize_two_letter_fair", "similar", "similarity_class",
    ),
    "constructions": (
        "BoundReport", "OptimizerReport", "SurdValue", "base_words", "bound_report",
        "construct_irreducible", "construct_near_half", "max_shift_rounds",
        "optimize_max_prob", "stage_word",
    ),
    "enumeration": (
        "EnumFilter", "EnumStats", "FairConjectureReport", "cache_stats",
        "enumerate_words", "load_stats", "max_probability", "verify_fair_conjecture",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_OWNER)


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
