"""Signed Choquet integrals and Lovasz extensions of set functions on [n].

The package represents set functions as mask-indexed value arrays, evaluates
their integrals by two independent routes (sorting permutation and Mobius
min-form), computes fast Mobius/zeta transforms, and ships randomized
checkers for the aggregation axioms together with the counterexample
families showing the axioms are independent.

Importing the package loads none of its modules.  A public name imports
its home module on first access (PEP 562) and is then cached here, and
every submodule (`choquet.axioms`, `choquet.io`, ...) is reachable as an
attribute, so `python -m choquet eval` loads only what it runs.
"""

from importlib import import_module as _import_module

# The home module of each public name: the one list of them, which __all__ sorts.
_EXPORTS = {
    "names": (
        "AXIOMS", "FAMILIES", "FAMILY_CHOQUET", "FAMILY_MULTILINEAR", "FAMILY_VSTAR_PATCH",
        "FAMILY_WEIGHTED_MEAN",
    ),
    "axioms": (
        "Aggregator", "AxiomReport", "IndependenceSummary", "Witness",
        "check_comonotonic_additivity", "check_comonotonic_affinity",
        "check_interval_scale_covariance", "check_linearity_in_capacity",
        "check_positive_homogeneity", "check_zero_on_basis", "evaluate_family",
        "independence_suite", "vstar_capacity",
    ),
    "errors": (
        "ChoquetError", "DimensionMismatch", "EmptyT", "FileFormatError", "GroundSetTooLarge",
        "NonFiniteResult", "NotAGame", "NotMonotone", "UnsupportedGroundSet",
    ),
    "generate": (
        "random_capacity", "random_normalized_capacity", "random_set_function",
        "random_signed_capacity",
    ),
    "integral": (
        "EvaluationResult", "SortPermutation", "choquet", "choquet_mobius",
        "common_sort_permutation", "comonotonic", "lovasz_extension", "sort_permutation",
    ),
    "io": ("load_set_function", "parse_point", "subset_key"),
    "setfunction": (
        "Capacity", "MAX_GROUND_SET", "MobiusRepresentation", "SetFunction", "SignedCapacity",
        "basis_decomposition", "elements_from_mask", "full_mask", "mask_from_elements",
        "mobius_transform", "unanimity_game", "validate_capacity", "validate_signed_capacity",
        "zeta_transform",
    ),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "oracle")

__version__ = "0.1.0"

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    """Import a public name's home module, or a submodule, on first access."""
    if name in _HOMES:
        value = getattr(_import_module(f".{_HOMES[name]}", __name__), name)
        globals()[name] = value  # later lookups skip this function
        return value
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
