"""Names and defaults of the aggregation families and axioms.

The CLI builds its choices and defaults from these without importing the
checkers in `axioms`, which re-exports every one of them.  SUBSET_AXIOMS
are the axioms whose checkers take a subset of the ground set; the CLI's
`--subset` and the independence suite both read it.
"""

FAMILY_CHOQUET = "choquet"
FAMILY_WEIGHTED_MEAN = "weighted-mean"
FAMILY_MULTILINEAR = "multilinear"
FAMILY_VSTAR_PATCH = "vstar-patch"
FAMILIES = (FAMILY_CHOQUET, FAMILY_WEIGHTED_MEAN, FAMILY_MULTILINEAR, FAMILY_VSTAR_PATCH)

AXIOM_COMONOTONIC_ADDITIVITY = "comonotonic-additivity"
AXIOM_POSITIVE_HOMOGENEITY = "positive-homogeneity"
AXIOM_COMONOTONIC_AFFINITY = "comonotonic-affinity"
AXIOM_INTERVAL_SCALE = "interval-scale"
AXIOM_ZERO_ON_BASIS = "zero-on-basis"
AXIOM_LINEARITY_IN_CAPACITY = "linearity-in-capacity"
AXIOMS = (
    AXIOM_COMONOTONIC_ADDITIVITY,
    AXIOM_POSITIVE_HOMOGENEITY,
    AXIOM_COMONOTONIC_AFFINITY,
    AXIOM_INTERVAL_SCALE,
    AXIOM_ZERO_ON_BASIS,
    AXIOM_LINEARITY_IN_CAPACITY,
)
SUBSET_AXIOMS = (AXIOM_INTERVAL_SCALE, AXIOM_ZERO_ON_BASIS)

# Falsification threshold for "the two sides genuinely differ": an absolute
# difference, above rounding noise only while the sides stay below 2**33.
FALSIFY_TOLERANCE = 1e-6

DEFAULT_TRIALS = 1000
DEFAULT_SEED = 0
