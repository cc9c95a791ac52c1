"""Randomized checkers for the aggregation axioms, plus the three
counterexample families that witness their independence.

Each checker samples inputs from a deterministic per-trial RNG stream
(derived from the seed and the trial index, so reports are reproducible no
matter how trials are scheduled) and returns an AxiomReport.  A sample
falsifies only when the two sides differ by more than FALSIFY_TOLERANCE,
well above floating noise; the counterexample discrepancies are O(1).

The three families besides the integral itself:

* weighted-mean: Mobius-weighted arithmetic means over subsets.  Linear in
  the capacity and covariant under interval scaling, but a basis evaluation
  does not vanish when one of its coordinates is zeroed.
* multilinear: Mobius-weighted coordinate products.  Linear in the capacity
  and zero on zeroed basis coordinates, but not interval-scale covariant.
* vstar-patch (ground set of size 3 only): the integral everywhere except
  on one hard-coded normalized capacity, where it is replaced by the mean
  of the first two coordinates capped at the third.  Satisfies the basis
  conditions (every unanimity game evaluates as the integral) but is not
  linear in the capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, UnsupportedGroundSet
from .generate import random_signed_capacity
from .integral import choquet, _coerce_point
from .setfunction import (
    Capacity,
    SignedCapacity,
    SubsetLike,
    _subset_statistic,
    as_mask,
    elements_from_mask,
    mobius_transform,
    unanimity_game,
)

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

VERDICT_SATISFIED = "satisfied-on-samples"
VERDICT_FALSIFIED = "falsified"

# Falsification threshold for "the two sides genuinely differ", well above
# rounding noise.
FALSIFY_TOLERANCE = 1e-6

DEFAULT_TRIALS = 1000
DEFAULT_SEED = 0

# The one capacity the vstar-patch family treats specially (ground set of
# size 3; masks 5 and 6 are {1,3} and {2,3}).
_VSTAR_VALUES = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.5, 1.0])
_VSTAR_VALUES.setflags(write=False)


def vstar_capacity() -> Capacity:
    """The normalized capacity on [3] that the vstar-patch family overrides."""
    return Capacity(3, _VSTAR_VALUES)


@dataclass(frozen=True)
class Aggregator:
    """A capacity-parameterized evaluation rule on points of length n."""

    family: str
    n: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.family == FAMILY_VSTAR_PATCH and self.n != 3:
            raise UnsupportedGroundSet(
                f"the {FAMILY_VSTAR_PATCH} family is defined on a ground set of size 3, got {self.n}"
            )

    def evaluate(self, v: SignedCapacity, x: Sequence[float]) -> float:
        return evaluate_family(self, v, x)

    def basis_evaluate(self, subset: SubsetLike, x: Sequence[float]) -> float:
        """Evaluate the family at the unanimity game of the given subset."""
        return evaluate_family(self, unanimity_game(self.n, subset), x)


def _subset_sizes(n: int) -> np.ndarray:
    return np.fromiter((mask.bit_count() for mask in range(1 << n)), dtype=float)


def evaluate_family(agg: Aggregator, v: SignedCapacity, x: Sequence[float]) -> float:
    """Evaluate one of the four families at a game and a point."""
    if v.n != agg.n:
        raise DimensionMismatch(agg.n, v.n)
    coords = _coerce_point(x, agg.n)
    if agg.family == FAMILY_CHOQUET:
        return choquet(v, coords).value
    if agg.family == FAMILY_WEIGHTED_MEAN:
        m = mobius_transform(v)
        means = _subset_statistic(np.add, 0.0, coords)[1:] / _subset_sizes(agg.n)[1:]
        return float(m.coefficients[1:] @ means)
    if agg.family == FAMILY_MULTILINEAR:
        m = mobius_transform(v)
        return float(m.coefficients @ _subset_statistic(np.multiply, 1.0, coords))
    # vstar-patch: the integral, except on the one hard-coded capacity.
    if np.array_equal(v.values, _VSTAR_VALUES):
        return min((coords[0] + coords[1]) / 2.0, coords[2])
    return choquet(v, coords).value


@dataclass(frozen=True)
class Witness:
    """Concrete falsifying inputs and the two disagreeing side values."""

    inputs: dict
    lhs: float
    rhs: float

    @property
    def discrepancy(self) -> float:
        return abs(self.lhs - self.rhs)

    def to_dict(self) -> dict:
        return {
            "inputs": self.inputs,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "discrepancy": self.discrepancy,
        }


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of one checker run.  Falsified reports carry a replayable witness."""

    axiom: str
    verdict: str
    witness: Optional[Witness]
    samples_run: int
    seed: int
    tolerance: float

    @property
    def falsified(self) -> bool:
        return self.verdict == VERDICT_FALSIFIED

    def to_dict(self) -> dict:
        return {
            "axiom": self.axiom,
            "verdict": self.verdict,
            "witness": self.witness.to_dict() if self.witness else None,
            "samples_run": self.samples_run,
            "seed": self.seed,
            "tolerance": self.tolerance,
        }


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(trial)])


def _require_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")


def _run_checker(axiom: str, trials: int, seed: int, tolerance: float, sample) -> AxiomReport:
    """Run sample(trial, rng) -> (lhs, rhs, inputs) until the sides differ.

    Each trial draws from its own _trial_rng stream.  The first trial whose
    sides differ by more than the tolerance ends the run with a witness
    holding its inputs (arrays converted to lists); otherwise every trial
    runs and the report is satisfied.
    """
    _require_trials(trials)
    if not (isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    for trial in range(trials):
        lhs, rhs, inputs = sample(trial, _trial_rng(seed, trial))
        if abs(lhs - rhs) > tolerance:
            plain = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in inputs.items()}
            witness = Witness(plain, lhs, rhs)
            return AxiomReport(axiom, VERDICT_FALSIFIED, witness, trial + 1, seed, tolerance)
    return AxiomReport(axiom, VERDICT_SATISFIED, None, trials, seed, tolerance)


def _monotone_piecewise_map(rng: np.random.Generator):
    """Random nondecreasing piecewise-linear map on the sampling range."""
    knots = -7.0 + np.cumsum(rng.uniform(0.1, 3.5, 5))
    levels = rng.uniform(-5.0, 5.0) + np.cumsum(rng.uniform(0.0, 2.0, 5))
    return lambda base: np.interp(base, knots, levels)


def _comonotonic_pair(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two comonotonic points: monotone maps applied to a shared base vector."""
    base = rng.uniform(-5.0, 5.0, n)
    return _monotone_piecewise_map(rng)(base), _monotone_piecewise_map(rng)(base)


def _basis_expansion(agg: Aggregator, v: SignedCapacity, x: Sequence[float]) -> float:
    """sum over T of m_v(T) * f_{v_T}(x), over nonzero coefficients in ascending mask order.

    The empty set is skipped: every game has Mobius coefficient 0 there.
    """
    m = mobius_transform(v)
    total = 0.0
    for t_mask in range(1, 1 << agg.n):
        coeff = float(m.coefficients[t_mask])
        if coeff != 0.0:
            total += coeff * agg.basis_evaluate(t_mask, x)
    return total


def check_comonotonic_additivity(
    agg: Aggregator,
    v: SignedCapacity,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    tolerance: float = FALSIFY_TOLERANCE,
) -> AxiomReport:
    """f(x + y) = f(x) + f(y) on sampled comonotonic pairs (x, y).

    Trial 0 uses the degenerate pair (x, 0), which reduces to f(0) = 0.
    """
    def sample(trial, rng):
        if trial == 0:
            x, y = rng.uniform(-5.0, 5.0, agg.n), np.zeros(agg.n)
        else:
            x, y = _comonotonic_pair(rng, agg.n)
        lhs = agg.evaluate(v, x + y)
        rhs = agg.evaluate(v, x) + agg.evaluate(v, y)
        return lhs, rhs, {"family": agg.family, "capacity": v.values, "x": x, "y": y}

    return _run_checker(AXIOM_COMONOTONIC_ADDITIVITY, trials, seed, tolerance, sample)


def check_positive_homogeneity(
    agg: Aggregator,
    v: SignedCapacity,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    tolerance: float = FALSIFY_TOLERANCE,
) -> AxiomReport:
    """f(r * x) = r * f(x) for sampled r > 0 (log-uniform on [0.1, 10])."""
    def sample(trial, rng):
        x = rng.uniform(-5.0, 5.0, agg.n)
        r = 1.0 if trial == 0 else float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        lhs = agg.evaluate(v, r * x)
        rhs = r * agg.evaluate(v, x)
        return lhs, rhs, {"family": agg.family, "capacity": v.values, "x": x, "r": r}

    return _run_checker(AXIOM_POSITIVE_HOMOGENEITY, trials, seed, tolerance, sample)


def check_comonotonic_affinity(
    agg: Aggregator,
    v: SignedCapacity,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    tolerance: float = FALSIFY_TOLERANCE,
) -> AxiomReport:
    """f(lam*x + (1-lam)*x') = lam*f(x) + (1-lam)*f(x') on comonotonic pairs.

    Trials 0 and 1 pin the endpoint cases lam = 0 and lam = 1.
    """
    def sample(trial, rng):
        x, y = _comonotonic_pair(rng, agg.n)
        lam = float(trial) if trial < 2 else float(rng.uniform(0.0, 1.0))
        lhs = agg.evaluate(v, lam * x + (1.0 - lam) * y)
        rhs = lam * agg.evaluate(v, x) + (1.0 - lam) * agg.evaluate(v, y)
        inputs = {"family": agg.family, "capacity": v.values, "x": x, "x_prime": y, "lambda": lam}
        return lhs, rhs, inputs

    return _run_checker(AXIOM_COMONOTONIC_AFFINITY, trials, seed, tolerance, sample)


def check_interval_scale_covariance(
    agg: Aggregator,
    subset: SubsetLike,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    tolerance: float = FALSIFY_TOLERANCE,
) -> AxiomReport:
    """f_S(r*x + s*1) = r*f_S(x) + s for the basis game of the given subset.

    Trial 0 uses x = all-ones, r = 1, s = 1 (for a two-element subset on a
    two-element ground set this is the counterexample that separates the
    multilinear family).
    """
    s_mask = as_mask(subset, agg.n)
    game = unanimity_game(agg.n, s_mask)
    members = list(elements_from_mask(s_mask))

    def sample(trial, rng):
        if trial == 0:
            x, r, s = np.ones(agg.n), 1.0, 1.0
        else:
            x = rng.uniform(-5.0, 5.0, agg.n)
            r = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
            s = float(rng.uniform(-5.0, 5.0))
        lhs = agg.evaluate(game, r * x + s)
        rhs = r * agg.evaluate(game, x) + s
        return lhs, rhs, {"family": agg.family, "subset": members, "x": x, "r": r, "s": s}

    return _run_checker(AXIOM_INTERVAL_SCALE, trials, seed, tolerance, sample)


def check_zero_on_basis(
    agg: Aggregator,
    subset: SubsetLike,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    tolerance: float = FALSIFY_TOLERANCE,
) -> AxiomReport:
    """f_S(x) = 0 when some coordinate in S is zero, for x in the unit cube.

    Points are sampled from [0, 1]^n: that is the domain on which the basis
    condition is actually used (for points with mixed signs even the
    integral violates the raw statement, since a negative coordinate outside
    the zeroed one can carry the minimum).  Trial 0 uses x = 0.
    """
    s_mask = as_mask(subset, agg.n)
    game = unanimity_game(agg.n, s_mask)
    members = list(elements_from_mask(s_mask))

    def sample(trial, rng):
        if trial == 0:
            x = np.zeros(agg.n)
            zeroed = members[0]
        else:
            x = rng.uniform(0.0, 1.0, agg.n)
            zeroed = int(members[rng.integers(len(members))])
            x[zeroed - 1] = 0.0
        inputs = {"family": agg.family, "subset": members, "x": x, "zeroed_element": zeroed}
        return agg.evaluate(game, x), 0.0, inputs

    return _run_checker(AXIOM_ZERO_ON_BASIS, trials, seed, tolerance, sample)


def check_linearity_in_capacity(
    agg: Aggregator,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    tolerance: float = FALSIFY_TOLERANCE,
) -> AxiomReport:
    """f_v(x) = sum over T of m_v(T) * f_{v_T}(x) for sampled games v.

    On a ground set of size 3, trial 0 evaluates the patched capacity of the
    vstar family at x = (0, 2, 1), the sample that separates that family.
    """
    def sample(trial, rng):
        if trial == 0 and agg.n == 3:
            v: SignedCapacity = vstar_capacity()
            x = np.array([0.0, 2.0, 1.0])
        else:
            v = random_signed_capacity(agg.n, rng)
            x = rng.uniform(-5.0, 5.0, agg.n)
        lhs = agg.evaluate(v, x)
        rhs = _basis_expansion(agg, v, x)
        return lhs, rhs, {"family": agg.family, "capacity": v.values, "x": x}

    return _run_checker(AXIOM_LINEARITY_IN_CAPACITY, trials, seed, tolerance, sample)


# ---------------------------------------------------------------------------
# Independence of the three capacity-class conditions
# ---------------------------------------------------------------------------

# Column order puts the expected falsifications on the diagonal.
INDEPENDENCE_CONDITIONS = (
    AXIOM_ZERO_ON_BASIS,
    AXIOM_INTERVAL_SCALE,
    AXIOM_LINEARITY_IN_CAPACITY,
)
INDEPENDENCE_FAMILIES = (FAMILY_WEIGHTED_MEAN, FAMILY_MULTILINEAR, FAMILY_VSTAR_PATCH)
EXPECTED_FALSIFIED = {
    FAMILY_WEIGHTED_MEAN: AXIOM_ZERO_ON_BASIS,
    FAMILY_MULTILINEAR: AXIOM_INTERVAL_SCALE,
    FAMILY_VSTAR_PATCH: AXIOM_LINEARITY_IN_CAPACITY,
}
_FAMILY_SUITE_N = {FAMILY_WEIGHTED_MEAN: 2, FAMILY_MULTILINEAR: 2, FAMILY_VSTAR_PATCH: 3}


def _fixed_witness(family: str, condition: str) -> Optional[Witness]:
    """The hand-checked falsifying sample for an expected-fail cell, or None."""
    if (family, condition) == (FAMILY_WEIGHTED_MEAN, AXIOM_ZERO_ON_BASIS):
        agg = Aggregator(family, 2)
        x = [0.0, 2.0]
        lhs = agg.basis_evaluate([1, 2], x)
        return Witness({"family": family, "subset": [1, 2], "x": x, "zeroed_element": 1}, lhs, 0.0)
    if (family, condition) == (FAMILY_MULTILINEAR, AXIOM_INTERVAL_SCALE):
        agg = Aggregator(family, 2)
        x, r, s = np.array([1.0, 1.0]), 1.0, 1.0
        lhs = agg.basis_evaluate([1, 2], r * x + s)
        rhs = r * agg.basis_evaluate([1, 2], x) + s
        return Witness({"family": family, "subset": [1, 2], "x": x.tolist(), "r": r, "s": s}, lhs, rhs)
    if (family, condition) == (FAMILY_VSTAR_PATCH, AXIOM_LINEARITY_IN_CAPACITY):
        agg = Aggregator(family, 3)
        v = vstar_capacity()
        x = [0.0, 2.0, 1.0]
        lhs = agg.evaluate(v, x)
        rhs = _basis_expansion(agg, v, x)
        return Witness({"family": family, "capacity": v.values.tolist(), "x": x}, lhs, rhs)
    return None


@dataclass(frozen=True)
class IndependenceCell:
    """One (family, condition) entry of the independence matrix."""

    family: str
    condition: str
    falsified: bool
    samples_run: int
    witness: Optional[Witness]

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "condition": self.condition,
            "falsified": self.falsified,
            "samples_run": self.samples_run,
            "witness": self.witness.to_dict() if self.witness else None,
        }


@dataclass(frozen=True)
class IndependenceSummary:
    """Verdicts of the 3 x 3 family/condition matrix."""

    cells: tuple[IndependenceCell, ...]
    trials: int
    seed: int
    paper_witnesses_only: bool

    def cell(self, family: str, condition: str) -> IndependenceCell:
        for c in self.cells:
            if c.family == family and c.condition == condition:
                return c
        raise KeyError((family, condition))

    @property
    def matches_expected(self) -> bool:
        return not self.deviations()

    def deviations(self) -> list[IndependenceCell]:
        return [
            c for c in self.cells
            if c.falsified != (EXPECTED_FALSIFIED[c.family] == c.condition)
        ]

    def to_dict(self) -> dict:
        return {
            "cells": [c.to_dict() for c in self.cells],
            "expected_falsified": dict(EXPECTED_FALSIFIED),
            "matches_expected": self.matches_expected,
            "trials": self.trials,
            "seed": self.seed,
            "paper_witnesses_only": self.paper_witnesses_only,
        }

    def format_text(self) -> str:
        width = max(len(c) for c in INDEPENDENCE_CONDITIONS) + 2
        head = "family".ljust(16) + "".join(c.ljust(width) for c in INDEPENDENCE_CONDITIONS)
        lines = [head]
        for family in INDEPENDENCE_FAMILIES:
            row = family.ljust(16)
            for condition in INDEPENDENCE_CONDITIONS:
                verdict = "FALSIFIED" if self.cell(family, condition).falsified else "pass"
                row += verdict.ljust(width)
            lines.append(row)
        lines.append("")
        lines.append(
            "expected pattern: " + ("reproduced" if self.matches_expected else "DEVIATION")
        )
        return "\n".join(lines)


def _run_condition(agg: Aggregator, condition: str, trials: int, seed: int):
    """All checker reports backing one cell (one per nonempty subset where relevant)."""
    if condition == AXIOM_LINEARITY_IN_CAPACITY:
        return [check_linearity_in_capacity(agg, trials, seed)]
    check = {
        AXIOM_ZERO_ON_BASIS: check_zero_on_basis,
        AXIOM_INTERVAL_SCALE: check_interval_scale_covariance,
    }[condition]
    return [check(agg, s, trials, seed) for s in range(1, 1 << agg.n)]


def independence_suite(
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    paper_witnesses_only: bool = False,
) -> IndependenceSummary:
    """Run the full 3-family by 3-condition matrix.

    Every expected-fail cell first replays its hand-checked witness, so the
    verdict pattern is deterministic across seeds; random sampling (unless
    disabled) backs the expected-pass cells and typically finds additional
    falsifying samples in the failing ones.
    """
    _require_trials(trials)
    cells = []
    for family in INDEPENDENCE_FAMILIES:
        agg = Aggregator(family, _FAMILY_SUITE_N[family])
        for condition in INDEPENDENCE_CONDITIONS:
            fixed = _fixed_witness(family, condition)
            samples = 0
            witness = None
            falsified = False
            if fixed is not None:
                samples += 1
                if fixed.discrepancy > FALSIFY_TOLERANCE:
                    falsified, witness = True, fixed
            if not paper_witnesses_only:
                for report in _run_condition(agg, condition, trials, seed):
                    samples += report.samples_run
                    if report.falsified and witness is None:
                        falsified, witness = True, report.witness
            cells.append(IndependenceCell(family, condition, falsified, samples, witness))
    return IndependenceSummary(tuple(cells), trials, seed, paper_witnesses_only)
