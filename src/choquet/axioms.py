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

import operator
from dataclasses import dataclass
from functools import partial
from math import isfinite
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, GroundSetTooLarge, NonFiniteResult, UnsupportedGroundSet
from .generate import random_signed_capacity
# choquet is not called here; it stays bound as axioms.choquet for callers that patch it.
from .integral import _chain_sums, _coerce_point, choquet  # noqa: F401
from .setfunction import (
    Capacity,
    SignedCapacity,
    SubsetLike,
    _lattice_cumulation,
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

# Largest ground set of the linearity checker.
_MAX_N_LINEARITY = 10

# Checker trials are evaluated in blocks whose rows double from 1 up to the
# number whose (rows, 2**n) arrays hold at most this many values (512 KiB of
# doubles): 4096 rows at n = 4, 256 at n = 8, one row from n = 16.
_BLOCK_VALUES = 1 << 16

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
        return self._one_row(self._bind(v), x)

    def basis_evaluate(self, subset: SubsetLike, x: Sequence[float]) -> float:
        """Evaluate the family at the unanimity game of the given subset."""
        return self._one_row(self._bind(unanimity_game(self.n, subset)), x)

    @property
    def _operation(self) -> str:
        """The operation a NonFiniteResult of this family names."""
        if self.family in (FAMILY_CHOQUET, FAMILY_VSTAR_PATCH):
            return "choquet"
        return f"{self.family} family"

    def _bind(self, v: SignedCapacity) -> Callable[[np.ndarray], np.ndarray]:
        """The family at game v as a function of a (k, n) array of points,
        with the work that depends on v alone (dimension check, Mobius
        transform) done once.  Rows that overflow come out non-finite."""
        if v.n != self.n:
            raise DimensionMismatch(self.n, v.n)
        if self.family in (FAMILY_CHOQUET, FAMILY_VSTAR_PATCH):
            return partial(self._evaluate, v.values, None)
        return partial(self._evaluate, v.values, mobius_transform(v).coefficients)

    def _evaluate(self, values: np.ndarray, m: Optional[np.ndarray], X: np.ndarray) -> np.ndarray:
        """The family on the rows of X at one game (values and Mobius
        coefficients m of shape (2**n,)) or at one game per row ((k, 2**n)
        each); m is needed by the weighted-mean and multilinear families only.
        Call it with over/invalid ignored: rows that overflow come out non-finite."""
        if self.family == FAMILY_WEIGHTED_MEAN:
            return _row_dots(m[..., 1:], self._basis_values(X))
        if self.family == FAMILY_MULTILINEAR:
            return _row_dots(m, _subset_statistic(np.multiply, 1.0, X))
        out = _chain_sums(values, X)
        if self.family == FAMILY_VSTAR_PATCH:
            out = np.where(np.all(values == _VSTAR_VALUES, axis=-1), _vstar_patch(X), out)
        return out

    def _basis_values(self, X: np.ndarray) -> np.ndarray:
        """The family at the unanimity game of every nonempty mask (column
        mask - 1) on the rows of X: the mean of x over the mask for the
        weighted-mean family, the product for multilinear and the minimum for
        the others (no unanimity game is the capacity vstar-patch overrides).

        Evaluating the bound unanimity games gives the same values up to the
        sign of a zero: their Mobius coefficients are 0 or 1, and the chain
        sum of a unanimity game adds signed zeros to the one nonzero term.
        """
        if self.family == FAMILY_WEIGHTED_MEAN:
            sizes = _subset_statistic(np.add, 0.0, np.ones(self.n))[1:]  # |S| per mask
            return _subset_statistic(np.add, 0.0, X)[:, 1:] / sizes
        if self.family == FAMILY_MULTILINEAR:
            return _subset_statistic(np.multiply, 1.0, X)[:, 1:]
        return _subset_statistic(np.minimum, np.inf, X)[:, 1:]

    def _one_row(self, f: Callable[[np.ndarray], np.ndarray], x: Sequence[float]) -> float:
        """A bound family at one point; an overflow raises NonFiniteResult."""
        X = np.array([_coerce_point(x, self.n)])
        with np.errstate(over="ignore", invalid="ignore"):
            value = float(f(X)[0])
        if not isfinite(value):
            raise NonFiniteResult(self._operation)
        return value


def _row_dots(m: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """m @ row for every row, with m one vector or one per row.  One dot
    product per row: a matrix product sums in another order, and differs
    from it in the last bits."""
    return np.array([a @ b for a, b in zip(np.broadcast_to(m, rows.shape), rows)])


def _vstar_patch(X: np.ndarray) -> np.ndarray:
    """The vstar-patch family on the one capacity it overrides: the mean of
    the first two coordinates (halved first, so it cannot overflow), capped
    at the third."""
    mean = X[:, 0] / 2.0 + X[:, 1] / 2.0
    return np.where(X[:, 2] < mean, X[:, 2], mean)


def evaluate_family(agg: Aggregator, v: SignedCapacity, x: Sequence[float]) -> float:
    """Evaluate one of the four families at a game and a point."""
    return agg.evaluate(v, x)


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


def _block_bounds(trials: int, n: int):
    """(start, stop) of each block of trials: rows double from 1 up to the
    _BLOCK_VALUES cap."""
    cap = max(1, _BLOCK_VALUES >> n)
    start = 0
    while start < trials:
        stop = min(trials, start + min(start + 1, cap))
        yield start, stop
        start = stop


def _stack(block: list, key: str) -> np.ndarray:
    """One input of every trial in a block, stacked along a leading axis."""
    return np.array([inputs[key] for inputs in block])


def _run_checker(
    axiom: str, agg: Aggregator, game: Optional[SignedCapacity],
    trials: int, seed: int, tolerance: float, draw, sides,
) -> AxiomReport:
    """Draw the trials with draw(trial, rng) -> inputs and evaluate them in
    blocks with sides(f, block) -> (lhs, rhs), until the sides differ.

    f = agg._bind(game) (None without a game) is computed once, after trials
    and tolerance are checked.  Each trial draws from its own _trial_rng
    stream, in trial order; a block's two sides are arrays with one row per
    trial, computed with over/invalid ignored.  The first row that is over
    the tolerance or non-finite decides: over the tolerance ends the run
    with a witness holding its inputs (arrays converted to lists),
    non-finite raises NonFiniteResult naming agg's operation.  Otherwise
    every trial runs and the report is satisfied.
    """
    _require_trials(trials)
    if not (isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    f = None if game is None else agg._bind(game)
    for start, stop in _block_bounds(trials, agg.n):
        block = [draw(trial, _trial_rng(seed, trial)) for trial in range(start, stop)]
        with np.errstate(over="ignore", invalid="ignore"):
            lhs, rhs = sides(f, block)
            within = np.abs(lhs - rhs) <= tolerance  # False where a side is non-finite
        if not within.all():
            row = int(np.argmin(within))
            left, right = float(lhs[row]), float(rhs[row])
            if not (isfinite(left) and isfinite(right)):
                raise NonFiniteResult(agg._operation)
            inputs = block[row]
            plain = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in inputs.items()}
            witness = Witness(plain, left, right)
            return AxiomReport(axiom, VERDICT_FALSIFIED, witness, start + row + 1, seed, tolerance)
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
    def draw(trial, rng):
        if trial == 0:
            x, y = rng.uniform(-5.0, 5.0, agg.n), np.zeros(agg.n)
        else:
            x, y = _comonotonic_pair(rng, agg.n)
        return {"family": agg.family, "capacity": v.values, "x": x, "y": y}

    def sides(f, block):
        X, Y = _stack(block, "x"), _stack(block, "y")
        return f(X + Y), f(X) + f(Y)

    return _run_checker(AXIOM_COMONOTONIC_ADDITIVITY, agg, v, trials, seed, tolerance, draw, sides)


def check_positive_homogeneity(
    agg: Aggregator,
    v: SignedCapacity,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    tolerance: float = FALSIFY_TOLERANCE,
) -> AxiomReport:
    """f(r * x) = r * f(x) for sampled r > 0 (log-uniform on [0.1, 10])."""
    def draw(trial, rng):
        x = rng.uniform(-5.0, 5.0, agg.n)
        r = 1.0 if trial == 0 else float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        return {"family": agg.family, "capacity": v.values, "x": x, "r": r}

    def sides(f, block):
        X, r = _stack(block, "x"), _stack(block, "r")
        return f(r[:, None] * X), r * f(X)

    return _run_checker(AXIOM_POSITIVE_HOMOGENEITY, agg, v, trials, seed, tolerance, draw, sides)


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
    def draw(trial, rng):
        x, y = _comonotonic_pair(rng, agg.n)
        lam = float(trial) if trial < 2 else float(rng.uniform(0.0, 1.0))
        return {"family": agg.family, "capacity": v.values, "x": x, "x_prime": y, "lambda": lam}

    def sides(f, block):
        X, Y, lam = _stack(block, "x"), _stack(block, "x_prime"), _stack(block, "lambda")
        return f(lam[:, None] * X + (1.0 - lam[:, None]) * Y), lam * f(X) + (1.0 - lam) * f(Y)

    return _run_checker(AXIOM_COMONOTONIC_AFFINITY, agg, v, trials, seed, tolerance, draw, sides)


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

    def draw(trial, rng):
        if trial == 0:
            x, r, s = np.ones(agg.n), 1.0, 1.0
        else:
            x = rng.uniform(-5.0, 5.0, agg.n)
            r = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
            s = float(rng.uniform(-5.0, 5.0))
        return {"family": agg.family, "subset": members, "x": x, "r": r, "s": s}

    def sides(f, block):
        X, r, s = _stack(block, "x"), _stack(block, "r"), _stack(block, "s")
        return f(r[:, None] * X + s[:, None]), r * f(X) + s

    return _run_checker(AXIOM_INTERVAL_SCALE, agg, game, trials, seed, tolerance, draw, sides)


def _zero_sides(f, block):
    """Both sides of the zero-on-basis condition: f(x) and 0."""
    return f(_stack(block, "x")), np.zeros(len(block))


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

    def draw(trial, rng):
        if trial == 0:
            x = np.zeros(agg.n)
            zeroed = members[0]
        else:
            x = rng.uniform(0.0, 1.0, agg.n)
            zeroed = int(members[rng.integers(len(members))])
            x[zeroed - 1] = 0.0
        return {"family": agg.family, "subset": members, "x": x, "zeroed_element": zeroed}

    return _run_checker(AXIOM_ZERO_ON_BASIS, agg, game, trials, seed, tolerance, draw, _zero_sides)


def check_linearity_in_capacity(
    agg: Aggregator,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    tolerance: float = FALSIFY_TOLERANCE,
) -> AxiomReport:
    """f_v(x) = sum over T of m_v(T) * f_{v_T}(x) for sampled games v.

    The sum runs over the nonempty masks in ascending order (every game has
    Mobius coefficient 0 on the empty set), with f_{v_T} from
    Aggregator._basis_values; each block of games is Mobius-transformed once
    for both sides.  On a ground set of size 3, trial 0 evaluates the
    patched capacity of the vstar family at x = (0, 2, 1), the sample that
    separates that family.  Bounded at n <= 10.
    """
    if agg.n > _MAX_N_LINEARITY:
        raise GroundSetTooLarge(agg.n, _MAX_N_LINEARITY)

    def draw(trial, rng):
        if trial == 0 and agg.n == 3:
            v: SignedCapacity = vstar_capacity()
            x = np.array([0.0, 2.0, 1.0])
        else:
            v = random_signed_capacity(agg.n, rng)
            x = rng.uniform(-5.0, 5.0, agg.n)
        return {"family": agg.family, "capacity": v.values, "x": x}

    def sides(_, block):
        V, X = _stack(block, "capacity"), _stack(block, "x")
        m = _lattice_cumulation(V, operator.isub, "mobius_transform")
        # A zero term adds a signed zero, which leaves a sum that starts at
        # +0.0 as it is: the same sum as skipping it.
        rhs = np.zeros(len(block))
        for coeff, basis_value in zip(m[:, 1:].T, agg._basis_values(X).T):
            rhs += coeff * basis_value
        return agg._evaluate(V, m, X), rhs

    return _run_checker(AXIOM_LINEARITY_IN_CAPACITY, agg, None, trials, seed, tolerance, draw, sides)


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


def _paper_replay(agg: Aggregator, seed: int) -> AxiomReport:
    """The hand-checked falsifying sample of the family's expected-fail cell
    as a one-trial report."""
    if agg.family == FAMILY_MULTILINEAR:
        return check_interval_scale_covariance(agg, [1, 2], 1, seed)  # its trial 0
    if agg.family == FAMILY_VSTAR_PATCH:
        return check_linearity_in_capacity(agg, 1, seed)  # its trial 0
    inputs = {"family": agg.family, "subset": [1, 2], "x": [0.0, 2.0], "zeroed_element": 1}
    game = unanimity_game(agg.n, [1, 2])
    return _run_checker(AXIOM_ZERO_ON_BASIS, agg, game, 1, seed, FALSIFY_TOLERANCE,
                        lambda trial, rng: inputs, _zero_sides)


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
            reports = [_paper_replay(agg, seed)] if EXPECTED_FALSIFIED[family] == condition else []
            if not paper_witnesses_only:
                reports += _run_condition(agg, condition, trials, seed)
            witness = next((r.witness for r in reports if r.falsified), None)
            samples = sum(r.samples_run for r in reports)
            cells.append(IndependenceCell(family, condition, witness is not None, samples, witness))
    return IndependenceSummary(tuple(cells), trials, seed, paper_witnesses_only)
