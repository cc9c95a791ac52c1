"""A plain per-trial reference for the six axiom checkers of choquet.axioms.

Each checker here runs its trials one at a time, in order.  Trial t draws
its inputs from one stream, _trial_rng(seed, t), with numpy's own
Generator methods (random through uniform, and np.interp for each monotone
map), in the order in which the fast checkers document their words.  The
zero-on-basis element is multiply-shift on the next raw word's low 32 bits,
which is the integers draw wherever Lemire's method accepts that word.  It evaluates both sides by scalar routes and stops at the first
trial whose sides differ by more than the tolerance; a non-finite side
raises NonFiniteResult naming the family's operation.

The scalar routes:

* choquet: integral.choquet;
* vstar-patch: the mean x1/2 + x2/2 capped at x3 on vstar, the integral
  elsewhere;
* weighted-mean and multilinear: the Mobius coefficients dotted (a @ b)
  with the statistic of every mask, the sum or product folded over the
  mask's coordinates in ascending element order (the sum then divided by
  the mask's size);
* a basis game: unanimity_game(n, S), evaluated by the family's route;
* linearity's expansion: a loop that adds the terms to 0.0 left to right.

Nothing here comes from the fast runner, its trial stream, the basis folds
or the batched family code, so the reports the two give are two
computations of the same numbers: tests/test_reference_checkers.py requires
them to be equal.  The stream is one function, so that a change of stream
changes only _trial_rng.
"""

from __future__ import annotations

import math
import operator
import struct
from functools import lru_cache

import numpy as np

from choquet.axioms import VERDICT_FALSIFIED, VERDICT_SATISFIED, AxiomReport, Witness
from choquet.errors import NonFiniteResult
from choquet.integral import choquet
from choquet.names import (
    AXIOM_COMONOTONIC_ADDITIVITY, AXIOM_COMONOTONIC_AFFINITY, AXIOM_INTERVAL_SCALE,
    AXIOM_LINEARITY_IN_CAPACITY, AXIOM_POSITIVE_HOMOGENEITY, AXIOM_ZERO_ON_BASIS,
    FAMILY_CHOQUET, FAMILY_MULTILINEAR, FAMILY_VSTAR_PATCH, FAMILY_WEIGHTED_MEAN,
)
from choquet.setfunction import (
    SignedCapacity, as_mask, elements_from_mask, mobius_transform, unanimity_game,
)

# What a NonFiniteResult of each family names.
OPERATION = {
    FAMILY_CHOQUET: "choquet",
    FAMILY_VSTAR_PATCH: "choquet",
    FAMILY_WEIGHTED_MEAN: "weighted-mean family",
    FAMILY_MULTILINEAR: "multilinear family",
}

# The capacity on [3] that the vstar-patch family overrides.
VSTAR = (0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.5, 1.0)


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The stream trial `trial` of a checker called with `seed` draws from."""
    return np.random.default_rng([seed, trial])


@lru_cache(maxsize=16)
def _statistic(family: str, point: bytes) -> np.ndarray:
    """Per mask S, the mean of S's coordinates (weighted-mean; masks from 1)
    or their product (multilinear; the empty product is 1.0), each folded
    in ascending element order.  The point comes as its doubles' bytes,
    which tell signed zeros apart, so that the basis games of one linearity
    trial share one statistic."""
    x = struct.unpack(f"{len(point) // 8}d", point)
    op, value = (operator.add, 0.0) if family == FAMILY_WEIGHTED_MEAN else (operator.mul, 1.0)
    stat = []
    for mask in range(1 << len(x)):
        fold = value
        for i, c in enumerate(x):
            if mask >> i & 1:
                fold = op(fold, c)
        stat.append(fold)
    if family == FAMILY_WEIGHTED_MEAN:
        stat = [stat[mask] / bin(mask).count("1") for mask in range(1, len(stat))]
    return np.array(stat)


def _family_at(family: str, v: SignedCapacity):
    """The family at game v as a function of a point (a list of floats)."""
    if family in (FAMILY_CHOQUET, FAMILY_VSTAR_PATCH):
        if family == FAMILY_VSTAR_PATCH and tuple(v.values.tolist()) == VSTAR:
            def patch(x):
                mean = x[0] / 2.0 + x[1] / 2.0
                return x[2] if x[2] < mean else mean
            return patch
        return lambda x: choquet(v, x).value
    m = mobius_transform(v).coefficients
    if family == FAMILY_WEIGHTED_MEAN:
        m = m[1:]

    return lambda x: float(m @ _statistic(family, struct.pack(f"{len(x)}d", *x)))


def _run(axiom, agg, trials, seed, tolerance, fixed, sample) -> AxiomReport:
    """sample(trial, rng) -> (lhs, rhs, inputs) for trial 0, 1, ... until
    the sides differ by more than the tolerance."""
    for trial in range(trials):
        with np.errstate(over="ignore", invalid="ignore"):
            lhs, rhs, inputs = sample(trial, _trial_rng(seed, trial))
        if not abs(lhs - rhs) <= tolerance:
            witness = Witness({"family": agg.family, **fixed, **inputs}, lhs, rhs)
            if not math.isfinite(witness.discrepancy):
                raise NonFiniteResult(OPERATION[agg.family])
            return AxiomReport(axiom, VERDICT_FALSIFIED, witness, trial + 1, seed, tolerance)
    return AxiomReport(axiom, VERDICT_SATISFIED, None, trials, seed, tolerance)


def _monotone_map(rng: np.random.Generator, base: np.ndarray) -> list[float]:
    """base through a random nondecreasing piecewise-linear map: 5 knot gaps
    on [0.1, 3.5] from -7, a first level on [-5, 5] and 5 level rises on [0, 2]."""
    knots = -7.0 + np.cumsum(rng.uniform(0.1, 3.5, 5))
    levels = rng.uniform(-5.0, 5.0) + np.cumsum(rng.uniform(0.0, 2.0, 5))
    return np.interp(base, knots, levels).tolist()


def _comonotonic_pair(rng: np.random.Generator, n: int) -> tuple[list, list, list]:
    """A base vector on [-5, 5]^n and two monotone maps of it."""
    base = rng.uniform(-5.0, 5.0, n)
    return base.tolist(), _monotone_map(rng, base), _monotone_map(rng, base)


def _log_uniform_r(rng: np.random.Generator) -> float:
    return float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))


def check_comonotonic_additivity(agg, v, trials, seed, tolerance) -> AxiomReport:
    f = _family_at(agg.family, v)

    def sample(trial, rng):
        base, x, y = _comonotonic_pair(rng, agg.n)
        if trial == 0:
            x, y = base, [0.0] * agg.n
        lhs = f([a + b for a, b in zip(x, y)])
        return lhs, f(x) + f(y), {"x": x, "y": y}

    return _run(AXIOM_COMONOTONIC_ADDITIVITY, agg, trials, seed, tolerance,
                {"capacity": v.values.tolist()}, sample)


def check_positive_homogeneity(agg, v, trials, seed, tolerance) -> AxiomReport:
    f = _family_at(agg.family, v)

    def sample(trial, rng):
        x = rng.uniform(-5.0, 5.0, agg.n).tolist()
        r = _log_uniform_r(rng)
        if trial == 0:
            r = 1.0
        return f([r * c for c in x]), r * f(x), {"x": x, "r": r}

    return _run(AXIOM_POSITIVE_HOMOGENEITY, agg, trials, seed, tolerance,
                {"capacity": v.values.tolist()}, sample)


def check_comonotonic_affinity(agg, v, trials, seed, tolerance) -> AxiomReport:
    f = _family_at(agg.family, v)

    def sample(trial, rng):
        _, x, y = _comonotonic_pair(rng, agg.n)
        lam = float(trial) if trial < 2 else float(rng.uniform(0.0, 1.0))
        lhs = f([lam * a + (1.0 - lam) * b for a, b in zip(x, y)])
        return lhs, lam * f(x) + (1.0 - lam) * f(y), {"x": x, "x_prime": y, "lambda": lam}

    return _run(AXIOM_COMONOTONIC_AFFINITY, agg, trials, seed, tolerance,
                {"capacity": v.values.tolist()}, sample)


def _members(agg, subset) -> list[int]:
    return list(elements_from_mask(as_mask(subset, agg.n)))


def check_interval_scale_covariance(agg, subset, trials, seed, tolerance) -> AxiomReport:
    members = _members(agg, subset)
    f = _family_at(agg.family, unanimity_game(agg.n, subset))

    def sample(trial, rng):
        if trial == 0:
            x, r, s = [1.0] * agg.n, 1.0, 1.0
        else:
            x = rng.uniform(-5.0, 5.0, agg.n).tolist()
            r = _log_uniform_r(rng)
            s = float(rng.uniform(-5.0, 5.0))
        return f([r * c + s for c in x]), r * f(x) + s, {"x": x, "r": r, "s": s}

    return _run(AXIOM_INTERVAL_SCALE, agg, trials, seed, tolerance, {"subset": members}, sample)


def check_zero_on_basis(agg, subset, trials, seed, tolerance) -> AxiomReport:
    members = _members(agg, subset)
    f = _family_at(agg.family, unanimity_game(agg.n, subset))

    def sample(trial, rng):
        if trial == 0:
            x, zeroed = [0.0] * agg.n, members[0]
        else:
            x = rng.uniform(0.0, 1.0, agg.n).tolist()
            low = int(rng.bit_generator.random_raw()) & 0xFFFFFFFF
            zeroed = members[low * len(members) >> 32]
            x[zeroed - 1] = 0.0
        return f(x), 0.0, {"x": x, "zeroed_element": zeroed}

    return _run(AXIOM_ZERO_ON_BASIS, agg, trials, seed, tolerance, {"subset": members}, sample)


def check_linearity_in_capacity(agg, trials, seed, tolerance) -> AxiomReport:
    basis = [_family_at(agg.family, unanimity_game(agg.n, t)) for t in range(1, 1 << agg.n)]

    def sample(trial, rng):
        if trial == 0 and agg.n == 3:
            values, x = list(VSTAR), [0.0, 2.0, 1.0]
        else:
            values = rng.uniform(-1.0, 1.0, 1 << agg.n)
            values[0] = 0.0
            values = values.tolist()
            x = rng.uniform(-5.0, 5.0, agg.n).tolist()
        v = SignedCapacity(agg.n, values)
        m = mobius_transform(v).coefficients.tolist()
        rhs = 0.0
        for t, f_t in enumerate(basis, 1):
            rhs += m[t] * f_t(x)
        return _family_at(agg.family, v)(x), rhs, {"capacity": values, "x": x}

    return _run(AXIOM_LINEARITY_IN_CAPACITY, agg, trials, seed, tolerance, {}, sample)


CHECKERS = {
    AXIOM_COMONOTONIC_ADDITIVITY: check_comonotonic_additivity,
    AXIOM_POSITIVE_HOMOGENEITY: check_positive_homogeneity,
    AXIOM_COMONOTONIC_AFFINITY: check_comonotonic_affinity,
    AXIOM_INTERVAL_SCALE: check_interval_scale_covariance,
    AXIOM_ZERO_ON_BASIS: check_zero_on_basis,
    AXIOM_LINEARITY_IN_CAPACITY: check_linearity_in_capacity,
}
