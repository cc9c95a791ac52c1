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
from contextvars import ContextVar
from dataclasses import dataclass
from functools import partial
from math import isfinite
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, GroundSetTooLarge, NonFiniteResult, UnsupportedGroundSet
from .integral import _chain_sums, _coerce_point, choquet
from .setfunction import (
    MAX_GROUND_SET,
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

# Most values a chunk of trial words holds while it is made, and a block of
# trials in its (rows, 2**n) arrays (512 KiB of doubles), unless it is one
# row: blocks hold at most 4096 rows at n = 4, 256 at n = 8, one from n = 16.
_BLOCK_VALUES = 1 << 16

# Widest rows whose raw words are computed as jump-ahead array arithmetic
# (_jump_words, about 50 ns a word); wider rows set one PCG64 to each
# trial's state (about 3 us a trial, then 3 ns a word).  Timed over 100 to
# 1000 trials, the arithmetic took 1.4-3.5 times less at width 6, the same
# at widths 43-64 and 2.7-3.8 times more at 264.
_NARROW_WIDTH = 48

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
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise UnsupportedGroundSet(f"a ground set has an integer size >= 1, got {self.n!r}")
        if self.n > MAX_GROUND_SET:
            raise GroundSetTooLarge(self.n, MAX_GROUND_SET)
        if self.family == FAMILY_VSTAR_PATCH and self.n != 3:
            raise UnsupportedGroundSet(
                f"the {FAMILY_VSTAR_PATCH} family is defined on a ground set of size 3, got {self.n}"
            )

    def evaluate(self, v: SignedCapacity, x: Sequence[float]) -> float:
        """The family at game v and point x; an overflow raises NonFiniteResult."""
        f = self._bind(v)  # checks the dimension before the point
        if self.family == FAMILY_CHOQUET:
            # One point takes the scalar chain sum, which _chain_sums equals bit for bit.
            return choquet(v, x).value
        X = np.array([_coerce_point(x, self.n)])
        with np.errstate(over="ignore", invalid="ignore"):
            value = float(f(X)[0])
        if not isfinite(value):
            raise NonFiniteResult(self._operation)
        return value

    def basis_evaluate(self, subset: SubsetLike, x: Sequence[float]) -> float:
        """Evaluate the family at the unanimity game of the given subset."""
        return self.evaluate(unanimity_game(self.n, subset), x)

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


def _row_dots(m: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """m @ row for every row, with m one vector or one per row.  One dot
    product per row, the ddot of a @ b: a matrix product sums in another
    order, and differs from it in the last bits."""
    return np.vecdot(np.broadcast_to(m, rows.shape), rows)


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
    """The generator of one trial's stream, which _trial_words reproduces."""
    return np.random.default_rng([int(seed), int(trial)])


# Trial t of a checker called with seed s draws from the stream of
# default_rng([s, t]), and _seed_words gives the SeedSequence words that
# seed it.  For 0 <= s < 2**32 and 0 <= t < 2**32 the entropy is exactly
# the two 32-bit words [s, t], and _seed_words reproduces numpy's pool
# mixing and generate_state(4, np.uint64) for a whole chunk of trials at
# once; other seeds and trials it hands to SeedSequence itself.  numpy
# keeps these streams fixed across releases (NEP 19); tests compare them
# with default_rng.
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MIX_LEFT, _MIX_RIGHT = 0xCA01F9DD, 0x4973F715


def _hash_constants(constant: int, multiplier: int, steps: int) -> np.ndarray:
    """The (xor, multiply) constants of successive SeedSequence hash steps,
    shape (2, steps, 1): each step xors the running constant into a word,
    advances the constant by the multiplier and multiplies the word by it."""
    pairs = []
    for _ in range(steps):
        advanced = constant * multiplier & _MASK32
        pairs.append((constant, advanced))
        constant = advanced
    return np.array(pairs, dtype=np.uint32).T[:, :, None]


_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)  # 4 entropy words, then 12 mixes
_ENTROPY_HASH = tuple(_POOL_HASH[:, :4])
# SeedSequence mixes pool word s into the other three in ascending order,
# with pool hash steps 4 + 3s, 4 + 3s + 1 and 4 + 3s + 2.  _seed_words
# holds the pool rotated so that round s mixes row s into rows s+1..s+3,
# which are the words (s+1) % 4, (s+2) % 4 and (s+3) % 4; these are their
# hash steps.
_CROSS_HASH = [
    tuple(_POOL_HASH[:, [4 + 3 * s + d - (d > s) for d in ((s + j) % 4 for j in (1, 2, 3))]])
    for s in range(4)
]
_STATE_HASH = tuple(_hash_constants(0x8B51F9DD, 0x58F38DED, 8))  # generate_state's 8 words


def _hash(words: np.ndarray, constants: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """One SeedSequence hash step on every word, with the constants of each row."""
    xor, multiplier = constants
    words = words ^ xor
    words *= multiplier
    words ^= words >> 16
    return words


def _seed_words(seed: int, trials: np.ndarray) -> np.ndarray:
    """PCG64's initstate (high, low) and initseq (high, low) words of
    default_rng([seed, trial]) for each of the increasing trials, shape
    (4, len(trials)).  Seeds and trials outside [0, 2**32) are hashed by
    SeedSequence itself (a negative seed raises its ValueError)."""
    seed = int(seed)
    if not (0 <= seed <= _MASK32 and trials[-1] <= _MASK32):
        return np.array([
            np.random.SeedSequence([seed, int(t)]).generate_state(4, np.uint64) for t in trials
        ]).T
    pool = np.zeros((7, len(trials)), dtype=np.uint32)  # rows 4..6 repeat words 0..2
    pool[0] = seed
    pool[1] = trials
    pool[:4] = _hash(pool[:4], _ENTROPY_HASH)
    for s, constants in enumerate(_CROSS_HASH):
        if s:
            pool[s + 3] = pool[s - 1]  # word s - 1 as round s - 1 left it
        mixed = _hash(pool[s], constants)
        mixed *= _MIX_RIGHT
        targets = pool[s + 1:s + 4]
        targets *= _MIX_LEFT
        targets -= mixed
        targets ^= targets >> 16
    # Rows 3..6 now hold words 3, 0, 1, 2; generate_state cycles over them.
    words = _hash(pool[[4, 5, 6, 3, 4, 5, 6, 3]], _STATE_HASH).astype(np.uint64)
    return words[0::2] | words[1::2] << 32  # little-endian word pairs


# PCG64 steps its 128-bit state x to M x + inc and outputs each new state, so
# word j of a stream is the output of the state j + 1 steps past the seeded
# one.  Seeding steps twice from 0, adding initstate in between, so with
# inc = 2 initseq + 1 and C_k = 1 + M + ... + M**(k - 1) that state is
#     M**(j + 2) initstate + C_(j + 3) inc  (mod 2**128),
# a jump of arbitrary stride (Brown, "Random number generation with
# arbitrary strides", 1994).  _JUMP_HALVES holds the 32-bit halves of the
# low words of both multipliers for each j, shape (2, 1, 2, width, 1), and
# _JUMP_CROSS their (high, low, low) words, shape (2, 3, width, 1).  Words
# run along the second-to-last axis, so that numpy's inner loops run along
# the trials.
def _jump_multipliers(width: int) -> tuple[np.ndarray, np.ndarray]:
    power, total = _PCG64_MULTIPLIER ** 2 & _MASK128, 1 + _PCG64_MULTIPLIER  # M**2, C_2
    columns = []
    for _ in range(width):
        total = (total + power) & _MASK128
        columns.append((power, total))
        power = power * _PCG64_MULTIPLIER & _MASK128
    multipliers = np.array(columns, dtype=object).T
    high, low = (multipliers >> 64).astype(np.uint64), (multipliers & _MASK64).astype(np.uint64)
    halves = np.stack((low & _MASK32, low >> 32), axis=1)[:, None, :, :, None]
    cross = np.stack((high, low, low), axis=1)[..., None]
    for constants in (halves, cross):
        constants.setflags(write=False)
    return halves, cross


_JUMP_HALVES, _JUMP_CROSS = _jump_multipliers(_NARROW_WIDTH)
_HALF_SHIFTS = np.array([[0], [32]], dtype=np.uint64)  # to a word's low and high 32 bits
_HALF_SHIFTS.setflags(write=False)


def _jump_words(seed_words: np.ndarray, width: int) -> np.ndarray:
    """The first `width` raw 64-bit words of each stream from its column of
    _seed_words, one row each, as 128-bit arithmetic on (high, low) uint64
    words (width <= _NARROW_WIDTH)."""
    x = seed_words.reshape(2, 2, -1).copy()  # initstate and initseq, (high, low) each
    x[1, 0] <<= 1  # inc = 2 initseq + 1
    x[1, 0] |= x[1, 1] >> 63
    x[1, 1] <<= 1
    x[1, 1] |= 1
    # Both products at once: the 32-bit halves of the low words multiplied
    # pairwise, shape (2, 2, 2, width, rows), and the cross terms (x_low
    # times K_high, x_high times K_low) with the low products.
    halves = (x[:, 1, None] >> _HALF_SHIFTS) & _MASK32
    p = halves[:, :, None, None, :] * _JUMP_HALVES[..., :width, :]
    c = x[:, [1, 0, 1], None, :] * _JUMP_CROSS[..., :width, :]
    # High words of the low products from their halves; no sum overflows.
    t = p[:, 1, 0]
    t += p[:, 0, 0] >> 32
    w = p[:, 0, 1]
    w += t & _MASK32
    high = p[:, 1, 1]
    high += t >> 32
    high += w >> 32
    high += c[:, 0]
    high += c[:, 1]
    low = c[0, 2] + c[1, 2]
    high = high[0] + high[1]
    high += low < c[0, 2]  # the carry of the low words
    # The XSL-RR output: the halves xored, rotated right by the top 6 bits.
    # A shift by 64 (rot = 0) gives 0 or the word itself; either way the
    # rotation is the word.
    low ^= high
    rot = high >> 58
    out = low >> rot
    low <<= 64 - rot
    out |= low
    return out.T.copy()


def _setter_words(bits: np.random.PCG64, seed_words: np.ndarray, width: int) -> np.ndarray:
    """The first `width` raw 64-bit words of each stream from its column of
    _seed_words, one row each: PCG64 seeding on Python ints (inc = 2 initseq
    + 1, one step, += initstate, one step) gives each row's state, and bits,
    set to each in turn, draws the words."""
    words = np.empty((seed_words.shape[1], width), dtype=np.uint64)
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for row, (a, b, c, d) in enumerate(zip(*seed_words.tolist())):
        inc = (c << 65 | d << 1 | 1) & _MASK128
        pcg["state"] = (((a << 64 | b) + inc) * _PCG64_MULTIPLIER + inc) & _MASK128
        pcg["inc"] = inc
        bits.state = state
        words[row] = bits.random_raw(width)
    return words


# The trial words of one independence_suite call, whose checker calls draw
# from one seed over the same trials: seed words by (seed, start, stop) and
# words by (seed, start, stop, width), read-only, at most _BLOCK_VALUES
# values in all.  None outside a suite, so other calls share nothing.
_SUITE_WORDS: ContextVar[Optional[dict]] = ContextVar("_SUITE_WORDS", default=None)


def _suite_shared(key: tuple, make: Callable[[], np.ndarray]) -> np.ndarray:
    """make(), or the suite's stored array of that key.  Inside a suite a
    new array is stored read-only while the store has room for it."""
    store = _SUITE_WORDS.get()
    if store is None:
        return make()
    words = store.get(key)
    if words is None:
        words = make()
        if words.size + sum(stored.size for stored in store.values()) <= _BLOCK_VALUES:
            words.setflags(write=False)
            store[key] = words
    return words


def _trial_words(seed: int, trials: int, width: int):
    """The first `width` raw 64-bit words of every trial's stream in trial
    order, one row each, lazily in chunks of 16, 32, 64, ... trials.  A
    chunk pays a fixed cost of numpy calls for its seed hash and its words
    (about 40-80 us each on a 2-vCPU Xeon), so the one-trial blocks of large
    ground sets share chunks, and the checker calls of one independence
    suite share the chunks themselves (_suite_shared).

    Every chunk's streams are seeded by _seed_words.  Rows of up to
    _NARROW_WIDTH words are computed by _jump_words, whose largest temporary
    holds 8 values per word, wider ones by _setter_words; either way a chunk
    holds at most _BLOCK_VALUES values while it is made, unless it is one
    row."""
    narrow = width <= _NARROW_WIDTH
    rows = max(1, _BLOCK_VALUES // max(1, width * (8 if narrow else 1)))
    bits = None if narrow else np.random.PCG64(0)  # this call's alone

    def words(start, stop):
        seed_words = _suite_shared((seed, start, stop), lambda: _seed_words(seed, np.arange(start, stop)))
        return _jump_words(seed_words, width) if narrow else _setter_words(bits, seed_words, width)

    start, size = 0, 16
    while start < trials:
        stop = min(trials, start + min(size, rows))
        yield _suite_shared((seed, start, stop, width), partial(words, start, stop))
        start, size = stop, 2 * size


def _doubles(words: np.ndarray) -> np.ndarray:
    """Generator.random() from each raw word, bit for bit: its top 53 bits
    over 2**53."""
    return (words >> 11) * (1.0 / 9007199254740992.0)


def _uniform(u: np.ndarray, low: float, high: float) -> np.ndarray:
    """Generator.uniform(low, high) from random() draws u, bit for bit:
    numpy computes low + (high - low) * u."""
    return low + (high - low) * u


def _bounded_integers(words: np.ndarray, m: int) -> np.ndarray:
    """Generator.integers(m) for 1 <= m < 2**32 from each raw word: Lemire's
    method on the word's low 32 bits.  Where that method would reject the
    word and draw again (about once in 2**32 / m words) the entry is -1."""
    product = (words & _MASK32) * m
    out = (product >> 32).astype(np.int64)
    out[(product & _MASK32) < (_MASK32 + 1 - m) % m] = -1
    return out


def _require_integer(name: str, value) -> int:
    """value as a Python int: an int or a numpy integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _require_trials(trials) -> int:
    trials = _require_integer("trials", trials)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    return trials


def _run_checker(
    axiom: str, agg: Aggregator, game: Optional[SignedCapacity],
    trials: int, seed: int, tolerance: float, fixed: dict, width: int, draw, sides,
) -> AxiomReport:
    """Draw the trials in blocks with draw(numbers, words) -> inputs and
    evaluate them with sides(f, inputs) -> (lhs, rhs), until the sides differ.
    The blocks are the chunks of _trial_words, split at the _BLOCK_VALUES cap.

    f = agg._bind(game) (None without a game) is computed once, after trials
    and tolerance are checked, and then the seed.  Trials and seed are ints
    or numpy integers, reported as ints; a negative seed raises the
    ValueError of SeedSequence.  For a block of trial numbers, words holds
    the first `width` raw words of each trial's stream, and inputs maps each
    witness key that varies by trial to an array with one row per trial.
    The two sides are arrays with one row per trial, computed with
    over/invalid ignored.  The first row that is over the tolerance or
    non-finite decides: over the tolerance ends the run with a witness whose
    inputs are the family, the fixed entries and that row of every input
    (arrays converted to lists and numbers), non-finite raises
    NonFiniteResult naming agg's operation.  Otherwise every trial runs and
    the report is satisfied.
    """
    trials = _require_trials(trials)
    if not (isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    f = None if game is None else agg._bind(game)
    seed = _require_integer("seed", seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")  # SeedSequence's message
    cap = max(1, _BLOCK_VALUES >> agg.n)
    blocks = (chunk[i:i + cap] for chunk in _trial_words(seed, trials, width)
              for i in range(0, len(chunk), cap))
    start = 0
    for words in blocks:
        inputs = draw(np.arange(start, start + len(words)), words)
        with np.errstate(over="ignore", invalid="ignore"):
            lhs, rhs = sides(f, inputs)
            within = np.abs(lhs - rhs) <= tolerance  # False where a side is non-finite
        if not within.all():
            row = int(np.argmin(within))
            left, right = float(lhs[row]), float(rhs[row])
            if not (isfinite(left) and isfinite(right)):
                raise NonFiniteResult(agg._operation)
            plain = {"family": agg.family}
            plain.update((k, v.tolist() if isinstance(v, np.ndarray) else v) for k, v in fixed.items())
            plain.update((k, v[row].tolist()) for k, v in inputs.items())
            witness = Witness(plain, left, right)
            return AxiomReport(axiom, VERDICT_FALSIFIED, witness, start + row + 1, seed, tolerance)
        start += len(words)
    return AxiomReport(axiom, VERDICT_SATISFIED, None, trials, seed, tolerance)


# Raw words a comonotonic pair takes after its n base coordinates: two
# monotone maps of 5 knot gaps, a first level and 5 level rises each.
_PAIR_WORDS = 22

# log(0.1) and log(10) as np.log gives them: the range of log r.
_LOG_R = (np.log(0.1), np.log(10.0))


# The _uniform bounds of a monotone map's 11 draws: 5 knot gaps, a first
# level and 5 level rises.
_MAP_LOW = np.array([0.1] * 5 + [-5.0] + [0.0] * 5)
_MAP_HIGH = np.array([3.5] * 5 + [5.0] + [2.0] * 5)
_MAP_LOW.setflags(write=False)
_MAP_HIGH.setflags(write=False)


def _monotone_maps(base: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Each row of base (rows, n) through random nondecreasing
    piecewise-linear maps of its own, shape (rows, maps, n).  Map i of a row
    is drawn from its 11 random() draws u[row, i]: 5 knot gaps on [0.1, 3.5]
    from -7, a first level on [-5, 5] and 5 level rises on [0, 2].

    np.interp(x, knots, levels) bit for bit: below the first knot the first
    level, at or above the last knot the last level, on a knot its level,
    and otherwise slope * (x - knot) + level from the segment's first knot.
    Knots lie at least 0.1 apart, so no slope divides by zero."""
    draws = _uniform(u, _MAP_LOW, _MAP_HIGH)
    knots = -7.0 + draws[..., :5].cumsum(axis=-1)
    levels = draws[..., 5:6] + draws[..., 6:].cumsum(axis=-1)
    x = base[:, None, :]
    # The first knot of each x's segment (0 below the second knot, 3 from
    # the fourth) as an index into the flattened (rows, maps, 5) arrays.
    at = np.add.reduce(knots[..., None, 1:4] <= x[..., None], axis=-1)
    at += np.arange(0, knots.size, 5).reshape(knots.shape[:2] + (1,))
    k, y = knots.take(at), levels.take(at)
    at += 1
    # x <= k below the first knot and on the segment's first knot.
    out = np.where(x <= k, y, (levels.take(at) - y) / (knots.take(at) - k) * (x - k) + y)
    return np.where(x >= knots[..., 4:], levels[..., 4:], out)


def _comonotonic_pairs(u: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Base vectors on [-5, 5]^n and two comonotonic points from each: two
    monotone maps applied to the shared base vector (n + _PAIR_WORDS draws)."""
    base = _uniform(u[:, :n], -5.0, 5.0)
    maps = _monotone_maps(base, u[:, n:n + _PAIR_WORDS].reshape(-1, 2, 11))
    return base, maps[:, 0], maps[:, 1]


def check_comonotonic_additivity(
    agg: Aggregator,
    v: SignedCapacity,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    tolerance: float = FALSIFY_TOLERANCE,
) -> AxiomReport:
    """f(x + y) = f(x) + f(y) on sampled comonotonic pairs (x, y).

    Trial 0 uses the degenerate pair (base, 0), which reduces to f(0) = 0.
    """
    def draw(numbers, words):
        base, x, y = _comonotonic_pairs(_doubles(words), agg.n)
        first = numbers == 0
        x[first], y[first] = base[first], 0.0
        return {"x": x, "y": y}

    def sides(f, inputs):
        X, Y = inputs["x"], inputs["y"]
        return f(X + Y), f(X) + f(Y)

    return _run_checker(AXIOM_COMONOTONIC_ADDITIVITY, agg, v, trials, seed, tolerance,
                        {"capacity": v.values}, agg.n + _PAIR_WORDS, draw, sides)


def check_positive_homogeneity(
    agg: Aggregator,
    v: SignedCapacity,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    tolerance: float = FALSIFY_TOLERANCE,
) -> AxiomReport:
    """f(r * x) = r * f(x) for sampled r > 0 (log-uniform on [0.1, 10]).

    Trial 0 uses r = 1.
    """
    def draw(numbers, words):
        u = _doubles(words)
        r = np.exp(_uniform(u[:, agg.n], *_LOG_R))
        r[numbers == 0] = 1.0
        return {"x": _uniform(u[:, :agg.n], -5.0, 5.0), "r": r}

    def sides(f, inputs):
        X, r = inputs["x"], inputs["r"]
        return f(r[:, None] * X), r * f(X)

    return _run_checker(AXIOM_POSITIVE_HOMOGENEITY, agg, v, trials, seed, tolerance,
                        {"capacity": v.values}, agg.n + 1, draw, sides)


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
    def draw(numbers, words):
        u = _doubles(words)
        _, x, y = _comonotonic_pairs(u, agg.n)
        lam = np.where(numbers < 2, numbers, _uniform(u[:, agg.n + _PAIR_WORDS], 0.0, 1.0))
        return {"x": x, "x_prime": y, "lambda": lam}

    def sides(f, inputs):
        X, Y, lam = inputs["x"], inputs["x_prime"], inputs["lambda"]
        return f(lam[:, None] * X + (1.0 - lam[:, None]) * Y), lam * f(X) + (1.0 - lam) * f(Y)

    return _run_checker(AXIOM_COMONOTONIC_AFFINITY, agg, v, trials, seed, tolerance,
                        {"capacity": v.values}, agg.n + _PAIR_WORDS + 1, draw, sides)


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

    def draw(numbers, words):
        u = _doubles(words)
        x = _uniform(u[:, :agg.n], -5.0, 5.0)
        r = np.exp(_uniform(u[:, agg.n], *_LOG_R))
        s = _uniform(u[:, agg.n + 1], -5.0, 5.0)
        first = numbers == 0
        x[first], r[first], s[first] = 1.0, 1.0, 1.0
        return {"x": x, "r": r, "s": s}

    def sides(f, inputs):
        X, r, s = inputs["x"], inputs["r"], inputs["s"]
        return f(r[:, None] * X + s[:, None]), r * f(X) + s

    return _run_checker(AXIOM_INTERVAL_SCALE, agg, game, trials, seed, tolerance,
                        {"subset": members}, agg.n + 2, draw, sides)


def _zero_sides(f, inputs):
    """Both sides of the zero-on-basis condition: f(x) and 0."""
    X = inputs["x"]
    return f(X), np.zeros(len(X))


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

    def draw(numbers, words):
        x = _uniform(_doubles(words[:, :agg.n]), 0.0, 1.0)
        index = _bounded_integers(words[:, agg.n], len(members))
        for row in np.flatnonzero(index < 0):  # replay a rejected draw on the trial's own stream
            rng = _trial_rng(seed, numbers[row])
            rng.random(agg.n)
            index[row] = rng.integers(len(members))
        zeroed = np.array(members)[index]
        zeroed[numbers == 0] = members[0]
        x[np.arange(len(x)), zeroed - 1] = 0.0
        x[numbers == 0] = 0.0
        return {"x": x, "zeroed_element": zeroed}

    return _run_checker(AXIOM_ZERO_ON_BASIS, agg, game, trials, seed, tolerance,
                        {"subset": members}, agg.n + 1, draw, _zero_sides)


def check_linearity_in_capacity(
    agg: Aggregator,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    tolerance: float = FALSIFY_TOLERANCE,
) -> AxiomReport:
    """f_v(x) = sum over T of m_v(T) * f_{v_T}(x) for sampled games v.

    Games are drawn as random_signed_capacity draws them (values uniform on
    [-1, 1], v(empty) = 0), then x on [-5, 5]^n.  The sum runs over the
    nonempty masks in ascending order (every game has Mobius coefficient 0
    on the empty set), with f_{v_T} from Aggregator._basis_values; each
    block of games is Mobius-transformed once for both sides.  On a ground
    set of size 3, trial 0 evaluates the patched capacity of the vstar
    family at x = (0, 2, 1), the sample that separates that family.
    Bounded at n <= 10.
    """
    if agg.n > _MAX_N_LINEARITY:
        raise GroundSetTooLarge(agg.n, _MAX_N_LINEARITY)
    size = 1 << agg.n

    def draw(numbers, words):
        u = _doubles(words)
        V = _uniform(u[:, :size], -1.0, 1.0)
        V[:, 0] = 0.0
        X = _uniform(u[:, size:], -5.0, 5.0)
        if agg.n == 3:
            first = numbers == 0
            V[first], X[first] = _VSTAR_VALUES, (0.0, 2.0, 1.0)
        return {"capacity": V, "x": X}

    def sides(_, inputs):
        V, X = inputs["capacity"], inputs["x"]
        m = _lattice_cumulation(V, operator.isub, "mobius_transform")
        # A zero term adds a signed zero, which leaves a sum that starts at
        # +0.0 as it is: the same sum as skipping it.
        rhs = np.zeros(len(X))
        for coeff, basis_value in zip(m[:, 1:].T, agg._basis_values(X).T):
            rhs += coeff * basis_value
        return agg._evaluate(V, m, X), rhs

    return _run_checker(AXIOM_LINEARITY_IN_CAPACITY, agg, None, trials, seed, tolerance,
                        {}, size + agg.n, draw, sides)


# The checker of each axiom: after agg, the first three take a game, the
# basis conditions a subset and linearity nothing.
CHECKERS = {
    AXIOM_COMONOTONIC_ADDITIVITY: check_comonotonic_additivity,
    AXIOM_POSITIVE_HOMOGENEITY: check_positive_homogeneity,
    AXIOM_COMONOTONIC_AFFINITY: check_comonotonic_affinity,
    AXIOM_INTERVAL_SCALE: check_interval_scale_covariance,
    AXIOM_ZERO_ON_BASIS: check_zero_on_basis,
    AXIOM_LINEARITY_IN_CAPACITY: check_linearity_in_capacity,
}


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
    inputs = {"x": np.array([[0.0, 2.0]]), "zeroed_element": np.array([1])}
    game = unanimity_game(agg.n, [1, 2])
    return _run_checker(AXIOM_ZERO_ON_BASIS, agg, game, 1, seed, FALSIFY_TOLERANCE,
                        {"subset": [1, 2]}, 0, lambda numbers, words: inputs, _zero_sides)


def _run_condition(agg: Aggregator, condition: str, trials: int, seed: int):
    """All checker reports backing one cell (one per nonempty subset where relevant)."""
    check = CHECKERS[condition]
    if condition == AXIOM_LINEARITY_IN_CAPACITY:
        return [check(agg, trials, seed)]
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
    trials, seed = _require_trials(trials), _require_integer("seed", seed)
    cells = []
    shared = {}  # the words its checker calls share
    token = _SUITE_WORDS.set(shared)
    try:
        for family in INDEPENDENCE_FAMILIES:
            agg = Aggregator(family, _FAMILY_SUITE_N[family])
            for condition in INDEPENDENCE_CONDITIONS:
                reports = [_paper_replay(agg, seed)] if EXPECTED_FALSIFIED[family] == condition else []
                if not paper_witnesses_only:
                    reports += _run_condition(agg, condition, trials, seed)
                witness = next((r.witness for r in reports if r.falsified), None)
                samples = sum(r.samples_run for r in reports)
                cells.append(IndependenceCell(family, condition, witness is not None, samples, witness))
    finally:
        _SUITE_WORDS.reset(token)
        shared.clear()
    return IndependenceSummary(tuple(cells), trials, seed, paper_witnesses_only)
