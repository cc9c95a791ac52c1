"""Randomized checkers for the aggregation axioms, plus the three
counterexample families that witness their independence.

Each checker samples inputs from a deterministic per-trial RNG stream
(derived from the seed and the trial index, so reports are reproducible no
matter how trials are scheduled) and returns an AxiomReport.  A sample
falsifies only when the two sides differ by more than FALSIFY_TOLERANCE,
well above floating noise; the counterexample discrepancies are O(1).

Each family is one entry of _FAMILY_PARTS.  The three besides the
integral itself, each with its suite row and paper witness there:

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

import json
import sys
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field
from functools import partial, reduce
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import GroundSetTooLarge, UnsupportedGroundSet
from .integral import _chain_sums, _coerce_point, _row_dots, _row_sums
from .integral import choquet  # noqa: F401  (unused; bench/test_bench.py traces this binding)
from .names import (
    AXIOM_COMONOTONIC_ADDITIVITY, AXIOM_COMONOTONIC_AFFINITY, AXIOM_INTERVAL_SCALE,
    AXIOM_LINEARITY_IN_CAPACITY, AXIOM_POSITIVE_HOMOGENEITY, AXIOM_ZERO_ON_BASIS, AXIOMS,
    DEFAULT_SEED, DEFAULT_TRIALS, FALSIFY_TOLERANCE, FAMILIES, FAMILY_CHOQUET, FAMILY_MULTILINEAR,
    FAMILY_VSTAR_PATCH, FAMILY_WEIGHTED_MEAN, SUBSET_AXIOMS,
)
from .setfunction import (
    Capacity,
    SetFunction,
    SignedCapacity,
    SubsetLike,
    _finite,
    _ground_set,
    _lattice_cumulation,
    _require_game_on,
    _require_count,
    _require_instance,
    _require_real,
    _require_seed,
    _subset_statistic,
    _unanimity_mask,
    elements_from_mask,
)

VERDICT_SATISFIED = "satisfied-on-samples"
VERDICT_FALSIFIED = "falsified"

# Largest ground set of the linearity checker.
_MAX_N_LINEARITY = 10

# The budget a chunk of trial words is made in, and the most values a block
# of _trial_words holds in its (rows, 2**n) arrays (512 KiB of doubles),
# unless it is one row: such blocks hold at most 4096 rows at n = 4, 256 at
# n = 8, one from n = 16.  Only _trial_words and the suite store read it.
_BLOCK_VALUES = 1 << 16

# Widest rows whose raw words are computed as jump-ahead array arithmetic
# (_jump_words, about 30 ns a word); wider rows set one PCG64 to each
# trial's state (about 3.5 us a trial, then 5 ns a word).  Timed over 100
# to 1000 trials of _trial_words on a 2-vCPU Xeon in four runs, the
# arithmetic took 2.2-12 times less at width 6, 1.1-1.6 times less at 96,
# 0.9-1.3 times less at 128 and 1.3-2.4 times more at 264.  Whole
# linearity checks, the only rows past 48 words, are timed on both routes
# in ROADMAP.md (Parked: "Trial-stream forks stay until item 5").
_NARROW_WIDTH = 48

# Each chunk of trial words is this many times the one before (16, 1024,
# 65536, ... trials, each at most the rows that fit under _BLOCK_VALUES), so
# a satisfied run of 1000 trials takes two chunks where 1024 rows fit.
_CHUNK_GROWTH = 64

# The one capacity the vstar-patch family treats specially (ground set of
# size 3; masks 5 and 6 are {1,3} and {2,3}).
_VSTAR_VALUES = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.5, 1.0])
_VSTAR_VALUES.setflags(write=False)


def vstar_capacity() -> Capacity:
    """The normalized capacity on [3] that the vstar-patch family overrides."""
    return Capacity(3, _VSTAR_VALUES)


@dataclass(frozen=True)
class Aggregator:
    """A capacity-parameterized evaluation rule on points of length n, with
    the parts of its family from _FAMILY_PARTS."""

    family: str
    n: int
    _parts: _Family = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        object.__setattr__(self, "n", _ground_set(self.n))
        parts = _FAMILY_PARTS[self.family]
        if parts.ground_set not in (None, self.n):
            raise UnsupportedGroundSet(f"the {self.family} family is defined on a ground set "
                                       f"of size {parts.ground_set}, got {self.n}")
        object.__setattr__(self, "_parts", parts)

    def _bind(self, v: SignedCapacity) -> Callable[[np.ndarray], np.ndarray]:
        """The family at game v as a function of a (k, n) array of points,
        with the work that depends on v alone (type and ground-set checks,
        Mobius transform) done once.  Rows that overflow come out non-finite."""
        _require_game_on(v, self.n)
        game = v.values
        if self._parts.mobius:
            game = _lattice_cumulation(game, np.subtract, "mobius_transform")
        return partial(self._parts.evaluate, game)


def evaluate_family(agg: Aggregator, v: SignedCapacity, x: Sequence[float]) -> float:
    """The family of agg at game v and point x; an overflow raises NonFiniteResult.
    The family at the unanimity game of a subset S is
    evaluate_family(agg, unanimity_game(agg.n, S), x)."""
    _require_instance(agg, Aggregator)
    f = agg._bind(v)  # checks the game before the point
    X = np.array([_coerce_point(x, agg.n)])
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(f(X)[0])
    return _finite(value, agg._parts.operation)


@dataclass(frozen=True)
class Witness:
    """Concrete falsifying inputs and the two disagreeing side values."""

    inputs: dict
    lhs: float
    rhs: float
    discrepancy: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "discrepancy", abs(self.lhs - self.rhs))

    def to_dict(self) -> dict:
        return asdict(self)


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
        return asdict(self)

    def format_text(self) -> str:
        """The report as `choquet check` prints it, the witness's inputs as JSON."""
        w = self.witness
        witness = ["witness: none"] if w is None else [
            "witness:", f"  lhs: {w.lhs!r}", f"  rhs: {w.rhs!r}",
            f"  discrepancy: {w.discrepancy!r}", f"  inputs: {json.dumps(w.inputs)}"]
        return "\n".join([f"axiom: {self.axiom}", f"verdict: {self.verdict}",
                          f"samples_run: {self.samples_run}", f"seed: {self.seed}",
                          f"tolerance: {self.tolerance!r}", *witness])


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
# SeedSequence mixes pool word s into the other three words in ascending
# order, with pool hash steps 4 + 3s, 4 + 3s + 1 and 4 + 3s + 2: per s, the
# rows of the other words and those hash constants.
_MIX_ROUNDS = [(np.array([d for d in range(4) if d != s], dtype=np.intp),
                tuple(_POOL_HASH[:, 4 + 3 * s:7 + 3 * s])) for s in range(4)]
_STATE_HASH = tuple(_hash_constants(0x8B51F9DD, 0x58F38DED, 8))  # generate_state's 8 words
_STATE_ROWS = np.array([0, 1, 2, 3, 0, 1, 2, 3], dtype=np.intp)  # the pool words it hashes


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
    pool = np.zeros((4, len(trials)), dtype=np.uint32)
    pool[0] = seed
    pool[1] = trials
    pool = _hash(pool, _ENTROPY_HASH)
    for s, (others, constants) in enumerate(_MIX_ROUNDS):
        mixed = _hash(pool[s], constants)
        mixed *= _MIX_RIGHT
        targets = pool.take(others, axis=0)
        targets *= _MIX_LEFT
        targets -= mixed
        targets ^= targets >> 16
        pool[others] = targets
    words = _hash(pool.take(_STATE_ROWS, axis=0), _STATE_HASH).astype(np.uint64)
    return words[0::2] | words[1::2] << 32  # little-endian word pairs


# PCG64 steps its 128-bit state x to M x + inc and outputs each new state, so
# word j of a stream is the output of the state j + 1 steps past the seeded
# one.  Seeding steps twice from 0, adding initstate in between, so with
# inc = 2 initseq + 1 and C_k = 1 + M + ... + M**(k - 1) that state is
#     M**(j + 2) initstate + C_(j + 3) inc  (mod 2**128),
# a jump of arbitrary stride (Brown, "Random number generation with
# arbitrary strides", 1994).  _JUMP_COLUMNS holds the high and low words of
# both multipliers for each j, and the low words' low and high 32 bits,
# each shape (2, width, 1): words run along the middle axis, so that numpy's
# inner loops run along the trials.
def _jump_columns(width: int) -> tuple[np.ndarray, ...]:
    power, total = _PCG64_MULTIPLIER ** 2 & _MASK128, 1 + _PCG64_MULTIPLIER  # M**2, C_2
    pairs = []
    for _ in range(width):
        total = (total + power) & _MASK128
        pairs.append((power, total))
        power = power * _PCG64_MULTIPLIER & _MASK128
    multipliers = np.array(pairs, dtype=object).T[:, :, None]
    high, low = (multipliers >> 64).astype(np.uint64), (multipliers & _MASK64).astype(np.uint64)
    columns = high, low, low & _MASK32, low >> 32
    for column in columns:
        column.setflags(write=False)
    return columns


_JUMP_COLUMNS = _jump_columns(_NARROW_WIDTH)
_INC_SHIFTS = np.array([0, 1], dtype=np.uint64).reshape(2, 1, 1)  # initstate as is, initseq doubled
_HALF_SHIFTS = np.array([32, 0], dtype=np.uint64).reshape(2, 1, 1, 1)  # to a word's high and low 32 bits
_INC_SHIFTS.setflags(write=False)
_HALF_SHIFTS.setflags(write=False)


def _jump_words(seed_words: np.ndarray, width: int) -> np.ndarray:
    """The first `width` raw 64-bit words of each stream from its column of
    _seed_words, one row each, as 128-bit arithmetic on (high, low) uint64
    words (width <= _NARROW_WIDTH).  Besides the seed words and its result
    it holds one (2, 2, width, rows) array, 8 values per row and numpy's
    ufunc buffers (at most 2 * 8192 values in all)."""
    # initstate and inc = 2 initseq + 1, shape (2, 1, rows) for each half.
    high, low = seed_words[0::2, None] << _INC_SHIFTS, seed_words[1::2, None]
    high |= (low >> 63) & _INC_SHIFTS
    low = low << _INC_SHIFTS
    low |= _INC_SHIFTS
    k_high, k_low, k_low0, k_low1 = (column[:, :width] for column in _JUMP_COLUMNS)
    # The high words of the low products from the 32-bit halves a1, a0 and
    # k1, k0 of the low words: with t = a1 k0 + (a0 k0 >> 32), that is
    # a1 k1 + (t >> 32) + ((a0 k1 + (t & _MASK32)) >> 32).  The last sum
    # fits in 64 bits; u takes it as a0 k1 + t modulo 2**64, whose top 32
    # bits exceed its own by those of t, modulo 2**32.  t and u are the two
    # halves of one C-ordered array, so that every step runs over whole
    # contiguous arrays.
    halves = low >> _HALF_SHIFTS  # a1, a0, shape (2, 2, 1, rows)
    halves &= _MASK32
    a1, a0 = halves
    products = np.empty((2, 2, width, low.shape[-1]), dtype=np.uint64)
    t, u = np.multiply(halves, k_low0, out=products)  # a1 k0, a0 k0
    u >>= 32
    t += u
    np.multiply(a0, k_low1, out=u)
    u += t
    t >>= 32
    u >>= 32
    u -= t
    u &= _MASK32
    t += u
    np.multiply(a1, k_low1, out=u)
    t += u
    # The cross terms (x_low times K_high, x_high times K_low), then the low
    # products themselves.
    np.multiply(low, k_high, out=u)
    t += u
    np.multiply(high, k_low, out=u)
    t += u
    np.multiply(low, k_low, out=u)
    # Both products summed, in the first row of each.
    low, high = u[0], t[0]
    low += u[1]
    high += t[1]
    high += low < u[1]  # the carry of the low words
    # The XSL-RR output: the halves xored, rotated right by the top 6 bits.
    # A shift by 64 (rot = 0) gives 0 or the word itself; either way the
    # rotation is the word.
    low ^= high
    rot = high
    rot >>= 58
    out = np.right_shift(low, rot, out=u[1])
    np.subtract(64, rot, out=rot)
    low <<= rot
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


def _trial_words(seed: int, trials: int, width: int, row_values: int = 0):
    """The first `width` raw 64-bit words of every trial's stream in trial
    order, one row each, lazily in chunks of 16, 1024, 65536, ... trials
    (_CHUNK_GROWTH), handed out in blocks of at most _BLOCK_VALUES //
    row_values rows (at least one) where each row of the caller holds
    row_values values, else whole.  A chunk pays a fixed cost of numpy
    calls for its words (about 35-60 us at 16 rows of 5 to 48 words on a
    2-vCPU Xeon) and for its seed hash (about 50 us at 16 trials, 95 us at
    1040), so a satisfied run of 1000 trials takes two chunks and one seed
    hash, the one-trial blocks of a Mobius family on a large ground set
    share chunks, and the checker calls of one independence suite share the
    chunks and seed words themselves (_suite_shared).

    The first chunk hashes the seed words of the first two chunks' trials,
    [0, min(trials, 1040)), in one _seed_words call; a chunk that ends
    inside them takes its rows from them, and every later chunk hashes its
    own.  A seed outside [0, 2**32), which SeedSequence hashes one trial at
    a time, hashes the first chunk alone, so that a run falsified there
    pays for 16 seeds, not 1040.  Rows of up to _NARROW_WIDTH words are
    computed by _jump_words and wider ones by _setter_words, in chunks
    capped at _BLOCK_VALUES values for 8 values per narrow word or 1 per
    wide one.  While a chunk is made, besides the chunk and its seed words,
    _jump_words holds 4 values per word, 8 per row and numpy's ufunc
    buffers (2 * 8192 values), and _setter_words each row's seed words as
    Python ints; a later chunk's seed hash holds up to 26 values per row
    while it runs.  So a capped chunk of 9 to 48 words a row is made within
    _BLOCK_VALUES values, one of 2 to 8 words or of more than 48 within 1.6
    times that, and one of 1 word within 2.3 times."""
    narrow = width <= _NARROW_WIDTH
    rows = max(1, _BLOCK_VALUES // (width * (8 if narrow else 1)))
    bits = None if narrow else np.random.PCG64(0)  # this call's alone

    def seeded(start, stop):
        return _suite_shared((seed, start, stop), lambda: _seed_words(seed, np.arange(start, stop)))

    # The trials of the first two chunks, or of the first where SeedSequence hashes the seed.
    head = min(trials, 16 * (1 + _CHUNK_GROWTH) if 0 <= seed <= _MASK32 else 16)
    span = seeded(0, head)

    def words(start, stop):
        seed_words = span[:, start:stop] if stop <= head else seeded(start, stop)
        return _jump_words(seed_words, width) if narrow else _setter_words(bits, seed_words, width)

    cap = max(1, _BLOCK_VALUES // row_values) if row_values else rows  # no chunk exceeds rows
    start, size = 0, 16
    while start < trials:
        stop = min(trials, start + min(size, rows))
        chunk = _suite_shared((seed, start, stop, width), partial(words, start, stop))
        yield from (chunk[i:i + cap] for i in range(0, len(chunk), cap))
        start, size = stop, _CHUNK_GROWTH * size


def _doubles(words: np.ndarray) -> np.ndarray:
    """Generator.random() from each raw word, bit for bit: its top 53 bits
    over 2**53."""
    return (words >> 11) * (1.0 / 9007199254740992.0)


def _uniform(u: np.ndarray, low: float, high: float) -> np.ndarray:
    """Generator.uniform(low, high) from random() draws u, bit for bit:
    numpy computes low + (high - low) * u."""
    return low + (high - low) * u


def _bounded_integers(words: np.ndarray, m: int) -> np.ndarray:
    """An integer in [0, m) for 1 <= m < 2**32 from each raw word, by
    multiply-shift on its low 32 bits: Generator.integers(m) on every word
    that Lemire's method accepts (it rejects about one in 2**32 / m), and
    never a second word.  Each value's probability is within 2**-32 of 1/m."""
    return ((words & _MASK32) * m >> 32).astype(np.int64)


def _require_tolerance(tolerance) -> float:
    """tolerance as a Python number: an int, a float or a numpy real, not a
    bool, finite and >= 0."""
    _require_real("tolerance", tolerance)
    tolerance = tolerance.item() if isinstance(tolerance, np.generic) else tolerance
    if not 0 <= tolerance <= sys.float_info.max:  # exact for ints beyond the float range
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    return tolerance


def _run_checker(axiom: str, agg: Aggregator, trials: int, seed: int, tolerance: float,
                 words: int, draw, sides, **fixed):
    """Draw the trials in blocks with draw(numbers, u, block) -> inputs and
    evaluate each subject with sides(f, inputs) -> (lhs, rhs) until its sides
    differ.  A trial reads agg.n + words raw words.  fixed names the subjects
    once: capacity=v makes f agg's family at game v (agg._bind, which checks
    the class of v), nothing makes f None (linearity's rows draw their games);
    subsets=[members, ...] makes one f per subset, the family at the unanimity
    game of those ascending elements (its fold, _Fold.at), and a list of
    reports in that order.  Each block is drawn once; draw may return a
    function of a subset's members (an array) giving its inputs, for a step
    that depends on the subset.  The blocks are those of _trial_words, told a
    row size of 2**n values at a Mobius family's game v, else 0: any other
    row holds no more values than words (a chain sum's or a fold's O(n), a
    drawn game's 2**n + n) and fits a chunk whole.  Each row's sides depend
    on that row alone, so no block changes a report.

    agg is checked first, then trials and tolerance, then the subjects, as f
    is computed once, and then the seed (by _require_seed); trials, tolerance
    and seed are reported as Python numbers.  block holds the words of a
    block's trial numbers, one row each, u those as random() draws (_doubles,
    once per block), and inputs maps each witness key that varies by trial to
    an array with one row per trial, as the sides are (over/invalid ignored).
    A subject's first row over the tolerance or non-finite decides it: its
    witness's inputs are the family, its entry of fixed (a game as the list of
    its values) and that row of every input (as lists and numbers).  A
    non-finite discrepancy raises NonFiniteResult naming agg's operation; a
    subject that no row decides is satisfied.
    """
    _require_instance(agg, Aggregator)
    trials, tolerance = _require_count("trials", trials), _require_tolerance(tolerance)
    subjects, row_values = [(None, None, fixed)], 0  # (f, members, witness entry) of each
    if "subsets" in fixed:
        subjects = [(partial(agg._parts.fold.at, np.array(m) - 1), np.array(m), {"subset": m})
                    for m in fixed["subsets"]]
    elif "capacity" in fixed:
        subjects = [(agg._bind(fixed["capacity"]), None, fixed)]
        row_values = (1 << agg.n) if agg._parts.mobius else 0
    seed = _require_seed(seed)
    blocks = _trial_words(seed, trials, agg.n + words, row_values)
    decided, start = {}, 0  # subject index -> (samples run, witness of its drawn inputs)
    for block in blocks:
        drawn = draw(np.arange(start, start + len(block)), _doubles(block), block)
        with np.errstate(over="ignore", invalid="ignore"):
            for i, (f, members, _) in enumerate(subjects):
                if i in decided:
                    continue
                inputs = drawn(members) if callable(drawn) else drawn
                lhs, rhs = sides(f, inputs)
                within = np.abs(lhs - rhs) <= tolerance  # False where a side is non-finite
                if within.all():
                    continue
                row = int(np.argmin(within))
                witness = Witness({k: v[row].tolist() for k, v in inputs.items()},
                                  float(lhs[row]), float(rhs[row]))
                _finite(witness.discrepancy, agg._parts.operation)
                decided[i] = start + row + 1, witness
        start += len(block)
        if len(decided) == len(subjects):
            break
    del block  # the chunk's words and seed span go before a witness lists its game
    blocks.close()
    reports = [AxiomReport(axiom, VERDICT_SATISFIED, None, trials, seed, tolerance)] * len(subjects)
    for i, (samples, witness) in decided.items():
        head = {k: v.values.tolist() if isinstance(v, SetFunction) else v for k, v in subjects[i][2].items()}
        witness = Witness({"family": agg.family, **head, **witness.inputs}, witness.lhs, witness.rhs)
        reports[i] = AxiomReport(axiom, VERDICT_FALSIFIED, witness, samples, seed, tolerance)
    return reports if "subsets" in fixed else reports[0]


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
    def draw(numbers, u, words):
        base, x, y = _comonotonic_pairs(u, agg.n)
        first = numbers == 0
        x[first], y[first] = base[first], 0.0
        return {"x": x, "y": y}

    def sides(f, inputs):
        X, Y = inputs["x"], inputs["y"]
        return f(X + Y), f(X) + f(Y)

    return _run_checker(AXIOM_COMONOTONIC_ADDITIVITY, agg, trials, seed, tolerance,
                        _PAIR_WORDS, draw, sides, capacity=v)


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
    def draw(numbers, u, words):
        r = np.exp(_uniform(u[:, agg.n], *_LOG_R))
        r[numbers == 0] = 1.0
        return {"x": _uniform(u[:, :agg.n], -5.0, 5.0), "r": r}

    def sides(f, inputs):
        X, r = inputs["x"], inputs["r"]
        return f(r[:, None] * X), r * f(X)

    return _run_checker(AXIOM_POSITIVE_HOMOGENEITY, agg, trials, seed, tolerance,
                        1, draw, sides, capacity=v)


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
    def draw(numbers, u, words):
        _, x, y = _comonotonic_pairs(u, agg.n)
        lam = np.where(numbers < 2, numbers, _uniform(u[:, agg.n + _PAIR_WORDS], 0.0, 1.0))
        return {"x": x, "x_prime": y, "lambda": lam}

    def sides(f, inputs):
        X, Y, lam = inputs["x"], inputs["x_prime"], inputs["lambda"]
        return f(lam[:, None] * X + (1.0 - lam[:, None]) * Y), lam * f(X) + (1.0 - lam) * f(Y)

    return _run_checker(AXIOM_COMONOTONIC_AFFINITY, agg, trials, seed, tolerance,
                        _PAIR_WORDS + 1, draw, sides, capacity=v)


def _interval_scale_draw(n, numbers, u, words):
    """x on [-5, 5]^n, r log-uniform on [0.1, 10] and s on [-5, 5] for
    every subset; trial 0 uses x = all-ones, r = 1, s = 1."""
    x = _uniform(u[:, :n], -5.0, 5.0)
    r = np.exp(_uniform(u[:, n], *_LOG_R))
    s = _uniform(u[:, n + 1], -5.0, 5.0)
    first = numbers == 0
    x[first], r[first], s[first] = 1.0, 1.0, 1.0
    return {"x": x, "r": r, "s": s}


def _interval_scale_sides(f, inputs):
    """Both sides of interval-scale covariance: f(r x + s) and r f(x) + s."""
    X, r, s = inputs["x"], inputs["r"], inputs["s"]
    return f(r[:, None] * X + s[:, None]), r * f(X) + s


def _zero_on_basis_draw(n, numbers, u, words):
    """x on [0, 1]^n with the element of each subset that a trial's next
    word picks zeroed; trial 0 uses x = 0, the subset's first element zeroed."""
    x, first = _uniform(u[:, :n], 0.0, 1.0), numbers == 0
    x[first] = 0.0

    def inputs(members):
        zeroed = members[_bounded_integers(words[:, n], len(members))]
        zeroed[first] = members[0]
        zeroed_x = x.copy()
        zeroed_x[np.arange(len(x)), zeroed - 1] = 0.0
        return {"x": zeroed_x, "zeroed_element": zeroed}
    return inputs


def _zero_sample(numbers, u, words):
    """The zero-on-basis paper sample on {1, 2}, the one trial of its replay:
    x = (0, 2), element 1 zeroed."""
    return {"x": np.array([[0.0, 2.0]]), "zeroed_element": np.array([1])}


def _zero_sides(f, inputs):
    """Both sides of the zero-on-basis condition: f(x) and 0."""
    X = inputs["x"]
    return f(X), np.zeros(len(X))


# The words past its n a trial reads, draw(n, ...) and sides of each subset checker.
_SUBSET_RUNS = {
    AXIOM_INTERVAL_SCALE: (2, _interval_scale_draw, _interval_scale_sides),
    AXIOM_ZERO_ON_BASIS: (1, _zero_on_basis_draw, _zero_sides),
}


def _subset_reports(axiom: str, agg: Aggregator, subsets, trials: int, seed: int, tolerance: float):
    """The report of axiom's subset checker at each of the subsets, in
    order, from one runner pass.  agg is checked first, then each subset as
    unanimity_game(agg.n, subset) checks it (EmptyT for the empty one among
    its errors), but the runner evaluates the game by the family's fold."""
    _require_instance(agg, Aggregator)
    members = [list(elements_from_mask(_unanimity_mask(subset, agg.n))) for subset in subsets]
    words, draw, sides = _SUBSET_RUNS[axiom]
    return _run_checker(axiom, agg, trials, seed, tolerance, words, partial(draw, agg.n), sides,
                        subsets=members)


def check_interval_scale_covariance(
    agg: Aggregator,
    subset: SubsetLike,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    tolerance: float = FALSIFY_TOLERANCE,
) -> AxiomReport:
    """f_S(r*x + s*1) = r*f_S(x) + s for the basis game of the given subset.

    f_S is the family at the unanimity game of S, evaluated by the family's
    fold over S (_Fold.at) in O(|S|) a trial.  Trial 0 uses x = all-ones,
    r = 1, s = 1 (for a two-element subset on a two-element ground set this
    is the counterexample that separates the multilinear family).
    """
    return _subset_reports(AXIOM_INTERVAL_SCALE, agg, [subset], trials, seed, tolerance)[0]


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
    the zeroed one can carry the minimum).  f_S is evaluated by the family's
    fold over S (_Fold.at) in O(|S|) a trial.  Trial 0 uses x = 0.
    """
    return _subset_reports(AXIOM_ZERO_ON_BASIS, agg, [subset], trials, seed, tolerance)[0]


def check_linearity_in_capacity(
    agg: Aggregator,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    tolerance: float = FALSIFY_TOLERANCE,
) -> AxiomReport:
    """f_v(x) = sum over T of m_v(T) * f_{v_T}(x) for sampled games v.

    Games are drawn as random_signed_capacity draws them (values uniform on
    [-1, 1], v(empty) = 0), then x on [-5, 5]^n.  The sum runs left to
    right over the nonempty masks in ascending order, by _row_sums (every
    game has Mobius coefficient 0 on the empty set), with f_{v_T} from the
    family's fold at every mask (_Fold.every); each block of games is
    Mobius-transformed once for both sides.  On a ground set of size 3,
    trial 0 evaluates the patched capacity of the vstar family at
    x = (0, 2, 1), the sample that separates that family.  Bounded at
    n <= 10.
    """
    _require_instance(agg, Aggregator)
    if agg.n > _MAX_N_LINEARITY:
        raise GroundSetTooLarge(agg.n, _MAX_N_LINEARITY)
    size = 1 << agg.n

    def draw(numbers, u, words):
        V = _uniform(u[:, :size], -1.0, 1.0)
        V[:, 0] = 0.0
        X = _uniform(u[:, size:], -5.0, 5.0)
        if agg.n == 3:
            first = numbers == 0
            V[first], X[first] = _VSTAR_VALUES, (0.0, 2.0, 1.0)
        return {"capacity": V, "x": X}

    def sides(_, inputs):
        V, X, parts = inputs["capacity"], inputs["x"], agg._parts
        m = _lattice_cumulation(V, np.subtract, "mobius_transform")
        return parts.evaluate(m if parts.mobius else V, X), _row_sums(m[:, 1:] * parts.fold.every(X))

    return _run_checker(AXIOM_LINEARITY_IN_CAPACITY, agg, trials, seed, tolerance,
                        size, draw, sides)


# The checker of each axiom: after agg, the first three take a game, the
# SUBSET_AXIOMS a subset and linearity nothing.
CHECKERS = {
    AXIOM_COMONOTONIC_ADDITIVITY: check_comonotonic_additivity,
    AXIOM_POSITIVE_HOMOGENEITY: check_positive_homogeneity,
    AXIOM_COMONOTONIC_AFFINITY: check_comonotonic_affinity,
    AXIOM_INTERVAL_SCALE: check_interval_scale_covariance,
    AXIOM_ZERO_ON_BASIS: check_zero_on_basis,
    AXIOM_LINEARITY_IN_CAPACITY: check_linearity_in_capacity,
}


# ---------------------------------------------------------------------------
# The families, and the independence of the three capacity-class conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Fold:
    """A family's value at the unanimity game u_S of a nonempty subset S, in
    closed form: the binary ufunc op folded over S's coordinates in
    ascending element order, divided by |S| if mean, plus 0.0.

    It equals the family evaluated at u_S bit for bit wherever every
    coordinate and statistic is finite, and the checkers draw only such
    points (|r x + s| <= 55 for interval-scale, [0, 1] for zero-on-basis).
    Evaluating u_S adds the one statistic over S to signed zeros, and a sum
    of zeros is -0.0 only if every term is.  A chain sum at u_S has the one
    term 1 * min over S, and _row_sums adds 0.0 at the end.  The Mobius
    coefficients of u_S are exactly 0 and 1: multilinear's dot has the
    +0.0 term m(empty) * 1, and a mean over S rounds to -0.0 only where S
    holds a coordinate that is not negative, whose singleton's term is then
    +0.0.  So where the statistic is zero the game gives +0.0, as the
    fold's 0.0 does; the fold starting from S's first coordinate, not from
    identity, changes at most the sign of a zero.  A non-finite statistic
    would make its 0 * inf term nan in the dot, so there the two differ."""

    op: np.ufunc
    identity: float  # op(identity, x) is x: where _subset_statistic starts its folds
    mean: bool = False

    def at(self, members: np.ndarray, X: np.ndarray) -> np.ndarray:
        """The family at u_S on each row of X (k, n), S given by its 0-based
        elements in ascending order: O(|S|) a row, one op call a column."""
        value = reduce(self.op, [X[:, m] for m in members])
        if self.mean:
            value = value / len(members)
        return value + 0.0

    def every(self, X: np.ndarray) -> np.ndarray:
        """The statistic of every nonempty mask S on each row of X (column
        S - 1), as one subset statistic whose folds start from identity:
        at() up to the sign of a zero, as at() adds 0.0 and this does not."""
        values = _subset_statistic(self.op, self.identity, X)[:, 1:]
        if self.mean:
            values /= np.bitwise_count(np.arange(1, 1 << X.shape[1], dtype=np.uint32))  # |S|
        return values


_MINIMUM = _Fold(np.minimum, np.inf)
_MEAN = _Fold(np.add, 0.0, mean=True)


def _vstar_patch(values: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The integral, except at vstar: there the mean of the first two
    coordinates (halved first, so it cannot overflow), capped at the third."""
    mean = X[:, 0] / 2.0 + X[:, 1] / 2.0
    patch = np.where(X[:, 2] < mean, X[:, 2], mean)
    return np.where(np.all(values == _VSTAR_VALUES, axis=-1), patch, _chain_sums(values, X))


@dataclass(frozen=True)
class _Family:
    """The parts of one family.  evaluate(game, X) is the family on the rows
    of X at one game (shape (2**n,)) or at one game per row ((k, 2**n)),
    given as its Mobius coefficients if mobius, else as its values; with
    over/invalid ignored, rows that overflow come out non-finite.  A mobius
    family evaluates 2**n values a row, which sizes its blocks at a game
    (_run_checker).  fold is the family at the unanimity games (_Fold): the
    subset checkers evaluate them by fold.at, the linearity checker by
    fold.every.  A counterexample family has the ground-set size of its
    suite row, the condition it falsifies and replay(agg, seed), the
    hand-checked sample that falsifies it, as a one-trial report."""

    operation: str  # what a NonFiniteResult of the family names
    mobius: bool
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    fold: _Fold
    ground_set: Optional[int] = None  # the one size the family is defined on
    suite_n: Optional[int] = None
    falsifies: Optional[str] = None
    replay: Optional[Callable[[Aggregator, int], AxiomReport]] = None


# The independence matrix lists the counterexample families in this order,
# and the conditions they falsify in the same order, which puts the expected
# falsifications on the diagonal.  The multilinear and vstar-patch replays
# are their checkers' trial 0, the weighted-mean one is _zero_sample's one
# trial.  No unanimity game is vstar, so vstar-patch has the integral's basis.
_FAMILY_PARTS = {
    FAMILY_CHOQUET: _Family("choquet", False, _chain_sums, _MINIMUM),
    FAMILY_WEIGHTED_MEAN: _Family(
        f"{FAMILY_WEIGHTED_MEAN} family", True,
        lambda m, X: _row_dots(m[..., 1:], _MEAN.every(X)), _MEAN,
        suite_n=2, falsifies=AXIOM_ZERO_ON_BASIS,
        replay=lambda agg, seed: _run_checker(AXIOM_ZERO_ON_BASIS, agg, 1, seed, FALSIFY_TOLERANCE, 0,
                                              _zero_sample, _zero_sides, subsets=[[1, 2]])[0]),
    FAMILY_MULTILINEAR: _Family(
        f"{FAMILY_MULTILINEAR} family", True,
        lambda m, X: _row_dots(m, _subset_statistic(np.multiply, 1.0, X)), _Fold(np.multiply, 1.0),
        suite_n=2, falsifies=AXIOM_INTERVAL_SCALE,
        replay=lambda agg, seed: check_interval_scale_covariance(agg, [1, 2], 1, seed)),
    FAMILY_VSTAR_PATCH: _Family(
        "choquet", False, _vstar_patch, _MINIMUM, ground_set=3,
        suite_n=3, falsifies=AXIOM_LINEARITY_IN_CAPACITY,
        replay=lambda agg, seed: check_linearity_in_capacity(agg, 1, seed)),
}

EXPECTED_FALSIFIED = {family: parts.falsifies for family, parts in _FAMILY_PARTS.items()
                      if parts.falsifies}
INDEPENDENCE_FAMILIES = tuple(EXPECTED_FALSIFIED)
INDEPENDENCE_CONDITIONS = tuple(EXPECTED_FALSIFIED.values())


@dataclass(frozen=True)
class IndependenceCell:
    """One (family, condition) entry of the independence matrix."""

    family: str
    condition: str
    falsified: bool
    samples_run: int
    witness: Optional[Witness]

    def to_dict(self) -> dict:
        return asdict(self)


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
        """The matrix as `choquet independence-suite` prints it."""
        width = max(len(c) for c in INDEPENDENCE_CONDITIONS) + 2
        lines = ["family".ljust(16) + "".join(c.ljust(width) for c in INDEPENDENCE_CONDITIONS)]
        for family in INDEPENDENCE_FAMILIES:
            cells = (self.cell(family, condition) for condition in INDEPENDENCE_CONDITIONS)
            lines.append(family.ljust(16) + "".join(
                ("FALSIFIED" if c.falsified else "pass").ljust(width) for c in cells))
        lines += ["", "expected pattern: " + ("reproduced" if self.matches_expected else "DEVIATION")]
        return "\n".join(lines)


def _run_condition(agg: Aggregator, condition: str, trials: int, seed: int):
    """All checker reports backing one cell (one per nonempty subset, from one run, where relevant)."""
    if condition in SUBSET_AXIOMS:
        return _subset_reports(condition, agg, range(1, 1 << agg.n), trials, seed, FALSIFY_TOLERANCE)
    return [CHECKERS[condition](agg, trials, seed)]


def independence_suite(
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    paper_witnesses_only: bool = False,
) -> IndependenceSummary:
    """Run the full 3-family by 3-condition matrix.

    Every expected-fail cell first replays its hand-checked witness, so the
    verdict pattern is deterministic across seeds; random sampling (unless
    disabled) backs the expected-pass cells and typically finds additional
    falsifying samples in the failing ones.  paper_witnesses_only is a bool
    or a numpy bool, reported as a bool.
    """
    trials, seed = _require_count("trials", trials), _require_seed(seed)
    if not isinstance(paper_witnesses_only, (bool, np.bool_)):
        raise ValueError(f"paper_witnesses_only must be a bool, got {paper_witnesses_only!r}")
    paper_witnesses_only = bool(paper_witnesses_only)
    cells = []
    shared = {}  # the words its checker calls share
    token = _SUITE_WORDS.set(shared)
    try:
        for family in INDEPENDENCE_FAMILIES:
            parts = _FAMILY_PARTS[family]
            agg = Aggregator(family, parts.suite_n)
            for condition in INDEPENDENCE_CONDITIONS:
                reports = [parts.replay(agg, seed)] if parts.falsifies == condition else []
                if not paper_witnesses_only:
                    reports += _run_condition(agg, condition, trials, seed)
                witness = next((r.witness for r in reports if r.falsified), None)
                samples = sum(r.samples_run for r in reports)
                cells.append(IndependenceCell(family, condition, witness is not None, samples, witness))
    finally:
        _SUITE_WORDS.reset(token)
        shared.clear()
    return IndependenceSummary(tuple(cells), trials, seed, paper_witnesses_only)
