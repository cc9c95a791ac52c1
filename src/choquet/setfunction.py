"""Set functions on a finite ground set [n] = {1, ..., n}.

Subsets are encoded as bitmasks: element i corresponds to bit i-1, so the
mask of {1, 3} is 0b101.  A set function stores one real value per subset in
an array of length 2**n indexed by mask.  The module provides the structural
classes (game / signed capacity, monotone capacity), the Mobius and zeta
transforms over the subset lattice, unanimity games and the expansion of a
game in the unanimity basis.

Monotonicity is validated on the n * 2**(n-1) covering pairs (S, S + {i})
only.  This is equivalent to full monotonicity: any inclusion S <= T
decomposes into a chain of covering steps, and the covering inequalities
compose by transitivity.

All values are immutable after construction and every operation is a pure
function of its inputs, so everything here is safe to use concurrently.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import inf, isfinite
from typing import Iterable, Union

import numpy as np

from .errors import (
    EmptyT, GroundSetTooLarge, NonFiniteResult, NotAGame, NotMonotone, UnsupportedGroundSet,
)

# Storage bound: 2**20 doubles per set function is the largest array this
# package is willing to materialize.
MAX_GROUND_SET = 20

SubsetLike = Union[int, Iterable[int]]


# The argument rules of the package: every module checks integers, counts,
# ground-set sizes, seeds, subset masks, real numbers and the class of an
# argument with these seven functions, and converts a real number it takes
# in (a coordinate, a scale factor, a set-function value) with _finite_float.
# _require_game and _require_game_on, below, check a game.
def _require_integer(name: str, value, error: type = ValueError) -> int:
    """value as a Python int if it is an int or a numpy integer, not a bool; else error."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


def _require_count(name: str, value, error: type = ValueError) -> int:
    """value as a Python int >= 1 under the rule of _require_integer; else error."""
    value = _require_integer(name, value, error)
    if value < 1:
        raise error(f"{name} must be >= 1, got {value}")
    return value


def _ground_set(n) -> int:
    """n as a Python int in 1..MAX_GROUND_SET.  Raises GroundSetTooLarge above the
    bound, before anything is allocated, and UnsupportedGroundSet otherwise."""
    n = _require_count("ground-set size", n, UnsupportedGroundSet)
    if n > MAX_GROUND_SET:
        raise GroundSetTooLarge(n, MAX_GROUND_SET)
    return n


def _require_seed(seed) -> int:
    """seed as a Python int >= 0, with SeedSequence's message for a negative one."""
    seed = _require_integer("seed", seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    return seed


def _require_mask(mask, n: int | None = None) -> int:
    """mask as a Python int >= 0 under the rule of _require_integer, and below
    2**n when the ground-set size n is given; else ValueError."""
    if type(mask) is not int:
        mask = _require_integer("subset mask", mask)
    if n is not None and not 0 <= mask < (1 << n):
        raise ValueError(f"mask {mask} out of range for ground set of size {n}")
    if mask < 0:
        raise ValueError(f"subset mask must be >= 0, got {mask}")
    return mask


def _require_real(name: str, value, error: type = ValueError) -> None:
    """error unless value is a float, a numpy real or an int that is not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise error(f"{name} must be a real number, got {value!r}")


def _finite_float(name: str, value, error: type = ValueError) -> float:
    """value as a finite Python float under the rule of _require_real; else error.
    An int beyond the float range counts as the infinity of its sign."""
    if type(value) is not float:
        _require_real(name, value, error)
        try:
            value = float(value)
        except OverflowError:
            value = inf if value > 0 else -inf
    if not isfinite(value):
        raise error(f"{name} must be finite, got {value!r}")
    return value


def _require_instance(value, cls: type) -> None:
    """ValueError unless value is a cls (or a subclass)."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise ValueError(f"expected {article} {cls.__name__}, got {type(value).__name__}")


def _require_game(f) -> None:
    """NotAGame unless the set function f is a game: f(empty) = 0 exactly."""
    if f.values[0] != 0.0:
        raise NotAGame(f.values[0])


def _require_game_on(v, n: int) -> None:
    """ValueError unless v is a SignedCapacity on a ground set of size n."""
    _require_instance(v, SignedCapacity)
    if v.n != n:
        raise ValueError(f"expected a game on a ground set of size {n}, got one of size {v.n}")


def full_mask(n: int) -> int:
    """Bitmask of the full ground set [n]."""
    return (1 << _ground_set(n)) - 1


def mask_from_elements(elements: Iterable[int], n: int | None = None) -> int:
    """Bitmask of a collection of 1-based elements.

    Duplicates are tolerated (set semantics).  Raises ValueError for
    elements that are not iterable and for an element that is not an integer
    or lies outside 1..n; n, if given, is a ground-set size.
    """
    if n is not None:
        n = _ground_set(n)
    try:
        elements = iter(elements)
    except TypeError:
        raise ValueError(
            f"subset elements must be a sequence of integers, got {elements!r}") from None
    mask = 0
    for e in elements:
        e = _require_integer("subset element", e)
        if e < 1 or (n is not None and e > n):
            bound = f"1..{n}" if n is not None else ">= 1"
            raise ValueError(f"element {e} outside the ground set ({bound})")
        mask |= 1 << (e - 1)
    return mask


def elements_from_mask(mask: int) -> tuple[int, ...]:
    """Ascending 1-based elements of a subset bitmask (a mask by _require_mask)."""
    if not (type(mask) is int and mask >= 0):  # subset_key calls this once per mask
        mask = _require_mask(mask)
    return tuple(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)


def as_mask(subset: SubsetLike, n: int) -> int:
    """Coerce a subset given as a bitmask or an element iterable."""
    if isinstance(subset, (int, np.integer)) or not hasattr(subset, "__iter__"):
        return _require_mask(subset, n)
    return mask_from_elements(subset, n)


class _Fresh:
    """A float array that the package has just built, holds nowhere else and
    has already found finite: it passed through _finite, or its producer
    cannot make anything else (uniform draws, sums of them, 0.0 and 1.0,
    values read by _finite_float).

    Passed as the values of a set-function class, it is kept as it is (and
    made read-only) instead of being copied, and not checked for finiteness
    a second time.  A copy doubles the memory one construction needs, and
    at n = 20 the freed 8 MB copies, left in the heap among other objects,
    made the process's peak size differ from run to run.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def _validated_values(n: int, values) -> np.ndarray:
    """Read-only float copy of the 2**n values on [n] (the array itself when
    they come as _Fresh); raises ValueError otherwise.

    Each value is a real number by the rule of _finite_float, named `value
    at mask i`.  A float or integer array is checked as a whole; anything
    else (a list, a bool or complex array) value by value.  A _Fresh array
    is known finite and only its shape is checked.
    """
    fresh = isinstance(values, _Fresh)
    if fresh:
        arr = np.asarray(values.array, dtype=float)
    elif isinstance(values, np.ndarray) and values.dtype.kind in "fiu":
        arr = values.astype(float)
    else:
        arr = np.array(values, dtype=object)  # each value as the caller gave it
    size = 1 << n
    if arr.shape != (size,):
        raise ValueError(
            f"expected {size} values for a set function on [{n}], got shape {arr.shape}"
        )
    if arr.dtype == object:
        arr = np.array([_finite_float(f"value at mask {i}", e) for i, e in enumerate(arr)])
    elif not fresh and not np.isfinite(arr).all():
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        _finite_float(f"value at mask {bad}", float(arr[bad]))  # raises the rule's error
    arr.setflags(write=False)
    return arr


# Bits below this one run their pass in C order of the (2**i, *rows, blocks)
# views: numpy's inner loop then runs along rows and blocks, which coalesce
# into one long loop, not along blocks of 2**i = 1..4 entries.  From this bit
# on, memory order ("K"), along the 2**i contiguous entries of a block, is faster.
_C_ORDER_BITS = 3


def _lattice_passes(arr: np.ndarray):
    """The in-place subset-lattice recursion over a mask-indexed array.

    arr is one array of 2**n values or, along a leading axis, one per row.
    For each bit i in ascending order, yields one tuple (i, lo, hi, order):
    lo is a view of arr holding the entries at masks without bit i, hi the
    entries at the same masks with bit i added, both shaped (2**i, *rows,
    blocks), position (j, ..., b) holding mask (b << (i + 1)) + j.  order is
    the iteration order to give the ufunc that works on the pair: "C" below
    _C_ORDER_BITS and "K" from there on.  No lo entry is an hi entry, so
    updating every hi from its lo, in any order, reproduces the scalar
    recursion bit for bit.
    """
    rows = arr.shape[:-1]
    axes = (len(rows) + 2, *range(len(rows) + 2))  # the 2**i axis first
    for i in range(arr.shape[-1].bit_length() - 1):
        pairs = arr.reshape(rows + (-1, 2, 1 << i)).transpose(axes)
        yield i, pairs[..., 0], pairs[..., 1], "C" if i < _C_ORDER_BITS else "K"


def _subset_statistic(op, identity: float, coords) -> np.ndarray:
    """Per mask, the binary ufunc op folded over identity and the mask's
    coordinates in ascending element order (entry 0 is identity).

    coords is one point of length n, giving 2**n values, or a (k, n) array
    of points, giving one row of 2**n values per point.

    Built by prefix doubling: once the first 2**i entries hold the statistic
    of every mask on bits below i, one op call over that contiguous prefix
    and coordinate i writes the next 2**i, since mask S + {i} gets
    op(stat(S), x_i).  That is the fold of S extended by its largest
    element, so the operations, their order and their argument order are
    those of the per-mask fold, and the result equals it bit for bit
    (signed zeros included).  Each entry is written once: O(2**n) per point.
    """
    columns = np.asarray(coords, dtype=float).T[..., None]  # coordinate i of every row
    out = np.empty(columns.shape[1:-1] + (1 << len(columns),))
    out[..., 0] = identity
    for i, column in enumerate(columns):
        size = 1 << i
        op(out[..., :size], column, out=out[..., size:2 * size])
    return out


def _finite(result, operation: str):
    """result, a float or a float array, if every value in it is finite; else
    NonFiniteResult naming the operation.  The package's one overflow rule:
    an operation on finite values computes with over/invalid ignored and
    passes its result here, since an overflow leaves an inf or a nan in it."""
    if isfinite(result) if type(result) is float else np.isfinite(result).all():
        return result
    raise NonFiniteResult(operation)


def _lattice_cumulation(values, op, operation: str) -> np.ndarray:
    """Copy of the finite values (one set function, or one per row) with one
    call op(hi, lo, out=hi) of the binary ufunc op per pass, in the pass's
    order: np.subtract gives the Mobius transform, np.add the zeta transform.
    An overflow raises NonFiniteResult naming the operation."""
    out = np.array(values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for _, lo, hi, order in _lattice_passes(out):
            op(hi, lo, out=hi, order=order)
    return _finite(out, operation)


@dataclass(frozen=True, eq=False)
class SetFunction:
    """A real-valued function on all 2**n subsets of [n].

    Attributes:
        n: ground-set size, a Python int in 1..20 (a numpy integer is converted).
        values: read-only float array of length 2**n; values[mask] is the
            value on the subset encoded by mask.
    """

    n: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", _ground_set(self.n))
        object.__setattr__(self, "values", _validated_values(self.n, self.values))

    def value(self, subset: SubsetLike) -> float:
        """Value on a subset given as a mask or an element iterable; f[subset] is the same."""
        return float(self.values[as_mask(subset, self.n)])

    __getitem__ = value

    # Pointwise linear combinations stay in the space of set functions.
    # The game property v(empty) = 0 survives them; monotonicity does not,
    # so arithmetic always returns a plain SetFunction.
    def __add__(self, other: "SetFunction") -> "SetFunction":
        return self._combine(other, operator.add, "set-function addition")

    def __sub__(self, other: "SetFunction") -> "SetFunction":
        return self._combine(other, operator.sub, "set-function subtraction")

    def __mul__(self, scalar: float) -> "SetFunction":
        scalar = _finite_float("scale factor", scalar)
        with np.errstate(over="ignore", invalid="ignore"):
            return SetFunction(self.n, _Fresh(_finite(self.values * scalar, "set-function scaling")))

    __rmul__ = __mul__

    def _combine(self, other: "SetFunction", op, operation: str) -> "SetFunction":
        """op of the values of two set functions on one ground set; an overflow
        raises NonFiniteResult naming the operation."""
        _require_instance(other, SetFunction)
        if other.n != self.n:
            raise ValueError("set functions live on different ground sets")
        with np.errstate(over="ignore", invalid="ignore"):
            return SetFunction(self.n, _Fresh(_finite(op(self.values, other.values), operation)))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, values={self.values.tolist()})"


class SignedCapacity(SetFunction):
    """A game: a set function with value exactly 0 on the empty set."""

    def __post_init__(self):
        super().__post_init__()
        _require_game(self)


class Capacity(SignedCapacity):
    """A monotone game: v(S) <= v(T) whenever S is a subset of T."""

    def __post_init__(self):
        super().__post_init__()
        witness = _first_covering_violation(self.values)
        if witness is not None:
            raise NotMonotone(*witness)


def _first_covering_violation(values):
    """First covering pair with v(S) > v(S + {i}), scanning bits then masks."""
    for i, lo, hi, order in _lattice_passes(values):
        bad = np.greater(lo, hi, order=order)
        if bad.any():
            j, block = np.nonzero(bad)
            s_mask = int(((block << (i + 1)) + j).min())
            t_mask = s_mask | (1 << i)
            return s_mask, t_mask, float(values[s_mask]), float(values[t_mask])
    return None


def validate_signed_capacity(f: SetFunction) -> SignedCapacity:
    """Wrap f as a game.  Raises NotAGame unless f(empty) = 0 exactly."""
    _require_instance(f, SetFunction)
    return SignedCapacity(f.n, f.values)


def validate_capacity(v: SetFunction) -> Capacity:
    """Wrap v as a monotone capacity.

    Raises NotAGame if v(empty) != 0 and NotMonotone (with the first
    offending covering pair as witness) if any covering pair decreases.
    """
    _require_instance(v, SetFunction)
    return Capacity(v.n, v.values)


@dataclass(frozen=True, eq=False)
class MobiusRepresentation:
    """Mobius coefficients of a set function, on the same mask-indexed lattice.

    Satisfies the round trip zeta_transform(mobius_transform(f)) == f (exactly
    in exact arithmetic, within floating tolerance otherwise).  When derived
    from a game, the coefficient on the empty set is 0.
    """

    n: int
    coefficients: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", _ground_set(self.n))
        object.__setattr__(self, "coefficients", _validated_values(self.n, self.coefficients))

    def __getitem__(self, subset: SubsetLike) -> float:
        """Coefficient on a subset given as a mask or an element iterable."""
        return float(self.coefficients[as_mask(subset, self.n)])

    def __repr__(self) -> str:
        return f"MobiusRepresentation(n={self.n}, coefficients={self.coefficients.tolist()})"


def mobius_transform(f: SetFunction) -> MobiusRepresentation:
    """Mobius transform m(S) = sum over T subset of S of (-1)^(|S|-|T|) f(T).

    O(n * 2**n) arithmetic; agrees with the direct double-loop summation.
    Raises NonFiniteResult if a coefficient overflows.
    """
    _require_instance(f, SetFunction)
    coefficients = _lattice_cumulation(f.values, np.subtract, "mobius_transform")
    return MobiusRepresentation(f.n, _Fresh(coefficients))


def zeta_transform(m: MobiusRepresentation) -> SetFunction:
    """Zeta transform v(S) = sum over T subset of S of m(T); inverse of mobius_transform.

    Raises NonFiniteResult if a value overflows.
    """
    _require_instance(m, MobiusRepresentation)
    values = _lattice_cumulation(m.coefficients, np.add, "zeta_transform")
    return SetFunction(m.n, _Fresh(values))


def _unanimity_mask(subset: SubsetLike, n: int) -> int:
    """as_mask of a subset that has a unanimity game on [n]; EmptyT for the empty one."""
    mask = as_mask(subset, n)
    if mask == 0:
        raise EmptyT("unanimity games are defined for nonempty subsets only")
    return mask


def unanimity_game(n: int, subset: SubsetLike) -> SignedCapacity:
    """The game worth 1 on supersets of the given nonempty subset, else 0.

    These games form the standard basis of the space of games on [n]
    (mobius_transform maps each one to the matching delta vector).  Raises
    EmptyT for the empty subset: the constant-1 function it would require
    is not a game.  The basis expansion loses nothing by excluding it, since
    every game has Mobius coefficient 0 on the empty set.  Raises
    GroundSetTooLarge for n > MAX_GROUND_SET before allocating.
    """
    n = _ground_set(n)
    t_mask = _unanimity_mask(subset, n)
    masks = np.arange(1 << n)
    return SignedCapacity(n, _Fresh(((masks & t_mask) == t_mask).astype(float)))


def basis_decomposition(v: SignedCapacity) -> list[tuple[int, float]]:
    """Expansion of a game in the unanimity basis.

    Returns (mask, coefficient) pairs for the exactly-nonzero Mobius
    coefficients, in ascending mask order.  Rebuilding the weighted sum of
    unanimity games (equivalently, applying zeta_transform) reproduces v.
    v is any SetFunction that is a game; NotAGame unless v(empty) = 0
    exactly, since the empty set has no unanimity game.
    """
    _require_instance(v, SetFunction)
    _require_game(v)
    m = mobius_transform(v)
    return [(mask, float(c)) for mask, c in enumerate(m.coefficients) if c != 0.0]
