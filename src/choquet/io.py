"""Reading and writing set functions as JSON documents.

A document carries the ground-set size and the values in one of two forms:

    {"n": 2, "by_mask": [0.0, 3.0, -1.0, 2.0]}
    {"n": 2, "by_subset": {"": 0.0, "1": 3.0, "2": -1.0, "1,2": 2.0}}

A subset key is the comma-joined ascending 1-based element list, with ""
for the empty set.  In by_subset form, omitted subsets default to 0, and
no two keys may name the same subset.
Writers always emit by_subset form with all 2**n keys; values serialize via
repr and so round-trip at full double precision.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from .errors import FileFormatError, GroundSetTooLarge
from .setfunction import MAX_GROUND_SET, MobiusRepresentation, SetFunction, elements_from_mask

PathLike = Union[str, Path]


def subset_key(mask: int) -> str:
    """Ascending comma-joined element list of a mask; "" for the empty set."""
    return ",".join(str(e) for e in elements_from_mask(mask))


def parse_subset_key(key: str, n: int) -> int:
    """Parse a subset key back to a mask.  Raises FileFormatError on bad keys."""
    if key == "":
        return 0
    mask = 0
    for part in key.split(","):
        try:
            element = int(part)
        except ValueError:
            raise FileFormatError(f"subset key {key!r}: {part!r} is not an integer") from None
        if not 1 <= element <= n:
            raise FileFormatError(f"subset key {key!r}: element {element} outside 1..{n}")
        bit = 1 << (element - 1)
        if mask & bit:
            raise FileFormatError(f"subset key {key!r}: element {element} repeated")
        mask |= bit
    return mask


def parse_point(text: str) -> tuple[float, ...]:
    """Parse a comma-separated point literal like "4,0,2"."""
    parts = text.split(",")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise FileFormatError(f"point {text!r} is not a comma-separated list of decimals") from None


def _values_from_document(doc: dict) -> tuple[int, np.ndarray]:
    if not isinstance(doc, dict):
        raise FileFormatError("document must be a JSON object")
    if "n" not in doc:
        raise FileFormatError("missing field 'n'")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise FileFormatError(f"field 'n' must be a positive integer, got {n!r}")
    if n > MAX_GROUND_SET:
        raise GroundSetTooLarge(n, MAX_GROUND_SET)
    has_mask = "by_mask" in doc
    has_subset = "by_subset" in doc
    if has_mask == has_subset:
        raise FileFormatError("exactly one of 'by_mask' or 'by_subset' is required")
    size = 1 << n

    if has_mask:
        raw = doc["by_mask"]
        if not isinstance(raw, list) or len(raw) != size:
            raise FileFormatError(f"field 'by_mask' must be an array of {size} numbers")
        values = np.array([_as_float(e, f"by_mask[{i}]") for i, e in enumerate(raw)])
    else:
        raw = doc["by_subset"]
        if not isinstance(raw, dict):
            raise FileFormatError("field 'by_subset' must be an object")
        values = np.zeros(size)
        named = {}  # the key that first named each mask
        for key, entry in raw.items():
            mask = parse_subset_key(key, n)
            first = named.setdefault(mask, key)
            if first != key:
                raise FileFormatError(f"subset key {key!r} names the same subset as {first!r}")
            values[mask] = _as_float(entry, f"by_subset[{key!r}]")
    return n, values


def _as_float(entry, field: str) -> float:
    if isinstance(entry, bool) or not isinstance(entry, (int, float)):
        raise FileFormatError(f"field {field} must be a number, got {entry!r}")
    try:
        value = float(entry)
    except OverflowError:  # an integer beyond the float range
        value = float("inf")
    if not np.isfinite(value):
        raise FileFormatError(f"field {field} must be finite, got {value!r}")
    return value


def set_function_from_document(doc: dict) -> SetFunction:
    """Build a SetFunction from a parsed document."""
    n, values = _values_from_document(doc)
    return SetFunction(n, values)


def mobius_from_document(doc: dict) -> MobiusRepresentation:
    """Build Mobius coefficients from a parsed document (same layout)."""
    n, values = _values_from_document(doc)
    return MobiusRepresentation(n, values)


def document_from_values(n: int, values: np.ndarray) -> dict:
    """by_subset document with all 2**n keys in ascending mask order."""
    return {
        "n": n,
        "by_subset": {subset_key(mask): float(values[mask]) for mask in range(1 << n)},
    }


def set_function_to_document(f: SetFunction) -> dict:
    return document_from_values(f.n, f.values)


def mobius_to_document(m: MobiusRepresentation) -> dict:
    return document_from_values(m.n, m.coefficients)


def load_set_function(path: PathLike) -> SetFunction:
    """Read a set-function JSON file.  Raises FileFormatError on any defect."""
    return set_function_from_document(_load_json(path))


def load_mobius(path: PathLike) -> MobiusRepresentation:
    return mobius_from_document(_load_json(path))


def _load_json(path: PathLike) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise FileFormatError(f"{path} nests too deeply to parse") from None


def dump_document(doc: dict, path: PathLike) -> None:
    """Write format_document(doc) to path; FileFormatError if that fails."""
    text = format_document(doc)
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise FileFormatError(f"cannot write {path}: {exc}") from None


def format_document(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"
