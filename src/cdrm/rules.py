"""The boundary rules of cdrm: every argument check, the seed rule and the generator.

Each rule checks one kind of argument where it enters the library: a
count, a real-valued knob, an object, a list of widths, an array, a set
of points, a seed, a box, a layout, a query or a dedup tolerance.
This module imports no cdrm module but `errors`, so the network, the
datasets and the density need not import the sampler.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError, OutOfBoundsError

SeedLike = int | tuple[int, ...]


def is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def checked_count(name: str, value, low: int = 1) -> int:
    """value as a Python int, after the one count rule: an integer (numpy
    integers too; a bool is not one) >= low. Anything else raises
    InvalidInputError naming the count."""
    if not (is_integer(value) and value >= low):
        raise InvalidInputError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def checked_real(name: str, value, low=-math.inf, high=math.inf, strict=False):
    """value as given, after the one rule of a float knob: an int, float or
    numpy real (a bool is not one), finite and in [low, high], or in
    (low, high) when strict. Anything else raises InvalidInputError naming
    the knob. The value is not converted, so a config records the caller's
    number."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InvalidInputError(f"{name} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int past the float range
        finite = False
    if not (finite and (low < value < high if strict else low <= value <= high)):
        left = "(" if strict or low == -math.inf else "["
        right = ")" if strict or high == math.inf else "]"
        raise InvalidInputError(
            f"{name} must be finite and in {left}{low:g}, {high:g}{right}, got {value!r}"
        )
    return value


def checked_instance(name: str, value, kinds: type | tuple[type, ...]):
    """value as given, after the one rule of an object argument (a dataset,
    a region, a list of widths): an instance of kinds. Anything else raises
    InvalidInputError naming the argument."""
    if not isinstance(value, kinds):
        names = kinds if isinstance(kinds, tuple) else (kinds,)
        what = " or ".join(dict.fromkeys(kind.__name__ for kind in names))
        raise InvalidInputError(f"{name} must be a {what}, got {type(value).__name__}")
    return value


def checked_widths(name: str, value) -> list[int]:
    """value as a list of Python ints, after the rule of a list of layer
    widths: a list or tuple of counts >= 1. Anything else raises
    InvalidInputError naming the list."""
    return [checked_count(name, width) for width in checked_instance(name, value, (list, tuple))]


def checked_array(name: str, value, shape: tuple, finite: bool = True) -> np.ndarray:
    """value as a float64 array, after the one array rule: a numeric array
    (dtype kind i, u or f; no bools, text, objects or complex numbers) of
    len(shape) dims, where each entry of shape is a fixed size or None for
    any size, and every value finite when finite is true. Anything else,
    ragged nesting included, raises InvalidInputError naming the array."""
    try:
        array = np.asarray(value)
    except (TypeError, ValueError) as exc:  # ragged nesting, for one
        raise InvalidInputError(f"{name} must be a numeric array: {exc}") from None
    if array.dtype.kind not in "iuf":
        raise InvalidInputError(f"{name} must be a numeric array, got dtype {array.dtype}")
    if array.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, array.shape)):
        raise InvalidInputError(f"{name} must have shape {shape}, got {array.shape}")
    array = array.astype(np.float64, copy=False)
    if finite and not np.all(np.isfinite(array)):
        raise InvalidInputError(f"{name} must be finite")
    return array


def checked_points(name: str, value, shape: tuple, max_norm: float) -> np.ndarray:
    """value as `checked_array(name, value, shape)` returns it, with every
    row (the last axis) within max_norm of the origin, so that sums of
    squares over it stay finite. Anything else raises InvalidInputError
    naming the points."""
    points = checked_array(name, value, shape)
    with np.errstate(over="ignore"):
        sq_norms = np.sum(points * points, axis=-1)
    if np.any(sq_norms > max_norm * max_norm):
        raise InvalidInputError(
            f"{name} must lie within {max_norm:.3g} of the origin, so that squared "
            "distances stay finite"
        )
    return points


def derive_seed(seed: SeedLike, *tags: int) -> tuple[int, ...]:
    """The seed extended with context tags (epoch index, stream purpose, ...),
    as Python ints; the one check of a seed. A seed is an integer in
    [0, 2**64) or a non-empty tuple of them, so no two seeds share a
    stream, and each tag is such an integer too."""
    parts = (seed if isinstance(seed, tuple) else (seed,)) + tags
    if len(parts) == len(tags) or not all(is_integer(p) and 0 <= p < 2**64 for p in parts):
        got = (seed, *tags) if tags else seed
        raise InvalidInputError(
            f"a seed is an integer in [0, 2**64) or a non-empty tuple of them, got {got!r}"
        )
    return tuple(int(p) for p in parts)


def sample_rng(seed: SeedLike, *tags: int) -> np.random.Generator:
    """The generator of `seed` split by context tags (epoch, sample index, ...)."""
    return np.random.default_rng(list(derive_seed(seed, *tags)))


def checked_box(name: str, bounds, rows: int | None = None, strict: bool = True) -> np.ndarray:
    """bounds as a float64 array, after the one box rule: rows (any number
    for None) of finite (low, high) pairs, each with low < high (low <= high
    when not strict) and a finite width high - low, since chains draw
    uniformly over the box. Anything else raises InvalidInputError naming
    the box."""
    bounds = checked_array(name, bounds, (rows, 2))
    low, high = bounds[:, 0], bounds[:, 1]
    with np.errstate(over="ignore"):
        finite_width = high - low < np.inf
    if not (finite_width & (low < high if strict else low <= high)).all():
        order = "<" if strict else "<="
        raise InvalidInputError(
            f"{name} must have a finite width and low {order} high per dimension"
        )
    return bounds


def checked_layout(dims, bounds, name: str = "bounds") -> tuple[tuple[int, int, int], np.ndarray]:
    """dims as a tuple of Python ints and bounds as a float64 array, after
    the layout rules datasets and models share; name is the bounds field
    the errors name.

    dims must be a list or tuple of three integers (d_s, d_a, d_next) with
    d_s, d_next >= 1 and d_a >= 0, and bounds a box of one row per joint
    dim that passes `checked_box`. Anything else raises InvalidInputError.
    """
    integers = isinstance(dims, (list, tuple)) and len(dims) == 3 and all(map(is_integer, dims))
    if not (integers and dims[0] >= 1 and dims[1] >= 0 and dims[2] >= 1):
        raise InvalidInputError(f"bad dims {dims}")
    dims = tuple(int(d) for d in dims)
    return dims, checked_box(name, bounds, sum(dims))


def checked_query(dims, bounds, s, a) -> np.ndarray:
    """The query (s, a) as one float64 row, after the one query rule of
    `inference.infer` and `binref`; dims and bounds are a checked layout.

    s and a must pass `checked_array` as 1-D arrays of d_s and d_a
    entries (InvalidInputError), and the row must lie inside
    bounds[: d_s + d_a], ends included (OutOfBoundsError).
    """
    d_s, d_a, _ = dims
    query = np.concatenate([checked_array("s", s, (d_s,)), checked_array("a", a, (d_a,))])
    bounds = bounds[: d_s + d_a]
    if np.any(query < bounds[:, 0]) or np.any(query > bounds[:, 1]):
        raise OutOfBoundsError(
            f"query {query.tolist()} lies outside the input bounds {bounds.tolist()}"
        )
    return query


def checked_tolerance(dedup_tol, d: int) -> np.ndarray:
    """The (d,) float64 dedup tolerance of d-dim samples, after the one
    tolerance rule: a non-negative scalar, which applies to every dim, or
    vector of d entries, each passing `checked_array`. Anything else raises
    InvalidInputError."""
    scalar = np.isscalar(dedup_tol) or getattr(dedup_tol, "shape", None) == ()
    tol = checked_array("dedup_tol", [dedup_tol] if scalar else dedup_tol, (None,))
    if np.any(tol < 0):
        raise InvalidInputError("dedup_tol must be non-negative")
    if tol.size not in (1, d):
        raise InvalidInputError(f"dedup_tol has {tol.size} entries, samples have {d}")
    return np.broadcast_to(tol, (d,))
