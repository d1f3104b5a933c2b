"""The boundary rules of cdrm: every argument check, the seed rule and the generator.

Each rule checks one kind of argument where it enters the library: a
count, a real-valued knob, a seed, a layout, a query or a dedup tolerance.
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


def checked_layout(dims, bounds, name: str = "bounds") -> tuple[tuple[int, int, int], np.ndarray]:
    """dims as a tuple of Python ints and bounds as a float64 array, after
    the layout rules datasets and models share; name is the bounds field
    the errors name.

    dims must be a list or tuple of three integers (d_s, d_a, d_next) with
    d_s, d_next >= 1 and d_a >= 0, and bounds one finite (low, high) row
    per joint dim with low < high and a finite width, since chains draw
    uniformly over it. Anything else raises InvalidInputError.
    """
    integers = isinstance(dims, (list, tuple)) and len(dims) == 3 and all(map(is_integer, dims))
    if not (integers and dims[0] >= 1 and dims[1] >= 0 and dims[2] >= 1):
        raise InvalidInputError(f"bad dims {dims}")
    dims = tuple(int(d) for d in dims)
    d_total = sum(dims)
    bounds = np.asarray(bounds, dtype=np.float64)
    if bounds.shape != (d_total, 2):
        raise InvalidInputError(f"{name} must be ({d_total}, 2)")
    if not np.all(np.isfinite(bounds)):
        raise InvalidInputError(f"{name} must be finite")
    if np.any(bounds[:, 0] >= bounds[:, 1]):
        raise InvalidInputError(f"{name} must satisfy low < high per dimension")
    with np.errstate(over="ignore"):
        width = bounds[:, 1] - bounds[:, 0]
    if not np.all(np.isfinite(width)):
        raise InvalidInputError(f"{name} must have a finite width")
    return dims, bounds


def checked_query(dims, bounds, s, a) -> np.ndarray:
    """The query (s, a) as one float64 row, after the one query rule of
    `inference.infer` and `binref`; dims and bounds are a checked layout.

    s and a must be 1-D with d_s and d_a entries, all finite
    (InvalidInputError), and the row must lie inside bounds[: d_s + d_a],
    ends included (OutOfBoundsError).
    """
    s = np.atleast_1d(np.asarray(s, dtype=np.float64))
    a = np.atleast_1d(np.asarray(a, dtype=np.float64)) if np.size(a) else np.empty(0)
    d_s, d_a, _ = dims
    if s.shape != (d_s,) or a.shape != (d_a,):
        raise InvalidInputError(f"query shapes {s.shape}, {a.shape} are not ({d_s},), ({d_a},)")
    query = np.concatenate([s, a])
    if not np.all(np.isfinite(query)):
        raise InvalidInputError("query must be finite")
    bounds = bounds[: d_s + d_a]
    if np.any(query < bounds[:, 0]) or np.any(query > bounds[:, 1]):
        raise OutOfBoundsError(
            f"query {query.tolist()} lies outside the input bounds {bounds.tolist()}"
        )
    return query


def checked_tolerance(dedup_tol, d: int) -> np.ndarray:
    """The (d,) float64 dedup tolerance of d-dim samples, after the one
    tolerance rule: a finite non-negative real scalar, which applies to
    every dim, or vector of d entries. Anything else raises
    InvalidInputError."""
    tol = np.atleast_1d(np.asarray(dedup_tol))
    # integer or float dtype only: text, bools and objects are not tolerances
    finite = tol.dtype.kind in "iuf" and np.all(np.isfinite(tol))
    if tol.ndim != 1 or not finite or np.any(tol < 0):
        raise InvalidInputError("dedup_tol must be a finite non-negative real scalar or vector")
    if tol.size not in (1, d):
        raise InvalidInputError(f"dedup_tol has {tol.size} entries, samples have {d}")
    return np.broadcast_to(tol.astype(np.float64, copy=False), (d,))
