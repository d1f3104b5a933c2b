"""Batch-parallel Langevin dynamics over a scored vector space.

One sampler serves two callers: training evolves negatives over the full
joint tuple, inference evolves next-state candidates with the query
coordinates frozen. A score function maps a batch of points to scores and
per-point input gradients; the chain ascends the gradient, adds Gaussian
noise, and projects back into bounds after every step.

Reproducibility contract: each sample's initialization and noise come from
its own stream, the generator `sample_rng(seed, i)` for sample index i.
Changing the batch size therefore never perturbs the stream of any other
sample. `sample_rng` is the definition; `run` reproduces the n streams of a
chain in one batched pass (`_stream_states`) that re-implements NumPy's
SeedSequence hash and PCG64 seeding. NEP 19 keeps both algorithms stable
across NumPy releases; if one ever changes, the differential test against
`sample_rng` fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInputError, SamplingFailureError

# score_fn(batch (n, d), with_grad) -> (scores (n,), gradients (n, d)); the
# gradients may be None when with_grad is false.
ScoreFn = Callable[[np.ndarray, bool], tuple[np.ndarray, np.ndarray | None]]

SeedLike = int | tuple[int, ...]


def _entropy(seed: SeedLike) -> list[int]:
    parts = (seed,) if isinstance(seed, int) else tuple(seed)
    return [int(p) & 0xFFFFFFFFFFFFFFFF for p in parts]


def sample_rng(seed: SeedLike, index: int) -> np.random.Generator:
    """Independent generator for one sample, a counter-style split of `seed`."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(_entropy(seed) + [index])))


# SeedSequence constants (numpy/random/bit_generator.pyx) and the PCG64
# 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_XSHIFT = 16
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _stream_states(seed: SeedLike, n: int) -> list[dict]:
    """PCG64 states of `sample_rng(seed, i)` for i in 0..n-1, in one pass.

    Runs SeedSequence's pool hash on all n entropy lists at once: they share
    the seed's 32-bit words and differ only in the last word, the index.
    The uint32 arithmetic is done in uint64 arrays and masked, which keeps
    every product exact. The four state words then go through PCG64's
    srandom_r seeding in Python ints. Each returned dict is ready for a
    PCG64 `state` setter.
    """
    if n > _MASK32 + 1:
        raise InvalidInputError("at most 2**32 streams per chain")
    words = [
        np.full(n, w, dtype=np.uint64)
        for part in _entropy(seed)
        for w in ([part & _MASK32, part >> 32] if part >> 32 else [part])
    ]
    words.append(np.arange(n, dtype=np.uint64))

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return r ^ (r >> _XSHIFT)

    zero = np.zeros(n, dtype=np.uint64)
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(4, np.uint64): eight uint32 words cycling the pool,
    # paired little-endian into four uint64 words.
    hash_const = _INIT_B
    out = []
    for k in range(8):
        value = pool[k % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        out.append(value ^ (value >> _XSHIFT))
    seed_hi, seed_lo, inc_hi, inc_lo = ((out[2 * j] | (out[2 * j + 1] << 32)).tolist() for j in range(4))

    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
        states.append(
            {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
        )
    return states


def derive_seed(seed: SeedLike, *tags: int) -> tuple[int, ...]:
    """Extend a seed with context tags (epoch index, stream purpose, ...)."""
    return tuple(_entropy(seed)) + tuple(int(t) for t in tags)


@dataclass
class LangevinConfig:
    """Chain shape and update knobs.

    free_dims lists the coordinates the chain updates; all others stay
    frozen at caller-supplied values. bounds has one (low, high) row per
    free dimension.
    """

    n_samples: int
    steps: int
    step_size: float
    noise_scale: float
    free_dims: Sequence[int]
    bounds: np.ndarray

    def __post_init__(self):
        if self.n_samples < 1:
            raise InvalidInputError("n_samples must be positive")
        if self.steps < 0:
            raise InvalidInputError("steps must be >= 0")
        if not (np.isfinite(self.step_size) and self.step_size > 0):
            raise InvalidInputError("step_size must be finite and positive")
        if not (np.isfinite(self.noise_scale) and self.noise_scale >= 0):
            raise InvalidInputError("noise_scale must be finite and >= 0")
        self.free_dims = np.asarray(self.free_dims, dtype=np.intp)
        if self.free_dims.ndim != 1 or self.free_dims.size == 0:
            raise InvalidInputError("free_dims must be a non-empty list of indices")
        self.bounds = np.asarray(self.bounds, dtype=np.float64)
        if self.bounds.shape != (self.free_dims.size, 2):
            raise InvalidInputError("bounds must have shape (len(free_dims), 2)")
        if not np.all(np.isfinite(self.bounds)):
            raise InvalidInputError("bounds must be finite")
        if np.any(self.bounds[:, 0] > self.bounds[:, 1]):
            raise InvalidInputError("bounds must satisfy low <= high")
        with np.errstate(over="ignore"):
            width = self.bounds[:, 1] - self.bounds[:, 0]
        if not np.all(np.isfinite(width)):
            raise InvalidInputError("bounds must have a finite width")


@dataclass
class ChainTrace:
    """Full record of one chain run.

    samples has shape (L+1, n, d): samples[l] is the batch after l steps
    (samples[0] is the initialization); scores has shape (L+1, n) with the
    matching score values; free_dims lists the coordinates the chain moved.
    """

    samples: np.ndarray
    scores: np.ndarray
    free_dims: np.ndarray

    @property
    def per_step_max(self) -> np.ndarray:
        """Batch maximum for steps 1..L, the statistic downstream uncertainty
        estimates are built from."""
        return self.scores[1:].max(axis=1)


def _base_row(free: np.ndarray, fixed_values: np.ndarray | None) -> np.ndarray:
    """Full-width starting row; frozen dims hold fixed_values, free dims are overwritten."""
    if fixed_values is None:
        total_dim = len(free)
        if not np.array_equal(np.sort(free), np.arange(total_dim)):
            raise InvalidInputError("fixed_values required when some dims are frozen")
        return np.zeros(total_dim)
    base = np.asarray(fixed_values, dtype=np.float64)
    if base.ndim != 1 or len(base) < len(free):
        raise InvalidInputError("fixed_values must be a full-width vector")
    if np.any(free >= len(base)):
        raise InvalidInputError("free_dims exceed the width of fixed_values")
    return base


def _draw_streams(cfg: LangevinConfig, seed: SeedLike, init: np.ndarray) -> np.ndarray:
    """Fill the free dims of `init` and return the noise, shape (L, n, n_free).

    Sample i draws its initialization, then its noise for all L steps,
    from stream i, exactly as `sample_rng(seed, i).uniform(lows, highs)`
    followed by `.normal(0, noise_scale, (L, n_free))` would. One PCG64 is
    reused and loaded with each stream's state in turn; `lows + span * u`
    is the arithmetic `uniform` applies to its draws.
    """
    n, L, free = cfg.n_samples, cfg.steps, cfg.free_dims
    lows, highs = cfg.bounds[:, 0], cfg.bounds[:, 1]
    unit = np.empty((n, free.size))
    noise = np.zeros((L, n, free.size))
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    for i, state in enumerate(_stream_states(seed, n)):
        bitgen.state = state
        rng.random(out=unit[i])
        if cfg.noise_scale > 0:
            noise[:, i] = rng.normal(0.0, cfg.noise_scale, (L, free.size))
    init[:, free] = lows + (highs - lows) * unit
    return noise


def _check_grads(grads):
    finite = np.isfinite(grads).all(axis=1)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise SamplingFailureError(f"non-finite gradient for sample {bad}")


def run(
    score_fn: ScoreFn,
    cfg: LangevinConfig,
    fixed_values: np.ndarray | None,
    seed: SeedLike,
) -> ChainTrace:
    """Initialize and advance a batch for cfg.steps steps, recording all of it.

    Initialization is uniform over bounds on the free dims; frozen dims are
    copied from fixed_values, a full-width vector that may be omitted when
    every dimension is free. Per-sample noise for the whole chain is drawn
    up front from each sample's own stream, so traces are bit-reproducible
    for a given seed regardless of batch size changes elsewhere. Each step
    moves the free dims by step_size times the gradient, adds the noise and
    clips into bounds, writing straight into the preallocated trace. The
    final batch is scored without gradients (with_grad false), since no
    step reads them; with no steps that is the only pass.
    """
    n, L, free = cfg.n_samples, cfg.steps, cfg.free_dims
    base = _base_row(free, fixed_values)
    samples = np.empty((L + 1, n, base.size))
    scores = np.empty((L + 1, n))
    samples[0] = base
    noise = _draw_streams(cfg, seed, samples[0])
    lows, highs = cfg.bounds[:, 0], cfg.bounds[:, 1]
    moved = np.empty((n, free.size))
    held = np.empty((n, free.size))

    scores[0], grads = score_fn(samples[0], L > 0)
    for l in range(L):
        _check_grads(grads)
        # batch[:, free] + step_size * grads[:, free] + noise, clipped into bounds
        np.multiply(grads[:, free], cfg.step_size, out=moved)
        np.take(samples[l], free, axis=1, out=held)
        np.add(held, moved, out=moved)
        moved += noise[l]
        np.clip(moved, lows, highs, out=moved)
        samples[l + 1] = samples[l]
        samples[l + 1][:, free] = moved
        scores[l + 1], grads = score_fn(samples[l + 1], l + 1 < L)
    return ChainTrace(samples, scores, free)
