"""Batch-parallel Langevin dynamics over a scored vector space.

A chain moves the trailing block of each row and holds the leading
coordinates at a fixed prefix. One sampler serves two callers: training
evolves negatives over the full joint tuple (an empty prefix), inference
evolves next-state candidates with the query (s, a) as the prefix. A score
function maps a batch of points to scores and per-point input gradients;
the chain ascends the gradient, adds Gaussian noise, and projects the
moved block back into bounds after every step.

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

import math
from dataclasses import dataclass
from typing import Callable

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


@dataclass(frozen=True)
class LangevinConfig:
    """Chain shape and update knobs; the box the chain moves in is an
    argument of `run`."""

    n_samples: int
    steps: int
    step_size: float
    noise_scale: float

    def __post_init__(self):
        if self.n_samples < 1:
            raise InvalidInputError("n_samples must be positive")
        if self.steps < 0:
            raise InvalidInputError("steps must be >= 0")
        if not (math.isfinite(self.step_size) and self.step_size > 0):
            raise InvalidInputError("step_size must be finite and positive")
        if not (math.isfinite(self.noise_scale) and self.noise_scale >= 0):
            raise InvalidInputError("noise_scale must be finite and >= 0")


@dataclass
class ChainTrace:
    """Full record of one chain run.

    samples has shape (L+1, n, d): samples[l] is the batch after l steps
    (samples[0] is the initialization); scores has shape (L+1, n) with the
    matching score values. The first n_fixed coordinates of every row hold
    the prefix; samples[:, :, n_fixed:] is the block the chain moved.
    """

    samples: np.ndarray
    scores: np.ndarray
    n_fixed: int

    @property
    def per_step_max(self) -> np.ndarray:
        """Batch maximum for steps 1..L, the statistic downstream uncertainty
        estimates are built from."""
        return self.scores[1:].max(axis=1)


def _draw_streams(
    cfg: LangevinConfig, bounds: np.ndarray, seed: SeedLike, init: np.ndarray
) -> np.ndarray:
    """Fill `init`, the (n, d) moved block, uniformly over its (d, 2)
    bounds, and return the noise, shape (L, n, d).

    Sample i draws its initialization, then its noise for all L steps,
    from stream i, exactly as `sample_rng(seed, i).uniform(lows, highs)`
    followed by `.normal(0, noise_scale, (L, d))` would. One PCG64 is
    reused and loaded with each stream's state in turn; `lows + span * u`
    is the arithmetic `uniform` applies to its draws.
    """
    n, L, d = cfg.n_samples, cfg.steps, len(bounds)
    lows, highs = bounds[:, 0], bounds[:, 1]
    unit = np.empty((n, d))
    noise = np.zeros((L, n, d))
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    for i, state in enumerate(_stream_states(seed, n)):
        bitgen.state = state
        rng.random(out=unit[i])
        if cfg.noise_scale > 0:
            noise[:, i] = rng.normal(0.0, cfg.noise_scale, (L, d))
    init[:] = lows + (highs - lows) * unit
    return noise


def _check_grads(grads):
    finite = np.isfinite(grads).all(axis=1)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise SamplingFailureError(f"non-finite gradient for sample {bad}")


def run(
    score_fn: ScoreFn, cfg: LangevinConfig, bounds: np.ndarray, fixed: np.ndarray, seed: SeedLike
) -> ChainTrace:
    """Initialize and advance a batch for cfg.steps steps, recording all of it.

    bounds is the (d, 2) box of a whole row. Each row is the 1-D prefix
    fixed, held for the whole chain, followed by the d - len(fixed)
    coordinates the chain moves inside bounds[len(fixed):]; training
    passes an empty prefix. A bounds that is not (d, 2) with d > len(fixed)
    raises InvalidInputError; the caller owns the box's values (the
    model's input bounds). Initialization is uniform over the moved
    block's bounds. Per-sample noise for the whole chain is drawn up front
    from each sample's own stream, so traces are bit-reproducible for a
    given seed regardless of batch size changes elsewhere. Each step moves
    the block by step_size times its gradient, adds the noise and clips
    into bounds, writing straight into the preallocated trace. The final
    batch is scored without gradients (with_grad false), since no step
    reads them; with no steps that is the only pass.
    """
    fixed = np.asarray(fixed, dtype=np.float64)
    if fixed.ndim != 1:
        raise InvalidInputError(f"fixed must be a 1-D prefix, got shape {fixed.shape}")
    n, L, k = cfg.n_samples, cfg.steps, fixed.size
    bounds = np.asarray(bounds, dtype=np.float64)
    if bounds.ndim != 2 or bounds.shape[1] != 2 or len(bounds) <= k:
        raise InvalidInputError(
            f"bounds must be (d, 2) with d > {k}, the prefix length; got shape {bounds.shape}"
        )
    lows, highs = bounds[k:, 0], bounds[k:, 1]
    samples = np.empty((L + 1, n, len(bounds)))
    scores = np.empty((L + 1, n))
    samples[:, :, :k] = fixed
    moved = samples[:, :, k:]
    noise = _draw_streams(cfg, bounds[k:], seed, moved[0])

    scores[0], grads = score_fn(samples[0], L > 0)
    for l in range(L):
        _check_grads(grads)
        # moved + step_size * grads + noise, clipped into bounds
        np.multiply(grads[:, k:], cfg.step_size, out=moved[l + 1])
        moved[l + 1] += moved[l]
        moved[l + 1] += noise[l]
        np.clip(moved[l + 1], lows, highs, out=moved[l + 1])
        scores[l + 1], grads = score_fn(samples[l + 1], l + 1 < L)
    return ChainTrace(samples, scores, k)
