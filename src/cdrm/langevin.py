"""Batch-parallel Langevin dynamics over a scored vector space.

A chain moves the trailing block of each row and holds the leading
coordinates at a fixed prefix. One sampler serves two callers: training
evolves negatives over the full joint tuple (an empty prefix), inference
evolves next-state candidates with the query (s, a) as the prefix. A score
function maps a batch of points to scores and per-point input gradients;
the chain ascends the gradient, adds Gaussian noise, and projects the
moved block back into bounds after every step.

Reproducibility contract: sample i of a chain draws its initialization
and noise from `rules.sample_rng(seed, i)`, its own stream, so changing
the batch size never perturbs the stream of any other sample.
`rules.sample_rng` is the definition; `run` reproduces the n streams of a
chain by re-implementing only SeedSequence's hash, batched over the n
streams (`_stream_words`), and each stream's PCG64 seeds itself from its
row of seed words through NumPy's `ISeedSequence` interface; each sample
then draws its noise into its own row of one buffer (`_draw_streams`).
NEP 19 keeps the hash stable across NumPy releases; if it ever changes,
the differential test against `SeedSequence.generate_state` fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import rules
from .errors import InvalidInputError, SamplingFailureError
from .rules import SeedLike, checked_array, checked_count, checked_real, derive_seed

# score_fn(batch (n, d), with_grad) -> (scores (n,), gradients (n, d)); the
# gradients may be None when with_grad is false.
ScoreFn = Callable[[np.ndarray, bool], tuple[np.ndarray, np.ndarray | None]]

# The training loop calls `rules.sample_rng` through this name, which the
# benchmark's tracer (perfbench/tracing.py) swaps to time it.
sample_rng = rules.sample_rng

# SeedSequence constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_XSHIFT = 16
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash(value, xor, mult):
    """One SeedSequence hash step: value ^ xor, times mult mod 2**32, then
    xor-shifted; on Python ints or on uint64 arrays, where the product of
    two 32-bit words stays exact."""
    value = (value ^ xor) * mult & _MASK32
    return value ^ (value >> _XSHIFT)


def _hash_consts(hash_const: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiplier constants of `count` successive hash steps
    that start from `hash_const`, each as a (count, 1) uint64 column."""
    xors, mults = [], []
    for _ in range(count):
        xors.append(hash_const)
        hash_const = hash_const * mult & _MASK32
        mults.append(hash_const)
    return _column(xors), _column(mults)


def _column(values) -> np.ndarray:
    return np.array(values, dtype=np.uint64)[:, None]


# generate_state(4, np.uint64) hashes eight uint32 words, cycling the pool;
# output word k takes pool word k % 4 and the k-th constants.
_OUT_POOL_ROWS = np.arange(8) % _POOL_SIZE
_OUT_CONSTS = _hash_consts(_INIT_B, _MULT_B, 8)


def _stream_words(seed: SeedLike, n: int) -> np.ndarray:
    """The (n, 4) uint64 PCG64 seed words of `sample_rng(seed, i)` for i in
    0..n-1, C-contiguous: row i is
    `SeedSequence([*derive_seed(seed), i]).generate_state(4, np.uint64)`.

    Runs SeedSequence's pool hash on all n entropy lists at once: they share
    the seed's 32-bit words and differ only in the last word, the index.
    The shared words stay Python ints, so every hash step before the index
    enters runs once, in scalar arithmetic. From four seed words on (every
    training seed) the index enters after the pool has filled, and its four
    steps, one per pool word, are one (4, n) array pass; with fewer, it
    enters the pool's first mixing as an n-long array. The eight output
    words are then one (8, n) pass. Array steps are done in uint64 and
    masked, which keeps every product exact.
    """
    if n > _MASK32 + 1:
        raise InvalidInputError("at most 2**32 streams per chain")
    words: list = [
        w
        for part in derive_seed(seed)
        for w in ([part & _MASK32, part >> 32] if part >> 32 else [part])
    ]
    index = np.arange(n, dtype=np.uint64)
    late_index = len(words) >= _POOL_SIZE
    if not late_index:
        words.append(index)

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        xor, hash_const = hash_const, hash_const * _MULT_A & _MASK32
        return _hash(value, xor, hash_const)

    def mix(x, y):
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return r ^ (r >> _XSHIFT)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    if late_index:
        # pool[dst] = mix(pool[dst], hashmix(index)) for each dst, as one pass
        pool = mix(_column(pool), _hash(index, *_hash_consts(hash_const, _MULT_A, _POOL_SIZE)))

    # generate_state(4, np.uint64): the eight uint32 output words, paired
    # little-endian into four uint64 words. A row must be contiguous: PCG64
    # reads a strided row as other words.
    out = _hash(np.asarray(pool)[_OUT_POOL_ROWS], *_OUT_CONSTS)
    return np.ascontiguousarray((out[::2] | out[1::2] << 32).T)


class _Words(np.random.bit_generator.ISeedSequence):
    """One row of `_stream_words`, handed to a PCG64 as its seed words."""

    def __init__(self, row: np.ndarray):
        self.row = row

    def generate_state(self, n_words, dtype=np.uint32):
        return self.row


@dataclass(frozen=True)
class LangevinConfig:
    """Chain shape and update knobs; the box the chain moves in is an
    argument of `run`."""

    n_samples: int
    steps: int
    step_size: float
    noise_scale: float

    def __post_init__(self):
        for name, low in (("n_samples", 1), ("steps", 0)):
            object.__setattr__(self, name, checked_count(name, getattr(self, name), low))
        checked_real("step_size", self.step_size, 0, strict=True)
        checked_real("noise_scale", self.noise_scale, 0)


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
    followed by `.normal(0, noise_scale, (L, d))` would. Each stream's
    PCG64 seeds itself from its row of `_stream_words`; `lows + span * u`
    is the arithmetic `uniform` applies to its draws. Each sample draws
    standard normals straight into its own contiguous (L, d) row of one
    buffer, and the buffer is then scaled once: `normal(0.0, s)` is
    `0.0 + s * z`, and the `+ 0.0` turns a -0.0 product into +0.0. The
    noise returned is a view of that buffer.
    """
    n, L, d = cfg.n_samples, cfg.steps, len(bounds)
    lows, highs = bounds[:, 0], bounds[:, 1]
    unit = np.empty((n, d))
    noise = np.zeros((n, L, d))
    for i, row in enumerate(_stream_words(seed, n)):
        rng = np.random.Generator(np.random.PCG64(_Words(row)))
        rng.random(out=unit[i])
        if cfg.noise_scale > 0:
            rng.standard_normal(out=noise[i])
    if cfg.noise_scale > 0:
        noise *= cfg.noise_scale
        noise += 0.0
    init[:] = lows + (highs - lows) * unit
    return noise.transpose(1, 0, 2)


def _check_grads(grads):
    if not np.isfinite(grads).all():
        bad = int(np.flatnonzero(~np.isfinite(grads).all(axis=1))[0])
        raise SamplingFailureError(f"non-finite gradient for sample {bad}")


def run(
    score_fn: ScoreFn, cfg: LangevinConfig, bounds: np.ndarray, fixed: np.ndarray, seed: SeedLike
) -> ChainTrace:
    """Initialize and advance a batch for cfg.steps steps, recording all of it.

    bounds is the (d, 2) box of a whole row. Each row is the 1-D prefix
    fixed, held for the whole chain, followed by the d - len(fixed)
    coordinates the chain moves inside bounds[len(fixed):]; training
    passes an empty prefix. A fixed or bounds that fails `rules.checked_array`
    (the prefix's rows of bounds may hold any value, the others must be
    finite) or a bounds with d <= len(fixed) raises InvalidInputError; the
    caller owns the box's values (the model's input bounds). Initialization
    is uniform over the moved block's bounds. Per-sample noise for the whole chain is drawn up front
    from each sample's own stream, so traces are bit-reproducible for a
    given seed regardless of batch size changes elsewhere. Each step moves
    the block by step_size times its gradient, adds the noise and clips
    into bounds, writing straight into the preallocated trace. The final
    batch is scored without gradients (with_grad false), since no step
    reads them; with no steps that is the only pass.
    """
    fixed = checked_array("fixed", fixed, (None,))
    n, L, k = cfg.n_samples, cfg.steps, fixed.size
    bounds = checked_array("bounds", bounds, (None, 2), finite=False)  # a prefix row is never read
    if len(bounds) <= k:
        raise InvalidInputError(f"bounds must have more rows than fixed has entries ({k})")
    checked_array(f"bounds[{k}:]", bounds[k:], (None, 2))  # the moved block's box is finite
    lows, highs = bounds[k:, 0], bounds[k:, 1]
    samples = np.empty((L + 1, n, len(bounds)))
    scores = np.empty((L + 1, n))
    samples[:, :, :k] = fixed
    moved = samples[:, :, k:]
    noise = _draw_streams(cfg, bounds[k:], seed, moved[0])

    scores[0], grads = score_fn(samples[0], L > 0)
    for l in range(L):
        _check_grads(grads)
        # moved + step_size * grads + noise, clipped into bounds; the two
        # ufuncs, with the moved block first, give np.clip's bytes (signed
        # zeros and NaN included) without its Python-level wrapper
        np.multiply(grads[:, k:], cfg.step_size, out=moved[l + 1])
        moved[l + 1] += moved[l]
        moved[l + 1] += noise[l]
        np.maximum(moved[l + 1], lows, out=moved[l + 1])
        np.minimum(moved[l + 1], highs, out=moved[l + 1])
        scores[l + 1], grads = score_fn(samples[l + 1], l + 1 < L)
    return ChainTrace(samples, scores, k)
