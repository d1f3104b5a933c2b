"""Chain mechanics: determinism, bounds projection, stream independence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrm import data, kde
from cdrm.errors import InvalidInputError, SamplingFailureError
from cdrm.langevin import LangevinConfig, _draw_streams, _stream_words, _Words, run
from cdrm.model import TrainConfig
from cdrm.nnet import MlpNetwork
from cdrm.rules import derive_seed, sample_rng


def quadratic_score(center):
    # score peaks at `center`; gradient points toward it
    c = np.asarray(center, dtype=np.float64)

    def fn(batch, with_grad=True):
        diff = batch - c
        scores = -np.sum(diff * diff, axis=1)
        return scores, -2.0 * diff

    return fn


NO_PREFIX = np.empty(0)  # a chain that moves every coordinate, as training runs it


def full_cfg(**kw):
    base = dict(n_samples=8, steps=5, step_size=0.05, noise_scale=0.01)
    base.update(kw)
    return LangevinConfig(**base)


def box(d=2):
    """The (d, 2) box [-1, 1]^d of a whole row."""
    return np.array([[-1.0, 1.0]] * d)


def test_derive_seed_extends_tuples():
    assert derive_seed(7, 1, 2) == (7, 1, 2)
    assert derive_seed((7, 1), 2) == (7, 1, 2)
    assert derive_seed(np.uint64(2**64 - 1), np.int8(3)) == (2**64 - 1, 3)


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "12", None, True, ()], ids=repr)
def test_seed_outside_the_rule_is_refused(seed):
    # one rule at every entry: an integer in [0, 2**64) or a non-empty tuple
    # of them, so no two seeds alias, no text is read digit by digit and
    # None never means fresh entropy
    points = np.random.default_rng(0).normal(size=(10, 2))  # too few to subsample
    entries = (
        derive_seed,
        lambda s: sample_rng(s, 0),
        lambda s: TrainConfig(seed=s),
        lambda s: data.gen_toy(seed=s),
        lambda s: data.gen_room(5, seed=s),
        lambda s: MlpNetwork.initialize([2, 4, 1], seed=s),
        lambda s: kde.fit(points, seed=s),
        lambda s: kde.median_heuristic_bandwidth(points, seed=s),
    )
    for enter in entries:
        with pytest.raises(InvalidInputError, match="seed"):
            enter(seed)


PINNED_SEEDS = [0, 7, (3, 0xDE), 2**63 + 1]


@pytest.mark.parametrize("seed", PINNED_SEEDS, ids=repr)
def test_sample_rng_of_a_bare_seed_is_numpy_default_rng(seed):
    # datasets, inits and density subsamples draw from sample_rng(seed); it
    # must keep the stream np.random.default_rng(seed) gave them
    state = sample_rng(seed).bit_generator.state
    assert state == np.random.default_rng(seed).bit_generator.state


@pytest.mark.parametrize("seed", PINNED_SEEDS, ids=repr)
def test_sample_rng_of_a_tagged_seed_extends_its_entropy(seed):
    # stream i is numpy's SeedSequence over the seed's parts followed by i
    parts = list(seed) if isinstance(seed, tuple) else [seed]
    for i in (0, 1, 2**32 + 3):
        ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence([*parts, i])))
        assert sample_rng(seed, i).bit_generator.state == ref.bit_generator.state


def test_sample_rng_streams_differ_by_index():
    a = sample_rng(0, 0).uniform(size=4)
    b = sample_rng(0, 1).uniform(size=4)
    assert not np.array_equal(a, b)


def test_config_validation():
    with pytest.raises(InvalidInputError):
        full_cfg(n_samples=0)
    for count in ("n_samples", "steps"):  # counts are integers; a bool is not one
        for value in (2.5, 1.0, True):
            with pytest.raises(InvalidInputError, match=f"^{count} must be"):
                full_cfg(**{count: value})
    with pytest.raises(InvalidInputError):
        LangevinConfig(2.5, 3, 0.1, 0.01)
    assert full_cfg(n_samples=np.int64(3), steps=np.uint8(2)).n_samples == 3
    with pytest.raises(InvalidInputError):
        full_cfg(step_size=0.0)
    with pytest.raises(InvalidInputError):
        full_cfg(noise_scale=-0.1)
    for value in (np.nan, np.inf):  # a NaN noise once ran the chain silently noiseless
        with pytest.raises(InvalidInputError):
            full_cfg(step_size=value)
        with pytest.raises(InvalidInputError):
            full_cfg(noise_scale=value)
    with pytest.raises(TypeError):
        LangevinConfig(n_samples=4, steps=1, step_size=0.1)


@pytest.mark.parametrize(
    "bounds, fixed",
    [
        (np.empty((0, 2)), NO_PREFIX),  # a chain that moves nothing
        (np.array([[-1.0, 1.0]]), np.array([0.5])),  # the prefix fills the row
        (np.array([[-1.0, 0.0, 1.0]]), NO_PREFIX),  # rows are (low, high) pairs
        (np.array([-1.0, 1.0, -1.0, 1.0]), NO_PREFIX),  # flat
    ],
    ids=["empty", "prefix-only", "three-columns", "flat"],
)
def test_bounds_must_be_a_box_wider_than_the_prefix(bounds, fixed):
    # the box's values are the model's to check (rules.checked_layout)
    with pytest.raises(InvalidInputError, match="bounds"):
        run(quadratic_score(np.zeros(2)), full_cfg(steps=0), bounds, fixed, seed=0)


def test_init_uniform_within_bounds_and_deterministic():
    cfg = full_cfg(n_samples=32, steps=0)
    a = run(quadratic_score([0.0, 0.0]), cfg, box(), NO_PREFIX, seed=3).samples[0]
    b = run(quadratic_score([0.0, 0.0]), cfg, box(), NO_PREFIX, seed=3).samples[0]
    assert np.array_equal(a, b)
    assert np.all(a >= -1.0) and np.all(a <= 1.0)


def test_init_uniform_freezes_fixed_dims():
    cfg = full_cfg(steps=0)
    fixed = np.array([0.25, -0.5])
    batch = run(quadratic_score([0.0, 0.0, 0.0]), cfg, box(3), fixed, seed=0).samples[0]
    assert np.all(batch[:, 0] == 0.25)
    assert np.all(batch[:, 1] == -0.5)
    assert np.ptp(batch[:, 2]) > 0


def test_prefix_must_be_one_dimensional():
    cfg = full_cfg(steps=0)
    for fixed in (None, 0.5, [[0.1, 0.2]]):
        with pytest.raises(InvalidInputError, match="^fixed must"):
            run(quadratic_score([0.0, 0.0, 0.0]), cfg, box(3), fixed, seed=0)


def test_prefix_length_sets_the_row_width():
    # rows are the k prefix coordinates followed by the two moved ones
    cfg = full_cfg(steps=2, n_samples=3)
    for k in (0, 1, 3):
        fixed = np.arange(k, dtype=np.float64) + 0.5
        trace = run(quadratic_score(np.zeros(k + 2)), cfg, box(k + 2), fixed, seed=1)
        assert trace.samples.shape == (3, 3, k + 2) and trace.n_fixed == k
        assert np.all(trace.samples[:, :, :k] == fixed)


def test_run_trace_shapes():
    cfg = full_cfg(steps=6)
    trace = run(quadratic_score([0.0, 0.0]), cfg, box(), NO_PREFIX, seed=0)
    assert len(trace.samples) == 7  # init plus one batch per step
    assert len(trace.scores) == 7
    assert trace.per_step_max.shape == (6,)
    assert all(s.shape == (8, 2) for s in trace.samples)


def test_run_is_bit_reproducible():
    cfg = full_cfg()
    t1 = run(quadratic_score([0.3, -0.2]), cfg, box(), NO_PREFIX, seed=11)
    t2 = run(quadratic_score([0.3, -0.2]), cfg, box(), NO_PREFIX, seed=11)
    for a, b in zip(t1.samples, t2.samples):
        assert np.array_equal(a, b)


def test_sample_streams_unaffected_by_batch_size():
    # sample i's trajectory must not depend on how many other samples run
    small = full_cfg(n_samples=2)
    large = full_cfg(n_samples=16)
    ts = run(quadratic_score([0.0, 0.0]), small, box(), NO_PREFIX, seed=5)
    tl = run(quadratic_score([0.0, 0.0]), large, box(), NO_PREFIX, seed=5)
    for a, b in zip(ts.samples, tl.samples):
        assert np.array_equal(a[:2], b[:2])


def test_ascent_climbs_quadratic():
    cfg = full_cfg(steps=50, noise_scale=0.0, n_samples=16)
    fn = quadratic_score([0.2, 0.2])
    trace = run(fn, cfg, box(), NO_PREFIX, seed=1)
    assert trace.scores[-1].mean() > trace.scores[0].mean()
    final = trace.samples[-1]
    assert np.abs(final - 0.2).max() < 0.05


def test_samples_stay_inside_bounds():
    cfg = full_cfg(steps=30, step_size=0.5, noise_scale=0.3)
    trace = run(quadratic_score([5.0, 5.0]), cfg, box(), NO_PREFIX, seed=7)
    for batch in trace.samples:
        assert np.all(batch >= -1.0) and np.all(batch <= 1.0)


def test_fixed_dims_never_move():
    cfg = full_cfg(steps=10)
    fixed = np.array([0.6, -0.4])
    trace = run(quadratic_score([0.0, 0.0, 0.0]), cfg, box(3), fixed, seed=4)
    for batch in trace.samples:
        assert np.all(batch[:, 0] == 0.6)
        assert np.all(batch[:, 1] == -0.4)


def test_zero_noise_is_pure_gradient():
    cfg = full_cfg(steps=1, noise_scale=0.0, n_samples=1)
    fn = quadratic_score([0.0, 0.0])
    trace = run(fn, cfg, box(), NO_PREFIX, seed=9)
    x0 = trace.samples[0][0]
    expect = np.clip(x0 + 0.05 * (-2.0 * x0), -1.0, 1.0)
    np.testing.assert_allclose(trace.samples[1][0], expect, atol=1e-15)


def test_per_step_max_tracks_batch_max():
    cfg = full_cfg(steps=4)
    trace = run(quadratic_score([0.0, 0.0]), cfg, box(), NO_PREFIX, seed=0)
    for l in range(4):
        assert trace.per_step_max[l] == trace.scores[l + 1].max()


def test_nonfinite_gradient_raises():
    def grads_with(bad):
        def fn(batch, with_grad):
            g = np.zeros_like(batch)
            for i, value in bad.items():
                g[i, -1] = value
            return np.zeros(batch.shape[0]), g

        return fn

    cfg = full_cfg(steps=2)
    run(grads_with({}), cfg, box(), NO_PREFIX, seed=0)  # a finite batch steps on
    with pytest.raises(SamplingFailureError, match="non-finite gradient for sample 1$"):
        run(grads_with({1: np.inf, 3: np.nan}), cfg, box(), NO_PREFIX, seed=0)


def test_step_single_update():
    # one noiseless step is x + step_size * grad, clipped, on every sample
    cfg = full_cfg(steps=1, noise_scale=0.0)
    fn = quadratic_score([0.0, 0.0])
    trace = run(fn, cfg, box(), NO_PREFIX, seed=0)
    x0 = trace.samples[0]
    expect = np.clip(x0 + 0.05 * fn(x0)[1], -1.0, 1.0)
    assert np.array_equal(trace.samples[1], expect)
    assert np.array_equal(trace.scores[1], fn(expect)[0])


@pytest.mark.parametrize("steps", [0, 1, 3])
def test_only_the_final_pass_goes_without_gradients(steps):
    calls = []
    inner = quadratic_score([0.0, 0.0])

    def fn(batch, with_grad):
        calls.append(with_grad)
        scores, grads = inner(batch)
        return scores, grads if with_grad else None

    trace = run(fn, full_cfg(steps=steps), box(), NO_PREFIX, seed=2)
    assert calls == [True] * steps + [False]
    assert np.array_equal(trace.scores[-1], inner(trace.samples[-1])[0])


def test_zero_steps_returns_init_only():
    cfg = full_cfg(steps=0)
    trace = run(quadratic_score([0.0, 0.0]), cfg, box(), NO_PREFIX, seed=0)
    assert len(trace.samples) == 1
    assert trace.per_step_max.shape == (0,)


def test_run_streams_follow_sample_rng():
    # stream i draws sample i's init, then its noise for every step; each
    # step is clip((x + step_size * grad) + noise), bit for bit
    bounds = np.array([[-2.0, 0.5], [-10.0, 10.0]])
    cfg = full_cfg(steps=4, step_size=0.3, noise_scale=0.02, n_samples=5)
    fixed = np.array([0.75])
    fn = quadratic_score([0.1, 0.4, -9.0])

    # the prefix's row of the box is not read
    trace = run(fn, cfg, np.vstack([[np.nan, np.nan], bounds]), fixed, seed=(4, 2**63 + 5))
    for i in range(cfg.n_samples):
        rng = sample_rng((4, 2**63 + 5), i)
        x = np.concatenate([fixed, rng.uniform(bounds[:, 0], bounds[:, 1])])
        assert trace.samples[0, i].tobytes() == x.tobytes()
        noise = rng.normal(0.0, 0.02, size=(4, 2))
        for l in range(4):
            grad = fn(x[None, :])[1][0, 1:]
            assert np.all(grad != 0.0)
            x[1:] = np.clip((x[1:] + 0.3 * grad) + noise[l], bounds[:, 0], bounds[:, 1])
            assert trace.samples[l + 1, i].tobytes() == x.tobytes()


def test_run_records_into_stacked_arrays():
    cfg = full_cfg(steps=4, n_samples=6)
    trace = run(quadratic_score([0.1, 0.0]), cfg, box(), NO_PREFIX, seed=2)
    assert trace.samples.shape == (5, 6, 2)
    assert trace.scores.shape == (5, 6)
    assert np.array_equal(trace.per_step_max, trace.scores[1:].max(axis=1))


@st.composite
def bounded_chains(draw):
    """A d-wide chain with a k-coordinate prefix, k in [0, d - 1], and random,
    possibly zero-width, bounds on the moved block; the prefix holds
    arbitrary finite values, and its rows of the box are [0, 0]."""
    d = draw(st.integers(1, 4))
    k = draw(st.integers(0, d - 1))
    lows = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=d - k, max_size=d - k)))
    width = st.one_of(st.just(0.0), st.floats(0.0, 1e3), st.floats(0.0, 1e-300))
    widths = np.array(draw(st.lists(width, min_size=d - k, max_size=d - k)))
    cfg = LangevinConfig(
        n_samples=draw(st.integers(1, 8)),
        steps=draw(st.integers(0, 6)),
        step_size=draw(st.floats(1e-6, 1e3)),
        noise_scale=draw(st.one_of(st.just(0.0), st.floats(0.0, 1e2))),
    )
    bounds = np.vstack([np.zeros((k, 2)), np.column_stack([lows, lows + widths])])
    fixed = np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=k, max_size=k)))
    gain = draw(st.floats(1.0, 1e8))
    phase = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d)))
    return cfg, bounds, fixed, gain, phase, draw(st.integers(0, 2**64 - 1))


@settings(max_examples=150, deadline=None)
@given(bounded_chains())
def test_samples_stay_in_bounds_and_frozen_dims_hold(case):
    cfg, bounds, fixed, gain, phase = case[:5]

    def steep(batch, with_grad):
        # gradients up to `gain` in size, changing sign across the box
        return np.sin(batch + phase).sum(axis=1), gain * np.cos(3.0 * batch + phase)

    trace = run(steep, cfg, bounds, fixed, seed=case[5])
    k = fixed.size
    moved = trace.samples[:, :, k:]
    assert np.all(moved >= bounds[k:, 0]) and np.all(moved <= bounds[k:, 1])
    prefix = np.ascontiguousarray(trace.samples[:, :, :k])
    assert prefix.tobytes() == np.broadcast_to(fixed, prefix.shape).tobytes()


seeds = st.one_of(
    st.integers(0, 2**64 - 1),
    st.just(0),
    st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6).map(tuple),
)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=st.integers(1, 600), data=st.data())
def test_batched_stream_words_match_seed_sequence(seed, n, data):
    words = _stream_words(seed, n)
    assert words.shape == (n, 4) and words.dtype == np.uint64
    # every row is NumPy's SeedSequence hash of the seed's parts and the index
    entropy = list(derive_seed(seed))
    for i in range(n):
        expected = np.random.SeedSequence([*entropy, i]).generate_state(4, np.uint64)
        assert np.array_equal(words[i], expected), i
    indices = {0, n - 1} | set(data.draw(st.lists(st.integers(0, n - 1), max_size=8)))
    lows, highs = np.array([-1.0, 0.0, -3.5]), np.array([1.0, 0.0, 2.25])
    for i in sorted(indices):
        ref = sample_rng(seed, i)
        batched = np.random.Generator(np.random.PCG64(_Words(words[i])))
        assert batched.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(lows + (highs - lows) * batched.random(3), ref.uniform(lows, highs))
        assert np.array_equal(batched.normal(0.0, 0.01, (4, 3)), ref.normal(0.0, 0.01, (4, 3)))


# (words before the index, seed): a part of 2**32 or more is two words. Below
# four words the index enters the pool's first mixing; from four on it
# enters after the seed's words are hashed.
WORD_SEEDS = [
    (1, 0),
    (3, (1, 2, 3)),
    (3, (2**33 + 1, 5)),
    (4, (2**32 + 5, 7, 9)),
    (5, (0, 1, 2, 3, 4)),
    (7, (2**40, 1, 2, 2**64 - 1, 5)),
]


@pytest.mark.parametrize("n", [1, 32, 512])
@pytest.mark.parametrize("n_words, seed", WORD_SEEDS, ids=repr)
def test_stream_words_match_seed_sequence_before_and_after_the_pool_fills(n_words, seed, n):
    parts = derive_seed(seed)
    assert sum(2 if p >> 32 else 1 for p in parts) == n_words
    words = _stream_words(seed, n)
    assert words.shape == (n, 4) and words.dtype == np.uint64
    # PCG64 reads a strided row as other words, so each row must be contiguous
    assert words.flags.c_contiguous
    for i in range(n):
        expected = np.random.SeedSequence([*parts, i]).generate_state(4, np.uint64)
        assert np.array_equal(words[i], expected), i


# (words before the index, seed): the index enters the pool's first mixing,
# right after the pool fills, and after two more words
DRAW_SEEDS = [(1, 7), (4, (1, 2, 0, 3)), (6, (2**40 + 5, 3, 2**33, 9))]


@pytest.mark.parametrize("noise_scale", [0.0, 5e-324, 0.01])
@pytest.mark.parametrize("n_words, seed", DRAW_SEEDS, ids=repr)
@pytest.mark.parametrize("n", [1, 32, 512])
def test_draw_streams_match_sample_rng(n, n_words, seed, noise_scale):
    # sample i's init is stream i's uniform draw and its noise the stream's
    # next normal draw, byte for byte. At 5e-324 most products round to
    # zero, and a negative draw's must be normal's +0.0, not -0.0.
    assert sum(2 if p >> 32 else 1 for p in derive_seed(seed)) == n_words
    lows, highs = np.array([-1.0, 0.0, -3.5]), np.array([1.0, 0.0, 2.25])
    cfg = LangevinConfig(n, 4, 0.1, noise_scale)
    init = np.empty((n, 3))
    noise = _draw_streams(cfg, np.column_stack([lows, highs]), seed, init)
    assert noise.shape == (4, n, 3)
    for i in range(n):
        rng = sample_rng(seed, i)
        assert init[i].tobytes() == rng.uniform(lows, highs).tobytes(), i
        assert noise[:, i].tobytes() == rng.normal(0.0, noise_scale, (4, 3)).tobytes(), i


def test_stream_count_is_capped_per_chain():
    # the index is one 32-bit entropy word; the check runs before any array is made
    with pytest.raises(InvalidInputError, match="at most 2\\*\\*32 streams per chain"):
        _stream_words(0, 2**32 + 1)
