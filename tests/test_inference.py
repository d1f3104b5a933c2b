"""Valid-set collection, prediction, and the two uncertainty readouts."""

import dataclasses
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from cdrm import inference, kde, langevin
from hypothesis import given, settings
from hypothesis import strategies as st
from cdrm.errors import (
    EmptyValidSetError,
    InvalidInputError,
    OutOfBoundsError,
    UnpreparedModelError,
)
from cdrm.inference import (
    DEDUP_RANGE_FRACTION,
    DEFAULT_ALPHA,
    DEFAULT_CHAIN,
    ValidSet,
    aleatoric,
    collect_valid,
    default_dedup_tol,
    epistemic,
    infer,
    predict,
)
from cdrm.langevin import ChainTrace, LangevinConfig
from cdrm.model import CdrmModel, score_batch, score_fn
from cdrm.nnet import MlpNetwork
from conftest import count_passes


def ramp_model(with_kde=True):
    """Linear field sigmoid(4 * s_next - 1): monotone in the next state."""
    net = MlpNetwork(
        layer_dims=[2, 1],
        weights=[np.array([[0.0, 4.0]])],
        biases=[np.array([-1.0])],
    )
    m = CdrmModel(net=net, input_bounds=np.tile([-1.0, 1.0], (2, 1)), dims=(1, 0, 1))
    if with_kde:
        states = np.linspace(-1, 1, 64)[:, None]
        m = CdrmModel(
            net=net,
            input_bounds=m.input_bounds,
            dims=m.dims,
            kde_stats=kde.fit(states, seed=0),
        )
    return m


def offered(rows, scores=None):
    """A one-step trace that moves all d dims, offering rows in order, by
    default all above alpha 0.5; the initialization batch holds zeros."""
    pts = np.asarray(rows, dtype=np.float64)
    scores = np.full(len(pts), 0.9) if scores is None else np.asarray(scores, dtype=np.float64)
    return ChainTrace(
        np.stack([np.zeros_like(pts), pts]),
        np.stack([np.zeros(len(pts)), scores]),
        0,
    )


def dedup(rows, tol, scores=None):
    return collect_valid(offered(rows, scores), alpha=0.5, dedup_tol=tol)


class TestValidSet:
    """The dedup rule, on small hand-built traces."""

    def test_collected_members_and_len(self):
        vs = dedup([[0.5], [0.8]], 0.1, scores=[0.9, 0.7])
        assert len(vs) == 2
        assert vs.samples.tolist() == [[0.5], [0.8]]
        assert vs.scores.tolist() == [0.9, 0.7]

    def test_exact_duplicate_discarded_even_at_zero_tol(self):
        rows = [[0.5, 0.25], [0.5, 0.25], [0.5, 0.25 + 1e-12]]
        vs = dedup(rows, 0.0, scores=[0.9, 0.99, 0.6])
        # the duplicate goes despite its higher score; zero tolerance keeps
        # genuinely distinct points
        assert vs.samples.tolist() == [[0.5, 0.25], [0.5, 0.25 + 1e-12]]
        assert vs.scores.tolist() == [0.9, 0.6]

    def test_first_seen_member_wins_regardless_of_score(self):
        vs = dedup([[0.5], [0.55]], 0.1, scores=[0.6, 0.999])
        assert vs.samples.tolist() == [[0.5]]
        assert vs.scores.tolist() == [0.6]

    def test_boundary_distance_counts_as_duplicate(self):
        # |d| == tol is a duplicate; a hair further is not
        assert dedup([[0.0], [0.1]], 0.1).samples.tolist() == [[0.0]]
        assert dedup([[0.0], [0.100000001]], 0.1).samples.tolist() == [[0.0], [0.100000001]]

    def test_within_tol_but_two_cells_apart_is_kept(self):
        # 0.1 - (-5e-324) rounds to 0.1, so the pair is within tol, but the
        # cells are -1 and 1: not adjacent, so the rule keeps both
        rows = [[-5e-324], [0.1]]
        vs = dedup(rows, 0.1)
        assert vs.samples.tolist() == rows
        assert_same_valid_set(vs, insert_oracle(offered(rows), 0.5, 0.1))

    def test_componentwise_tolerance_vector(self):
        vs = dedup([[0.0, 0.0], [0.05, 1e-9], [0.05, 0.0]], np.array([0.1, 0.0]))
        # inside tol on dim 0 but distinct on the zero-tol dim 1
        assert vs.samples.tolist() == [[0.0, 0.0], [0.05, 1e-9]]

    def test_negative_tolerance_rejected(self):
        with pytest.raises(InvalidInputError):
            dedup([[0.5]], -0.1)

    @pytest.mark.parametrize(
        "tol", [np.nan, np.inf, -np.inf, [0.1, np.nan]], ids=["nan", "inf", "-inf", "vector-nan"]
    )
    def test_non_finite_tolerance_rejected(self, tol):
        with pytest.raises(InvalidInputError, match="dedup_tol"):
            dedup([[0.5, 0.5]], tol)

    @pytest.mark.parametrize(
        "tol, x", [(1e-20, [1.0]), (1e-300, [-0.5]), (1e-18, [0.0, 9.3])], ids=["1e-20", "1e-300", "2d"]
    )
    def test_cell_index_beyond_int64_rejected(self, tol, x):
        with pytest.raises(InvalidInputError, match="cell index"):
            dedup([x], tol)

    def test_small_tolerance_inside_int64_accepted(self):
        vs = dedup([[1.0], [1.0 + 5e-16]], 1e-15)  # cell index 1e15 < 2**62
        assert vs.samples.tolist() == [[1.0]]

    def test_non_finite_sample_rejected(self):
        with pytest.raises(InvalidInputError, match="cell index"):
            dedup([[0.2], [np.nan]], 0.1)

    def test_tolerance_width_mismatch_rejected(self):
        # checked before any sample is looked at, so an empty set fails too
        for scores in ([0.9], [0.1]):
            with pytest.raises(InvalidInputError, match="entries"):
                dedup([[0.0, 0.0]], np.array([0.1, 0.1, 0.1]), scores=scores)

    def test_matches_brute_force_greedy_dedup(self):
        # on random points, closeness within tol implies adjacent cells (the
        # two-cells case above needs a subnormal), so the cell-hash shortcut
        # must agree with plain greedy dedup
        rng = np.random.default_rng(0)
        for trial in range(40):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(5, 80))
            tol = rng.uniform(0.01, 0.5, size=d)
            pts = rng.uniform(-1, 1, size=(n, d))
            scores = rng.uniform(0.6, 1, size=n)

            kept = []
            for i in range(n):
                if not any(np.all(np.abs(pts[i] - pts[j]) <= tol) for j in kept):
                    kept.append(i)

            vs = dedup(pts, tol, scores=scores)
            assert len(vs) == len(kept), f"trial {trial}"
            np.testing.assert_array_equal(vs.samples, pts[kept])
            np.testing.assert_array_equal(vs.scores, scores[kept])


def hand_trace():
    """Three-batch trace over a 2-D joint space: query 0.0, then the next state."""
    samples = np.array(
        [
            [[0.0, 0.10], [0.0, 0.90]],  # init batch: must be ignored
            [[0.0, 0.30], [0.0, 0.50]],
            [[0.0, 0.52], [0.0, 0.70]],
        ]
    )
    scores = np.array([[0.99, 0.99], [0.40, 0.80], [0.90, 0.60]])
    return ChainTrace(samples, scores, 1)


class TestCollectValid:
    def test_hand_trace_membership_and_order(self):
        valid = collect_valid(hand_trace(), alpha=0.5, dedup_tol=0.05)
        # init batch skipped; 0.30 below threshold; 0.52 deduped against the
        # earlier 0.50 despite its higher score
        assert valid.samples.tolist() == [[0.50], [0.70]]
        assert valid.scores.tolist() == [0.80, 0.60]

    def test_threshold_is_strict(self):
        trace = hand_trace()
        trace.scores[1][0] = 0.5  # exactly alpha: excluded
        valid = collect_valid(trace, alpha=0.5, dedup_tol=0.0)
        assert len(valid) == 3

    def test_high_alpha_gives_empty_set(self):
        valid = collect_valid(hand_trace(), alpha=0.95, dedup_tol=0.05)
        assert len(valid) == 0

    def test_projection_keeps_only_free_dims(self):
        valid = collect_valid(hand_trace(), alpha=0.5, dedup_tol=0.05)
        assert valid.samples.shape == (2, 1)

    def test_empty_set_keeps_the_free_width(self):
        valid = collect_valid(hand_trace(), alpha=0.95, dedup_tol=0.05)
        assert valid.samples.shape == (0, 1) and valid.scores.shape == (0,)
        assert valid.samples.dtype == valid.scores.dtype == np.float64

    def test_members_do_not_alias_the_trace(self):
        trace = hand_trace()
        valid = collect_valid(trace, alpha=0.5, dedup_tol=0.05)
        samples, scores = valid.samples.copy(), valid.scores.copy()
        trace.samples[:] = 99.0
        trace.scores[:] = 0.0
        np.testing.assert_array_equal(valid.samples, samples)
        np.testing.assert_array_equal(valid.scores, scores)

    def test_later_candidate_kept_after_its_cells_first_is_rejected(self):
        # 0.12 and 0.19 share cell 1; 0.12 is within tol of the member 0.05
        # in cell 0 and is dropped, but 0.19 is not and must still be kept,
        # so a cell cannot be settled by its first candidate alone
        trace = ChainTrace(
            np.array([np.zeros((3, 1)), [[0.05], [0.12], [0.19]]]),
            np.array([np.zeros(3), [0.9, 0.8, 0.7]]),
            0,
        )
        valid = collect_valid(trace, alpha=0.5, dedup_tol=0.1)
        assert valid.samples.tolist() == [[0.05], [0.19]]
        assert valid.scores.tolist() == [0.9, 0.7]

    @pytest.mark.parametrize("tol", [np.nan, 1e-20])
    def test_bad_tolerance_rejected(self, tol):
        # nan fails up front; 1e-20 puts the 0.5 candidate in cell 5e19
        with pytest.raises(InvalidInputError):
            collect_valid(hand_trace(), alpha=0.5, dedup_tol=tol)


def insert_oracle(trace, alpha, dedup_tol):
    """The valid set built one candidate at a time, by the O(k^2) definition.

    Above-alpha samples are offered in (step, sample index) order. One is
    kept when no earlier kept member lies both within tol of it
    componentwise and in an adjacent cell: every cell index floor(x / w)
    differs by at most 1, with w the tolerance, or 1 where it is zero.
    """
    k, d = trace.n_fixed, trace.samples.shape[2] - trace.n_fixed
    tol = np.broadcast_to(np.asarray(dedup_tol, dtype=np.float64), (d,))
    width = np.where(tol > 0, tol, 1.0)
    samples, scores = [], []
    for batch, batch_scores in zip(trace.samples[1:], trace.scores[1:]):
        for x, score in zip(batch[:, k:], batch_scores):
            if score > alpha and not any(
                np.all(np.abs(x - y) <= tol)
                and np.all(np.abs(np.floor(x / width) - np.floor(y / width)) <= 1)
                for y in samples
            ):
                samples.append(x)
                scores.append(score)
    return ValidSet(np.array(samples).reshape(-1, d), np.array(scores, dtype=np.float64))


def assert_same_valid_set(got, want):
    for a, b in ((got.samples, want.samples), (got.scores, want.scores)):
        assert a.dtype == b.dtype == np.float64 and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


TOLERANCES = [0.0, 0.05, 0.1, 1 / 3, 1e-9]


@st.composite
def dedup_cases(draw):
    """A chain trace whose moved coordinates crowd cell boundaries and tolerances.

    Coordinates are multiples of half a cell width, optionally one
    tolerance further on, either moved by one ulp or not; the rest are
    repeats of earlier points and plain uniform floats. A 1e-9 tolerance
    with coordinates near +-1000 makes the cell box too large for an
    int64 key.
    """
    d = draw(st.integers(1, 3))
    if draw(st.booleans()):
        tol = draw(st.sampled_from(TOLERANCES))
        tol_vec = np.full(d, tol)
    else:
        tol = np.array(draw(st.lists(st.sampled_from(TOLERANCES), min_size=d, max_size=d)))
        tol_vec = tol
    width = np.where(tol_vec > 0, tol_vec, 1.0)
    n = draw(st.integers(1, 10))
    steps = draw(st.integers(1, 4))
    frozen = draw(st.integers(0, 1))

    def coordinate(k):
        if draw(st.integers(0, 4)) == 0:
            return draw(st.floats(-1.0, 1.0))
        value = draw(st.integers(-3, 3)) * draw(st.sampled_from([width[k], width[k] / 2]))
        value += draw(st.sampled_from([0.0, 0.0, 1000.0, -1000.0]))
        value += draw(st.sampled_from([0.0, tol_vec[k]]))
        ulps = draw(st.sampled_from([0, 0, 1, -1]))
        return np.nextafter(value, ulps * np.inf) if ulps else value

    seen = []
    samples = [np.zeros((n, frozen + d))]
    scores = [np.ones(n)]
    for _ in range(steps):
        batch = np.zeros((n, frozen + d))
        for row in range(n):
            if seen and draw(st.integers(0, 3)) == 0:
                batch[row, frozen:] = seen[draw(st.integers(0, len(seen) - 1))]
            else:
                batch[row, frozen:] = [coordinate(k) for k in range(d)]
            seen.append(batch[row, frozen:].copy())
        samples.append(batch)
        levels = st.sampled_from([0.2, 0.5, 0.7, 0.9])  # alpha is 0.5: equal is not above
        scores.append(np.array(draw(st.lists(levels, min_size=n, max_size=n))))
    trace = ChainTrace(np.stack(samples), np.stack(scores), frozen)
    return trace, tol


class TestCollectValidMatchesInsert:
    """`collect_valid` must build exactly the valid set one-at-a-time insertion builds."""

    @settings(max_examples=300, deadline=None)
    @given(dedup_cases())
    def test_same_members_scores_and_order(self, case):
        trace, tol = case
        got = collect_valid(trace, alpha=0.5, dedup_tol=tol)
        assert_same_valid_set(got, insert_oracle(trace, 0.5, tol))

    def test_wide_cell_box_matches_insert(self):
        # 1e-9 cells over +-1000 in three dims overflow an int64 key
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1000.0, 1000.0, size=(40, 3))
        pts[20:] = pts[:20] + rng.uniform(-2e-9, 2e-9, size=(20, 3))
        trace = ChainTrace(np.stack([pts, pts]), np.ones((2, 40)), 0)
        got = collect_valid(trace, alpha=0.5, dedup_tol=1e-9)
        assert 20 <= len(got) < 40
        assert_same_valid_set(got, insert_oracle(trace, 0.5, 1e-9))

    def test_chain_trace_matches_insert(self):
        m = ramp_model()
        cfg = small_chain(steps=30, n=64)
        trace = langevin.run(score_fn(m), cfg, m.input_bounds, np.array([0.2]), seed=4)
        tol = default_dedup_tol(m)
        got = collect_valid(trace, DEFAULT_ALPHA, tol)
        assert len(got) > 10
        assert_same_valid_set(got, insert_oracle(trace, DEFAULT_ALPHA, tol))


def valid_set(rows, scores):
    return ValidSet(np.array(rows, dtype=np.float64), np.array(scores, dtype=np.float64))


EMPTY = valid_set(np.empty((0, 1)), [])


class TestSummaries:
    def test_predict_takes_argmax_earliest_tie(self):
        assert predict(valid_set([[1.0], [2.0], [3.0]], [0.7, 0.9, 0.9]))[0] == 2.0

    def test_predict_empty_raises(self):
        with pytest.raises(EmptyValidSetError):
            predict(EMPTY)

    def test_aleatoric_is_root_total_variance(self):
        vs = valid_set([[0.0, 0.0], [2.0, 2.0]], [0.5, 0.5])
        # per-dim population variance 1.0 each, trace 2.0
        assert aleatoric(vs) == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_aleatoric_single_member_is_zero(self):
        assert aleatoric(valid_set([[0.7]], [0.5])) == 0.0

    def test_aleatoric_empty_raises(self):
        with pytest.raises(EmptyValidSetError):
            aleatoric(EMPTY)

    def test_epistemic_formula(self):
        psm = np.array([0.5, 0.7, 0.6])
        expected = (0.4 + (1 - 0.6) * psm.std()) / 2
        assert epistemic(valid_set([[0.5]], [0.6]), psm, 0.4) == pytest.approx(expected, rel=1e-12)

    def test_epistemic_empty_is_exactly_one(self):
        assert epistemic(EMPTY, np.array([0.1, 0.2]), 0.9) == 1.0

    def test_epistemic_stable_chain_reduces_to_half_base(self):
        vs = valid_set([[0.5]], [0.99])
        assert epistemic(vs, np.array([0.8, 0.8, 0.8]), 0.3) == pytest.approx(0.15)


class TestDefaults:
    def test_inference_config_frees_next_state_block(self):
        # the default chain holds the query and moves s' in the model's box
        m = ramp_model()
        with mock.patch.object(langevin, "run", wraps=langevin.run) as run:
            infer(m, [0.3], [], seed=2)
        _, cfg, bounds, fixed, _ = run.call_args.args
        assert cfg is DEFAULT_CHAIN and bounds is m.input_bounds
        assert fixed.tolist() == [0.3]

    def test_default_chain_is_frozen(self):
        assert DEFAULT_CHAIN == LangevinConfig(512, 50, 0.1, 0.01)
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_CHAIN.steps = 0
        assert DEFAULT_CHAIN.steps == 50

    def test_dedup_tol_scales_with_bounds_span(self):
        m = ramp_model(with_kde=False)
        np.testing.assert_allclose(default_dedup_tol(m), [2.0 * DEDUP_RANGE_FRACTION])


def small_chain(steps=25, n=48):
    return LangevinConfig(n_samples=n, steps=steps, step_size=0.1, noise_scale=0.01)


class TestInfer:
    def test_requires_fitted_density(self):
        m = ramp_model(with_kde=False)
        with pytest.raises(UnpreparedModelError):
            infer(m, [0.0], [], cfg=small_chain())

    def test_query_dims_validated(self):
        m = ramp_model()
        with pytest.raises(InvalidInputError):
            infer(m, [0.0, 0.1], [], cfg=small_chain())
        with pytest.raises(InvalidInputError):
            infer(m, [0.0], [0.5], cfg=small_chain())

    def test_non_finite_query_rejected(self):
        m = ramp_model()
        with pytest.raises(InvalidInputError):
            infer(m, [np.nan], [], cfg=small_chain())

    @pytest.mark.parametrize("s", [5.0, -1.0 - 1e-12, np.nextafter(1.0, 2.0)])
    def test_query_outside_input_bounds_rejected(self, s):
        m = ramp_model()  # input bounds [-1, 1]
        with pytest.raises(OutOfBoundsError, match="outside"):
            infer(m, [s], [], cfg=small_chain())

    def test_query_outside_action_bounds_rejected(self):
        inputs = np.column_stack([np.linspace(-1, 1, 16), np.linspace(0, 0.5, 16)])
        m = CdrmModel(
            net=MlpNetwork.initialize([3, 4, 1], seed=0),
            input_bounds=np.array([[-1.0, 1.0], [0.0, 0.5], [-1.0, 1.0]]),
            dims=(1, 1, 1),
            kde_stats=kde.fit(inputs, seed=0),
        )
        with pytest.raises(OutOfBoundsError):
            infer(m, [0.0], [0.6], cfg=small_chain())
        assert 0.0 <= infer(m, [0.0], [0.5], cfg=small_chain()).eu <= 1.0  # the upper end is inside

    @pytest.mark.parametrize("s", [-1.0, 1.0])
    def test_query_on_input_bounds_accepted(self, s):
        res = infer(ramp_model(), [s], [], cfg=small_chain(), seed=3)
        assert res.valid_count > 0

    def test_ramp_field_predicts_top_of_range(self):
        m = ramp_model()
        res = infer(m, [0.0], [], cfg=small_chain(), alpha=0.5, seed=3)
        assert res.prediction is not None and res.prediction.shape == (1,)
        # ascent on a monotone field piles up at the upper bound
        assert res.prediction[0] > 0.9
        assert res.au is not None and res.au > 0.0
        assert 0.0 <= res.eu <= 1.0
        assert res.valid_count > 0
        assert res.per_step_max.shape == (25,)

    def test_result_types(self):
        # the CLI JSON and the benchmark digest rely on these types
        res = infer(ramp_model(), [0.0], [], cfg=small_chain(), seed=3)
        assert type(res.prediction) is np.ndarray
        assert res.prediction.dtype == np.float64 and res.prediction.shape == (1,)
        assert type(res.eu) is float and type(res.au) is float
        assert type(res.valid_count) is int
        empty = infer(ramp_model(), [0.0], [], cfg=small_chain(), alpha=1.0, seed=3)
        assert type(empty.eu) is float and type(empty.valid_count) is int

    def test_deterministic_for_fixed_seed(self):
        # the ramp field on a short chain, and a toy-shaped net at the defaults
        toy = dataclasses.replace(
            ramp_model(), net=MlpNetwork.initialize([2, 64, 128, 64, 1], seed=3)
        )
        for m, cfg, s in [(ramp_model(), small_chain(), 0.0), (toy, DEFAULT_CHAIN, -0.5)]:
            a, b = (infer(m, [s], [], cfg=cfg, seed=11) for _ in range(2))
            assert a.valid_count == b.valid_count > 0
            assert a.prediction.tobytes() == b.prediction.tobytes()
            assert a.per_step_max.tobytes() == b.per_step_max.tobytes()
            assert (a.eu, a.au) == (b.eu, b.au)

    def test_seed_changes_chain(self):
        m = ramp_model()
        a = infer(m, [0.0], [], cfg=small_chain(), seed=1)
        b = infer(m, [0.0], [], cfg=small_chain(), seed=2)
        assert not np.array_equal(a.per_step_max, b.per_step_max)

    def test_unreachable_alpha_yields_empty_result(self):
        m = ramp_model()
        res = infer(m, [0.0], [], cfg=small_chain(), alpha=1.0, seed=3)
        assert res.prediction is None
        assert res.au is None
        assert res.eu == 1.0
        assert res.valid_count == 0

    @pytest.mark.parametrize("alpha", [-0.1, 1.5, 2.0, np.nan, np.inf, -np.inf])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        m = ramp_model()
        with pytest.raises(InvalidInputError, match="alpha"):
            infer(m, [0.0], [], cfg=small_chain(), alpha=alpha)

    def test_chain_without_steps_rejected(self):
        # a training chain may take no step, so such a config builds; an
        # inference chain needs one
        for cfg in (small_chain(steps=0), dataclasses.replace(DEFAULT_CHAIN, steps=0)):
            with pytest.raises(InvalidInputError, match="steps"):
                infer(ramp_model(), [0.0], [], cfg=cfg)

    def test_passes_per_query(self, monkeypatch):
        # The default 512 x 50 chain runs in float32: fifty steps with input
        # gradients, then one score-only pass over the final batch. Then one
        # float64 forward re-scores the kept members.
        m = dataclasses.replace(ramp_model(), net=MlpNetwork.initialize([2, 64, 128, 64, 1], seed=0))
        counts = count_passes(monkeypatch)
        passes, counted = [], MlpNetwork._forward

        def recorded(net, x, workspace):
            passes.append((net.params.dtype, len(x)))
            return counted(net, x, workspace)

        monkeypatch.setattr(MlpNetwork, "_forward", recorded)
        res = infer(m, [0.0], [], seed=1)
        assert res.valid_count > 0
        assert counts == {"forward": 52, "input_grad": 50, "param_grad": 0}
        assert passes == [(np.float32, 512)] * 51 + [(np.float64, res.valid_count)]

    def test_an_empty_valid_set_is_not_rescored(self, monkeypatch):
        counts = count_passes(monkeypatch)
        res = infer(ramp_model(), [0.0], [], cfg=small_chain(), alpha=1.0, seed=3)
        assert res.valid_count == 0
        assert counts == {"forward": 26, "input_grad": 25, "param_grad": 0}

    @pytest.mark.parametrize("seed", [0, 1])
    def test_valid_scores_are_the_float64_scores_of_the_members(self, monkeypatch, seed):
        # members are chosen by the float32 chain, then scored by score_batch
        m = dataclasses.replace(
            ramp_model(), net=MlpNetwork.initialize([2, 64, 128, 64, 1], seed=seed)
        )
        kept = []
        rescore = inference._rescored
        monkeypatch.setattr(
            inference, "_rescored", lambda *args: kept.append(rescore(*args)) or kept[-1]
        )
        query = [0.25]
        res = infer(m, query, [], seed=seed)
        (valid,) = kept
        assert len(valid) == res.valid_count > 0
        rows = np.column_stack([np.full(len(valid), query[0]), valid.samples])
        assert valid.scores.dtype == np.float64
        assert valid.scores.tobytes() == score_batch(m, rows).tobytes()
        assert res.prediction.tobytes() == valid.samples[np.argmax(valid.scores)].tobytes()
        base = kde.base_eu(m.kde_stats, np.array(query))
        assert res.eu == epistemic(valid, res.per_step_max, base)
        assert res.au == aleatoric(valid)

    @pytest.mark.parametrize(
        "tol", ["0.1", ["0.1"], True, [True], [Fraction(1, 10)], [None]], ids=repr
    )
    def test_dedup_tol_that_is_not_real_numbers_rejected(self, tol):
        with pytest.raises(InvalidInputError, match="^dedup_tol must be a numeric array"):
            infer(ramp_model(), [0.0], [], cfg=small_chain(), dedup_tol=tol)

    def test_dedup_tol_of_any_real_dtype_accepted(self):
        def run(tol):
            return repr(infer(ramp_model(), [0.0], [], cfg=small_chain(), dedup_tol=tol, seed=3))

        assert run(np.array([1], dtype=np.uint8)) == run(1) == run(1.0)

    def test_nan_dedup_tol_rejected_before_the_chain(self):
        m = ramp_model()
        with pytest.raises(InvalidInputError, match="dedup_tol"):
            infer(m, [0.0], [], cfg=small_chain(), dedup_tol=np.nan)

    def test_alpha_zero_accepted(self):
        m = ramp_model()
        res = infer(m, [0.0], [], cfg=small_chain(), alpha=0.0, seed=3)
        assert res.valid_count > 0

    def test_empty_action_block_accepted_as_empty_array(self):
        m = ramp_model()
        res = infer(m, [0.0], np.empty(0), cfg=small_chain(), seed=5)
        assert res.prediction is not None
