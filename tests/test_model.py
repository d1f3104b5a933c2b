"""Scored field, contrastive loss, and training loop."""

from dataclasses import FrozenInstanceError, asdict, replace
from unittest import mock

import numpy as np
import pytest
from cdrm import data, kde, langevin, model, rules
from conftest import count_passes, forward_pass, reference_param_grad, same_bytes
from cdrm.data import TransitionDataset
from cdrm.errors import (
    DegenerateDatasetError,
    InvalidInputError,
    OutOfBoundsError,
    TrainingDivergenceError,
)
from cdrm.langevin import LangevinConfig
from cdrm.model import (
    LOGIT_CLIP,
    _clamped_scores,
    _loss_and_gradient,
    CdrmModel,
    TrainConfig,
    contrastive_loss,
    generate_negatives,
    score_and_grad,
    score_batch,
    score_fn,
    train,
)
from cdrm.nnet import AdamState, MlpNetwork, Workspace, adam_update, sigmoid


def tiny_model(seed=0, dims=(1, 0, 1), layers=None, bounds=None):
    d_total = sum(dims)
    layers = layers or [d_total, 8, 1]
    net = MlpNetwork.initialize(layers, seed=seed)
    if bounds is None:
        bounds = np.tile([-1.0, 1.0], (d_total, 1))
    return CdrmModel(net=net, input_bounds=bounds, dims=dims)


def negatives(m, cfg, seed):
    """`generate_negatives` in a workspace of its own."""
    return generate_negatives(m, cfg, seed, Workspace(m.net.layer_dims, cfg.n_samples))


def tiny_dataset(n=24, seed=3, dims=(1, 0, 1)):
    rng = np.random.default_rng(seed)
    d_total = sum(dims)
    tuples = rng.uniform(-0.9, 0.9, size=(n, d_total))
    return TransitionDataset(tuples, dims, np.tile([-1.0, 1.0], (d_total, 1)))


class TestModelConstruction:
    def test_dims_must_be_positive_where_required(self):
        net = MlpNetwork.initialize([2, 4, 1], seed=0)
        bounds = np.tile([-1.0, 1.0], (2, 1))
        with pytest.raises(InvalidInputError):
            CdrmModel(net=net, input_bounds=bounds, dims=(0, 1, 1))
        with pytest.raises(InvalidInputError):
            CdrmModel(net=net, input_bounds=bounds, dims=(1, 0, 0))
        for dims in [(1, 1), (1, 0, 1, 1)]:  # (1, 1) once raised a raw ValueError
            with pytest.raises(InvalidInputError, match="bad dims"):
                CdrmModel(net=net, input_bounds=bounds, dims=dims)
        # zero action dims are legal
        CdrmModel(net=net, input_bounds=bounds, dims=(1, 0, 1))

    def test_net_width_must_match_dims(self):
        net = MlpNetwork.initialize([3, 4, 1], seed=0)
        with pytest.raises(InvalidInputError):
            CdrmModel(net=net, input_bounds=np.tile([-1.0, 1.0], (2, 1)), dims=(1, 0, 1))

    def test_bounds_shape_and_order_checked(self):
        net = MlpNetwork.initialize([2, 4, 1], seed=0)
        with pytest.raises(InvalidInputError):
            CdrmModel(net=net, input_bounds=np.zeros((3, 2)), dims=(1, 0, 1))
        with pytest.raises(InvalidInputError):
            CdrmModel(
                net=net,
                input_bounds=np.array([[1.0, -1.0], [-1.0, 1.0]]),
                dims=(1, 0, 1),
            )

    @pytest.mark.parametrize("end, bad", [(0, np.nan), (0, -np.inf), (1, np.inf)])
    def test_bounds_must_be_finite(self, end, bad):
        net = MlpNetwork.initialize([2, 4, 1], seed=0)
        bounds = np.tile([-1.0, 1.0], (2, 1))
        bounds[0, end] = bad
        with pytest.raises(InvalidInputError, match="finite"):
            CdrmModel(net=net, input_bounds=bounds, dims=(1, 0, 1))

    def test_bounds_width_must_be_finite(self):
        # every chain draws uniformly over this box
        net = MlpNetwork.initialize([2, 4, 1], seed=0)
        bounds = np.array([[-1e308, 1e308], [-1.0, 1.0]])
        with pytest.raises(InvalidInputError, match="finite width"):
            CdrmModel(net=net, input_bounds=bounds, dims=(1, 0, 1))

    def test_next_state_dims_indexes_last_block(self):
        m = tiny_model(dims=(2, 1, 2), layers=[5, 4, 1], bounds=np.tile([-1.0, 1.0], (5, 1)))
        np.testing.assert_array_equal(m.next_state_dims, [3, 4])
        assert m.d_total == 5


class TestScoring:
    def test_score_batch_is_sigmoid_of_logits(self):
        m = tiny_model()
        x = np.random.default_rng(1).uniform(-1, 1, size=(16, 2))
        expected = sigmoid(np.clip(m.net.forward_batch(x), -LOGIT_CLIP, LOGIT_CLIP))
        np.testing.assert_array_equal(score_batch(m, x), expected)

    def test_clamp_limits_scores(self):
        net = MlpNetwork(
            layer_dims=[2, 1],
            weights=[np.array([[1000.0, 0.0]])],
            biases=[np.array([0.0])],
        )
        m = CdrmModel(net=net, input_bounds=np.tile([-1.0, 1.0], (2, 1)), dims=(1, 0, 1))
        hi, lo = score_batch(m, np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert hi == pytest.approx(1.0 - 1e-6, abs=1e-9)
        assert lo == pytest.approx(1e-6, abs=1e-9)


class TestFloat32Passes:
    """A model on `MlpNetwork.astype(np.float32)`: float32 passes, float64 results."""

    # Each entry lies within this fraction of the batch's largest magnitude
    # of the float64 value: about 1000 float32 ulps. The trained toy net
    # measured 1.9e-7 (logits up to 12) and 1.2e-6 (input gradients up to 217).
    REL_TO_BATCH_SCALE = 2.0**-13

    def test_toy_net_passes_match_float64_at_512_rows(self, toy_model_2):
        net, bounds = toy_model_2.model.net, toy_model_2.model.input_bounds
        x = np.random.default_rng(0).uniform(bounds[:, 0], bounds[:, 1], (512, 2))
        logits, grads = (a.copy() for a in net.forward_and_grad_input_batch(x))
        logits32, grads32 = net.astype(np.float32).forward_and_grad_input_batch(x)
        for got, want in ((logits32, logits), (grads32, grads)):
            assert got.dtype == np.float32
            scale = np.abs(want).max()
            assert np.abs(got - want).max() <= self.REL_TO_BATCH_SCALE * scale

    def test_scores_and_gradients_come_back_float64(self, toy_model_2):
        m = toy_model_2.model
        fast = replace(m, net=m.net.astype(np.float32))
        x = np.random.default_rng(1).uniform(m.input_bounds[:, 0], m.input_bounds[:, 1], (64, 2))
        rho, grads = score_and_grad(fast, x)
        rho_only = score_batch(fast, x)
        assert rho.dtype == grads.dtype == rho_only.dtype == np.float64
        assert rho.tobytes() == rho_only.tobytes()
        # the clamp and sigmoid run on the float32 logits cast to float64
        logits = fast.net.forward_batch(x).astype(np.float64)
        assert rho.tobytes() == sigmoid(np.clip(logits, -LOGIT_CLIP, LOGIT_CLIP)).tobytes()
        np.testing.assert_allclose(rho, score_batch(m, x), rtol=0, atol=1e-5)

    def test_score_fn_makes_a_workspace_of_the_networks_dtype(self):
        m = tiny_model(seed=9)
        fast = replace(m, net=m.net.astype(np.float32))
        x = np.random.default_rng(3).uniform(-1, 1, size=(5, 2))
        fn = score_fn(fast)
        for with_grad in (True, False, True):
            rho, grads = fn(x, with_grad)
            assert rho.tobytes() == score_batch(fast, x).tobytes()
        assert grads.tobytes() == score_and_grad(fast, x)[1].tobytes()


class TestScoreGradient:
    def test_input_gradient_matches_finite_differences(self):
        m = tiny_model(seed=5, layers=[2, 6, 5, 1])
        x = np.random.default_rng(2).uniform(-0.8, 0.8, size=(4, 2))
        _, grads = score_and_grad(m, x)
        h = 1e-6
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                xp, xm = x.copy(), x.copy()
                xp[i, j] += h
                xm[i, j] -= h
                fd = (score_batch(m, xp)[i] - score_batch(m, xm)[i]) / (2 * h)
                assert grads[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_saturated_samples_report_zero_gradient(self):
        net = MlpNetwork(
            layer_dims=[2, 1],
            weights=[np.array([[1000.0, 0.0]])],
            biases=[np.array([0.0])],
        )
        m = CdrmModel(net=net, input_bounds=np.tile([-1.0, 1.0], (2, 1)), dims=(1, 0, 1))
        rho, grads = score_and_grad(m, np.array([[1.0, 0.0], [0.001, 0.0]]))
        np.testing.assert_array_equal(grads[0], [0.0, 0.0])
        assert np.any(grads[1] != 0.0)

    def test_score_fn_closure_matches_direct_call(self):
        m = tiny_model(seed=9)
        x = np.random.default_rng(3).uniform(-1, 1, size=(5, 2))
        rho_a, grad_a = score_fn(m)(x, True)
        rho_b, grad_b = score_and_grad(m, x)
        np.testing.assert_array_equal(rho_a, rho_b)
        np.testing.assert_array_equal(grad_a, grad_b)
        rho_c, grad_c = score_fn(m)(x, False)
        assert rho_c.tobytes() == score_batch(m, x).tobytes() and grad_c is None


    def test_score_fn_closure_refuses_another_batch_size(self):
        # one closure, one workspace, sized by the first batch
        m = CdrmModel(
            net=MlpNetwork.initialize([2, 64, 128, 64, 1], seed=2),
            input_bounds=np.tile([-1.0, 1.0], (2, 1)),
            dims=(1, 0, 1),
        )
        fn = score_fn(m)
        rng = np.random.default_rng(8)
        for _ in range(2):
            x = rng.uniform(-1, 1, size=(32, 2))
            assert fn(x, False)[0].tobytes() == score_batch(m, x).tobytes()
            rho_a, grad_a = fn(x, True)
            rho_b, grad_b = score_and_grad(m, x)
            assert rho_a.tobytes() == rho_b.tobytes()
            assert grad_a.tobytes() == grad_b.tobytes()
        for rows in (1, 512):
            for with_grad in (False, True):
                with pytest.raises(InvalidInputError, match="sized for 32 rows"):
                    fn(rng.uniform(-1, 1, size=(rows, 2)), with_grad)


class TestContrastiveLoss:
    def test_hand_computed_value(self):
        rho_pos = np.array([0.9, 0.8])
        rho_neg = np.array([0.1, 0.3, 0.2])
        eps = 1e-6
        expected = -np.mean(np.log(rho_pos + eps)) - np.mean(np.log(1 - rho_neg + eps))
        assert contrastive_loss(rho_pos, rho_neg, eps) == pytest.approx(expected, rel=1e-12)

    def test_perfect_separation_loss_near_zero(self):
        # eps can nudge the minimum a hair below zero
        loss = contrastive_loss(np.array([1.0 - 1e-6]), np.array([1e-6]), 1e-6)
        assert abs(loss) < 1e-5

    def test_empty_batches_rejected(self):
        with pytest.raises(InvalidInputError):
            contrastive_loss(np.array([]), np.array([0.5]), 1e-6)
        with pytest.raises(InvalidInputError):
            contrastive_loss(np.array([0.5]), np.array([]), 1e-6)

    def test_loss_gradient_assembly_matches_finite_differences(self):
        # Oracle for the loss and parameter gradient of one training
        # update: perturb every parameter and compare with the analytic sum.
        eps = 1e-6
        m = tiny_model(seed=11, layers=[2, 5, 1])
        rng = np.random.default_rng(4)
        pos = rng.uniform(-0.8, 0.8, size=(4, 2))
        neg = rng.uniform(-0.8, 0.8, size=(3, 2))

        def loss_of(net):
            mm = CdrmModel(net=net, input_bounds=m.input_bounds, dims=m.dims)
            return contrastive_loss(score_batch(mm, pos), score_batch(mm, neg), eps)

        grads = np.empty((2, m.net.n_params))
        loss, grad = _loss_and_gradient(
            m, forward_pass(m.net, pos), forward_pass(m.net, neg), eps, grads
        )
        assert loss == loss_of(m.net)
        grad_weights, grad_biases = m.net.layers(grad)

        h = 1e-6
        for li in range(len(m.net.weights)):
            w = m.net.weights[li]
            for idx in np.ndindex(w.shape):
                wp = [a.copy() for a in m.net.weights]
                wm = [a.copy() for a in m.net.weights]
                wp[li][idx] += h
                wm[li][idx] -= h
                fd = (
                    loss_of(MlpNetwork(m.net.layer_dims, wp, list(m.net.biases)))
                    - loss_of(MlpNetwork(m.net.layer_dims, wm, list(m.net.biases)))
                ) / (2 * h)
                assert grad_weights[li][idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)
            b = m.net.biases[li]
            for idx in np.ndindex(b.shape):
                bp = [a.copy() for a in m.net.biases]
                bm = [a.copy() for a in m.net.biases]
                bp[li][idx] += h
                bm[li][idx] -= h
                fd = (
                    loss_of(MlpNetwork(m.net.layer_dims, list(m.net.weights), bp))
                    - loss_of(MlpNetwork(m.net.layer_dims, list(m.net.weights), bm))
                ) / (2 * h)
                assert grad_biases[li][idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            TrainConfig(epochs=-1)
        with pytest.raises(InvalidInputError):
            TrainConfig(epochs=1, positive_batch=0)
        for value in (1.5, 1.0, True):  # counts are integers; a bool is not one
            with pytest.raises(InvalidInputError, match="^epochs must be"):
                TrainConfig(epochs=value)
            with pytest.raises(InvalidInputError, match="^positive_batch must be"):
                TrainConfig(epochs=1, positive_batch=value)
        with pytest.raises(InvalidInputError):
            TrainConfig(epochs=1, learning_rate=0.0)
        with pytest.raises(InvalidInputError):
            TrainConfig(epochs=1, stability_eps=0.5)
        # the chain knobs are checked once, by the LangevinConfig they build
        chain_refusals = [
            ("negative_batch", 0, "n_samples"),
            ("negative_batch", 2.5, "n_samples"),
            ("negative_batch", True, "n_samples"),
            ("langevin_steps", -1, "steps"),
            ("langevin_steps", 1.5, "steps"),
            ("langevin_step_size", 0.0, "step_size"),
            ("langevin_noise", -0.1, "noise_scale"),
        ]
        for field in ("langevin_step_size", "langevin_noise"):
            chain_refusals += [(field, np.nan, ""), (field, np.inf, "")]
        for field, value, words in chain_refusals:
            with pytest.raises(InvalidInputError, match=f"^negative chain: {words}"):
                TrainConfig(epochs=1, **{field: value})
        for value in (np.nan, np.inf):
            with pytest.raises(InvalidInputError):
                TrainConfig(epochs=1, learning_rate=value)

    @pytest.mark.parametrize("field, value", [("epochs", 1.5), ("positive_batch", 0), ("seed", -1)])
    def test_fields_cannot_be_set_past_the_checks(self, field, value):
        cfg = TrainConfig(epochs=1)
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, field, value)
        assert cfg == TrainConfig(epochs=1)

    def test_negative_chain_frees_every_dimension(self):
        m = tiny_model(dims=(2, 1, 2), layers=[5, 4, 1], bounds=np.tile([-2.0, 2.0], (5, 1)))
        cfg = TrainConfig(
            epochs=1, negative_batch=7, langevin_steps=3, langevin_step_size=0.2, langevin_noise=0.05
        )
        assert cfg.negative_chain == LangevinConfig(7, 3, 0.2, 0.05)
        assert "negative_chain" not in asdict(cfg)  # the model file's config hash cannot see it
        with mock.patch.object(langevin, "run", wraps=langevin.run) as run:
            negatives(m, cfg.negative_chain, seed=1)
        _, _, bounds, fixed, _ = run.call_args.args
        assert bounds is m.input_bounds and fixed.size == 0  # the whole box, every dim moving


class TestGenerateNegatives:
    def test_shape_count_and_bounds(self):
        m = tiny_model(seed=2)
        cfg = TrainConfig(epochs=1, negative_batch=9).negative_chain
        neg = negatives(m, cfg, seed=5).inputs
        assert neg.shape == (9, 2)
        assert np.all(neg >= m.input_bounds[:, 0]) and np.all(neg <= m.input_bounds[:, 1])

    def test_deterministic_and_matches_chain_tail(self):
        m = tiny_model(seed=2)
        cfg = TrainConfig(epochs=1, negative_batch=6).negative_chain
        a = negatives(m, cfg, seed=8).inputs
        b = negatives(m, cfg, seed=8).inputs
        np.testing.assert_array_equal(a, b)
        trace = langevin.run(score_fn(m), cfg, m.input_bounds, np.empty(0), 8)
        np.testing.assert_array_equal(a, trace.samples[-1])

    @pytest.mark.parametrize("steps", [0, 1, 10])
    def test_update_reads_the_chains_final_pass(self, steps):
        # With steps = 0 the chain's last batch is also its only batch. An
        # output layer scaled up saturates some samples, so the clamp mask
        # is mixed.
        net = MlpNetwork.initialize([2, 64, 128, 64, 1], seed=3)
        for layer in (net.weights[-1], net.biases[-1]):
            layer *= LOGIT_CLIP / 0.05
        m = CdrmModel(net=net, input_bounds=np.tile([-1.0, 1.0], (2, 1)), dims=(1, 0, 1))
        cfg = TrainConfig(epochs=1, langevin_steps=steps).negative_chain
        seed = rules.derive_seed(7, steps)
        neg = negatives(m, cfg, seed)
        x = langevin.run(score_fn(m), cfg, m.input_bounds, np.empty(0), seed).samples[-1]
        assert neg.inputs.tobytes() == x.tobytes()

        rho_neg, in_neg = _clamped_scores(neg.logits)
        assert rho_neg.tobytes() == score_batch(m, x).tobytes()
        in_range = np.abs(m.net.forward_batch(x)) < LOGIT_CLIP
        assert np.array_equal(in_neg, in_range) and in_range.any() and not in_range.all()

        eps = 1e-6
        up_neg = (1.0 / len(x)) / (1.0 - rho_neg + eps) * rho_neg * (1.0 - rho_neg) * in_range
        want_neg = reference_param_grad(m.net, x, up_neg)
        assert same_bytes(m.net.grad_params_batch(neg, up_neg, np.empty(m.net.n_params)), want_neg)

        # The whole update against fresh forwards of both batches; the
        # gradient above consumed the chain's final pass, so run it again.
        neg = negatives(m, cfg, seed)
        pos = np.random.default_rng(steps).uniform(-1, 1, (16, 2))
        rho_pos, in_pos = _clamped_scores(m.net.forward_batch(pos))
        up_pos = -(1.0 / 16) / (rho_pos + eps) * rho_pos * (1.0 - rho_pos) * in_pos
        want = reference_param_grad(m.net, pos, up_pos)
        want += want_neg
        grads = np.empty((2, m.net.n_params))
        loss, grad = _loss_and_gradient(m, forward_pass(m.net, pos), neg, eps, grads)
        assert loss == contrastive_loss(rho_pos, score_batch(m, x), eps)
        assert same_bytes(grad, want)


class TestTrain:
    def test_zero_epochs_returns_model_unchanged(self):
        m = tiny_model(seed=4)
        ds = tiny_dataset()
        out, losses = train(m, ds, TrainConfig(epochs=0))
        assert losses == []
        for w0, w1 in zip(m.net.weights, out.net.weights):
            np.testing.assert_array_equal(w0, w1)

    def test_float32_network_is_refused(self):
        m = tiny_model(seed=4)
        fast = replace(m, net=m.net.astype(np.float32))
        with pytest.raises(InvalidInputError, match="float64 network"):
            train(fast, tiny_dataset(), TrainConfig(epochs=1))

    def test_one_loss_entry_per_epoch(self):
        m = tiny_model(seed=4)
        ds = tiny_dataset(n=12)
        _, losses = train(m, ds, TrainConfig(epochs=3, positive_batch=8, negative_batch=4, langevin_steps=2))
        assert len(losses) == 3
        assert all(np.isfinite(v) for v in losses)

    def test_training_is_deterministic(self):
        ds = tiny_dataset(n=10)
        cfg = TrainConfig(epochs=2, positive_batch=4, negative_batch=4, langevin_steps=2, seed=12)
        out_a, loss_a = train(tiny_model(seed=4), ds, cfg)
        out_b, loss_b = train(tiny_model(seed=4), ds, cfg)
        assert loss_a == loss_b
        for wa, wb in zip(out_a.net.weights, out_b.net.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_input_model_is_not_mutated(self):
        m = tiny_model(seed=4)
        before = [w.copy() for w in m.net.weights]
        train(m, tiny_dataset(n=8), TrainConfig(epochs=2, positive_batch=8, negative_batch=4, langevin_steps=1))
        for w0, w1 in zip(before, m.net.weights):
            np.testing.assert_array_equal(w0, w1)

    def test_callers_net_stays_byte_unchanged_and_unshared(self):
        m = tiny_model(seed=4, layers=[2, 6, 5, 1])
        params = m.net.weights + m.net.biases
        before = [p.tobytes() for p in params]
        cfg = TrainConfig(epochs=3, positive_batch=4, negative_batch=4, langevin_steps=2)
        out, _ = train(m, tiny_dataset(n=10), cfg)
        assert [p.tobytes() for p in m.net.weights + m.net.biases] == before
        assert all(p is q for p, q in zip(params, m.net.weights + m.net.biases))
        for p, q in zip(params, out.net.weights + out.net.biases):
            assert not np.shares_memory(p, q)
        assert out.net.weights[0].tobytes() != before[0]

    def test_two_runs_from_one_initial_model_agree(self):
        m = tiny_model(seed=4, layers=[2, 6, 5, 1])
        ds = tiny_dataset(n=10)
        cfg = TrainConfig(epochs=2, positive_batch=4, negative_batch=4, langevin_steps=2, seed=3)
        (out_a, loss_a), (out_b, loss_b) = train(m, ds, cfg), train(m, ds, cfg)
        assert loss_a == loss_b
        params_a, params_b = out_a.net.weights + out_a.net.biases, out_b.net.weights + out_b.net.biases
        assert [p.tobytes() for p in params_a] == [p.tobytes() for p in params_b]

    def test_passes_per_update(self, monkeypatch):
        # One update at L = 10: ten chain steps with input gradients, the
        # chain's score-only final pass and one forward of the positives.
        counts = count_passes(monkeypatch)
        m = tiny_model(seed=4, layers=[2, 64, 128, 64, 1])
        cfg = TrainConfig(epochs=1, positive_batch=16, langevin_steps=10)
        train(m, tiny_dataset(n=16), cfg)
        assert counts == {"forward": 12, "input_grad": 10, "param_grad": 2}

    def test_kept_workspaces_train_as_fresh_ones_would(self):
        # 40 tuples at positive batch 16: two full batches and a short one of
        # 8 per epoch, on the toy net at the tier-1 chain (32 negatives, L = 10)
        m = tiny_model(seed=4, layers=[2, 64, 128, 64, 1])
        ds = tiny_dataset(n=40)
        cfg = TrainConfig(epochs=2, positive_batch=16, seed=5)
        with mock.patch.object(model, "Workspace", wraps=Workspace) as made:
            trained, losses = train(m, ds, cfg)
        rows = sorted(call.args[1] for call in made.call_args_list)
        assert rows == [8, 16, 32]  # one per batch size, for the whole run

        # The same updates, each building fresh workspaces and gradients.
        net = MlpNetwork(m.net.layer_dims, m.net.weights, m.net.biases)
        fresh = replace(m, net=net)
        adam = AdamState.zeros_for(net)
        step_index = 0
        want_losses = []
        for epoch in range(cfg.epochs):
            order = rules.sample_rng(cfg.seed, model._TAG_POSITIVE, epoch, 0).permutation(len(ds))
            epoch_losses = []
            for update, start in enumerate(range(0, len(ds), cfg.positive_batch)):
                seed = rules.derive_seed(cfg.seed, model._TAG_NEGATIVE, epoch, update)
                neg = negatives(fresh, cfg.negative_chain, seed)
                pos = forward_pass(net, ds.tuples[order[start : start + cfg.positive_batch]])
                grads = np.empty((2, net.n_params))
                loss, grad = _loss_and_gradient(fresh, pos, neg, cfg.stability_eps, grads)
                step_index += 1
                adam_update(net, grad, adam, step_index, cfg.learning_rate)
                epoch_losses.append(loss)
            want_losses.append(float(np.mean(epoch_losses)))
        assert same_bytes(trained.net.params, net.params)
        assert losses == want_losses

    def test_seed_changes_trajectory(self):
        ds = tiny_dataset(n=10)
        base = dict(epochs=2, positive_batch=4, negative_batch=4, langevin_steps=2)
        _, loss_a = train(tiny_model(seed=4), ds, TrainConfig(seed=1, **base))
        _, loss_b = train(tiny_model(seed=4), ds, TrainConfig(seed=2, **base))
        assert loss_a != loss_b

    def test_loss_drops_on_separable_problem(self):
        # positives cluster in a corner; ascent negatives roam the box
        rng = np.random.default_rng(6)
        tuples = rng.uniform(0.6, 0.9, size=(48, 2))
        ds = TransitionDataset(tuples, (1, 0, 1), np.tile([-1.0, 1.0], (2, 1)))
        cfg = TrainConfig(epochs=12, positive_batch=16, negative_batch=16, langevin_steps=5, seed=3)
        _, losses = train(tiny_model(seed=4, layers=[2, 16, 1]), ds, cfg)
        assert np.mean(losses[-3:]) < np.mean(losses[:3])

    def test_empty_dataset_rejected(self):
        ds = TransitionDataset(np.empty((0, 2)), (1, 0, 1), np.tile([-1.0, 1.0], (2, 1)))
        with pytest.raises(InvalidInputError):
            train(tiny_model(), ds, TrainConfig(epochs=1))

    def test_width_mismatch_rejected(self):
        ds = TransitionDataset(
            np.random.default_rng(0).uniform(-0.5, 0.5, size=(6, 3)),
            (2, 0, 1),
            np.tile([-1.0, 1.0], (3, 1)),
        )
        with pytest.raises(InvalidInputError):
            train(tiny_model(), ds, TrainConfig(epochs=1))

    def test_dataset_of_another_layout_is_refused(self):
        # a room walk, dims (2, 0, 1), is as wide as a (1, 1, 1) model
        room = data.gen_room(10, seed=1)
        with pytest.raises(InvalidInputError, match=r"dataset dims \(2, 0, 1\) do not match"):
            train(tiny_model(dims=(1, 1, 1)), room, TrainConfig(epochs=1))

    @pytest.mark.parametrize("low, high", [(5.0, 6.0), (0.0, 0.5)])
    def test_tuple_outside_the_models_box_is_refused(self, low, high):
        # the first box holds none of the walk's tuples, the second some
        m = tiny_model(dims=(2, 0, 1), bounds=np.array([[low, high]] * 3))
        with pytest.raises(OutOfBoundsError, match="outside the model's input bounds"):
            train(m, data.gen_room(10, seed=1), TrainConfig(epochs=1))

    def test_divergence_error_names_epoch(self):
        # a poisoned positive turns the first loss non-finite; steps=0
        # keeps the negative chain from tripping over anything first
        ds = tiny_dataset(n=16)
        ds.tuples[0, 0] = np.nan
        cfg = TrainConfig(epochs=1, positive_batch=16, negative_batch=8, langevin_steps=0)
        with pytest.raises(TrainingDivergenceError) as exc_info:
            train(tiny_model(seed=4), ds, cfg)
        assert "epoch 0" in str(exc_info.value)

    def test_net_poisoned_after_construction_is_refused(self):
        # train copies the network through the constructor, which checks it
        m = tiny_model(seed=4)
        m.net.weights[0][0, 0] = np.nan
        with pytest.raises(InvalidInputError):
            train(m, tiny_dataset(n=16), TrainConfig(epochs=1, langevin_steps=0))

    def test_trained_parameters_are_views_of_its_params(self):
        m = tiny_model(seed=4, layers=[2, 6, 5, 1])
        cfg = TrainConfig(epochs=2, positive_batch=4, negative_batch=4, langevin_steps=2)
        out, _ = train(m, tiny_dataset(n=10), cfg)
        weights, biases = out.net.layers(out.net.params)
        for a, b in zip(out.net.weights + out.net.biases, weights + biases):
            assert np.shares_memory(a, out.net.params)
            assert a.__array_interface__ == b.__array_interface__
        assert not np.shares_memory(out.net.params, m.net.params)

    def test_full_pass_covers_every_tuple_each_epoch(self):
        # with positive_batch >= n every update sees a permutation of the
        # whole dataset, so the positive stream is data-order independent
        rng = np.random.default_rng(9)
        tuples = rng.uniform(-0.5, 0.5, size=(6, 2))
        ds_fwd = TransitionDataset(tuples, (1, 0, 1), np.tile([-1.0, 1.0], (2, 1)))
        ds_rev = TransitionDataset(tuples[::-1].copy(), (1, 0, 1), np.tile([-1.0, 1.0], (2, 1)))
        cfg = TrainConfig(epochs=1, positive_batch=6, negative_batch=4, langevin_steps=1, seed=2)
        out_f, _ = train(tiny_model(seed=4), ds_fwd, cfg)
        out_r, _ = train(tiny_model(seed=4), ds_rev, cfg)
        # same multiset of positives, same negatives, same mean-gradient
        # update; trajectories agree because the update sums over the batch
        for wf, wr in zip(out_f.net.weights, out_r.net.weights):
            np.testing.assert_allclose(wf, wr, atol=1e-12)


def hand_recipe(ds, cfg, hidden, bandwidth):
    """Init, train, then fit the density, each from its own stream of the seed."""
    net = MlpNetwork.initialize(
        [sum(ds.dims), *hidden, 1], seed=rules.derive_seed(cfg.seed, model._TAG_INIT)
    )
    m, losses = train(CdrmModel(net=net, input_bounds=ds.bounds, dims=ds.dims), ds, cfg)
    stats = kde.fit(
        ds.inputs, bandwidth_rule=bandwidth, seed=rules.derive_seed(cfg.seed, model._TAG_DENSITY)
    )
    return replace(m, kde_stats=stats), losses


class TestFit:
    @pytest.mark.parametrize(
        "ds, hidden, bandwidth",
        [
            (data.gen_toy(n_per_region=20, seed=1), (64, 128, 64), "median"),
            (data.gen_room(120, seed=2), (8,), 0.06),
        ],
        ids=["toy", "room"],
    )
    def test_equals_the_hand_recipe(self, ds, hidden, bandwidth):
        cfg = TrainConfig(epochs=2, positive_batch=16, negative_batch=8, langevin_steps=2, seed=5)
        got, got_losses = model.fit(ds, cfg, hidden, bandwidth)
        want, want_losses = hand_recipe(ds, cfg, hidden, bandwidth)
        assert got.net.layer_dims == [sum(ds.dims), *hidden, 1]
        assert same_bytes(got.net.params, want.net.params)
        assert same_bytes(got.input_bounds, want.input_bounds) and got.dims == want.dims
        assert same_bytes(got.kde_stats.reference_points, want.kde_stats.reference_points)
        got_fields = (got.kde_stats.bandwidth, got.kde_stats.mu, got.kde_stats.sigma)
        want_fields = (want.kde_stats.bandwidth, want.kde_stats.mu, want.kde_stats.sigma)
        assert same_bytes(np.array(got_fields), np.array(want_fields))
        assert same_bytes(np.array(got_losses), np.array(want_losses))
        assert got.provenance is None

    def test_default_widths_and_bandwidth_rule(self):
        ds = data.gen_toy(n_per_region=20, seed=1)
        cfg = TrainConfig(epochs=0)
        m, losses = model.fit(ds, cfg)
        assert m.net.layer_dims == [2, 64, 128, 64, 1] and losses == []
        median = kde.fit(ds.inputs, seed=rules.derive_seed(cfg.seed, model._TAG_DENSITY))
        assert m.kde_stats.bandwidth == median.bandwidth
        assert TrainConfig().epochs == 100

    @pytest.mark.parametrize(
        "n, bandwidth, error, words",
        [
            (0, "median", InvalidInputError, "empty"),
            (1, "median", InvalidInputError, "at least 2"),
            (40, "median", DegenerateDatasetError, "coincide"),
            (40, 0.5, DegenerateDatasetError, "constant"),
        ],
        ids=["empty", "one-tuple", "coincident", "coincident-fixed-bandwidth"],
    )
    def test_unfit_dataset_is_refused_before_training(self, monkeypatch, n, bandwidth, error, words):
        # n tuples whose inputs all coincide
        counted = mock.Mock(wraps=train)
        monkeypatch.setattr(model, "train", counted)
        tuples = np.column_stack([np.full(n, 0.2), np.linspace(-0.9, 0.9, n)])
        ds = TransitionDataset(tuples, (1, 0, 1), np.tile([-1.0, 1.0], (2, 1)))
        with pytest.raises(error, match=words):
            model.fit(ds, TrainConfig(epochs=200), bandwidth=bandwidth)
        assert counted.call_count == 0


    @pytest.mark.parametrize("dataset", [None, np.zeros((3, 2)), "ds"], ids=repr)
    def test_fit_and_train_take_only_a_dataset(self, dataset):
        # fit raised a raw TypeError or AttributeError, train an AttributeError
        with pytest.raises(InvalidInputError, match="^dataset must be a TransitionDataset"):
            model.fit(dataset, TrainConfig(epochs=0))
        with pytest.raises(InvalidInputError, match="^dataset must be a TransitionDataset"):
            model.train(tiny_model(), dataset, TrainConfig(epochs=0))

    @pytest.mark.parametrize("hidden", [None, True, 1.5, -1, float("nan"), object(), 2**70])
    def test_hidden_takes_only_a_list_or_tuple(self, hidden):
        # each once raised a raw TypeError from unpacking it into the widths
        with pytest.raises(InvalidInputError, match="^hidden must be a list or tuple"):
            model.fit(data.gen_toy(n_per_region=5, seed=1), TrainConfig(epochs=0), hidden)


class TestConvergedSeparation:
    """A converged model pushes data tuples high and the empty gap low."""

    def test_held_in_vs_gap_mean_scores(self, toy_model_2):
        m, ds = toy_model_2.model, toy_model_2.dataset
        r = rules.sample_rng(rules.derive_seed(2, 0x64), 0)
        held = ds.tuples[r.choice(len(ds.tuples), 64, replace=False)]
        assert score_batch(m, held).mean() > 0.8
        gap = np.column_stack(
            [r.uniform(-0.30, 0.30, 64), r.uniform(ds.bounds[1, 0], ds.bounds[1, 1], 64)]
        )
        assert score_batch(m, gap).mean() < 0.2
