"""Network forward/backward correctness against finite differences."""

import numpy as np
import pytest

from cdrm.errors import InvalidInputError, TrainingDivergenceError
from cdrm.nnet import (
    AdamState,
    MlpNetwork,
    ParamGradient,
    Workspace,
    adam_update,
    sigmoid,
)


def logit(net, x):
    return net.forward_batch(x[None, :])[0]


def grad_input(net, x):
    return net.forward_and_grad_input_batch(x[None, :])[1][0]


def central_diff_input(net, x, h=1e-6):
    g = np.zeros_like(x)
    for j in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        g[j] = (logit(net, xp) - logit(net, xm)) / (2 * h)
    return g


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


def test_sigmoid_symmetry():
    x = np.linspace(-500, 500, 1001)
    np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)


def test_sigmoid_extremes_finite():
    assert sigmoid(1000.0) == 1.0
    assert sigmoid(-1000.0) == 0.0
    assert sigmoid(0.0) == 0.5


def test_sigmoid_scalar_returns_float():
    assert isinstance(sigmoid(0.3), float)


def test_initialize_is_deterministic():
    a = MlpNetwork.initialize([3, 8, 1], seed=5)
    b = MlpNetwork.initialize([3, 8, 1], seed=5)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_initialize_xavier_bounds():
    net = MlpNetwork.initialize([10, 20, 1], seed=0)
    limit0 = np.sqrt(6.0 / 30)
    assert np.abs(net.weights[0]).max() <= limit0
    assert all(np.all(b == 0.0) for b in net.biases)


def test_constructor_validates_shapes():
    with pytest.raises(InvalidInputError):
        MlpNetwork([2, 1], [np.zeros((2, 2))], [np.zeros(1)])
    with pytest.raises(InvalidInputError):
        MlpNetwork([2, 3], [np.zeros((3, 2))], [np.zeros(3)])  # non-scalar output
    with pytest.raises(InvalidInputError):
        MlpNetwork([2], [], [])


def test_constructor_rejects_nonfinite():
    w = [np.full((1, 2), np.nan)]
    with pytest.raises(InvalidInputError):
        MlpNetwork([2, 1], w, [np.zeros(1)])


def test_forward_batch_shape_checks():
    net = MlpNetwork.initialize([4, 6, 1], seed=1)
    with pytest.raises(InvalidInputError):
        net.forward_batch(np.zeros((3, 5)))
    with pytest.raises(InvalidInputError):
        net.forward_batch(np.zeros(4))


def test_linear_network_is_exact():
    # single linear layer: logit = w . x + b
    w = np.array([[2.0, -3.0]])
    b = np.array([0.5])
    net = MlpNetwork([2, 1], [w], [b])
    x = np.array([1.0, 2.0])
    assert logit(net, x) == pytest.approx(2.0 - 6.0 + 0.5)
    np.testing.assert_allclose(grad_input(net, x), w[0])


def test_grad_input_matches_finite_difference():
    rng = np.random.default_rng(0)
    for trial in range(5):
        net = MlpNetwork.initialize([3, 8, 5, 1], seed=trial)
        x = rng.uniform(-1, 1, 3)
        assert rel_err(grad_input(net, x), central_diff_input(net, x)) < 1e-6


def test_forward_and_grad_consistent_with_separate_calls():
    net = MlpNetwork.initialize([4, 7, 1], seed=3)
    x = np.random.default_rng(1).uniform(-1, 1, (6, 4))
    logits, grads = net.forward_and_grad_input_batch(x)
    assert np.array_equal(logits, net.forward_batch(x))
    for i in range(len(x)):
        np.testing.assert_allclose(grads[i], grad_input(net, x[i]), rtol=1e-12)


@pytest.mark.parametrize("rows", [1, 32, 512])
def test_workspace_matches_fresh_path_bit_for_bit(rows):
    net = MlpNetwork.initialize([2, 64, 128, 64, 1], seed=4)
    rng = np.random.default_rng(rows)
    ws = Workspace(net.layer_dims, rows)
    for _ in range(3):  # repeated calls overwrite the same buffers
        x = rng.uniform(-1, 1, (rows, 2))
        want_logits, want_grads = net.forward_and_grad_input_batch(x)
        got_logits, got_grads = net.forward_and_grad_input_batch(x, ws)
        assert got_logits.tobytes() == want_logits.tobytes()
        assert got_grads.tobytes() == want_grads.tobytes()
        assert np.shares_memory(got_grads, ws.input_grad)


def test_workspace_single_layer_network():
    net = MlpNetwork.initialize([3, 1], seed=1)
    x = np.random.default_rng(0).uniform(-1, 1, (4, 3))
    logits, grads = net.forward_and_grad_input_batch(x, Workspace(net.layer_dims, 4))
    assert logits.tobytes() == net.forward_batch(x).tobytes()
    assert np.array_equal(grads, np.tile(net.weights[0], (4, 1)))


def test_workspace_size_mismatch_rejected():
    net = MlpNetwork.initialize([2, 8, 1], seed=0)
    x = np.zeros((4, 2))
    with pytest.raises(InvalidInputError):
        net.forward_and_grad_input_batch(x, Workspace(net.layer_dims, 5))
    with pytest.raises(InvalidInputError):
        net.forward_and_grad_input_batch(x, Workspace([2, 9, 1], 4))


def test_grad_params_matches_finite_difference():
    net = MlpNetwork.initialize([2, 6, 4, 1], seed=7)
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, (5, 2))
    upstream = rng.normal(size=5)
    analytic = net.grad_params_batch(x, upstream)

    h = 1e-6
    for li in range(len(net.weights)):
        w = net.weights[li]
        for idx in [(0, 0), (w.shape[0] - 1, w.shape[1] - 1)]:
            wp = [a.copy() for a in net.weights]
            wm = [a.copy() for a in net.weights]
            wp[li][idx] += h
            wm[li][idx] -= h
            fp = MlpNetwork(net.layer_dims, wp, net.biases).forward_batch(x)
            fm = MlpNetwork(net.layer_dims, wm, net.biases).forward_batch(x)
            fd = float(upstream @ (fp - fm)) / (2 * h)
            assert abs(analytic.weights[li][idx] - fd) < 1e-5 * max(1.0, abs(fd))


def test_grad_params_upstream_shape_check():
    net = MlpNetwork.initialize([2, 3, 1], seed=0)
    with pytest.raises(InvalidInputError):
        net.grad_params_batch(np.zeros((4, 2)), np.zeros(3))


def test_grad_params_batch_is_sum_of_singles():
    net = MlpNetwork.initialize([3, 5, 1], seed=9)
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, (4, 3))
    upstream = rng.normal(size=4)
    batch = net.grad_params_batch(x, upstream)
    acc = [np.zeros_like(w) for w in net.weights]
    for i in range(4):
        single = net.grad_params_batch(x[i][None, :], upstream[i : i + 1])
        for li in range(len(acc)):
            acc[li] += single.weights[li]
    for li in range(len(acc)):
        np.testing.assert_allclose(batch.weights[li], acc[li], atol=1e-12)


def test_adam_moves_against_gradient():
    net = MlpNetwork.initialize([2, 1], seed=0)
    g = ParamGradient([np.ones_like(net.weights[0])], [np.ones_like(net.biases[0])])
    state = AdamState.zeros_for(net)
    new_net, _ = adam_update(net, g, state, 1, 0.1)
    assert np.all(new_net.weights[0] < net.weights[0])


def test_adam_leaves_inputs_untouched():
    net = MlpNetwork.initialize([2, 3, 1], seed=4)
    before = [w.copy() for w in net.weights]
    g = ParamGradient(
        [np.ones_like(w) for w in net.weights],
        [np.ones_like(b) for b in net.biases],
    )
    adam_update(net, g, AdamState.zeros_for(net), 1, 0.05)
    for w, w0 in zip(net.weights, before):
        assert np.array_equal(w, w0)


def test_adam_rejects_nonfinite_gradient():
    net = MlpNetwork.initialize([2, 1], seed=0)
    g = ParamGradient([np.full_like(net.weights[0], np.inf)], [np.zeros(1)])
    with pytest.raises(TrainingDivergenceError):
        adam_update(net, g, AdamState.zeros_for(net), 1, 0.1)


def test_adam_rejects_bad_step_index():
    net = MlpNetwork.initialize([2, 1], seed=0)
    g = ParamGradient([np.zeros_like(net.weights[0])], [np.zeros(1)])
    with pytest.raises(InvalidInputError):
        adam_update(net, g, AdamState.zeros_for(net), 0, 0.1)


def test_adam_first_step_size_is_learning_rate():
    # with bias correction the very first step has magnitude ~lr per entry
    net = MlpNetwork([1, 1], [np.array([[1.0]])], [np.array([0.0])])
    g = ParamGradient([np.array([[0.5]])], [np.array([0.0])])
    new_net, _ = adam_update(net, g, AdamState.zeros_for(net), 1, 0.01)
    assert new_net.weights[0][0, 0] == pytest.approx(1.0 - 0.01, abs=1e-6)


def test_n_params_counts_everything():
    net = MlpNetwork.initialize([3, 4, 1], seed=0)
    assert net.n_params == 3 * 4 + 4 + 4 * 1 + 1
