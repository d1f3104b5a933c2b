"""Network forward/backward correctness against finite differences."""

import numpy as np
import pytest
from conftest import (
    forward_pass,
    param_grad,
    reference_input_grad,
    reference_param_grad,
    same_bytes,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cdrm.errors import InvalidInputError, TrainingDivergenceError
from cdrm.model import LOGIT_CLIP
from cdrm.nnet import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    MlpNetwork,
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


def masked_sigmoid(x):
    """The boolean-mask form of the logistic, the oracle of `sigmoid`."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_is_bit_equal_to_the_masked_form():
    # the same operations on every element, so the same bits; NaN stays NaN
    edges = [0.0, -0.0, LOGIT_CLIP, -LOGIT_CLIP, np.nextafter(LOGIT_CLIP, 0.0), -1e-300, 1e-300,
             745.0, -745.0, 800.0, -800.0, np.inf, -np.inf, np.nan]
    for x in (np.random.default_rng(9).normal(0.0, 8.0, (200, 512)), np.array(edges)):
        got, want = sigmoid(x), masked_sigmoid(x)
        assert got.dtype == np.float64 and got.shape == x.shape
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert same_bytes(got[~nan], want[~nan])
    assert np.isnan(sigmoid(np.nan))


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


@pytest.mark.parametrize("widths", [None, True, 1.5, -1, float("nan"), object(), 2**70])
def test_layer_dims_take_only_a_list_or_tuple(widths):
    # each once raised a raw TypeError from iterating over it
    with pytest.raises(InvalidInputError, match="^layer_dims must be a list or tuple, got "):
        MlpNetwork(widths, [], [])
    with pytest.raises(InvalidInputError, match="^layer_dims must be a list or tuple, got "):
        MlpNetwork.initialize(widths, 0)


def test_constructor_validates_shapes():
    with pytest.raises(InvalidInputError):
        MlpNetwork([2, 1], [np.zeros((2, 2))], [np.zeros(1)])
    with pytest.raises(InvalidInputError):
        MlpNetwork([2, 3], [np.zeros((3, 2))], [np.zeros(3)])  # non-scalar output
    with pytest.raises(InvalidInputError):
        MlpNetwork([2], [], [])
    with pytest.raises(InvalidInputError, match="^layer_dims must be an integer >= 1, got 0"):
        MlpNetwork([2, 0, 1], [np.zeros((0, 2)), np.zeros((1, 0))], [np.zeros(0), np.zeros(1)])


@pytest.mark.parametrize("field", ["weights", "biases"])
@pytest.mark.parametrize("value", [None, 1.0, "w", {"0": [[1.0, 1.0]]}, np.zeros((1, 2))])
def test_weights_and_biases_take_only_a_list_or_tuple(field, value):
    # None once raised a raw TypeError from taking its length
    params = {"weights": [np.zeros((1, 2))], "biases": [np.zeros(1)], field: value}
    with pytest.raises(InvalidInputError, match=f"^{field} must be a list or tuple, got "):
        MlpNetwork([2, 1], **params)
    with pytest.raises(InvalidInputError, match="^weights and biases must each hold one array"):
        MlpNetwork([2, 1], **{**params, field: []})


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


@pytest.mark.parametrize("layer_dims", [[2, 64, 128, 64, 1], [3, 5, 1], [2, 1, 3, 1], [4, 1]])
def test_workspace_buffers_are_views_of_one_slab(layer_dims):
    ws = Workspace(layer_dims, 7)
    assert [a.shape for a in ws.acts] == [(7, d) for d in layer_dims[1:]]
    assert ws.input_grad.shape == (7, layer_dims[0])
    scratch = ws.scratch(max(layer_dims[1:-1], default=0))
    buffers = [*ws.acts, ws.input_grad, scratch]
    assert all(b.flags.c_contiguous and b.base is ws.hidden.base for b in buffers)
    # the hidden segment is acts[:-1], in order, and shares no other buffer
    ws.hidden[:] = np.arange(ws.hidden.size)
    hidden = [a.ravel() for a in ws.acts[:-1]]
    assert np.array_equal(np.concatenate([np.empty(0), *hidden]), np.arange(ws.hidden.size))
    for other in (ws.acts[-1], ws.input_grad, scratch):
        assert not np.shares_memory(ws.hidden, other)


def test_workspace_single_layer_network():
    net = MlpNetwork.initialize([3, 1], seed=1)
    x = np.random.default_rng(0).uniform(-1, 1, (4, 3))
    logits, grads = net.forward_and_grad_input_batch(x, Workspace(net.layer_dims, 4))
    assert logits.tobytes() == net.forward_batch(x).tobytes()
    assert np.array_equal(grads, np.tile(net.weights[0], (4, 1)))


def test_workspace_takes_the_networks_dtype_and_refuses_another():
    net = MlpNetwork.initialize([2, 8, 1], seed=0)
    fast = net.astype(np.float32)
    x = np.random.default_rng(0).uniform(-1, 1, (4, 2))
    for n in (net, fast):
        logits, grads = n.forward_and_grad_input_batch(x)
        assert logits.dtype == grads.dtype == n.params.dtype
        assert n.forward_batch(x).dtype == n.params.dtype
    ws = Workspace(fast.layer_dims, 4, np.float32)
    assert ws.dtype == np.float32 and all(a.dtype == np.float32 for a in ws.acts)
    with pytest.raises(InvalidInputError, match="float64"):
        fast.forward_batch(x, Workspace(net.layer_dims, 4))
    with pytest.raises(InvalidInputError, match="float32"):
        net.forward_and_grad_input_batch(x, ws)


def test_a_float32_network_casts_its_input():
    fast = MlpNetwork.initialize([2, 8, 5, 1], seed=1).astype(np.float32)
    x = np.random.default_rng(2).uniform(-1, 1, (6, 2))
    logits, grads = fast.forward_and_grad_input_batch(x)
    logits32, grads32 = fast.forward_and_grad_input_batch(x.astype(np.float32))
    assert same_bytes(logits, logits32) and same_bytes(grads, grads32)


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
    analytic, _ = net.layers(param_grad(net, x, upstream))

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
            assert abs(analytic[li][idx] - fd) < 1e-5 * max(1.0, abs(fd))


def test_grad_params_upstream_shape_check():
    net = MlpNetwork.initialize([2, 3, 1], seed=0)
    with pytest.raises(InvalidInputError):
        param_grad(net, np.zeros((4, 2)), np.zeros(3))


def test_grad_params_refuses_an_out_of_the_wrong_shape():
    net = MlpNetwork.initialize([2, 3, 1], seed=0)
    x = np.zeros((4, 2))
    for shape in [(net.n_params - 1,), (net.n_params + 1,), (1, net.n_params), (2, net.n_params)]:
        ws = forward_pass(net, x)
        with pytest.raises(InvalidInputError):
            net.grad_params_batch(ws, np.zeros(4), np.empty(shape))
        assert ws.inputs is x  # refused before the backward pass touched the workspace


def test_grad_params_needs_a_forward_pass_of_this_shape():
    net = MlpNetwork.initialize([2, 3, 1], seed=0)
    x = np.zeros((4, 2))
    ws = Workspace(net.layer_dims, 4)
    out = np.empty(net.n_params)
    with pytest.raises(InvalidInputError):
        net.grad_params_batch(ws, np.zeros(4), out)  # nothing forwarded yet
    net.forward_batch(x, ws)
    net.forward_and_grad_input_batch(x, ws)  # overwrites the activations
    with pytest.raises(InvalidInputError):
        net.grad_params_batch(ws, np.zeros(4), out)
    other = MlpNetwork.initialize([2, 5, 1], seed=0)
    with pytest.raises(InvalidInputError):
        other.grad_params_batch(forward_pass(net, x), np.zeros(4), np.empty(other.n_params))
    with pytest.raises(InvalidInputError):
        net.forward_batch(x, Workspace(net.layer_dims, 5))


def test_grad_params_consumes_the_forward_it_differentiates():
    # the backward pass overwrites the activations, as the input-gradient
    # pass does, so the same workspace cannot be differentiated twice
    net = MlpNetwork.initialize([2, 5, 4, 1], seed=1)
    x = np.random.default_rng(4).uniform(-1, 1, (3, 2))
    ws = forward_pass(net, x)
    out = np.empty(net.n_params)
    assert net.grad_params_batch(ws, np.ones(3), out) is out
    assert ws.inputs is None
    with pytest.raises(InvalidInputError):
        net.grad_params_batch(ws, np.ones(3), out)
    net.forward_batch(x, ws)  # a new forward makes it differentiable again
    want = reference_param_grad(net, x, np.ones(3))
    assert same_bytes(net.grad_params_batch(ws, np.ones(3), out), want)


@pytest.mark.parametrize("rows", [1, 32])
def test_grad_params_from_kept_forward_matches_fresh_forward(rows):
    net = MlpNetwork.initialize([2, 64, 128, 64, 1], seed=6)
    rng = np.random.default_rng(rows)
    ws = Workspace(net.layer_dims, rows)
    out = np.empty(net.n_params)
    for _ in range(2):  # the workspace is reused: a chain step, then a forward
        net.forward_and_grad_input_batch(rng.uniform(-1, 1, (rows, 2)), ws)
        x = rng.uniform(-1, 1, (rows, 2))
        logits = net.forward_batch(x, ws)
        assert logits.tobytes() == net.forward_batch(x).tobytes()
        assert ws.logits.tobytes() == logits.tobytes() and ws.inputs is x
        upstream = rng.normal(size=rows)
        want = reference_param_grad(net, x, upstream)
        assert same_bytes(net.grad_params_batch(ws, upstream, out), want)


def test_grad_params_batch_is_sum_of_singles():
    net = MlpNetwork.initialize([3, 5, 1], seed=9)
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, (4, 3))
    upstream = rng.normal(size=4)
    batch = param_grad(net, x, upstream)
    acc = np.zeros(net.n_params)
    for i in range(4):
        acc += param_grad(net, x[i][None, :], upstream[i : i + 1])
    np.testing.assert_allclose(batch, acc, atol=1e-12)


# The product with a one-row weight matrix is a broadcast, not a gemm. A gemm
# sums from +0.0, so where a product is -0.0 it gives +0.0, and so must the
# broadcast. The input gradient of a net whose first layer has one unit is
# such a product, so the input-gradient test fails if the broadcast keeps a
# -0.0. In a parameter gradient every consumer of the step (a gemm, a sum)
# sums from +0.0 on NumPy 2, so that test guards the same bytes there.


@pytest.mark.parametrize("rows", [1, 3, 32])
def test_param_grad_keeps_the_gemms_signed_zeros(rows):
    # an all-clamped batch has an upstream of -0.0: the model scales the
    # clamp mask by a negative weight
    net = MlpNetwork.initialize([2, 8, 5, 1], seed=2)
    rng = np.random.default_rng(rows)
    x = rng.uniform(-1, 1, (rows, 2))
    clamped = np.full(rows, -0.0)
    mixed = np.where(np.arange(rows) % 2 == 0, -0.0, rng.normal(size=rows))
    for upstream in (clamped, mixed):
        assert same_bytes(param_grad(net, x, upstream), reference_param_grad(net, x, upstream))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("rows", [1, 3, 32, 512])
@pytest.mark.parametrize("dims", [[3, 1], [3, 1, 1], [2, 8, 5, 1]], ids=str)
def test_input_grad_keeps_the_gemms_signed_zeros(dims, rows, dtype):
    net = MlpNetwork.initialize(dims, seed=5)
    net.weights[-1][0, ::2] = -0.0  # output weights of -0.0 give -0.0 products
    net = net.astype(dtype)
    x = np.random.default_rng(rows).uniform(-1, 1, (rows, dims[0]))
    got = net.forward_and_grad_input_batch(x)[1]
    assert same_bytes(got, reference_input_grad(net, x))


def test_adam_moves_against_gradient():
    net = MlpNetwork.initialize([2, 1], seed=0)
    before = net.weights[0].copy()
    adam_update(net, np.ones(net.n_params), AdamState.zeros_for(net), 1, 0.1)
    assert np.all(net.weights[0] < before)


def adam_out_of_place(p, g, m, v, step_index, lr):
    """The Adam step written as fresh-array expressions: the oracle for
    the in-place update."""
    bc1 = 1.0 - ADAM_BETA1**step_index
    bc2 = 1.0 - ADAM_BETA2**step_index
    m_new = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
    v_new = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
    p_new = p - lr * (m_new / bc1) / (np.sqrt(v_new / bc2) + ADAM_EPS)
    return p_new, m_new, v_new


_ADAM_DIMS = [2, 3, 1]
_ADAM_SHAPES = [(3, 2), (1, 3), (3,), (1,)]  # weights, then biases


def in_layout(arrays):
    """The four _ADAM_SHAPES arrays as one vector laid out as params:
    each layer's weight matrix, then its bias."""
    w0, w1, b0, b1 = arrays
    return np.concatenate([w0.ravel(), b0, w1.ravel(), b1])


@st.composite
def adam_cases(draw):
    def values(low, high):
        return st.floats(low, high, allow_nan=False, allow_infinity=False)

    def each(elements):
        return [draw(arrays(np.float64, shape, elements=elements)) for shape in _ADAM_SHAPES]

    wide = st.one_of(values(-1e3, 1e3), values(-1e-300, 1e-300), values(-1e300, 1e300))
    return (
        each(wide),  # parameters
        each(wide),  # gradients
        each(wide),  # first moments
        each(st.one_of(values(0.0, 1e3), values(0.0, 1e300))),  # second moments
        draw(st.integers(1, 5000)),
        draw(st.one_of(values(1e-6, 1.0), values(1.0, 1e300))),
    )


@settings(max_examples=200, deadline=None)
@given(adam_cases())
def test_adam_in_place_matches_out_of_place_formula(case):
    params, grads, ms, vs, step_index, lr = case
    net = MlpNetwork(_ADAM_DIMS, params[:2], params[2:])
    state = AdamState.zeros_for(net)
    state.m[:], state.v[:] = in_layout(ms), in_layout(vs)
    g = in_layout(grads)
    with np.errstate(over="ignore", invalid="ignore"):
        p_new, m_new, v_new = adam_out_of_place(
            in_layout(params), g, in_layout(ms), in_layout(vs), step_index, lr
        )
    if not np.all(np.isfinite(p_new)):
        with pytest.raises(TrainingDivergenceError), np.errstate(over="ignore", invalid="ignore"):
            adam_update(net, g, state, step_index, lr)
        return
    with np.errstate(over="ignore"):  # g * g may overflow to an infinite second moment
        adam_update(net, g, state, step_index, lr)
    assert net.params.tobytes() == p_new.tobytes()
    assert state.m.tobytes() == m_new.tobytes()
    assert state.v.tobytes() == v_new.tobytes()


def test_adam_rejects_nonfinite_gradient():
    net = MlpNetwork.initialize([2, 1], seed=0)
    before = net.params.copy()
    state = AdamState.zeros_for(net)
    g = np.array([np.inf, np.inf, 0.0])  # the weights, then the bias
    with pytest.raises(TrainingDivergenceError):
        adam_update(net, g, state, 1, 0.1)
    assert net.params.tobytes() == before.tobytes()
    assert not (np.any(state.m) or np.any(state.v))


def test_adam_rejects_step_that_leaves_a_parameter_non_finite():
    # the first step moves each parameter by about lr against the gradient
    net = MlpNetwork([1, 1], [np.array([[1.7e308]])], [np.array([0.0])])
    g = np.array([-1.0, 0.0])
    with pytest.raises(TrainingDivergenceError), np.errstate(over="ignore"):
        adam_update(net, g, AdamState.zeros_for(net), 1, 1e308)


def test_adam_rejects_bad_step_index():
    net = MlpNetwork.initialize([2, 1], seed=0)
    with pytest.raises(InvalidInputError):
        adam_update(net, np.zeros(net.n_params), AdamState.zeros_for(net), 0, 0.1)


def test_adam_first_step_size_is_learning_rate():
    # with bias correction the very first step has magnitude ~lr per entry
    net = MlpNetwork([1, 1], [np.array([[1.0]])], [np.array([0.0])])
    adam_update(net, np.array([0.5, 0.0]), AdamState.zeros_for(net), 1, 0.01)
    assert net.weights[0][0, 0] == pytest.approx(1.0 - 0.01, abs=1e-6)


def test_n_params_counts_everything():
    net = MlpNetwork.initialize([3, 4, 1], seed=0)
    assert net.n_params == 3 * 4 + 4 + 4 * 1 + 1


def test_parameters_are_views_of_one_vector_in_layout_order():
    net = MlpNetwork.initialize([3, 4, 2, 1], seed=2)
    assert net.params.shape == (net.n_params,) and net.params.dtype == np.float64
    pairs = zip(net.weights, net.biases)
    assert net.params.tobytes() == np.concatenate([a.ravel() for p in pairs for a in p]).tobytes()
    for a in net.weights + net.biases:
        assert np.shares_memory(a, net.params)
    net.params[:] = np.arange(net.n_params)
    assert net.weights[0][0, 1] == 1.0 and net.biases[0][0] == 12.0
    assert net.weights[1][0, 0] == 16.0 and net.biases[2][0] == net.n_params - 1


def test_constructor_copies_its_arrays():
    weights = [np.ones((3, 2)), np.ones((1, 3))]
    biases = [np.zeros(3), np.zeros(1)]
    net = MlpNetwork([2, 3, 1], weights, biases)
    before = net.params.copy()
    for a in weights + biases:
        a += 5.0
    assert net.params.tobytes() == before.tobytes()
    assert all(not np.shares_memory(a, net.params) for a in weights + biases)


def test_a_layer_cannot_be_rebound_away_from_params():
    net = MlpNetwork.initialize([2, 3, 1], seed=0)
    with pytest.raises(TypeError):
        net.weights[0] = np.zeros((3, 2))
    with pytest.raises(TypeError):
        net.biases[0] = np.zeros(3)


def split_layers(net, flat):
    """The cumsum-and-split form of `MlpNetwork.layers`, its oracle."""
    shapes = [(rows, cols) for cols, rows in zip(net.layer_dims, net.layer_dims[1:])]
    ends = np.cumsum([n for rows, cols in shapes for n in (rows * cols, rows)])
    parts = np.split(flat, ends[:-1])
    return [w.reshape(s) for w, s in zip(parts[::2], shapes)], list(parts[1::2])


@pytest.mark.parametrize("dims", [[3, 1], [3, 4, 2, 1], [2, 64, 128, 64, 1]])
def test_layers_are_the_split_views(dims):
    net = MlpNetwork.initialize(dims, seed=0)
    flat = np.arange(net.n_params, dtype=np.float64)
    weights, biases = net.layers(flat)
    want_weights, want_biases = split_layers(net, flat)
    for got, want in zip(weights + biases, want_weights + want_biases):
        assert same_bytes(got, want) and np.shares_memory(got, flat)


def test_astype_float32_is_a_float32_copy():
    net = MlpNetwork.initialize([2, 64, 128, 64, 1], seed=4)
    before = net.params.copy()
    fast = net.astype(np.float32)
    assert fast.params.dtype == np.float32
    assert same_bytes(fast.params, net.params.astype(np.float32))
    assert fast.layer_dims == net.layer_dims and fast.layer_dims is not net.layer_dims
    for got, want in zip(fast.weights + fast.biases, net.weights + net.biases):
        assert got.dtype == np.float32 and got.shape == want.shape
        assert np.shares_memory(got, fast.params)
    fast.params[:] = 0.0
    assert same_bytes(net.params, before)
    assert net.astype(np.float64).params.tobytes() == before.tobytes()


@pytest.mark.parametrize("dtype", [np.float16, np.int64, np.complex128, bool])
def test_astype_refuses_a_dtype_that_is_not_float32_or_float64(dtype):
    with pytest.raises(InvalidInputError, match="float32 or float64"):
        MlpNetwork.initialize([2, 3, 1], seed=0).astype(dtype)
