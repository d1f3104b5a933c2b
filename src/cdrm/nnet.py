"""Dense feed-forward network with handwritten forward and backward passes.

The network maps a real vector to a single scalar (the pre-sigmoid logit).
Both gradient directions are exact: gradients with respect to the input feed
the Langevin sampler, gradients with respect to the parameters feed Adam.
Everything is float64 numpy; there is no autodiff framework underneath.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, TrainingDivergenceError


def sigmoid(x):
    """Numerically stable logistic function, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


@dataclass
class MlpNetwork:
    """Fully connected scalar-output network with tanh hidden activations.

    weights[i] has shape (layer_dims[i+1], layer_dims[i]); biases[i] has
    length layer_dims[i+1]. The final layer is linear and one unit wide.
    """

    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        dims = self.layer_dims
        if len(dims) < 2 or any(d <= 0 for d in dims):
            raise InvalidInputError(f"layer_dims must be >=2 positive ints, got {dims}")
        if dims[-1] != 1:
            raise InvalidInputError("final layer must produce exactly one scalar")
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise InvalidInputError("parameter count does not match layer_dims")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[i + 1], dims[i]) or b.shape != (dims[i + 1],):
                raise InvalidInputError(
                    f"layer {i}: expected weight {(dims[i + 1], dims[i])} and "
                    f"bias {(dims[i + 1],)}, got {w.shape} and {b.shape}"
                )
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise InvalidInputError(f"layer {i}: non-finite parameters")

    @classmethod
    def initialize(cls, layer_dims: list[int], seed: int) -> "MlpNetwork":
        """Xavier-uniform weights, zero biases, seeded for reproducibility."""
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        return cls(list(layer_dims), weights, biases)

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def _check_batch(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise InvalidInputError(
                f"expected input of width {self.input_dim}, got shape {x.shape}"
            )
        return x

    def _forward_cached(
        self, x: np.ndarray, out: list[np.ndarray] | None = None
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Run the layer recurrence, keeping post-activation values per layer.

        out supplies one (n, width) array per layer to fill; fresh ones are
        allocated when it is omitted.
        """
        if out is None:
            out = [np.empty((x.shape[0], d)) for d in self.layer_dims[1:]]
        acts = [x]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = np.matmul(acts[-1], w.T, out=out[i])
            z += b
            if i != last:
                np.tanh(z, out=z)
            acts.append(z)
        return acts[-1][:, 0], acts

    def forward_batch(self, x: np.ndarray) -> np.ndarray:
        """Logits for a batch of inputs, shape (n,)."""
        x = self._check_batch(x)
        return self._forward_cached(x)[0]

    def forward_and_grad_input_batch(
        self, x: np.ndarray, workspace: "Workspace | None" = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Logits and input gradients from a single forward pass.

        With a workspace sized for this network and batch, every
        intermediate is written into its buffers and the returned arrays
        are views into it, overwritten by the next call that uses it.
        Without one, a fresh workspace is built for this call alone.
        """
        x = self._check_batch(x)
        if workspace is None:
            workspace = Workspace(self.layer_dims, x.shape[0])
        elif workspace.layer_dims != tuple(self.layer_dims) or workspace.rows != x.shape[0]:
            raise InvalidInputError(
                f"workspace is sized for {workspace.rows} rows of {list(workspace.layer_dims)}, "
                f"got {x.shape[0]} rows of {self.layer_dims}"
            )
        logits, acts = self._forward_cached(x, workspace.acts)
        g = workspace.ones
        for i in range(len(self.weights) - 1, 0, -1):
            # g @ W[i] times 1 - a^2, written over acts[i], which is not read again
            prod = np.matmul(g, self.weights[i], out=workspace.scratch(self.layer_dims[i]))
            deriv = np.square(acts[i], out=acts[i])
            np.subtract(1.0, deriv, out=deriv)
            g = np.multiply(prod, deriv, out=deriv)
        return logits, np.matmul(g, self.weights[0], out=workspace.input_grad)

    def grad_params_batch(self, x: np.ndarray, upstream: np.ndarray) -> "ParamGradient":
        """Gradient of sum_i upstream[i] * logit(x_i) w.r.t. every parameter.

        Batch gradients are the sum of per-sample gradients, so callers can
        fold loss weighting into `upstream` and update once per batch.
        """
        x = self._check_batch(x)
        upstream = np.asarray(upstream, dtype=np.float64)
        if upstream.shape != (x.shape[0],):
            raise InvalidInputError(
                f"upstream must have shape ({x.shape[0]},), got {upstream.shape}"
            )
        _, acts = self._forward_cached(x)
        n_layers = len(self.weights)
        d_weights: list[np.ndarray] = [None] * n_layers  # type: ignore[list-item]
        d_biases: list[np.ndarray] = [None] * n_layers  # type: ignore[list-item]
        g = upstream[:, None]
        for i in range(n_layers - 1, -1, -1):
            d_weights[i] = g.T @ acts[i]
            d_biases[i] = g.sum(axis=0)
            if i > 0:
                g = (g @ self.weights[i]) * (1.0 - acts[i] ** 2)
        return ParamGradient(d_weights, d_biases)


class Workspace:
    """Buffers for `forward_and_grad_input_batch` at one batch size.

    acts[i] is the output of layer i (tanh applied in place on hidden
    layers); the backward pass then overwrites each hidden output with the
    gradient with respect to that layer's pre-activation, using one
    hidden-width scratch array for the matmul in between. input_grad receives d logit / d input. A
    workspace belongs to one caller; the network itself holds none, so a
    network stays safe to share.
    """

    def __init__(self, layer_dims: list[int], rows: int):
        self.layer_dims = tuple(layer_dims)
        self.rows = rows
        self.acts = [np.empty((rows, d)) for d in layer_dims[1:]]
        self.input_grad = np.empty((rows, layer_dims[0]))
        self.ones = np.ones((rows, 1))
        self._scratch = np.empty(rows * max(layer_dims[1:-1], default=0))

    def scratch(self, width: int) -> np.ndarray:
        """A (rows, width) view of the shared scratch array."""
        return self._scratch[: self.rows * width].reshape(self.rows, width)


@dataclass
class ParamGradient:
    """Per-layer gradient arrays, shape-congruent with a network."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def is_finite(self) -> bool:
        return all(np.all(np.isfinite(a)) for a in self.weights + self.biases)


@dataclass
class AdamState:
    """First and second moment accumulators, shape-congruent with a network."""

    m_weights: list[np.ndarray] = field(default_factory=list)
    v_weights: list[np.ndarray] = field(default_factory=list)
    m_biases: list[np.ndarray] = field(default_factory=list)
    v_biases: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def zeros_for(cls, net: MlpNetwork) -> "AdamState":
        return cls(
            [np.zeros_like(w) for w in net.weights],
            [np.zeros_like(w) for w in net.weights],
            [np.zeros_like(b) for b in net.biases],
            [np.zeros_like(b) for b in net.biases],
        )


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_update(
    net: MlpNetwork,
    grads: ParamGradient,
    state: AdamState,
    step_index: int,
    learning_rate: float,
) -> tuple[MlpNetwork, AdamState]:
    """One Adam step with bias correction; step_index starts at 1.

    Returns a fresh network and state; the inputs are left untouched so
    concurrent readers of the old network stay valid.
    """
    if not grads.is_finite():
        raise TrainingDivergenceError("non-finite gradient entries in Adam update")
    if step_index < 1:
        raise InvalidInputError("step_index must be >= 1")
    bc1 = 1.0 - ADAM_BETA1**step_index
    bc2 = 1.0 - ADAM_BETA2**step_index

    def step(p, g, m, v):
        m_new = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v_new = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
        p_new = p - learning_rate * (m_new / bc1) / (np.sqrt(v_new / bc2) + ADAM_EPS)
        return p_new, m_new, v_new

    new_w, new_b = [], []
    new_state = AdamState()
    for w, gw, m, v in zip(net.weights, grads.weights, state.m_weights, state.v_weights):
        p, m_new, v_new = step(w, gw, m, v)
        new_w.append(p)
        new_state.m_weights.append(m_new)
        new_state.v_weights.append(v_new)
    for b, gb, m, v in zip(net.biases, grads.biases, state.m_biases, state.v_biases):
        p, m_new, v_new = step(b, gb, m, v)
        new_b.append(p)
        new_state.m_biases.append(m_new)
        new_state.v_biases.append(v_new)
    return (
        MlpNetwork(list(net.layer_dims), new_w, new_b),
        new_state,
    )
