"""Dense feed-forward network with handwritten forward and backward passes.

The network maps a real vector to a single scalar (the pre-sigmoid logit).
Both gradient directions are exact: gradients with respect to the input feed
the Langevin sampler, gradients with respect to the parameters feed Adam.
Everything is numpy; there is no autodiff framework underneath. A network
is built in float64, which training, saving and the model self-check keep;
`MlpNetwork.astype(np.float32)` gives a float32 copy whose passes run the
same code in float32, as the inference chain does.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, TrainingDivergenceError
from .rules import SeedLike, checked_array, checked_count, checked_instance, checked_widths
from .rules import sample_rng


def sigmoid(x):
    """Numerically stable logistic function, elementwise, in float64.

    With e = exp(-|x|), which never overflows, it is 1 / (1 + e) where
    x >= 0 and e / (1 + e) elsewhere (NaN included).
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    out = np.where(x >= 0, 1.0 / d, e / d)
    return out if out.ndim else float(out)


@dataclass
class MlpNetwork:
    """Fully connected scalar-output network with tanh hidden activations.

    weights[i], shape (layer_dims[i+1], layer_dims[i]), and biases[i], length
    layer_dims[i+1], are views of params, one vector holding each layer's
    weight matrix row-major, then its bias. The constructor copies into a
    float64 params; `astype` makes a copy of another float dtype, and every
    pass runs in the dtype of params. The final layer is linear and one
    unit wide. layer_dims, a list or tuple of counts, is stored as a list;
    weights and biases must be lists or tuples of one array per layer.
    """

    layer_dims: list[int]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        self.layer_dims = dims = checked_widths("layer_dims", self.layer_dims)
        if len(dims) < 2 or dims[-1] != 1:
            raise InvalidInputError(f"layer_dims must be 2 or more widths ending in 1, got {dims}")
        weights = checked_instance("weights", self.weights, (list, tuple))
        biases = checked_instance("biases", self.biases, (list, tuple))
        if len(weights) != len(dims) - 1 or len(biases) != len(dims) - 1:
            raise InvalidInputError(
                f"weights and biases must each hold one array per layer of {dims}, "
                f"got {len(weights)} and {len(biases)}"
            )
        layers = [
            (checked_array(f"weights[{i}]", w, (m, n)), checked_array(f"biases[{i}]", b, (m,)))
            for i, (w, b, n, m) in enumerate(zip(weights, biases, dims, dims[1:]))
        ]
        # (start, stop, shape) of each layer's weight and bias within params
        self._spans = []
        start = 0
        for rows, cols in zip(dims[1:], dims):
            for shape in ((rows, cols), (rows,)):
                stop = start + math.prod(shape)
                self._spans.append((start, stop, shape))
                start = stop
        self.params = np.concatenate([a.ravel() for pair in layers for a in pair])
        self.weights, self.biases = self.layers(self.params)

    @classmethod
    def initialize(cls, layer_dims: list[int], seed: SeedLike) -> "MlpNetwork":
        """Xavier-uniform weights, zero biases, seeded for reproducibility."""
        layer_dims = checked_widths("layer_dims", layer_dims)
        rng = sample_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        return cls(layer_dims, weights, biases)

    def layers(self, flat: np.ndarray) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """(weights, biases) views of a vector laid out as params."""
        parts = [flat[start:stop].reshape(shape) for start, stop, shape in self._spans]
        return tuple(parts[::2]), tuple(parts[1::2])

    def astype(self, dtype) -> "MlpNetwork":
        """A copy whose params, and the weights and biases viewing them, are
        of dtype, float32 or float64; this network is left as it is."""
        dtype = np.dtype(dtype)
        if dtype not in (np.float32, np.float64):
            raise InvalidInputError(f"a network is float32 or float64, not {dtype}")
        net = copy.copy(self)
        net.layer_dims = list(self.layer_dims)
        net.params = self.params.astype(dtype)
        net.weights, net.biases = net.layers(net.params)
        return net

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def n_params(self) -> int:
        return self.params.size

    def _check_batch(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.params.dtype)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise InvalidInputError(
                f"expected input of width {self.input_dim}, got shape {x.shape}"
            )
        return x

    def _workspace(self, rows: int, workspace: "Workspace | None") -> "Workspace":
        """The given workspace, checked against this network, its dtype and
        the row count, or a fresh one made for them."""
        dtype = self.params.dtype
        if workspace is None:
            return Workspace(self.layer_dims, rows, dtype)
        if (workspace.layer_dims, workspace.rows, workspace.dtype) != (
            tuple(self.layer_dims), rows, dtype
        ):
            raise InvalidInputError(
                f"workspace is sized for {workspace.rows} rows of {list(workspace.layer_dims)} "
                f"in {workspace.dtype}, got {rows} rows of {self.layer_dims} in {dtype}"
            )
        return workspace

    def _forward(self, x: np.ndarray, workspace: "Workspace") -> np.ndarray:
        """Run the layer recurrence into the workspace, with x as its inputs;
        returns the logits, a view into it."""
        h = x
        last = len(self.weights) - 1
        for i, (w, b, z) in enumerate(zip(self.weights, self.biases, workspace.acts)):
            np.matmul(h, w.T, out=z)
            z += b
            if i != last:
                np.tanh(z, out=z)
            h = z
        workspace.inputs = x
        return workspace.logits

    def _backward_step(self, g: np.ndarray, i: int, workspace: "Workspace") -> np.ndarray:
        """From g, the gradient at layer i's pre-activation, the one at layer
        i-1's: g @ W[i] times 1 - a^2, written over a, that layer's output."""
        a = workspace.acts[i - 1]
        prod = np.matmul(g, self.weights[i], out=workspace.scratch(self.layer_dims[i]))
        np.square(a, out=a)
        np.subtract(1.0, a, out=a)
        return np.multiply(prod, a, out=a)

    def forward_batch(self, x: np.ndarray, workspace: "Workspace | None" = None) -> np.ndarray:
        """Logits for a batch of inputs, shape (n,).

        The layer outputs are written into the workspace, the one given
        (sized for this network and batch) or a fresh one, and kept there
        with x as its inputs for `grad_params_batch`; the returned logits
        are a view into it.
        """
        x = self._check_batch(x)
        return self._forward(x, self._workspace(len(x), workspace))

    def forward_and_grad_input_batch(
        self, x: np.ndarray, workspace: "Workspace | None" = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Logits and input gradients from a single forward pass.

        Every intermediate is written into the workspace, the one given
        (sized for this network and batch) or a fresh one, and the returned
        arrays are views into it, overwritten by the next call that uses it.
        """
        x = self._check_batch(x)
        workspace = self._workspace(len(x), workspace)
        logits = self._forward(x, workspace)
        workspace.inputs = None  # 1 - a^2 below overwrites the activations
        # d logit / d (last hidden output) is the output layer's one row;
        # adding 0.0 turns a -0.0 weight into +0.0, as a gemm summing from
        # +0.0 would
        row = self.weights[-1][0]
        if len(self.weights) == 1:  # a [d, 1] network: that row is the input gradient
            return logits, np.add(row, 0.0, out=workspace.input_grad)
        hidden = workspace.hidden
        np.square(hidden, out=hidden)
        np.subtract(1.0, hidden, out=hidden)
        acts = workspace.acts
        g = np.multiply(acts[-2], row + 0.0, out=acts[-2])
        for i in range(len(self.weights) - 2, 0, -1):
            prod = np.matmul(g, self.weights[i], out=workspace.scratch(self.layer_dims[i]))
            g = np.multiply(prod, acts[i - 1], out=acts[i - 1])
        return logits, np.matmul(g, self.weights[0], out=workspace.input_grad)

    def grad_params_batch(
        self, forward: "Workspace", upstream: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """Gradient of sum_i upstream[i] * logit(x_i) w.r.t. every parameter,
        written into out, a vector laid out as params, and returned.

        forward is the workspace of a `forward_batch(x, forward)` call on
        this network; the gradient is built from the activations that pass
        left in it, without running the forward again, and the backward
        pass overwrites them as the input-gradient pass does, so the
        workspace holds no forward afterwards. Batch gradients are the sum
        of per-sample gradients, so callers can fold loss weighting into
        `upstream` and update once per batch.
        """
        if forward.inputs is None:
            raise InvalidInputError("workspace holds no forward pass to differentiate")
        self._workspace(len(forward), forward)
        upstream = np.asarray(upstream, dtype=self.params.dtype)
        if upstream.shape != (len(forward),):
            raise InvalidInputError(
                f"upstream must have shape ({len(forward)},), got {upstream.shape}"
            )
        if out.shape != self.params.shape:
            raise InvalidInputError(f"out must have shape {self.params.shape}, got {out.shape}")
        acts = [forward.inputs, *forward.acts]
        forward.inputs = None
        d_weights, d_biases = self.layers(out)
        g = upstream[:, None]
        for i in range(len(self.weights) - 1, -1, -1):
            np.matmul(g.T, acts[i], out=d_weights[i])
            g.sum(axis=0, out=d_biases[i])
            if i > 0:
                g = self._backward_step(g, i, forward)
        return out


class Workspace:
    """Buffers for one network's passes over batches of one size.

    Every buffer is a C-contiguous view of one flat slab: acts[i], shape
    (rows, layer_dims[i + 1]), is the output of layer i (tanh applied in
    place on hidden layers), and the last one holds the logits. The hidden
    outputs acts[:-1] lie one after another at the slab's start, so
    `hidden` views them all as one flat segment. After `forward_batch` the
    buffers keep that pass's activations and `inputs` is the batch it ran
    on, which is what `grad_params_batch` reads. Both backward passes walk
    back through the buffers in place: each hidden output is overwritten
    with the gradient with respect to that layer's pre-activation, using
    one hidden-width scratch array for the `np.matmul` with the weights
    in between. The input-gradient pass turns every hidden output into
    1 - a^2 with two ufunc calls over `hidden` before it walks back, starts
    from the output layer's one weight row (so no buffer holds the logit's
    gradient with respect to itself), and writes d logit / d input to
    input_grad. `grad_params_batch` reads each activation before it
    overwrites it, so it forms 1 - a^2 layer by layer. Neither pass leaves
    a forward to read, so both set `inputs` to None.

    Every buffer has the dtype of the network's params, which a network
    checks before it runs a pass in the workspace. A workspace belongs to
    one caller. The network itself holds none, so a network stays safe to
    share.
    """

    def __init__(self, layer_dims: list[int], rows: int, dtype=np.float64):
        self.layer_dims = tuple(layer_dims)
        self.rows = rows
        self.dtype = np.dtype(dtype)
        hidden = layer_dims[1:-1]
        # acts, then the scratch, then input_grad, each rows * width long
        widths = [*layer_dims[1:], max(hidden, default=0), layer_dims[0]]
        # a 2-D shape, so that a slab past the address space raises numpy's
        # "array is too big", which the CLI reports as an allocation failure
        slab = np.empty((sum(widths), rows), self.dtype).reshape(-1)
        segments, start = [], 0
        for width in widths:
            segments.append(slab[start : start + rows * width])
            start += rows * width
        *acts, self._scratch, input_grad = segments
        self.acts = [a.reshape(rows, d) for a, d in zip(acts, layer_dims[1:])]
        self.input_grad = input_grad.reshape(rows, layer_dims[0])
        self.hidden = slab[: rows * sum(hidden)]
        self.inputs: np.ndarray | None = None

    def __len__(self) -> int:
        return self.rows

    @property
    def logits(self) -> np.ndarray:
        """Logits of the last forward pass, shape (rows,)."""
        return self.acts[-1][:, 0]

    def scratch(self, width: int) -> np.ndarray:
        """A (rows, width) view of the shared scratch array."""
        return self._scratch[: self.rows * width].reshape(self.rows, width)


@dataclass
class AdamState:
    """Adam's moments m and v and the two scratch vectors of its step, laid out as params."""

    m: np.ndarray
    v: np.ndarray
    step: np.ndarray
    denom: np.ndarray

    @classmethod
    def zeros_for(cls, net: MlpNetwork) -> "AdamState":
        return cls(*np.zeros((4, net.n_params)))


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_update(
    net: MlpNetwork, grad: np.ndarray, state: AdamState, step_index: int, learning_rate: float
) -> None:
    """One Adam step with bias correction, in place; step_index starts at 1.

    grad is laid out as net.params. Updates the parameters of net and the
    moments of state where they lie, so a caller that must keep a network
    unchanged passes a copy. A non-finite gradient raises
    TrainingDivergenceError before anything is written; a step that leaves
    a parameter non-finite raises it after.
    """
    if not np.all(np.isfinite(grad)):
        raise TrainingDivergenceError("non-finite gradient entries in Adam update")
    step_index = checked_count("step_index", step_index)
    bc1 = 1.0 - ADAM_BETA1**step_index
    bc2 = 1.0 - ADAM_BETA2**step_index
    # The arithmetic, operation for operation, of
    #   m = beta1 * m + (1 - beta1) * g
    #   v = beta2 * v + (1 - beta2) * g * g
    #   p = p - lr * (m / bc1) / (sqrt(v / bc2) + eps)
    # in the two scratch vectors.
    np.multiply(grad, 1.0 - ADAM_BETA1, out=state.step)
    state.m *= ADAM_BETA1
    state.m += state.step
    np.multiply(grad, 1.0 - ADAM_BETA2, out=state.step)
    state.step *= grad
    state.v *= ADAM_BETA2
    state.v += state.step
    np.divide(state.v, bc2, out=state.denom)
    np.sqrt(state.denom, out=state.denom)
    state.denom += ADAM_EPS
    np.divide(state.m, bc1, out=state.step)
    state.step *= learning_rate
    state.step /= state.denom
    net.params -= state.step
    if not np.all(np.isfinite(net.params)):
        raise TrainingDivergenceError("non-finite parameters after Adam update")
