"""Shared fixtures: the expensive trained models are session-cached so the
acceptance battery and the example-level tests reuse one training run."""

import time

import numpy as np
import pytest
from cdrm import data, model, nnet

TOY_EPOCHS = 100
TOY_BATCH = 16


class TrainedToy:
    """A trained toy-dataset model plus its provenance and wall time."""

    def __init__(self, m, dataset, losses, seconds):
        self.model = m
        self.dataset = dataset
        self.losses = losses
        self.seconds = seconds


def train_toy(
    seed: int, learning_rate: float = 1e-2, multimodal: bool = False, **overrides
) -> TrainedToy:
    t0 = time.perf_counter()
    ds = data.gen_toy(multimodal=multimodal, seed=seed)
    cfg = model.TrainConfig(
        epochs=TOY_EPOCHS,
        positive_batch=TOY_BATCH,
        learning_rate=learning_rate,
        seed=seed,
        **overrides,
    )
    m, losses = model.fit(ds, cfg)
    return TrainedToy(m, ds, losses, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def toy_model_1():
    return train_toy(1)


@pytest.fixture(scope="session")
def toy_model_2():
    return train_toy(2)


@pytest.fixture(scope="session")
def toy_model_13():
    return train_toy(13)


@pytest.fixture(scope="session")
def toy_trio(toy_model_1, toy_model_2, toy_model_13):
    return {1: toy_model_1, 2: toy_model_2, 13: toy_model_13}


def forward_pass(net, x) -> nnet.Workspace:
    """A workspace holding the network's forward pass on x."""
    workspace = nnet.Workspace(net.layer_dims, len(x))
    net.forward_batch(x, workspace)
    return workspace


def reference_forward(net, x) -> list[np.ndarray]:
    """x and every layer's output, out of place, in the network's dtype."""
    acts = [np.asarray(x, dtype=net.params.dtype)]
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = acts[-1] @ w.T + b
        acts.append(z if i == last else np.tanh(z))
    return acts


def reference_input_grad(net, x) -> np.ndarray:
    """Oracle for forward_and_grad_input_batch's input gradients: a fresh
    forward, then the backward recurrence from a column of ones, every
    product with a weight matrix a matmul."""
    acts = reference_forward(net, x)
    g = np.ones((len(acts[0]), 1), net.params.dtype)
    for i in range(len(net.weights) - 1, 0, -1):
        g = (g @ net.weights[i]) * (1.0 - acts[i] ** 2)
    return g @ net.weights[0]


def reference_param_grad(net, x, upstream) -> np.ndarray:
    """Oracle for grad_params_batch: a fresh out-of-place forward on x,
    then the backward recurrence, with the library's operation order,
    concatenated layer by layer, weight matrix then bias."""
    acts = reference_forward(net, x)
    last = len(net.weights) - 1
    per_layer = [None] * len(net.weights)
    g = np.asarray(upstream, dtype=np.float64)[:, None]
    for i in range(last, -1, -1):
        per_layer[i] = [(g.T @ acts[i]).ravel(), g.sum(axis=0)]
        if i > 0:
            g = (g @ net.weights[i]) * (1.0 - acts[i] ** 2)
    return np.concatenate([a for pair in per_layer for a in pair])


def param_grad(net, x, upstream) -> np.ndarray:
    """grad_params_batch on a fresh forward of x, into a fresh vector."""
    return net.grad_params_batch(forward_pass(net, x), upstream, np.empty(net.n_params))


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def count_passes(monkeypatch) -> dict:
    """Count network passes from here on: every forward (each runs through
    `_forward`), every input-gradient backward and every
    parameter-gradient backward."""
    counts = {"forward": 0, "input_grad": 0, "param_grad": 0}
    net = nnet.MlpNetwork
    for key, attr in [
        ("forward", "_forward"),
        ("input_grad", "forward_and_grad_input_batch"),
        ("param_grad", "grad_params_batch"),
    ]:

        def counted(*args, _key=key, _method=getattr(net, attr), **kwargs):
            counts[_key] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(net, attr, counted)
    return counts
