"""Scored transition field and its contrastive training loop.

The model assigns each joint (state, action, next-state) tuple a score
rho in (0, 1), read as "this transition exists in the dataset". Training
pushes scores toward 1 on dataset tuples and toward 0 on negatives, which
a Langevin ascent chain drags into whatever high-score regions the model
currently hallucinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import kde, langevin
from .data import TransitionDataset
from .errors import InvalidInputError, OutOfBoundsError, TrainingDivergenceError
from .kde import KdeStats
from .langevin import LangevinConfig, ScoreFn
from .nnet import AdamState, MlpNetwork, Workspace, adam_update, sigmoid
from .rules import SeedLike, checked_array, checked_count, checked_instance, checked_layout
from .rules import checked_real, checked_widths, derive_seed

# Pre-sigmoid clamp half-width: confines scores to [1e-6, 1 - 1e-6].
LOGIT_CLIP = math.log((1.0 - 1e-6) / 1e-6)

# Stream tags keeping positive sampling and negative chains independent.
_TAG_POSITIVE = 1
_TAG_NEGATIVE = 2
# Stream tags of `fit`'s weight init and density fit, apart from the above.
_TAG_INIT = 0xA11
_TAG_DENSITY = 0xDE


@dataclass
class CdrmModel:
    """Network plus the joint-space geometry it is scored over.

    dims is the (d_s, d_a, d_next) split of the input layout and
    input_bounds the box every chain moves in, both stored as
    `rules.checked_layout` returns them. kde_stats, which
    `fit` attaches, feeds the epistemic-uncertainty base term; its
    reference points are (n, d_s + d_a) inputs.
    """

    net: MlpNetwork
    input_bounds: np.ndarray
    dims: tuple[int, int, int]
    kde_stats: KdeStats | None = None
    provenance: dict | None = None  # training config hash, seed, epochs

    def __post_init__(self):
        self.dims, self.input_bounds = checked_layout(self.dims, self.input_bounds, "input_bounds")
        d_s, d_a, _ = self.dims
        if self.net.input_dim != self.d_total:
            raise InvalidInputError(
                f"net expects {self.net.input_dim} inputs, dims {self.dims} give {self.d_total}"
            )
        if self.kde_stats is not None:
            refs = self.kde_stats.reference_points
            checked_array("kde_stats.reference_points", refs, (None, d_s + d_a))

    @property
    def d_total(self) -> int:
        return sum(self.dims)

    @property
    def next_state_dims(self) -> np.ndarray:
        """Joint-space indices of the next-state block."""
        d_s, d_a, d_next = self.dims
        return np.arange(d_s + d_a, d_s + d_a + d_next)


def _clamped_scores(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sigmoid(logit clamped to +-LOGIT_CLIP), and the |logit| < LOGIT_CLIP
    mask where the clamp has gradient 1 (0 elsewhere)."""
    clamped = np.minimum(np.maximum(logits, -LOGIT_CLIP), LOGIT_CLIP)  # np.clip's bytes
    return sigmoid(clamped), np.abs(logits) < LOGIT_CLIP


def score_batch(model: CdrmModel, x: np.ndarray, workspace: Workspace | None = None) -> np.ndarray:
    """rho = sigmoid(clamped logit) for each row of x.

    workspace is passed on to the network's forward pass, which leaves
    its activations there. The pass runs in the network's dtype; the
    logits are cast to float64 before the clamp, so scores are float64.
    """
    logits = np.asarray(model.net.forward_batch(x, workspace), dtype=np.float64)
    return _clamped_scores(logits)[0]


def score_and_grad(
    model: CdrmModel, x: np.ndarray, workspace: Workspace | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Scores and input gradients for a batch.

    The clamp contributes gradient 1 inside its range and 0 outside, so
    clamped samples report an exactly zero gradient. workspace is passed
    on to the network's forward and input-gradient pass, which runs in the
    network's dtype; its logits and input gradients are cast to float64
    before anything else, so both results are float64.
    """
    logits, dlogit = model.net.forward_and_grad_input_batch(x, workspace)
    logits, dlogit = np.asarray(logits, np.float64), np.asarray(dlogit, np.float64)
    rho, in_range = _clamped_scores(logits)
    grads = (rho * (1.0 - rho) * in_range)[:, None] * dlogit
    return rho, grads


def score_fn(model: CdrmModel, workspace: Workspace | None = None) -> ScoreFn:
    """Closure shape the Langevin sampler consumes.

    The closure owns one network workspace, the one given or one made for
    the network on its first call, so a chain reuses the same buffers on
    every step and they are freed with the closure; a batch of another
    size is refused. A call without gradients runs the forward pass alone,
    and its activations stay in the workspace.
    """

    def fn(batch, with_grad):
        nonlocal workspace
        if workspace is None:
            workspace = Workspace(model.net.layer_dims, len(batch), model.net.params.dtype)
        if with_grad:
            return score_and_grad(model, batch, workspace)
        return score_batch(model, batch, workspace), None

    return fn


def contrastive_loss(rho_pos: np.ndarray, rho_neg: np.ndarray, eps: float) -> float:
    """-mean(log(rho+ + eps)) - mean(log(1 - rho- + eps)), over float64 arrays."""
    if rho_pos.size == 0 or rho_neg.size == 0:
        raise InvalidInputError("loss batches must be non-empty")
    return float(-np.mean(np.log(rho_pos + eps)) - np.mean(np.log(1.0 - rho_neg + eps)))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    positive_batch: int = 32
    negative_batch: int = 32
    langevin_steps: int = 10
    langevin_step_size: float = 0.1
    langevin_noise: float = 0.01
    learning_rate: float = 0.01
    stability_eps: float = 1e-6
    seed: SeedLike = 0

    def __post_init__(self):
        for name, low in (("epochs", 0), ("positive_batch", 1)):
            object.__setattr__(self, name, checked_count(name, getattr(self, name), low))
        try:
            self.negative_chain
        except InvalidInputError as exc:
            raise InvalidInputError(f"negative chain: {exc}") from None
        checked_real("learning_rate", self.learning_rate, 0, strict=True)
        checked_real("stability_eps", self.stability_eps, 0, 0.5, strict=True)
        derive_seed(self.seed)  # refuses a seed outside the seed rule

    @property
    def negative_chain(self) -> LangevinConfig:
        """The chain that draws each update's negatives; not a field, so
        the model file's config hash does not see it. Construction checks
        the four chain knobs by building it."""
        return LangevinConfig(
            n_samples=self.negative_batch,
            steps=self.langevin_steps,
            step_size=self.langevin_step_size,
            noise_scale=self.langevin_noise,
        )


def generate_negatives(model: CdrmModel, cfg: LangevinConfig, seed: SeedLike) -> Workspace:
    """Final batch of an ascent chain from uniform initialization over the
    model's input bounds, every joint dimension moving, with the network's
    forward pass on it.

    cfg is the chain `TrainConfig.negative_chain` builds, which sets the
    batch size. The returned workspace is the one the chain's
    final, score-only pass ran in: its `inputs` are the negatives and its
    buffers hold that pass's activations and logits, which the update
    reads instead of scoring the batch again. The positions are constants
    downstream; no gradient flows back through the chain that produced
    them.
    """
    workspace = Workspace(model.net.layer_dims, cfg.n_samples)
    langevin.run(score_fn(model, workspace), cfg, model.input_bounds, np.empty(0), seed)
    return workspace


def _loss_and_gradient(
    model: CdrmModel, pos: np.ndarray, neg: Workspace, eps: float, grads: np.ndarray
) -> tuple[float, np.ndarray]:
    """Contrastive loss of one (pos, neg) batch pair and its gradient with
    respect to every network parameter; a non-finite loss raises
    TrainingDivergenceError before any gradient work.

    neg holds a forward pass of the network on the negatives, as
    `generate_negatives` returns it; the positives are forwarded once here.
    grads takes the two batch gradients, one per row; the first, their sum, is returned.
    """
    net = model.net
    pos_pass = Workspace(net.layer_dims, len(pos))
    rho_pos, in_pos = _clamped_scores(net.forward_batch(pos, pos_pass))
    rho_neg, in_neg = _clamped_scores(neg.logits)
    loss = contrastive_loss(rho_pos, rho_neg, eps)
    if not np.isfinite(loss):
        raise TrainingDivergenceError("non-finite loss")
    # dL/dlogit for each batch; the clamp zeroes samples beyond it.
    up_pos = -(1.0 / len(pos)) / (rho_pos + eps) * rho_pos * (1.0 - rho_pos) * in_pos
    up_neg = (1.0 / len(neg)) / (1.0 - rho_neg + eps) * rho_neg * (1.0 - rho_neg) * in_neg
    grad = net.grad_params_batch(pos_pass, up_pos, grads[0])
    grad += net.grad_params_batch(neg, up_neg, grads[1])
    return loss, grad


def train(
    model: CdrmModel,
    dataset: TransitionDataset,
    cfg: TrainConfig,
) -> tuple[CdrmModel, list[float]]:
    """Contrastive training loop; returns the trained model and loss trace.

    Each epoch is one pass over the dataset in shuffled positive
    minibatches. Every update runs a fresh negative chain against the
    network as it stands at that update, so the negatives keep tracking
    the regions the model currently over-scores instead of chasing a
    stale snapshot. The returned trace holds one mean loss per epoch.
    Everything is keyed off cfg.seed, so a rerun reproduces the trace
    bit for bit, and the per-sample noise streams make the result
    independent of batch-size-induced layout. Training runs in float64: a
    network of another dtype (an `MlpNetwork.astype` copy) is refused. A
    dataset whose dims are not the model's raises InvalidInputError, and
    one with a tuple outside the model's input bounds OutOfBoundsError.
    """
    checked_instance("dataset", dataset, TransitionDataset)
    if model.net.params.dtype != np.float64:
        raise InvalidInputError(f"training needs a float64 network, got {model.net.params.dtype}")
    tuples = dataset.tuples
    if len(tuples) == 0:
        raise InvalidInputError("dataset is empty")
    if dataset.dims != model.dims:
        raise InvalidInputError(f"dataset dims {dataset.dims} do not match model dims {model.dims}")
    if np.any(tuples < model.input_bounds[:, 0]) or np.any(tuples > model.input_bounds[:, 1]):
        raise OutOfBoundsError("dataset contains tuples outside the model's input bounds")

    net = MlpNetwork(model.net.layer_dims, model.net.weights, model.net.biases)  # Adam's copy
    trained = replace(model, net=net)
    grads = np.empty((2, net.n_params))  # one gradient per batch, reused by every update
    adam = AdamState.zeros_for(net)
    chain = cfg.negative_chain
    step_index = 0  # Adam bias correction counts updates, not epochs
    losses: list[float] = []
    for epoch in range(cfg.epochs):
        order = langevin.sample_rng(cfg.seed, _TAG_POSITIVE, epoch, 0).permutation(len(tuples))
        epoch_losses = []
        for update, start in enumerate(range(0, len(tuples), cfg.positive_batch)):
            pos = tuples[order[start : start + cfg.positive_batch]]
            neg = generate_negatives(
                trained, chain, derive_seed(cfg.seed, _TAG_NEGATIVE, epoch, update)
            )
            step_index += 1
            try:
                loss, grad = _loss_and_gradient(trained, pos, neg, cfg.stability_eps, grads)
                adam_update(net, grad, adam, step_index, cfg.learning_rate)
            except TrainingDivergenceError as exc:
                raise TrainingDivergenceError(f"epoch {epoch}: {exc}") from None
            epoch_losses.append(loss)
        losses.append(float(np.mean(epoch_losses)))

    return trained, losses


def fit(
    dataset: TransitionDataset,
    cfg: TrainConfig,
    hidden: tuple[int, ...] = (64, 128, 64),
    bandwidth: float | str = "median",
) -> tuple[CdrmModel, list[float]]:
    """A model of dataset with its density attached, and its loss trace.

    The density is fitted first, so a dataset it refuses (fewer than two
    tuples, coinciding inputs) is refused before any update. The density
    fit, the [d_total, *hidden, 1] init and `train` draw from separate
    streams of cfg.seed, so none moves another.
    """
    checked_instance("dataset", dataset, TransitionDataset)
    if len(dataset) == 0:
        raise InvalidInputError("cannot train on an empty dataset")
    hidden = checked_widths("hidden", hidden)
    stats = kde.fit(dataset.inputs, bandwidth, seed=derive_seed(cfg.seed, _TAG_DENSITY))
    net = MlpNetwork.initialize(
        [sum(dataset.dims), *hidden, 1], seed=derive_seed(cfg.seed, _TAG_INIT)
    )
    model = CdrmModel(net=net, input_bounds=dataset.bounds, dims=dataset.dims)
    model, losses = train(model, dataset, cfg)
    return replace(model, kde_stats=stats), losses
