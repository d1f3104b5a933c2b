"""Next-state prediction and disentangled uncertainty from a trained model.

Inference freezes the query (state, action), lets a Langevin chain roam
the next-state block, and keeps every visited candidate whose score
clears a threshold. The deduplicated set yields the prediction (its best
member), the aleatoric estimate (its spread), and half of the epistemic
estimate (its best score and the chain's score stability); the other
half comes from the query's kernel density under the training inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import kde, langevin
from .errors import EmptyValidSetError, InvalidInputError, UnpreparedModelError
from .langevin import ChainTrace, LangevinConfig
from .model import CdrmModel, score_batch, score_fn
from .rules import SeedLike, checked_count, checked_query, checked_real, checked_tolerance

DEFAULT_ALPHA = 0.5
DEFAULT_CHAIN = LangevinConfig(n_samples=512, steps=50, step_size=0.1, noise_scale=0.01)
DEDUP_RANGE_FRACTION = 1e-3
# Largest |floor(x / width)| a dedup cell may take: neighbour cells and the
# differences between cell indices then stay inside int64.
MAX_CELL_INDEX = 2.0**62


def _cell_index(points: np.ndarray, width: np.ndarray) -> np.ndarray:
    """floor(points / width) as int64; rejects cells beyond +-MAX_CELL_INDEX."""
    cells = np.floor(points / width)
    if not np.all(np.abs(cells) < MAX_CELL_INDEX):  # also false for NaN
        raise InvalidInputError(
            "dedup cell index floor(x / dedup_tol) is out of range: "
            "dedup_tol too small for these samples, or a sample is not finite"
        )
    return cells.astype(np.int64)


@dataclass
class ValidSet:
    """Deduplicated above-threshold chain samples, built by `collect_valid`.

    samples (k, d) over the chain's moved block and scores (k,) are in chain
    order, (step, sample index). A candidate is dropped, whatever its score,
    when an earlier member lies within dedup_tol of it componentwise and in
    one of the 3^d cells adjacent to its own; cells are one tolerance wide.
    """

    samples: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return len(self.scores)


@dataclass
class InferenceResult:
    prediction: np.ndarray | None
    eu: float
    au: float | None
    valid_count: int
    per_step_max: np.ndarray


def collect_valid(trace: ChainTrace, alpha: float, dedup_tol) -> ValidSet:
    """Filter a chain trace into a deduplicated valid set.

    Scans the post-update batches (the initialization batch is not a chain
    product and is skipped) for samples scoring above alpha and keeps those
    the `ValidSet` rule admits. A bad tolerance, or a candidate whose cell
    index lies beyond +-MAX_CELL_INDEX (a tolerance far too small for its
    magnitude, or a non-finite sample), raises InvalidInputError.
    """
    moved = trace.samples[1:, :, trace.n_fixed :]
    tol = checked_tolerance(dedup_tol, moved.shape[2])
    width = np.where(tol > 0, tol, 1.0)  # only equality counts on a zero-tolerance dim
    # One mask over (step, index); row-major selection keeps that order.
    above = trace.scores[1:] > alpha
    points, scores = moved[above], trace.scores[1:][above]
    kept = _first_seen_members(points, _cell_index(points, width), tol) if len(scores) else []
    return ValidSet(points[kept], scores[kept])


def _first_seen_members(points: np.ndarray, cells: np.ndarray, tol: np.ndarray) -> list[int]:
    """Indices of the candidates the `ValidSet` rule keeps, in order.

    Candidates are grouped by cell with one stable sort on an integer cell
    key. The first candidate is kept; each kept member marks dead every
    candidate within tol in the 3^d cells adjacent to its own, and the next
    live candidate is the next member. Adjacency is symmetric, so marking
    forward from members is the rule's look back from each candidate.
    """
    n, d = cells.shape
    low = cells.min(axis=0) - 1  # pad one cell each side so neighbour keys stay in range
    extent = (cells.max(axis=0) - low + 2).tolist()
    if math.prod(extent) < 2**63:
        # Row-major key over the padded box: one int64 per cell, and the
        # three cells along the last dim are consecutive keys, so each of
        # the 3^(d-1) neighbour columns is one searchsorted range.
        strides = np.array([math.prod(extent[k + 1 :]) for k in range(d)], dtype=np.int64)
        key = (cells - low) @ strides
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        columns = np.array(list(itertools.product((-1, 0, 1), repeat=d - 1)), dtype=np.int64)
        column_offsets = columns @ strides[:-1]

        def near(i):
            centre = key[i] + column_offsets
            starts = np.searchsorted(sorted_key, centre - 1, side="left").tolist()
            stops = np.searchsorted(sorted_key, centre + 1, side="right").tolist()
            return np.concatenate([order[a:b] for a, b in zip(starts, stops)])

    else:
        # Cells too spread out for an int64 key: test adjacency directly.
        def near(i):
            later = np.arange(i + 1, n)
            return later[np.all(np.abs(cells[later] - cells[i]) <= 1, axis=1)]

    alive = np.ones(n + 1, dtype=bool)  # alive[n] is a sentinel that ends the scan
    kept = []
    i = 0
    while i < n:
        kept.append(i)
        # Marks earlier candidates too (i itself included); they are already
        # decided, and the scan only looks forward.
        group = near(i)
        alive[group[np.all(np.abs(points[group] - points[i]) <= tol, axis=1)]] = False
        i += 1 + int(alive[i + 1 :].argmax())
    return kept


def _rescored(model: CdrmModel, valid: ValidSet, query: np.ndarray) -> ValidSet:
    """valid with its members scored by model, each member after the
    query, as the chain held them."""
    if len(valid) == 0:
        return valid
    rows = np.hstack([np.tile(query, (len(valid), 1)), valid.samples])
    return ValidSet(valid.samples, score_batch(model, rows))


def predict(valid: ValidSet) -> np.ndarray:
    """Highest-scoring member; the earliest in chain order wins ties."""
    if len(valid) == 0:
        raise EmptyValidSetError("cannot predict from an empty valid set")
    return valid.samples[int(np.argmax(valid.scores))]


def aleatoric(valid: ValidSet) -> float:
    """Square root of the covariance trace of the members."""
    if len(valid) == 0:
        raise EmptyValidSetError("cannot compute spread of an empty valid set")
    return float(np.sqrt(valid.samples.var(axis=0).sum()))


def epistemic(valid: ValidSet, per_step_max: np.ndarray, kde_base: float) -> float:
    """Missing-data certainty in [0, 1]; exactly 1 when nothing was valid."""
    if len(valid) == 0:
        return 1.0
    sigma_phi = float(per_step_max.std())
    return (kde_base + (1.0 - float(valid.scores.max())) * sigma_phi) / 2.0


def default_dedup_tol(model: CdrmModel) -> np.ndarray:
    bounds = model.input_bounds[model.next_state_dims]
    return DEDUP_RANGE_FRACTION * (bounds[:, 1] - bounds[:, 0])


def infer(
    model: CdrmModel,
    s: np.ndarray,
    a: np.ndarray,
    cfg: LangevinConfig = DEFAULT_CHAIN,
    alpha: float = DEFAULT_ALPHA,
    dedup_tol: float | np.ndarray | None = None,
    seed: SeedLike = 0,
) -> InferenceResult:
    """Full chain-collect-summarize pass for one query.

    (s, a) must pass `rules.checked_query` against the model's layout: a
    query outside the input bounds raises OutOfBoundsError instead of
    extrapolating the field.
    The chain holds the query as its prefix and moves the next-state block
    inside the model's input bounds. cfg needs at least one step, since
    steps 1..L supply both the candidates and the EU statistic; a cfg
    without one raises InvalidInputError.

    The chain's network passes run on a float32 copy of the network, and
    the candidates above alpha are chosen by those scores. The members
    kept are then scored once more with the float64 network, so the
    prediction, the valid set's scores and the max score in EU are float64
    scores; the per-step maxima behind sigma_phi are the chain's own.
    """
    if model.kde_stats is None:
        raise UnpreparedModelError("model has no fitted density stats; train or fit first")
    query = checked_query(model.dims, model.input_bounds, s, a)
    checked_real("alpha", alpha, 0, 1)
    checked_count("steps", cfg.steps)
    tol = default_dedup_tol(model) if dedup_tol is None else dedup_tol
    checked_tolerance(tol, model.dims[2])  # a bad tolerance fails before the chain

    chain_model = replace(model, net=model.net.astype(np.float32))
    trace = langevin.run(score_fn(chain_model), cfg, model.input_bounds, query, seed)
    valid = _rescored(model, collect_valid(trace, alpha, tol), query)

    per_step_max = trace.per_step_max
    eu = epistemic(valid, per_step_max, kde.base_eu(model.kde_stats, query))
    if len(valid) == 0:
        return InferenceResult(None, eu, None, 0, per_step_max)
    return InferenceResult(predict(valid), eu, aleatoric(valid), len(valid), per_step_max)
