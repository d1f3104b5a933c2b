"""Ranking metrics and the room-grid evaluation protocol.

Uncertainty estimates are judged as binary classifiers: does the AU
score rank noisy-region probes above everything else, and does the EU
score rank unreachable-region probes above everything else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ROOM_DIMS, RegionLabel, RoomLayout, label_probe
from .errors import InvalidInputError, UndefinedMetricError
from .inference import DEFAULT_ALPHA, DEFAULT_CHAIN, infer
from .langevin import LangevinConfig
from .model import CdrmModel
from .rules import SeedLike, checked_array, checked_count, derive_seed


def _split(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """Scores of the label-1 (positive) and label-0 (negative) probes; a
    non-finite score leaves the ranking undefined (UndefinedMetricError)."""
    scores = checked_array("scores", scores, (None,), finite=False)
    labels = checked_array(f"labels of the {len(scores)} scores", labels, scores.shape)
    if not np.all(np.isfinite(scores)):
        raise UndefinedMetricError("scores must be finite")
    return scores[labels == 1], scores[labels == 0]


def auroc(scores, labels) -> float:
    """Rank statistic: P(random positive outranks random negative).

    Mann-Whitney form with half credit for ties, so the result equals
    exhaustive pair enumeration exactly.
    """
    pos, neg = _split(scores, labels)
    if len(pos) == 0 or len(neg) == 0:
        raise UndefinedMetricError("auroc needs at least one probe of each class")
    # compared, not subtracted: the difference of two finite scores can overflow
    wins = np.count_nonzero(pos[:, None] > neg) + 0.5 * np.count_nonzero(pos[:, None] == neg)
    return float(wins / (len(pos) * len(neg)))


def auprc(scores, labels) -> float:
    """Step-integrated area under the precision-recall sweep.

    Thresholds descend through the distinct scores with ties grouped;
    each recall increment contributes at the precision reached after the
    whole tie group is admitted.
    """
    pos, neg = _split(scores, labels)
    if len(pos) == 0:
        raise UndefinedMetricError("auprc needs at least one positive probe")
    scores = np.concatenate([pos, neg])
    labels = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])
    order = np.argsort(-scores, kind="stable")
    scores, labels = scores[order], labels[order]
    # Last index of each tie group in the descending order.
    boundary = np.flatnonzero(scores[1:] != scores[:-1])
    last = np.concatenate([boundary, [len(scores) - 1]])
    tp = np.cumsum(labels)[last]
    n_admitted = last + 1.0
    precision = tp / n_admitted
    recall = tp / len(pos)
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev_recall) * precision))


@dataclass
class ProbeRecord:
    x: float
    y: float
    label: str
    au_score: float
    eu_score: float
    valid_count: int


@dataclass
class RoomEvaluation:
    au_auroc: float
    au_auprc: float
    eu_auroc: float
    eu_auprc: float
    probes: list[ProbeRecord]

    def row(self) -> dict:
        return {
            "au_auroc": self.au_auroc,
            "au_auprc": self.au_auprc,
            "eu_auroc": self.eu_auroc,
            "eu_auprc": self.eu_auprc,
        }


def probe_grid(grid_resolution: int) -> np.ndarray:
    """Cell-center probe coordinates over the unit room, row-major."""
    grid_resolution = checked_count("grid_resolution", grid_resolution)
    centers = (np.arange(grid_resolution) + 0.5) / grid_resolution
    xx, yy = np.meshgrid(centers, centers, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def evaluate_room(
    model: CdrmModel,
    layout: RoomLayout | None = None,
    grid_resolution: int = 40,
    langevin_cfg: LangevinConfig = DEFAULT_CHAIN,
    alpha: float = DEFAULT_ALPHA,
    seed: SeedLike = 0,
) -> RoomEvaluation:
    """Probe the whole room on a regular grid and score both classifiers.

    Probes with an empty valid set carry no spread estimate and enter the
    AU classifier with score 0. Each probe gets its own seed stream, so
    the evaluation is deterministic and independent of grid order. A model
    whose dims are not the room's (2, 0, 1) raises InvalidInputError.
    """
    if model.dims != ROOM_DIMS:
        raise InvalidInputError(
            f"evaluate_room expects a room model with dims {ROOM_DIMS}, got {model.dims}"
        )
    layout = layout or RoomLayout()
    records: list[ProbeRecord] = []
    for i, probe in enumerate(probe_grid(grid_resolution)):
        result = infer(
            model,
            probe,
            np.empty(0),
            cfg=langevin_cfg,
            alpha=alpha,
            seed=derive_seed(seed, i),
        )
        label = label_probe(layout, probe)
        records.append(
            ProbeRecord(
                x=float(probe[0]),
                y=float(probe[1]),
                label=label.value,
                au_score=0.0 if result.au is None else result.au,
                eu_score=result.eu,
                valid_count=result.valid_count,
            )
        )
    au_scores = [r.au_score for r in records]
    au_labels = [int(r.label == RegionLabel.AU_POSITIVE.value) for r in records]
    eu_scores = [r.eu_score for r in records]
    eu_labels = [int(r.label == RegionLabel.EU_POSITIVE.value) for r in records]
    return RoomEvaluation(
        au_auroc=auroc(au_scores, au_labels),
        au_auprc=auprc(au_scores, au_labels),
        eu_auroc=auroc(eu_scores, eu_labels),
        eu_auprc=auprc(eu_scores, eu_labels),
        probes=records,
    )
