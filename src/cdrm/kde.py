"""Radial-basis-function density estimation over dataset inputs.

Densities are unnormalized kernel averages: only their standardized value
relative to the training distribution matters downstream, where a sigmoid
turns "how unusual is this query" into a base epistemic-uncertainty term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDatasetError, InvalidInputError
from .nnet import sigmoid
from .rules import SeedLike, checked_points, checked_real, sample_rng

MAX_REFERENCE_POINTS = 4096
BANDWIDTH_SAMPLE = 1024
# Points and queries lie within MAX_NORM of the origin, so every squared
# distance, and every |q|^2 + |r|^2 - 2 q.r that `density_batch` forms, is
# at most 4 * MAX_NORM^2 = 2**1022, a quarter of the float64 range.
MAX_NORM = 2.0**510
# The kernel divides by 2 h^2, which is a normal float (at least
# np.finfo(float).tiny) from this bandwidth on, about 1.05e-154.
MIN_BANDWIDTH = float(np.sqrt(np.finfo(np.float64).tiny / 2))


@dataclass
class KdeStats:
    """Fitted density state: reference inputs, bandwidth, and the mean and
    standard deviation of the density over the reference points themselves.

    Construction refuses any field that would break `base_eu`: reference
    points must pass `rules.checked_points` as a non-empty (n, d) array
    within MAX_NORM of the origin, the bandwidth must be finite and at
    least MIN_BANDWIDTH, sigma finite and positive, and mu finite.
    """

    reference_points: np.ndarray
    bandwidth: float
    mu: float
    sigma: float

    def __post_init__(self):
        refs = checked_points("reference_points", self.reference_points, (None, None), MAX_NORM)
        self.reference_points = refs
        checked_real("bandwidth", self.bandwidth, 0, strict=True)
        if self.bandwidth < MIN_BANDWIDTH:
            raise InvalidInputError(
                f"bandwidth must be at least {MIN_BANDWIDTH:.3g}, got {self.bandwidth!r}"
            )
        checked_real("sigma", self.sigma, 0, strict=True)
        checked_real("mu", self.mu)
        if refs.size == 0:
            raise InvalidInputError(f"reference_points must be non-empty, got shape {refs.shape}")


def density(stats: KdeStats, query: np.ndarray) -> float:
    """Average RBF kernel value between the query, a finite (d,) array of
    the reference width within MAX_NORM of the origin, and every reference
    point."""
    q = checked_points("query", query, (stats.reference_points.shape[1],), MAX_NORM)
    return float(density_batch(stats, q[None, :])[0])


def density_batch(stats: KdeStats, queries: np.ndarray) -> np.ndarray:
    """`density` of each row of queries, a finite (k, d) array whose rows
    lie within MAX_NORM of the origin. A pair whose exponent passes the
    float range contributes exactly 0."""
    refs = stats.reference_points
    q = checked_points("queries", queries, (None, refs.shape[1]), MAX_NORM)
    sq = (
        np.sum(q * q, axis=1)[:, None]
        + np.sum(refs * refs, axis=1)[None, :]
        - 2.0 * (q @ refs.T)
    )
    np.maximum(sq, 0.0, out=sq)
    with np.errstate(over="ignore"):  # an exponent past the float range is -inf, whose exp is 0
        return np.exp(-sq / (2.0 * stats.bandwidth**2)).mean(axis=1)


def _subsample(pts: np.ndarray, k: int, seed: SeedLike) -> np.ndarray:
    """pts, or beyond k rows k of them drawn by `sample_rng(seed)`, in order."""
    rng = sample_rng(seed)  # checks the seed even when no subsample runs
    return pts if len(pts) <= k else pts[np.sort(rng.choice(len(pts), k, replace=False))]


def median_heuristic_bandwidth(points: np.ndarray, seed: SeedLike = 0) -> float:
    """Median pairwise distance over a bounded subsample, divided by sqrt(2);
    DegenerateDatasetError when that is 0 or below MIN_BANDWIDTH."""
    pts = _subsample(points, BANDWIDTH_SAMPLE, seed)
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    iu = np.triu_indices(len(pts), k=1)
    h = float(np.median(dist[iu])) / np.sqrt(2.0)
    if h <= 0.0:
        raise DegenerateDatasetError("all subsampled points coincide; bandwidth undefined")
    if h < MIN_BANDWIDTH:
        raise DegenerateDatasetError("subsampled points lie too close together for a bandwidth")
    return h


def fit(
    dataset_inputs: np.ndarray,
    bandwidth_rule: float | str = "median",
    seed: SeedLike = 0,
) -> KdeStats:
    """Freeze reference points and standardization constants before inference.

    Reference sets beyond MAX_REFERENCE_POINTS are uniformly subsampled
    (seeded) to bound the per-query cost. A dataset whose points all see the
    same density (e.g. fully symmetric or coincident points) has zero spread
    and cannot be standardized; that raises DegenerateDatasetError. Points
    that fail `rules.checked_points` as an (n, d) array within MAX_NORM of
    the origin, or fewer than two, raise InvalidInputError. bandwidth_rule
    is "median", the median-distance rule, or a finite bandwidth of at least
    MIN_BANDWIDTH.
    """
    pts = checked_points("dataset_inputs", dataset_inputs, (None, None), MAX_NORM)
    if len(pts) < 2:
        raise InvalidInputError(f"dataset_inputs must have at least 2 points, got {len(pts)}")
    pts = _subsample(pts, MAX_REFERENCE_POINTS, seed)
    if isinstance(bandwidth_rule, str) and bandwidth_rule == "median":
        h = median_heuristic_bandwidth(pts, seed=seed)
    else:
        h = float(checked_real("bandwidth", bandwidth_rule, 0, strict=True))
    self_density = density_batch(KdeStats(pts, h, mu=0.0, sigma=1.0), pts)
    sigma = float(self_density.std())
    if sigma <= 0.0:
        raise DegenerateDatasetError("density is constant over the dataset")
    return KdeStats(pts, h, mu=float(self_density.mean()), sigma=sigma)


def base_eu(stats: KdeStats, query: np.ndarray) -> float:
    """Sigmoid-standardized rarity of the query input, in (0, 1).

    High density relative to the dataset pushes the value toward 0, low
    density toward 1; it is strictly decreasing in density(query).
    """
    z = (density(stats, query) - stats.mu) / stats.sigma
    return float(sigmoid(-z))
