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

from .errors import InvalidInputError, OutOfBoundsError
from .inference import InferenceResult

_SATURATION_LIMIT = 2**63 - 1


@dataclass
class BinGrid:
    """Occupancy counts over the full product grid of all dimensions."""

    b: int
    bounds: np.ndarray  # (d_total, 2)
    dims: tuple[int, int, int]
    counts: np.ndarray  # shape (b,) * d_total


def _cell_indices(grid_b, bounds, points) -> np.ndarray:
    """Half-open binning [low, high) per dimension, top edge closed.

    Returns integer indices; callers must range-check against bounds
    before trusting them.
    """
    lows = bounds[:, 0]
    spans = bounds[:, 1] - bounds[:, 0]
    idx = np.floor((points - lows) / spans * grid_b).astype(np.int64)
    # Points exactly at (or within float error of) the top edge belong to
    # the last cell.
    at_top = (idx == grid_b) & (points <= bounds[:, 1])
    return np.where(at_top, grid_b - 1, idx)


def build(dataset, b: int) -> BinGrid:
    """Count dataset tuples into the joint grid over the dataset's bounds."""
    if b < 1:
        raise InvalidInputError("b must be >= 1")
    counts = np.zeros((b,) * sum(dataset.dims), dtype=np.int64)
    tuples = np.asarray(dataset.tuples, dtype=np.float64)
    if len(tuples):
        idx = _cell_indices(b, dataset.bounds, tuples)
        bad = np.flatnonzero(((idx < 0) | (idx >= b)).any(axis=1))
        if bad.size:
            raise OutOfBoundsError(f"tuple {int(bad[0])} lies outside the grid bounds")
        np.add.at(counts, tuple(idx.T), 1)
    return BinGrid(b=b, bounds=dataset.bounds, dims=dataset.dims, counts=counts)


def _input_cell(grid: BinGrid, s, a) -> tuple:
    s = np.atleast_1d(np.asarray(s, dtype=np.float64))
    a = np.atleast_1d(np.asarray(a, dtype=np.float64)) if np.size(a) else np.empty(0)
    d_s, d_a, _ = grid.dims
    if len(s) != d_s or len(a) != d_a:
        raise InvalidInputError(f"query dims ({len(s)}, {len(a)}) do not match {grid.dims}")
    point = np.concatenate([s, a])
    in_bounds = grid.bounds[: d_s + d_a]
    idx = _cell_indices(grid.b, in_bounds, point)
    if np.any(idx < 0) or np.any(idx >= grid.b):
        raise OutOfBoundsError("query lies outside the grid bounds")
    return tuple(int(i) for i in idx)


def _next_state_centers(grid: BinGrid, occupied_flat: np.ndarray) -> list[np.ndarray]:
    d_s, d_a, d_next = grid.dims
    next_bounds = grid.bounds[d_s + d_a :]
    widths = (next_bounds[:, 1] - next_bounds[:, 0]) / grid.b
    multi = np.unravel_index(occupied_flat, (grid.b,) * d_next)
    centers = next_bounds[:, 0] + (np.stack(multi, axis=1) + 0.5) * widths
    return [centers[i] for i in range(len(occupied_flat))]


def query(grid: BinGrid, s, a) -> list[np.ndarray]:
    """Centers of occupied next-state cells for this input, in index order."""
    cell = _input_cell(grid, s, a)
    sub = grid.counts[cell].reshape(-1)
    return _next_state_centers(grid, np.flatnonzero(sub))


def bin_infer(grid: BinGrid, s, a) -> InferenceResult:
    """Prediction and spread from occupied cells alone.

    The grid has no confidence analog, so EU is 0 whenever any cell is
    occupied and 1 otherwise (mirroring the empty branch of the sampled
    method).
    """
    cell = _input_cell(grid, s, a)
    sub = grid.counts[cell].reshape(-1)
    occupied = np.flatnonzero(sub)
    if occupied.size == 0:
        return InferenceResult(None, 1.0, None, 0, np.empty(0))
    centers = _next_state_centers(grid, occupied)
    stacked = np.stack(centers)
    # Most-populated cell wins; first index wins ties for determinism.
    best = int(np.argmax(sub[occupied]))
    au = float(np.sqrt(stacked.var(axis=0).sum()))
    return InferenceResult(centers[best], 0.0, au, int(occupied.size), np.empty(0))


@dataclass
class MemoryReport:
    joint_cells: int
    cubic_scaling_cells: int
    saturated: bool


def memory_report(d_s: int, d_a: int, b: int, d_next: int) -> MemoryReport:
    """Cell counts for the joint grid and for the b^3-style estimate.

    The joint scheme is what build() allocates: one cell per combination
    over all d_s + d_a + d_next dimensions. The second
    figure is the d_s^2 * d_a * b^3 scaling estimate, reported alongside
    for comparison; the two coincide at d_s = d_a = 1. The estimate is 0
    whenever d_a = 0, as for both generated datasets and every bench row.
    """
    if d_s < 1 or d_a < 0 or d_next < 1 or b < 1:
        raise InvalidInputError("dims must be positive and b >= 1")
    joint = b ** (d_s + d_a + d_next)
    formula = d_s * d_s * d_a * b**3
    saturated = joint > _SATURATION_LIMIT
    return MemoryReport(
        joint_cells=min(joint, _SATURATION_LIMIT),
        cubic_scaling_cells=min(formula, _SATURATION_LIMIT),
        saturated=saturated,
    )
