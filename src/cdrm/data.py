"""Transition datasets, their generators and CSV round trip, and the artifact writers.

A transition tuple is (state, action, next-state); regression problems are
encoded with zero action dimensions, the regressor input as the state and
the regression target as the next state.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DatasetFormatError, InvalidInputError, OutOfBoundsError
from .rules import SeedLike, checked_count, checked_layout, checked_real, sample_rng

TOY_GAP = (-0.33, 0.33)  # input interval generating no samples at all
ROOM_DIMS = (2, 0, 1)  # (x, y) state, no action, sensed temperature


@dataclass
class TransitionDataset:
    """Ordered tuples stored as rows of a joint (state|action|next) matrix.

    dims and bounds follow `rules.checked_layout`, which stores dims as a tuple
    of ints; tuples must be an (n, d_total) array, finite and inside the
    bounds. An empty input of any shape becomes (0, d_total).
    """

    tuples: np.ndarray  # (n, d_s + d_a + d_next)
    dims: tuple[int, int, int]
    bounds: np.ndarray  # (d_total, 2) rows of (low, high)

    def __post_init__(self):
        self.dims, self.bounds = checked_layout(self.dims, self.bounds)
        d_total = sum(self.dims)
        arr = np.asarray(self.tuples, dtype=np.float64)
        if arr.size == 0:
            arr = arr.reshape(0, d_total)
        if arr.ndim != 2 or arr.shape[1] != d_total:
            raise InvalidInputError(
                f"tuples of shape {arr.shape} are not (n, {d_total}) for dims {self.dims}"
            )
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("dataset tuples must be finite")
        low, high = self.bounds[:, 0], self.bounds[:, 1]
        if np.any(arr < low) or np.any(arr > high):
            raise OutOfBoundsError("dataset contains tuples outside bounds")
        self.tuples = arr

    def __len__(self) -> int:
        return len(self.tuples)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TransitionDataset):
            return NotImplemented
        return (
            self.dims == other.dims
            and np.array_equal(self.tuples, other.tuples)
            and np.array_equal(self.bounds, other.bounds)
        )

    @property
    def inputs(self) -> np.ndarray:
        """The (state, action) block, the conditioning part of each tuple."""
        return self.tuples[:, : self.dims[0] + self.dims[1]]


def gen_toy(
    n_per_region: int = 200,
    sigma_eta: float = 0.2,
    multimodal: bool = False,
    seed: SeedLike = 0,
) -> TransitionDataset:
    """Sine-curve regression set with a clean band, a gap, and a noisy band.

    x uniform over [-1.0, -0.33) maps to y = sin(x) exactly; no x is drawn
    from [-0.33, 0.33); x uniform over [0.33, 1.0] maps to sin(x) plus
    centered Gaussian noise of scale sigma_eta. With multimodal=True the
    whole set is duplicated with y negated, giving two output modes per x.
    """
    n_per_region = checked_count("n_per_region", n_per_region)
    checked_real("sigma_eta", sigma_eta, 0)
    if not isinstance(multimodal, (bool, np.bool_)):
        raise InvalidInputError(f"multimodal must be a bool, got {multimodal!r}")
    rng = sample_rng(seed)
    x_clean = rng.uniform(-1.0, TOY_GAP[0], n_per_region)
    y_clean = np.sin(x_clean)
    x_noisy = rng.uniform(TOY_GAP[1], 1.0, n_per_region)
    y_noisy = np.sin(x_noisy) + rng.normal(0.0, sigma_eta, n_per_region)
    x = np.concatenate([x_clean, x_noisy])
    y = np.concatenate([y_clean, y_noisy])
    if multimodal:
        x = np.concatenate([x, x])
        y = np.concatenate([y, -y])
    y_low = min(-1.5, float(y.min()) - 0.05)
    y_high = max(1.5, float(y.max()) + 0.05)
    return TransitionDataset(
        np.column_stack([x, y]),
        dims=(1, 0, 1),
        bounds=np.array([[-1.0, 1.0], [y_low, y_high]]),
    )


@dataclass(frozen=True)
class Rect:
    x_low: float
    y_low: float
    x_high: float
    y_high: float

    def contains(self, x: float, y: float) -> bool:
        return self.x_low <= x <= self.x_high and self.y_low <= y <= self.y_high

    def overlaps(self, other: "Rect") -> bool:
        return not (
            self.x_high < other.x_low
            or other.x_high < self.x_low
            or self.y_high < other.y_low
            or other.y_high < self.y_low
        )


def _linear_temperature(x: float, y: float) -> float:
    return 0.5 * (x + y)


@dataclass(frozen=True)
class RoomLayout:
    """Unit-square room with one noisy-sensor rectangle and one unreachable
    rectangle; everywhere else the temperature field is smooth and exact."""

    noisy_region: Rect = Rect(0.0, 0.0, 0.3, 0.3)
    hidden_region: Rect = Rect(0.7, 0.7, 1.0, 1.0)
    noise_mean: float = 1.0
    noise_std: float = 0.5

    ROOM = Rect(0.0, 0.0, 1.0, 1.0)

    def __post_init__(self):
        for name in ("noisy_region", "hidden_region"):
            r = getattr(self, name)
            if not isinstance(r, Rect):
                raise InvalidInputError(f"{name} must be a Rect, got {r!r}")
            for corner in ("x_low", "y_low", "x_high", "y_high"):
                checked_real(f"{name}.{corner}", getattr(r, corner))
            if not (
                self.ROOM.x_low <= r.x_low < r.x_high <= self.ROOM.x_high
                and self.ROOM.y_low <= r.y_low < r.y_high <= self.ROOM.y_high
            ):
                raise InvalidInputError(f"{name} must lie within the room")
        if self.noisy_region.overlaps(self.hidden_region):
            raise InvalidInputError("noisy and hidden regions must be disjoint")
        checked_real("noise_mean", self.noise_mean)
        checked_real("noise_std", self.noise_std, 0, strict=True)


class RegionLabel(enum.Enum):
    AU_POSITIVE = "au_positive"
    EU_POSITIVE = "eu_positive"
    CLEAN = "clean"


def label_probe(layout: RoomLayout, s: np.ndarray) -> RegionLabel:
    """Ground-truth uncertainty class of a probe coordinate."""
    x, y = float(s[0]), float(s[1])
    if not layout.ROOM.contains(x, y):
        raise OutOfBoundsError(f"probe ({x}, {y}) is outside the room")
    if layout.noisy_region.contains(x, y):
        return RegionLabel.AU_POSITIVE
    if layout.hidden_region.contains(x, y):
        return RegionLabel.EU_POSITIVE
    return RegionLabel.CLEAN


def gen_room(
    n_steps: int,
    layout: RoomLayout | None = None,
    seed: SeedLike = 0,
    walk_step: float = 0.12,
) -> TransitionDataset:
    """Random-walk exploration recording (coordinates, sensed temperature).

    Proposed moves landing in the hidden region are rejected and redrawn,
    so no recorded coordinate ever lies inside it. Inside the noisy region
    the sensor reads Gaussian noise around noise_mean; elsewhere it reads
    the deterministic base temperature field.
    """
    n_steps = checked_count("n_steps", n_steps)
    checked_real("walk_step", walk_step, 0)
    layout = layout or RoomLayout()
    rng = sample_rng(seed)
    pos = rng.uniform(0.0, 1.0, 2)
    while layout.hidden_region.contains(pos[0], pos[1]):
        pos = rng.uniform(0.0, 1.0, 2)
    rows = np.empty((n_steps, 3))
    for t in range(n_steps):
        x, y = float(pos[0]), float(pos[1])
        if layout.noisy_region.contains(x, y):
            kappa = layout.noise_mean + layout.noise_std * rng.standard_normal()
        else:
            kappa = _linear_temperature(x, y)
        rows[t] = (x, y, kappa)
        for _ in range(64):
            cand = np.clip(pos + rng.uniform(-walk_step, walk_step, 2), 0.0, 1.0)
            if not layout.hidden_region.contains(cand[0], cand[1]):
                pos = cand
                break
    kappa_col = rows[:, 2]
    k_low = float(kappa_col.min()) - 0.05
    k_high = float(kappa_col.max()) + 0.05
    return TransitionDataset(
        rows,
        dims=ROOM_DIMS,
        bounds=np.array([[0.0, 1.0], [0.0, 1.0], [k_low, k_high]]),
    )


def _text(value) -> str:
    """A float in shortest round-trip decimal form, which float() restores
    bit-exactly; anything else as str."""
    return repr(float(value)) if isinstance(value, float) else str(value)


def write_csv(path, head_lines: list[str], rows) -> None:
    """The one CSV writer of cdrm's artifacts: head_lines as they are, then
    one line of comma-separated `_text` values per row, each line ending in a newline."""
    lines = head_lines + [",".join(map(_text, row)) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path, obj) -> None:
    """The one JSON writer of cdrm's artifacts: sorted keys, indent 1, a final
    newline, and floats in Python's shortest round-trip form."""
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def save_csv(dataset: TransitionDataset, path) -> None:
    """Write the dataset through `write_csv`.

    Header comments carry the dims triple and the per-dimension bounds so a
    round-trip restores the dataset exactly, bounds included.
    """
    d_s, d_a, d_next = dataset.dims
    bounds = ",".join(f"{_text(lo)}:{_text(hi)}" for lo, hi in dataset.bounds)
    write_csv(path, [f"# dims={d_s},{d_a},{d_next}", f"# bounds={bounds}"], dataset.tuples)


def load_csv(path) -> TransitionDataset:
    try:
        with open(path) as fh:
            raw = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"not a text file: {exc}") from None
    if not raw or not raw[0].startswith("# dims="):
        raise DatasetFormatError("missing '# dims=' header", line=1)
    try:
        dims = tuple(int(v) for v in raw[0][len("# dims=") :].split(","))
    except ValueError as exc:
        raise DatasetFormatError(f"bad dims header: {exc}", line=1) from None
    if len(dims) != 3:
        raise DatasetFormatError("dims header must have three entries", line=1)
    d_total = sum(dims)
    if len(raw) < 2 or not raw[1].startswith("# bounds="):
        raise DatasetFormatError("missing '# bounds=' header", line=2)
    try:
        pairs = [p.split(":") for p in raw[1][len("# bounds=") :].split(",")]
        bounds = np.array([[float(lo), float(hi)] for lo, hi in pairs])
    except ValueError as exc:
        raise DatasetFormatError(f"bad bounds header: {exc}", line=2) from None
    if not np.all(np.isfinite(bounds)):
        raise DatasetFormatError("bounds must be finite", line=2)
    if len(bounds) != d_total:
        raise DatasetFormatError(f"expected {d_total} bounds entries, got {len(bounds)}", line=2)
    rows = []
    for lineno, line in enumerate(raw[2:], start=3):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != d_total:
            raise DatasetFormatError(
                f"expected {d_total} values per row, got {len(parts)}", line=lineno
            )
        try:
            row = [float(v) for v in parts]
        except ValueError as exc:
            raise DatasetFormatError(str(exc), line=lineno) from None
        # float() accepts "nan" and "inf", and NaN slips past the bounds check
        if not all(math.isfinite(v) for v in row):
            raise DatasetFormatError("values must be finite", line=lineno)
        rows.append(row)
    tuples = np.array(rows) if rows else np.empty((0, d_total))
    return TransitionDataset(tuples, dims=dims, bounds=bounds)
