"""The benchmark's workloads: inputs from a seed, set-up, one op, its check.

Every op calls the library through module attributes (`model.train`,
`inference.infer`), so the traced run can wrap them. Op inputs are a pure
function of (seed, op index) and no two ops in a process share inputs, so a
result cache could not turn repeated ops into hits.

train_toy: one op is one `model.train` call for one epoch over the toy set
    from a fresh initialization (25 updates of the tier-1 recipe). The
    latency sample is the call time per update.
infer_data / infer_gap: one op is one `inference.infer` call at the library
    defaults on a trained toy model. The model is always trained from
    MODEL_SEED; the workload seed draws the query inputs and chain seeds.
    At 40 epochs, which part of the no-data gap is still scored empty
    depends on the training seed (for five of seven seeds tried, some gap
    inputs in [-0.15, 0.0] kept valid members), while the seed-1 model is
    empty over the whole gap band and populated over both data bands.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from cdrm import data, inference, kde, langevin, model, model_io, nnet
from cdrm.errors import (
    EmptyValidSetError,
    ModelFormatError,
    SamplingFailureError,
    TrainingDivergenceError,
)

# Library errors an op can raise at run time; each counts as a failed op.
OP_ERRORS = (TrainingDivergenceError, SamplingFailureError, EmptyValidSetError)

HIDDEN = [64, 128, 64]
POSITIVE_BATCH = 16
NEGATIVE_BATCH = 32
LANGEVIN_STEPS = 10
LEARNING_RATE = 1e-2
INFER_TRAIN_EPOCHS = 40
MODEL_SEED = 1

# Stream tags of the CLI's train command, so set-up builds the model it would.
_INIT_TAG = 0xA11
_KDE_TAG = 0xDE
# Benchmark-only streams, keyed by op index: query inputs, chain seeds and
# the seeds of each training op.
_QUERY_TAG = 0xB0
_CHAIN_TAG = 0xB1
_TRAIN_TAG = 0xB2

# Op-index ranges: timed ops count up from 0; warm-up ops of set-up
# repetition r and the traced ops use disjoint indices.
WARMUP_BASE = 1 << 40
TRACE_BASE = 1 << 41


def toy_config(seed, epochs: int) -> model.TrainConfig:
    """The tier-1 fixture recipe: [2,64,128,64,1], batches 16/32, L=10, lr 1e-2."""
    return model.TrainConfig(
        epochs=epochs,
        positive_batch=POSITIVE_BATCH,
        negative_batch=NEGATIVE_BATCH,
        langevin_steps=LANGEVIN_STEPS,
        learning_rate=LEARNING_RATE,
        seed=seed,
    )


def fresh_model(dataset, seed) -> model.CdrmModel:
    net = nnet.MlpNetwork.initialize(
        [sum(dataset.dims)] + HIDDEN + [1], seed=langevin.derive_seed(seed, _INIT_TAG)
    )
    return model.CdrmModel(net=net, input_bounds=dataset.bounds, dims=dataset.dims)


def reload(m: model.CdrmModel, workdir: str) -> model.CdrmModel:
    """Save and load through model_io; loading runs the self-check battery."""
    path = os.path.join(workdir, "model.json")
    model_io.save_model(path, m)
    return model_io.load_model(path)


def warm_up(workload, state, repetition: int) -> None:
    """Untimed ops at indices no timed op uses, distinct per set-up repetition."""
    first = WARMUP_BASE + repetition * workload.warmup_ops
    for index in range(first, first + workload.warmup_ops):
        workload.run(state, workload.prepare(state, index))


def _floats(values) -> list[float]:
    return [float(v) for v in np.asarray(values, dtype=np.float64).ravel()]


@dataclass
class TrainState:
    dataset: data.TransitionDataset
    seed: int
    updates_per_op: int


@dataclass(frozen=True)
class TrainToy:
    """Contrastive training updates from a fresh init on the toy set."""

    name: str = "train_toy"
    setup_repeats: int = 5
    warmup_ops: int = 1
    min_samples: int = 100
    digest_ops: int = 8
    trace_ops: int = 40

    def prepare(self, state: TrainState, index: int):
        """Fresh model and training config of op `index`; not timed."""
        op_seed = langevin.derive_seed(state.seed, _TRAIN_TAG, index)
        return fresh_model(state.dataset, op_seed), toy_config(op_seed, epochs=1)

    def run(self, state: TrainState, args):
        initial, cfg = args
        return model.train(initial, state.dataset, cfg)

    def check(self, state: TrainState, args, out, workdir: str) -> bool:
        trained, losses = out
        if len(losses) != 1 or not all(math.isfinite(v) for v in losses):
            return False
        try:
            loaded = reload(trained, workdir)
        except ModelFormatError:
            return False
        return all(
            np.array_equal(a, b)
            for a, b in zip(
                loaded.net.weights + loaded.net.biases, trained.net.weights + trained.net.biases
            )
        )

    def record(self, args, out) -> dict:
        """Loss trace of the op plus a hash of the trained parameters."""
        trained, losses = out
        params = np.concatenate([p.ravel() for p in trained.net.weights + trained.net.biases])
        return {"losses": list(losses), "params_sha256": _sha256(params.tobytes())}

    def setup(self, seed: int, repetition: int, workdir: str) -> TrainState:
        dataset = data.gen_toy(seed=seed)
        state = TrainState(dataset, seed, math.ceil(len(dataset) / POSITIVE_BATCH))
        warm_up(self, state, repetition)
        return state

    def units(self, state: TrainState) -> int:
        return state.updates_per_op


@dataclass
class InferState:
    model: model.CdrmModel
    seed: int
    next_bounds: np.ndarray


@dataclass(frozen=True)
class Infer:
    """Sequential `infer` queries with inputs drawn from one x band."""

    name: str
    low: float
    high: float
    both_signs: bool  # odd op indices use the mirrored band [-high, -low]
    expect_empty: bool  # every query must (True) or must not (False) be empty
    train_epochs: int = INFER_TRAIN_EPOCHS
    setup_repeats: int = 3
    warmup_ops: int = 2
    min_samples: int = 100
    digest_ops: int = 16
    trace_ops: int = 24

    def query(self, seed: int, index: int) -> float:
        """Query input of op `index`. Alternating bands keeps every run at an
        even mix: the two data bands differ by about 200 valid members and
        15-20% in query time, so a seed-dependent mix would move the median."""
        x = float(np.random.default_rng([seed, _QUERY_TAG, index]).uniform(self.low, self.high))
        return -x if self.both_signs and index % 2 else x

    def prepare(self, state: InferState, index: int):
        x = self.query(state.seed, index)
        return x, langevin.derive_seed(state.seed, _CHAIN_TAG, index)

    def run(self, state: InferState, args):
        x, chain_seed = args
        return inference.infer(state.model, [x], [], seed=chain_seed)

    def check(self, state: InferState, args, out, workdir: str) -> bool:
        r = out
        if not (math.isfinite(r.eu) and 0.0 <= r.eu <= 1.0):
            return False
        if (r.eu == 1.0) != (r.valid_count == 0):
            return False
        if (r.valid_count == 0) != self.expect_empty:
            return False
        if r.valid_count == 0:
            return r.prediction is None and r.au is None
        low, high = state.next_bounds[:, 0], state.next_bounds[:, 1]
        pred = np.asarray(r.prediction, dtype=np.float64)
        return bool(
            np.all(np.isfinite(pred))
            and np.all((low <= pred) & (pred <= high))
            and math.isfinite(r.au)
            and r.au >= 0.0
        )

    def record(self, args, out) -> dict:
        """The fields `cdrm infer` prints, plus the query input."""
        r = out
        return {
            "x": args[0],
            "prediction": None if r.prediction is None else _floats(r.prediction),
            "eu": r.eu,
            "au": r.au,
            "valid_count": r.valid_count,
        }

    def setup(self, seed: int, repetition: int, workdir: str) -> InferState:
        """Train the fixed toy model, fit the KDE, reload it as the CLI would."""
        dataset = data.gen_toy(seed=MODEL_SEED)
        cfg = toy_config(MODEL_SEED, self.train_epochs)
        trained, _ = model.train(fresh_model(dataset, MODEL_SEED), dataset, cfg)
        stats = kde.fit(dataset.inputs, seed=langevin.derive_seed(MODEL_SEED, _KDE_TAG))
        trained = replace(trained, kde_stats=stats, provenance=model_io.provenance_for(cfg))
        loaded = reload(trained, workdir)
        state = InferState(loaded, seed, loaded.input_bounds[loaded.next_state_dims])
        warm_up(self, state, repetition)
        return state

    def units(self, state: InferState) -> int:
        return 1


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def record_digest(records: list[dict]) -> str:
    """sha256 of the op records as canonical JSON (floats in repr form)."""
    return _sha256(json.dumps(records, sort_keys=True).encode())


WORKLOADS = {
    w.name: w
    for w in (
        TrainToy(),
        Infer("infer_data", 0.45, 0.95, both_signs=True, expect_empty=False),
        Infer("infer_gap", -0.15, 0.0, both_signs=False, expect_empty=True),
    )
}
