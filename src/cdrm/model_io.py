"""Versioned model serialization with an embedded self-check battery.

Models are stored as JSON written by `data.write_json`, whose floats
restore bit-exactly. The file carries a small battery of probe inputs,
drawn from the input bounds, together with their scores at save time;
load() rebuilds the battery from the loaded bounds, scores it, and
refuses the file on any difference from the stored probes or scores, so
silent corruption of the network or the bounds, or a numerics drift,
cannot go unnoticed. The stored clamp half-width must equal
`model.LOGIT_CLIP`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import numpy as np

from . import data, rules
from .errors import InvalidInputError, ModelFormatError, UnsupportedVersionError
from .kde import KdeStats
from .model import LOGIT_CLIP, CdrmModel, TrainConfig, score_batch
from .nnet import MlpNetwork

SCHEMA_VERSION = 1
N_CHECK_PROBES = 16
_CHECK_STREAM_TAG = 0xC4EC


def _check_probes(model: CdrmModel) -> np.ndarray:
    """Deterministic probe battery spanning the model's input box."""
    rng = rules.sample_rng(_CHECK_STREAM_TAG, 0)
    lows, highs = model.input_bounds[:, 0], model.input_bounds[:, 1]
    return rng.uniform(lows, highs, size=(N_CHECK_PROBES, model.d_total))


def provenance_for(cfg: TrainConfig) -> dict:
    """Training-run fingerprint stored inside the model file.

    The hash covers every TrainConfig field, with the seed expanded by
    derive_seed, so a new field changes every fingerprint. A numpy scalar
    field is hashed as the Python scalar it holds, so `np.int64(8)` and 8
    give one fingerprint.
    """
    seed = list(rules.derive_seed(cfg.seed))
    blob = json.dumps({**asdict(cfg), "seed": seed}, sort_keys=True, default=np.generic.item)
    return {
        "config_sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "seed": seed,
        "epochs": cfg.epochs,
    }


def save_model(path, model: CdrmModel) -> None:
    """Write model to path; a network that is not float64 (an
    `MlpNetwork.astype` copy) is refused, since the file stores float64."""
    if model.net.params.dtype != np.float64:
        raise InvalidInputError(f"only a float64 network is saved, got {model.net.params.dtype}")
    probes = _check_probes(model)
    scores = score_batch(model, probes)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "dims": list(model.dims),
        "layer_dims": list(model.net.layer_dims),
        "logit_clip": LOGIT_CLIP,
        "input_bounds": model.input_bounds.tolist(),
        "weights": [w.tolist() for w in model.net.weights],
        "biases": [b.tolist() for b in model.net.biases],
        "kde": None
        if model.kde_stats is None
        else {
            "reference_points": model.kde_stats.reference_points.tolist(),
            "bandwidth": model.kde_stats.bandwidth,
            "mu": model.kde_stats.mu,
            "sigma": model.kde_stats.sigma,
        },
        "provenance": model.provenance,
        "self_check": {"probes": probes.tolist(), "scores": scores.tolist()},
    }
    data.write_json(path, doc)


def load_model(path) -> CdrmModel:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or "schema_version" not in doc:
        raise ModelFormatError("missing schema_version")
    version = doc["schema_version"]
    if type(version) is not int or version != SCHEMA_VERSION:
        raise UnsupportedVersionError(
            f"schema_version {version!r} not supported (this build reads {SCHEMA_VERSION})"
        )
    try:
        if doc["logit_clip"] != LOGIT_CLIP:
            raise ModelFormatError(f"logit_clip {doc['logit_clip']!r} is not {LOGIT_CLIP!r}")
        net = MlpNetwork(doc["layer_dims"], doc["weights"], doc["biases"])
        kde_doc = doc["kde"]
        kde_stats = None
        if kde_doc is not None:
            kde_stats = KdeStats(
                reference_points=kde_doc["reference_points"],
                bandwidth=float(kde_doc["bandwidth"]),
                mu=float(kde_doc["mu"]),
                sigma=float(kde_doc["sigma"]),
            )
        model = CdrmModel(
            net=net,
            input_bounds=doc["input_bounds"],
            dims=tuple(doc["dims"]),
            kde_stats=kde_stats,
            provenance=doc["provenance"],
        )
        stored_probes = np.array(doc["self_check"]["probes"], dtype=np.float64)
        stored = np.array(doc["self_check"]["scores"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model file: {exc}") from None
    # The battery is a function of the input bounds, so rebuilding it checks
    # the stored bounds as well as the network.
    probes = _check_probes(model)
    if not np.array_equal(probes, stored_probes):
        raise ModelFormatError("self-check probes do not match the input bounds")
    recomputed = score_batch(model, probes)
    if not np.array_equal(recomputed, stored):
        raise ModelFormatError("self-check battery mismatch; file corrupt or numerics drifted")
    return model
