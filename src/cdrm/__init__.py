"""Scored transition fields with disentangled uncertainty estimates.

Submodules import lazily so the console entry point can configure BLAS
threading before numpy loads.
"""

_EXPORTS = {
    "CdrmModel": "model",
    "TrainConfig": "model",
    "train": "model",
    "score_batch": "model",
    "contrastive_loss": "model",
    "generate_negatives": "model",
    "LOGIT_CLIP": "model",
    "MlpNetwork": "nnet",
    "LangevinConfig": "langevin",
    "ChainTrace": "langevin",
    "KdeStats": "kde",
    "InferenceResult": "inference",
    "ValidSet": "inference",
    "infer": "inference",
    "TransitionDataset": "data",
    "RoomLayout": "data",
    "RegionLabel": "data",
    "gen_toy": "data",
    "gen_room": "data",
    "BinGrid": "binref",
    "RoomEvaluation": "metrics",
    "auroc": "metrics",
    "auprc": "metrics",
    "evaluate_room": "metrics",
    "save_model": "model_io",
    "load_model": "model_io",
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        import importlib

        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
