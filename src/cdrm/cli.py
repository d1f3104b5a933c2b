"""Operator surface: generate, train, infer, evaluate, oracle-check, bench.

All output artifacts are deterministic functions of inputs and seeds:
floats are serialized in shortest round-trip decimal form, JSON keys are
sorted, and no artifact embeds a timestamp. Exit codes: 0 success, 1
runtime failure, 2 usage or validation problem.
"""

from __future__ import annotations

import argparse
import inspect
import json
import statistics
import sys
import time
from dataclasses import MISSING, astuple, dataclass, fields, replace

import numpy as np

from . import binref, data, kde, langevin, metrics, model_io
from .errors import (
    DatasetFormatError,
    DegenerateDatasetError,
    InvalidInputError,
    ModelFormatError,
    OutOfBoundsError,
    SamplingFailureError,
    TrainingDivergenceError,
    UndefinedMetricError,
    UnpreparedModelError,
    UnsupportedVersionError,
)
from .inference import DEFAULT_ALPHA, default_inference_config, infer
from .model import CdrmModel, TrainConfig, train
from .nnet import MlpNetwork

# Stream tags separating the weight-init and density-fit RNG streams from
# the training streams derived from the same user seed.
_INIT_STREAM_TAG = 0xA11
_KDE_STREAM_TAG = 0xDE

_USAGE_ERRORS = (
    InvalidInputError,
    DatasetFormatError,
    ModelFormatError,
    UnsupportedVersionError,
    OutOfBoundsError,
    UndefinedMetricError,
)
_RUNTIME_ERRORS = (
    TrainingDivergenceError,
    SamplingFailureError,
    UnpreparedModelError,
    DegenerateDatasetError,
)

_ROOM_LAYOUT = data.RoomLayout()


def _default(fn, name: str):
    """Declared default of one parameter of fn."""
    return inspect.signature(fn).parameters[name].default


def _rect_text(rect: data.Rect) -> str:
    return ",".join(f"{v:g}" for v in astuple(rect))


# Room-layout keys, shared by `gen room` and `eval`.
_LAYOUT_DEFAULTS = {
    "noisy_region": _rect_text(_ROOM_LAYOUT.noisy_region),
    "hidden_region": _rect_text(_ROOM_LAYOUT.hidden_region),
    "noise_mean": _ROOM_LAYOUT.noise_mean,
    "noise_std": _ROOM_LAYOUT.noise_std,
}

_TOY_KEYS = ("n_per_region", "sigma_eta", "multimodal", "seed")

# Chain flag -> (LangevinConfig field, parser). A flag left unset keeps
# the value of inference.default_inference_config.
_CHAIN_FLAGS = {
    "samples": ("n_samples", int),
    "steps": ("steps", int),
    "step_size": ("step_size", float),
    "noise": ("noise_scale", float),
}

_DEFAULTS: dict[str, dict] = {
    "gen toy": {
        "out": None,
        **{k: _default(data.gen_toy, k) for k in _TOY_KEYS},
    },
    "gen room": {
        "out": None,
        "steps": None,
        "walk_step": _default(data.gen_room, "walk_step"),
        **_LAYOUT_DEFAULTS,
        "seed": _default(data.gen_room, "seed"),
    },
    "train": {
        "data": None,
        "out": None,
        "loss_out": None,
        "epochs": 100,  # TrainConfig.epochs has no default of its own
        "hidden": "64,128,64",
        "bandwidth": "median",
        **{f.name: f.default for f in fields(TrainConfig) if f.default is not MISSING},
    },
    "infer": {
        "model": None,
        "query": None,
        "alpha": DEFAULT_ALPHA,
        **dict.fromkeys(_CHAIN_FLAGS),
        "dedup_tol": None,
        "seed": 0,
    },
    "eval": {
        "model": None,
        "out": None,
        "probes_out": None,
        "grid": _default(metrics.evaluate_room, "grid_resolution"),
        "alpha": DEFAULT_ALPHA,
        **dict.fromkeys(_CHAIN_FLAGS),
        **_LAYOUT_DEFAULTS,
        "seed": 0,
    },
    "oracle": {
        "model": None,
        "data": None,
        "bins": 100,
        "grid_probes": 50,
        "alpha": DEFAULT_ALPHA,
        **dict.fromkeys(_CHAIN_FLAGS),
        "out": None,
        "seed": 0,
    },
    "bench": {
        "out": None,
        "b_values": "16,128,1024",
        "l_values": "5,20,80",
        "reps": 5,
        "bin_queries": 200,
        "samples": 128,
        "dataset_size": 1000,
        "seed": 0,
    },
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


@dataclass
class RunConfig:
    """Merged knob set for one command invocation.

    Precedence: built-in defaults, then config-file values, then explicit
    flags. Unknown config-file keys are rejected before any work starts.
    """

    command: str
    values: dict

    @classmethod
    def resolve(cls, command: str, cli_values: dict, config_path: str | None) -> "RunConfig":
        defaults = _DEFAULTS[command]
        merged = dict(defaults)
        if config_path is not None:
            try:
                with open(config_path) as fh:
                    file_values = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InvalidInputError(f"config file is not valid JSON: {exc}") from None
            if not isinstance(file_values, dict):
                raise InvalidInputError("config file must hold a JSON object")
            unknown = set(file_values) - set(defaults)
            if unknown:
                raise InvalidInputError(
                    f"unknown config keys for '{command}': {sorted(unknown)}"
                )
            merged.update(file_values)
        merged.update(cli_values)
        return cls(command=command, values=merged)

    def __getattr__(self, name):
        try:
            return self.values[name]
        except KeyError:
            raise AttributeError(name) from None

    def require(self, *names):
        for name in names:
            if self.values.get(name) is None:
                raise InvalidInputError(f"{_flag(name)} is required for '{self.command}'")

    def typed(self, *names) -> dict:
        """Named knobs, each parsed as the type of its built-in default."""
        defaults = _DEFAULTS[self.command]
        return {name: type(defaults[name])(self.values[name]) for name in names}

    def count(self, name: str) -> int:
        """An integer knob that must be at least 1."""
        value = int(self.values[name])
        if value < 1:
            raise InvalidInputError(f"{_flag(name)} must be >= 1, got {value}")
        return value


def _fmt(v) -> str:
    """Shortest round-trip decimal for floats; plain str otherwise."""
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def _write_csv(path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _floats(text, expected: int | None = None) -> np.ndarray:
    if isinstance(text, (list, tuple)):
        vals = [float(v) for v in text]
    else:
        try:
            vals = [float(v) for v in str(text).split(",") if v != ""]
        except ValueError as exc:
            raise InvalidInputError(f"bad number list {text!r}: {exc}") from None
    if expected is not None and len(vals) != expected:
        raise InvalidInputError(f"expected {expected} values, got {len(vals)} in {text!r}")
    return np.array(vals, dtype=np.float64)


def _ints(text) -> list[int]:
    if isinstance(text, (list, tuple)):
        return [int(v) for v in text]
    try:
        return [int(v) for v in str(text).split(",") if v != ""]
    except ValueError as exc:
        raise InvalidInputError(f"bad integer list {text!r}: {exc}") from None


def _rect(text) -> data.Rect:
    x0, y0, x1, y1 = _floats(text, expected=4)
    return data.Rect(x0, y0, x1, y1)


def _layout(cfg: RunConfig) -> data.RoomLayout:
    return data.RoomLayout(
        noisy_region=_rect(cfg.noisy_region),
        hidden_region=_rect(cfg.hidden_region),
        noise_mean=float(cfg.noise_mean),
        noise_std=float(cfg.noise_std),
    )


def _chain_overrides(cfg: RunConfig) -> dict:
    """LangevinConfig fields for the chain flags the user set."""
    return {
        field: parse(cfg.values[key])
        for key, (field, parse) in _CHAIN_FLAGS.items()
        if cfg.values[key] is not None
    }


def cmd_gen(cfg: RunConfig) -> int:
    cfg.require("out")
    if cfg.command == "gen toy":
        params = cfg.typed(*_TOY_KEYS)
        dataset = data.gen_toy(**params)
        meta = {"command": "gen toy", **params}
    else:
        cfg.require("steps")
        layout = _layout(cfg)
        dataset = data.gen_room(
            n_steps=int(cfg.steps),
            layout=layout,
            seed=int(cfg.seed),
            walk_step=float(cfg.walk_step),
        )
        meta = {
            "command": "gen room",
            "steps": int(cfg.steps),
            "walk_step": float(cfg.walk_step),
            "noisy_region": str(cfg.noisy_region),
            "hidden_region": str(cfg.hidden_region),
            "noise_mean": float(cfg.noise_mean),
            "noise_std": float(cfg.noise_std),
            "seed": int(cfg.seed),
        }
    data.save_csv(dataset, cfg.out)
    _write_json(str(cfg.out) + ".meta.json", meta)
    print(f"wrote {len(dataset)} tuples to {cfg.out}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    cfg.require("data", "out")
    dataset = data.load_csv(cfg.data)
    if len(dataset) == 0:
        raise InvalidInputError("cannot train on an empty dataset")
    hidden = _ints(cfg.hidden)
    train_cfg = TrainConfig(**cfg.typed(*(f.name for f in fields(TrainConfig))))
    bandwidth = cfg.bandwidth
    if bandwidth != "median":
        bandwidth = float(bandwidth)

    d_total = sum(dataset.dims)
    net = MlpNetwork.initialize(
        [d_total] + hidden + [1],
        seed=langevin.derive_seed(train_cfg.seed, _INIT_STREAM_TAG),
    )
    model = CdrmModel(net=net, input_bounds=dataset.bounds, dims=dataset.dims)
    model, losses = train(model, dataset, train_cfg)
    stats = kde.fit(
        dataset.inputs,
        bandwidth_rule=bandwidth,
        seed=langevin.derive_seed(train_cfg.seed, _KDE_STREAM_TAG),
    )
    model = replace(
        model,
        kde_stats=stats,
        provenance=model_io.provenance_for(train_cfg),
    )
    model_io.save_model(cfg.out, model)
    loss_out = cfg.loss_out or str(cfg.out) + ".loss.csv"
    _write_csv(loss_out, ["epoch", "loss"], [[i, v] for i, v in enumerate(losses)])
    print(f"trained {train_cfg.epochs} epochs; model at {cfg.out}, loss trace at {loss_out}")
    return 0


def cmd_infer(cfg: RunConfig) -> int:
    cfg.require("model", "query")
    model = model_io.load_model(cfg.model)
    d_s, d_a, _ = model.dims
    query = _floats(cfg.query, expected=d_s + d_a)
    s, a = query[:d_s], query[d_s:]
    tol = None if cfg.dedup_tol is None else np.atleast_1d(float(cfg.dedup_tol))
    result = infer(
        model,
        s,
        a,
        cfg=replace(default_inference_config(model), **_chain_overrides(cfg)),
        alpha=float(cfg.alpha),
        dedup_tol=tol,
        seed=int(cfg.seed),
    )
    out = {
        "prediction": None if result.prediction is None else list(result.prediction),
        "eu": result.eu,
        "au": result.au,
        "valid_count": result.valid_count,
    }
    print(json.dumps(out, sort_keys=True))
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    cfg.require("model", "out")
    layout = _layout(cfg)
    model = model_io.load_model(cfg.model)
    if model.dims != data.ROOM_DIMS:
        raise InvalidInputError(
            f"eval expects a room model with dims {data.ROOM_DIMS}, got {model.dims}"
        )
    evaluation = metrics.evaluate_room(
        model,
        layout=layout,
        grid_resolution=int(cfg.grid),
        langevin_cfg=replace(default_inference_config(model), **_chain_overrides(cfg)),
        alpha=float(cfg.alpha),
        seed=int(cfg.seed),
    )
    row = evaluation.row()
    _write_csv(
        cfg.out,
        ["au_auroc", "au_auprc", "eu_auroc", "eu_auprc"],
        [[row["au_auroc"], row["au_auprc"], row["eu_auroc"], row["eu_auprc"]]],
    )
    probes_out = cfg.probes_out or str(cfg.out) + ".probes.csv"
    _write_csv(
        probes_out,
        ["x", "y", "label", "au_score", "eu_score", "valid_count"],
        [[r.x, r.y, r.label, r.au_score, r.eu_score, r.valid_count] for r in evaluation.probes],
    )
    print(json.dumps(row, sort_keys=True))
    return 0


def cmd_oracle(cfg: RunConfig) -> int:
    cfg.require("model", "data")
    n_probes = cfg.count("grid_probes")
    model = model_io.load_model(cfg.model)
    dataset = data.load_csv(cfg.data)
    d_s, d_a, _ = model.dims
    if (d_s, d_a) != (1, 0):
        raise InvalidInputError("oracle agreement suite expects a 1-D stateless dataset")
    grid = binref.build(dataset, int(cfg.bins))
    lo, hi = model.input_bounds[0]
    probes = np.linspace(lo, hi, n_probes)
    chain_cfg = replace(default_inference_config(model), **_chain_overrides(cfg))
    rows = []
    agreements = 0
    for i, x in enumerate(probes):
        result = infer(
            model,
            np.array([x]),
            np.empty(0),
            cfg=chain_cfg,
            alpha=float(cfg.alpha),
            seed=langevin.derive_seed(int(cfg.seed), i),
        )
        centers = binref.query(grid, np.array([x]), np.empty(0))
        cdrm_empty = result.valid_count == 0
        bin_empty = len(centers) == 0
        agree = cdrm_empty == bin_empty
        agreements += agree
        rows.append([float(x), int(not cdrm_empty), int(not bin_empty), int(agree)])
    rate = agreements / len(probes)
    if cfg.out:
        _write_csv(cfg.out, ["x", "cdrm_nonempty", "bin_nonempty", "agree"], rows)
    print(
        json.dumps(
            {"probes": len(probes), "agreements": agreements, "agreement_rate": rate},
            sort_keys=True,
        )
    )
    return 0


def cmd_bench(cfg: RunConfig) -> int:
    cfg.require("out")
    b_values = _ints(cfg.b_values)
    l_values = _ints(cfg.l_values)
    reps = cfg.count("reps")
    n_queries = cfg.count("bin_queries")
    rng = np.random.default_rng(int(cfg.seed))
    n = int(cfg.dataset_size)
    tuples = rng.uniform(0.0, 1.0, size=(n, 2))
    dataset = data.TransitionDataset(
        tuples, dims=(1, 0, 1), bounds=np.array([[0.0, 1.0], [0.0, 1.0]])
    )
    net = MlpNetwork.initialize([2, 32, 32, 1], seed=int(cfg.seed))
    model = CdrmModel(net=net, input_bounds=dataset.bounds, dims=dataset.dims)
    model = replace(model, kde_stats=kde.fit(dataset.inputs, seed=int(cfg.seed)))

    # The bin timing probes one heavily-observed input cell: with every
    # observation in a single state column, raising b splits the same
    # points across more next-state cells, so the per-query scan and
    # aggregation cost tracks the resolution instead of the (shrinking)
    # per-cell occupancy of a spread-out dataset.
    bin_tuples = np.column_stack([np.full(n, 0.5), rng.uniform(0.0, 1.0, n)])
    bin_dataset = data.TransitionDataset(
        bin_tuples, dims=(1, 0, 1), bounds=np.array([[0.0, 1.0], [0.0, 1.0]])
    )
    query = np.array([0.5])

    bin_ns = {}
    for b in b_values:
        grid = binref.build(bin_dataset, b)
        samples = []
        for _ in range(reps):
            t0 = time.perf_counter_ns()
            for _ in range(n_queries):
                binref.bin_infer(grid, query, np.empty(0))
            samples.append((time.perf_counter_ns() - t0) / n_queries)
        bin_ns[b] = statistics.median(samples)

    cdrm_ns = {}
    bench_cfg = replace(default_inference_config(model), n_samples=int(cfg.samples))
    for L in l_values:
        chain_cfg = replace(bench_cfg, steps=L)
        samples = []
        for rep in range(reps):
            t0 = time.perf_counter_ns()
            infer(model, np.array([0.5]), np.empty(0), cfg=chain_cfg, seed=rep)
            samples.append(time.perf_counter_ns() - t0)
        cdrm_ns[L] = statistics.median(samples)

    rows = []
    for b in b_values:
        for L in l_values:
            report = binref.memory_report(1, 0, b, d_next=1)
            rows.append(
                [
                    b,
                    1,
                    0,
                    L,
                    model.net.n_params,
                    cdrm_ns[L],
                    bin_ns[b],
                    report.joint_cells,
                    report.cubic_scaling_cells,
                ]
            )
    _write_csv(
        cfg.out,
        ["b", "d_s", "d_a", "L", "W", "cdrm_ns", "bin_ns", "joint_cells", "cubic_scaling_cells"],
        rows,
    )
    print(f"wrote {len(rows)} bench rows to {cfg.out}")
    return 0


def _add_common(sub: argparse.ArgumentParser, keys: dict) -> None:
    for key, default in keys.items():
        flag = _flag(key)
        if isinstance(default, bool):
            sub.add_argument(flag, dest=key, action="store_true", default=argparse.SUPPRESS)
        else:
            sub.add_argument(flag, dest=key, default=argparse.SUPPRESS)
    sub.add_argument("--config", dest="config", default=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdrm",
        description="Score-field transition model: train, infer, and compare against a bin grid.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("gen", help="generate a benchmark dataset")
    gen_sub = gen.add_subparsers(dest="generator", required=True)
    _add_common(gen_sub.add_parser("toy", help="sine-curve regression set"), _DEFAULTS["gen toy"])
    _add_common(gen_sub.add_parser("room", help="room-exploration walk"), _DEFAULTS["gen room"])

    for name, help_text in [
        ("train", "train a model on a dataset file"),
        ("infer", "predict next state and uncertainties for one query"),
        ("eval", "room-grid evaluation of AU/EU classifiers"),
        ("oracle", "agreement suite against the bin-grid reference"),
        ("bench", "wall-time benchmark of bin query vs sampled inference"),
    ]:
        _add_common(commands.add_parser(name, help=help_text), _DEFAULTS[name])
    return parser


_HANDLERS = {
    "gen toy": cmd_gen,
    "gen room": cmd_gen,
    "train": cmd_train,
    "infer": cmd_infer,
    "eval": cmd_eval,
    "oracle": cmd_oracle,
    "bench": cmd_bench,
}


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command
    if command == "gen":
        command = f"gen {args.generator}"
    cli_values = {
        k: v for k, v in vars(args).items() if k not in ("command", "generator", "config")
    }
    try:
        cfg = RunConfig.resolve(command, cli_values, getattr(args, "config", None))
        return _HANDLERS[command](cfg)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"usage: run 'cdrm {command.split()[0]} --help' for flags", file=sys.stderr)
        return 2
    except _RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError) as exc:
        # unparseable flag values (int("x"), float("1.2.3")) land here
        print(f"error: {exc}", file=sys.stderr)
        print(f"usage: run 'cdrm {command.split()[0]} --help' for flags", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return run(argv)
