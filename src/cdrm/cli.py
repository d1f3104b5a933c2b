"""Operator surface: generate, train, infer, evaluate, oracle-check, bench.

Each command is one entry of `_COMMANDS`: its handler, its help line and
its knobs. The parser, `resolve` and `run` all read that table, and a
handler calls the library's own recipes and record layouts.

All output artifacts are deterministic functions of inputs and seeds,
written by `data.write_csv` and `data.write_json`, and no artifact embeds
a timestamp. Exit codes: 0 success, 1 runtime failure, 2 usage or
validation problem.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import math
import statistics
import sys
import time
from dataclasses import astuple, fields, replace
from typing import Any, Callable, NamedTuple

import numpy as np

from . import binref, data, metrics, model_io, rules
from .errors import InvalidInputError, RuntimeFailure, UsageError
from .inference import DEFAULT_ALPHA, DEFAULT_CHAIN, infer
from .langevin import LangevinConfig
from .model import TrainConfig, fit

# Each bench timing sample repeats its block of calls until this much wall
# time has passed, so that one preemption or a short slow spell of the
# machine moves a sample by a small fraction only.
BENCH_MIN_SAMPLE_NS = 50_000_000

# Start of numpy's ValueError for an array whose byte size overflows, which
# it raises in place of MemoryError, before asking for any memory.
_ARRAY_TOO_BIG = "array is too big"

_REQUIRED = object()  # default of a knob the user must give


def _int_in(low: int, high: int) -> Callable[[Any], int]:
    """Parser of integers in [low, high], from integer text or an integral
    JSON number."""

    def parse(value) -> int:
        n = value
        if isinstance(value, str):
            with contextlib.suppress(ValueError):
                n = int(value)
        elif isinstance(value, float) and value.is_integer():
            n = int(value)
        if type(n) is not int or not low <= n <= high:  # a bool is refused
            raise ValueError(f"expected an integer >= {low} and <= {high}, got {value!r}")
        return n

    return parse


# A count sizes an array, so it must fit an array index. A count that only
# bounds a loop (`train --epochs`, `bench --reps`, `bench --bin-queries`)
# sizes nothing that would fail, so it is capped at _LOOP_MAX instead:
# a value such as 2**60 is refused rather than run for ever. A seed takes
# the seed rule of `rules`: one 64-bit word.
_INDEX_MAX = int(np.iinfo(np.intp).max)
_LOOP_MAX = 1_000_000
_count, _count_or_zero = _int_in(1, _INDEX_MAX), _int_in(0, _INDEX_MAX)
_loop_count, _loop_count_or_zero = _int_in(1, _LOOP_MAX), _int_in(0, _LOOP_MAX)
_seed = _int_in(0, 2**64 - 1)


def _real(value) -> float:
    """A finite float, from text or a JSON number."""
    try:
        x = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {value!r}")
    return x


def _of_type(kind: type, what: str) -> Callable[[Any], Any]:
    def parse(value):
        if not isinstance(value, kind):
            raise ValueError(f"expected {what}, got {value!r}")
        return value

    return parse


_path = _of_type(str, "a path")
_switch = _of_type(bool, "true or false")  # a flag takes no value and means true


def _list_of(parse: Callable[[Any], Any]) -> Callable[[Any], tuple]:
    """Parser of a JSON list or comma-separated text (empty entries skipped)."""

    def parse_list(value) -> tuple:
        items = value if isinstance(value, list) else [v for v in str(value).split(",") if v]
        return tuple(parse(v) for v in items)

    return parse_list


class _Region(NamedTuple):
    text: str  # as the user gave it; the gen room meta file records it
    rect: data.Rect


def _region(value) -> _Region:
    corners = _list_of(_real)(value)
    if len(corners) != 4:
        raise ValueError(f"expected four numbers x0,y0,x1,y1, got {value!r}")
    text = value if isinstance(value, str) else ",".join(map(str, value))
    return _Region(text, data.Rect(*corners))


def _bandwidth(value) -> str | float:
    """The median-distance rule, "median", or a finite number."""
    return value if value == "median" else _real(value)


def _default(fn, name: str):
    """Declared default of one parameter of fn."""
    return inspect.signature(fn).parameters[name].default


def _knobs_of(fn, **parses) -> dict[str, tuple]:
    """Knobs named after parameters of fn, each with fn's declared default."""
    return {name: (_default(fn, name), parse) for name, parse in parses.items()}


def _layout_knob(rect: data.Rect) -> tuple:
    return _Region(",".join(f"{v:g}" for v in astuple(rect)), rect), _region


_ROOM_LAYOUT = data.RoomLayout()

# Room-layout knobs, shared by `gen room` and `eval`.
_LAYOUT_KNOBS = {
    "noisy_region": _layout_knob(_ROOM_LAYOUT.noisy_region),
    "hidden_region": _layout_knob(_ROOM_LAYOUT.hidden_region),
    "noise_mean": (_ROOM_LAYOUT.noise_mean, _real),
    "noise_std": (_ROOM_LAYOUT.noise_std, _real),
}

# Inference chain knobs, one per LangevinConfig field, defaulting to
# inference.DEFAULT_CHAIN.
_CHAIN_KNOBS = {
    "samples": (DEFAULT_CHAIN.n_samples, _count),
    "steps": (DEFAULT_CHAIN.steps, _count),
    "step_size": (DEFAULT_CHAIN.step_size, _real),
    "noise": (DEFAULT_CHAIN.noise_scale, _real),
}

def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def resolve(command: str, flags: dict, config_path: str | None) -> dict:
    """Typed knob values for one command: the table's defaults, then
    config-file values, then flags, each given value through its knob's
    parse (a JSON null keeps the default). An unknown config key, a missing
    required knob or a value that does not parse raises InvalidInputError
    naming the flag, before any work starts."""
    knobs = _COMMANDS[command].knobs
    given = {}
    if config_path is not None:
        try:
            with open(config_path) as fh:
                file_values = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InvalidInputError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(file_values, dict):
            raise InvalidInputError("config file must hold a JSON object")
        unknown = set(file_values) - set(knobs)
        if unknown:
            raise InvalidInputError(f"unknown config keys for '{command}': {sorted(unknown)}")
        given = {k: v for k, v in file_values.items() if v is not None}
    given.update(flags)
    values = {}
    for key, (default, parse) in knobs.items():
        if key not in given and default is _REQUIRED:
            raise InvalidInputError(f"{_flag(key)} is required for '{command}'")
        try:
            values[key] = parse(given[key]) if key in given else default
        except ValueError as exc:
            raise InvalidInputError(f"{_flag(key)}: {exc}") from None
    return values


def _layout(cfg: dict) -> data.RoomLayout:
    return data.RoomLayout(
        noisy_region=cfg["noisy_region"].rect,
        hidden_region=cfg["hidden_region"].rect,
        noise_mean=cfg["noise_mean"],
        noise_std=cfg["noise_std"],
    )


def _chain_config(cfg: dict) -> LangevinConfig:
    """The inference chain the chain knobs give."""
    return LangevinConfig(
        n_samples=cfg["samples"],
        steps=cfg["steps"],
        step_size=cfg["step_size"],
        noise_scale=cfg["noise"],
    )


def _save_dataset(out: str, dataset: data.TransitionDataset, meta: dict) -> int:
    data.save_csv(dataset, out)
    data.write_json(out + ".meta.json", meta)
    print(f"wrote {len(dataset)} tuples to {out}")
    return 0


def cmd_gen_toy(cfg: dict) -> int:
    params = {k: v for k, v in cfg.items() if k != "out"}
    return _save_dataset(cfg["out"], data.gen_toy(**params), {"command": "gen toy", **params})


def cmd_gen_room(cfg: dict) -> int:
    dataset = data.gen_room(
        n_steps=cfg["steps"], layout=_layout(cfg), seed=cfg["seed"], walk_step=cfg["walk_step"]
    )
    meta = {k: v.text if isinstance(v, _Region) else v for k, v in cfg.items() if k != "out"}
    return _save_dataset(cfg["out"], dataset, {"command": "gen room", **meta})


def cmd_train(cfg: dict) -> int:
    dataset = data.load_csv(cfg["data"])
    train_cfg = TrainConfig(**{f.name: cfg[f.name] for f in fields(TrainConfig)})
    model, losses = fit(dataset, train_cfg, cfg["hidden"], cfg["bandwidth"])
    model = replace(model, provenance=model_io.provenance_for(train_cfg))
    model_io.save_model(cfg["out"], model)
    loss_out = cfg["loss_out"] or cfg["out"] + ".loss.csv"
    data.write_csv(loss_out, ["epoch,loss"], enumerate(losses))
    print(f"trained {train_cfg.epochs} epochs; model at {cfg['out']}, loss trace at {loss_out}")
    return 0


def cmd_infer(cfg: dict) -> int:
    model = model_io.load_model(cfg["model"])
    d_s, d_a, _ = model.dims
    query = np.array(cfg["query"], dtype=np.float64)
    if len(query) != d_s + d_a:
        raise InvalidInputError(f"--query needs {d_s + d_a} values, got {len(query)}")
    result = infer(
        model,
        query[:d_s],
        query[d_s:],
        cfg=_chain_config(cfg),
        alpha=cfg["alpha"],
        dedup_tol=cfg["dedup_tol"],
        seed=cfg["seed"],
    )
    out = {
        "prediction": None if result.prediction is None else list(result.prediction),
        "eu": result.eu,
        "au": result.au,
        "valid_count": result.valid_count,
    }
    print(json.dumps(out, sort_keys=True))
    return 0


def cmd_eval(cfg: dict) -> int:
    layout = _layout(cfg)
    model = model_io.load_model(cfg["model"])
    evaluation = metrics.evaluate_room(
        model,
        layout=layout,
        grid_resolution=cfg["grid"],
        langevin_cfg=_chain_config(cfg),
        alpha=cfg["alpha"],
        seed=cfg["seed"],
    )
    row = evaluation.row()
    data.write_csv(cfg["out"], [",".join(row)], [row.values()])
    probes_out = cfg["probes_out"] or cfg["out"] + ".probes.csv"
    columns = ",".join(f.name for f in fields(metrics.ProbeRecord))
    data.write_csv(probes_out, [columns], map(astuple, evaluation.probes))
    print(json.dumps(row, sort_keys=True))
    return 0


def cmd_oracle(cfg: dict) -> int:
    model = model_io.load_model(cfg["model"])
    dataset = data.load_csv(cfg["data"])
    d_s, d_a, _ = model.dims
    if (d_s, d_a) != (1, 0):
        raise InvalidInputError("oracle agreement suite expects a 1-D stateless dataset")
    grid = binref.build(dataset, cfg["bins"])
    lo, hi = model.input_bounds[0]
    probes = np.linspace(lo, hi, cfg["grid_probes"])
    chain_cfg = _chain_config(cfg)
    rows = []
    agreements = 0
    for i, x in enumerate(probes):
        result = infer(
            model,
            np.array([x]),
            np.empty(0),
            cfg=chain_cfg,
            alpha=cfg["alpha"],
            seed=rules.derive_seed(cfg["seed"], i),
        )
        centers = binref.query(grid, np.array([x]), np.empty(0))
        cdrm_empty = result.valid_count == 0
        bin_empty = len(centers) == 0
        agree = cdrm_empty == bin_empty
        agreements += agree
        rows.append([float(x), int(not cdrm_empty), int(not bin_empty), int(agree)])
    rate = agreements / len(probes)
    if cfg["out"]:
        data.write_csv(cfg["out"], ["x,cdrm_nonempty,bin_nonempty,agree"], rows)
    print(
        json.dumps(
            {"probes": len(probes), "agreements": agreements, "agreement_rate": rate},
            sort_keys=True,
        )
    )
    return 0


def _ns_per_call(block: int, fn, *args, **kwargs) -> float:
    """Wall ns per call of fn(*args, **kwargs), timed over whole blocks of
    `block` calls until at least BENCH_MIN_SAMPLE_NS have passed."""
    calls, start = 0, time.perf_counter_ns()
    while not calls or time.perf_counter_ns() - start < BENCH_MIN_SAMPLE_NS:
        for _ in range(block):
            fn(*args, **kwargs)
        calls += block
    return (time.perf_counter_ns() - start) / calls


_UNIT_SQUARE = ((0.0, 1.0), (0.0, 1.0))  # (state, next state) box of every bench dataset


def _full_column(b: int) -> data.TransitionDataset:
    """One tuple at the centre of each of the b next-state cells at state 0.5."""
    tuples = np.column_stack([np.full(b, 0.5), (np.arange(b) + 0.5) / b])
    return data.TransitionDataset(tuples, dims=(1, 0, 1), bounds=_UNIT_SQUARE)


def cmd_bench(cfg: dict) -> int:
    tuples = rules.sample_rng(cfg["seed"]).uniform(0.0, 1.0, size=(cfg["dataset_size"], 2))
    dataset = data.TransitionDataset(tuples, dims=(1, 0, 1), bounds=_UNIT_SQUARE)
    model, _ = fit(dataset, TrainConfig(epochs=0, seed=cfg["seed"]), hidden=(32, 32))

    # The bin timing probes one full input column: each grid holds one tuple
    # at the centre of every next-state cell of the state column at 0.5, so
    # a lookup visits exactly b occupied cells and its cost grows with b.
    query, empty = np.array([0.5]), np.empty(0)
    grids = {b: binref.build(_full_column(b), b) for b in cfg["b_values"]}
    bench_cfg = replace(DEFAULT_CHAIN, n_samples=cfg["samples"])
    chains = {L: replace(bench_cfg, steps=L) for L in cfg["l_values"]}

    # Each rep times every cell once, so a slow spell of the machine lands
    # on all cells of that rep rather than on one cell's samples.
    bin_ns = {b: [] for b in grids}
    cdrm_ns = {L: [] for L in chains}
    for rep in range(cfg["reps"]):
        for b, grid in grids.items():
            bin_ns[b].append(_ns_per_call(cfg["bin_queries"], binref.bin_infer, grid, query, empty))
        for L, chain_cfg in chains.items():
            cdrm_ns[L].append(_ns_per_call(1, infer, model, query, empty, cfg=chain_cfg, seed=rep))

    rows = []
    for b in cfg["b_values"]:
        report = binref.memory_report(1, 0, b, d_next=1)
        for L in cfg["l_values"]:
            timing = [statistics.median(cdrm_ns[L]), statistics.median(bin_ns[b])]
            sizes = [report.joint_cells, report.cubic_scaling_cells]
            rows.append([b, 1, 0, L, model.net.n_params, *timing, *sizes])
    columns = "b,d_s,d_a,L,W,cdrm_ns,bin_ns,joint_cells,cubic_scaling_cells"
    data.write_csv(cfg["out"], [columns], rows)
    print(f"wrote {len(rows)} bench rows to {cfg['out']}")
    return 0


class _Command(NamedTuple):
    handler: Callable[[dict], int]
    help: str
    knobs: dict[str, tuple]


# Command -> handler, help line and knobs; "gen toy" is leaf `toy` of group
# `gen`. A knob maps to (default or _REQUIRED, parse). A parse turns flag
# text or a config-file JSON value into the typed value the handler gets,
# and raises ValueError on a bad one.
_COMMANDS: dict[str, _Command] = {
    "gen toy": _Command(cmd_gen_toy, "sine-curve regression set", {
        "out": (_REQUIRED, _path),
        **_knobs_of(data.gen_toy, n_per_region=_count, sigma_eta=_real),
        **_knobs_of(data.gen_toy, multimodal=_switch, seed=_seed),
    }),
    "gen room": _Command(cmd_gen_room, "room-exploration walk", {
        "out": (_REQUIRED, _path),
        "steps": (_REQUIRED, _count),
        **_knobs_of(data.gen_room, walk_step=_real),
        **_LAYOUT_KNOBS,
        **_knobs_of(data.gen_room, seed=_seed),
    }),
    "train": _Command(cmd_train, "train a model on a dataset file", {
        "data": (_REQUIRED, _path),
        "out": (_REQUIRED, _path),
        "loss_out": (None, _path),
        **_knobs_of(TrainConfig, epochs=_loop_count_or_zero),
        **_knobs_of(fit, hidden=_list_of(_count), bandwidth=_bandwidth),
        **_knobs_of(TrainConfig, positive_batch=_count, negative_batch=_count),
        **_knobs_of(TrainConfig, langevin_steps=_count_or_zero, langevin_step_size=_real),
        **_knobs_of(TrainConfig, langevin_noise=_real, learning_rate=_real),
        **_knobs_of(TrainConfig, stability_eps=_real, seed=_seed),
    }),
    "infer": _Command(cmd_infer, "predict next state and uncertainties for one query", {
        "model": (_REQUIRED, _path),
        "query": (_REQUIRED, _list_of(_real)),
        "alpha": (DEFAULT_ALPHA, _real),
        **_CHAIN_KNOBS,
        "dedup_tol": (None, _real),
        "seed": (0, _seed),
    }),
    "eval": _Command(cmd_eval, "room-grid evaluation of AU/EU classifiers", {
        "model": (_REQUIRED, _path),
        "out": (_REQUIRED, _path),
        "probes_out": (None, _path),
        "grid": (_default(metrics.evaluate_room, "grid_resolution"), _count),
        "alpha": (DEFAULT_ALPHA, _real),
        **_CHAIN_KNOBS,
        **_LAYOUT_KNOBS,
        "seed": (0, _seed),
    }),
    "oracle": _Command(cmd_oracle, "agreement suite against the bin-grid reference", {
        "model": (_REQUIRED, _path),
        "data": (_REQUIRED, _path),
        "bins": (100, _count),
        "grid_probes": (50, _count),
        "alpha": (DEFAULT_ALPHA, _real),
        **_CHAIN_KNOBS,
        "out": (None, _path),
        "seed": (0, _seed),
    }),
    "bench": _Command(cmd_bench, "wall-time benchmark of bin query vs sampled inference", {
        "out": (_REQUIRED, _path),
        "b_values": ((16, 128, 1024), _list_of(_count)),
        "l_values": ((5, 20, 80), _list_of(_count)),
        "reps": (5, _loop_count),
        "bin_queries": (200, _loop_count),
        "samples": (128, _count),
        "dataset_size": (1000, _count),
        "seed": (0, _seed),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdrm",
        description="Score-field transition model: train, infer, and compare against a bin grid.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    gen = commands.add_parser("gen", help="generate a benchmark dataset")
    groups = {"": commands, "gen": gen.add_subparsers(dest="generator", required=True)}
    for name, command in _COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        sub = groups[group].add_parser(leaf, help=command.help)
        sub.set_defaults(command=name)  # the table name, which `run` dispatches on
        for key, (_, parse) in command.knobs.items():
            action = "store_true" if parse is _switch else "store"
            sub.add_argument(_flag(key), dest=key, action=action, default=argparse.SUPPRESS)
        sub.add_argument("--config", dest="config", default=argparse.SUPPRESS)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "generator", "config")}
    try:
        cfg = resolve(command, flags, getattr(args, "config", None))
        return _COMMANDS[command].handler(cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"usage: run 'cdrm {command.split()[0]} --help' for flags", file=sys.stderr)
        return 2
    except (RuntimeFailure, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        if not str(exc).startswith(_ARRAY_TOO_BIG):
            raise
        print(f"error: cannot allocate: {exc}", file=sys.stderr)
        return 1
