"""Timed loops, metrics and the environment record for one benchmark run.

A run is a closed loop with one caller: set-up (repeated, median reported),
then ops back to back until the time is up and the workload's minimum
sample count is reached. Warm-up ops run inside each set-up and are never
timed. End-to-end times are scaled by the reference kernel's speed factor
(see reference.py). A traced run measures half its time untraced, then a
fixed count of traced ops, and reports per-layer figures per op, unscaled.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
from contextlib import nullcontext

import numpy as np

import reference
import workloads
from tracing import Tracer

# Span names whose self time differs from their duration (they enclose others).
PARENT_SPANS = (
    "model.train",
    "model.generate_negatives",
    "model.score_and_grad",
    "langevin.run",
    "inference.infer",
)
LEAF_SPANS = (
    "nnet.forward_batch",
    "nnet.forward_and_grad_input_batch",
    "nnet.grad_params_batch",
    "nnet.adam_update",
    "langevin.sample_rng",
    "inference.collect_valid",
    "kde.base_eu",
)
ROW_SPANS = ("nnet.forward_batch", "nnet.forward_and_grad_input_batch", "nnet.grad_params_batch")
SETUP_SPANS = ("data.gen_toy", "kde.fit", "model_io.save_model", "model_io.load_model")
REFERENCE_RUNS_PER_SETUP = 10


class OpLoop:
    """Runs ops of one workload in index order and keeps their outcomes."""

    def __init__(self, workload, state, workdir: str, kernel: reference.Reference | None = None):
        self.workload = workload
        self.state = state
        self.workdir = workdir
        self.kernel = kernel  # timed once after every op when given
        self.kernel_s: list[float] = []
        self.elapsed_s: list[float] = []  # time inside each op's library call
        self.units = 0
        self.failed = 0
        self.records: dict[int, dict] = {}

    def run_op(self, index: int, tracer: Tracer | None = None) -> None:
        """Prepare, time, check and record op `index`; spans only if traced."""
        w = self.workload
        args = w.prepare(self.state, index)
        out = None
        with tracer.recording() if tracer else nullcontext():
            t0 = time.perf_counter()
            try:
                out = w.run(self.state, args)
            except workloads.OP_ERRORS:
                pass
            self.elapsed_s.append(time.perf_counter() - t0)
        units = w.units(self.state)
        self.units += units
        if out is None or not w.check(self.state, args, out, self.workdir):
            self.failed += units
        elif index < w.digest_ops:
            self.records[index] = w.record(args, out)
        if self.kernel is not None:
            self.kernel_s += self.kernel.time()

    def run_for(self, seconds: float, min_ops: int) -> None:
        """Run ops from index 0 until `seconds` pass and `min_ops` ops are done."""
        deadline = time.perf_counter() + seconds
        index = 0
        while index < min_ops or time.perf_counter() < deadline:
            self.run_op(index)
            index += 1

    def digest(self) -> dict:
        done = [self.records[i] for i in range(self.workload.digest_ops) if i in self.records]
        return {"sha256": workloads.record_digest(done), "ops": len(done)}


def latency_ms(per_unit_s) -> tuple[float, float]:
    """Median and p90 of per-unit op times, in ms."""
    ms = np.asarray(per_unit_s) * 1e3
    return float(np.percentile(ms, 50)), float(np.percentile(ms, 90))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(seed: int, workload) -> dict:
    """Machine, library and thread settings a result depends on."""
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if "THREAD" in k},
        "seed": seed,
        "warmup_ops_per_setup": workload.warmup_ops,
        "setup_repeats": workload.setup_repeats,
    }


def run_untraced(workload, seed: int, seconds: float, workdir: str) -> tuple[dict, dict]:
    # Each set-up is scaled by the kernel runs just before and after it.
    kernel = reference.Reference()
    blocks = [kernel.time(REFERENCE_RUNS_PER_SETUP)]
    setup_s, setup_scaled = [], []
    for repetition in range(workload.setup_repeats):
        t0 = time.perf_counter()
        state = workload.setup(seed, repetition, workdir)
        setup_s.append(time.perf_counter() - t0)
        blocks.append(kernel.time(REFERENCE_RUNS_PER_SETUP))
        setup_scaled.append(setup_s[-1] * reference.scale(blocks[-2] + blocks[-1]))

    loop = OpLoop(workload, state, workdir, kernel)
    loop.run_for(seconds, max(workload.min_samples, workload.digest_ops))
    units = workload.units(state)
    raw_s = np.asarray(loop.elapsed_s)
    scaled_s = raw_s * np.asarray(reference.local_scales(loop.kernel_s))
    raw_p50, raw_p90 = latency_ms(raw_s / units)
    p50, p90 = latency_ms(scaled_s / units)
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "ops_per_s": (loop.units / float(scaled_s.sum()), "1/s"),
        "op_ms_p50": (p50, "ms"),
        "op_ms_p90": (p90, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {
        "latency_samples": len(raw_s),
        "setup_s_all": setup_s,
        "raw": {
            "setup_s": statistics.median(setup_s),
            "ops_per_s": loop.units / float(raw_s.sum()),
            "op_ms_p50": raw_p50,
            "op_ms_p90": raw_p90,
        },
        "reference": {
            "setup_median_ms": statistics.median(sum(blocks, [])) * 1e3,
            "op_median_ms": statistics.median(loop.kernel_s) * 1e3,
        },
        "digest": loop.digest(),
    }
    return _result(loop, metrics), extra


def run_traced(workload, seed: int, seconds: float, workdir: str) -> tuple[dict, dict]:
    tracer = Tracer()
    with tracer.installed(), tracer.recording():
        state = workload.setup(seed, 0, workdir)
    setup_spans = tracer.take()

    loop = OpLoop(workload, state, workdir, reference.Reference())
    loop.run_for(seconds / 2, workload.digest_ops)
    split, untraced_units = len(loop.elapsed_s), loop.units
    with tracer.installed():
        for k in range(workload.trace_ops):
            loop.run_op(workloads.TRACE_BASE + k, tracer)
    spans = tracer.take()
    op_wall_s = sum(loop.elapsed_s[split:])
    op_units = loop.units - untraced_units
    # Throughputs for the overhead ratio use kernel-scaled times, so a
    # change in machine speed between the two halves does not show as cost.
    scaled_s = np.asarray(loop.elapsed_s) * np.asarray(reference.local_scales(loop.kernel_s))
    untraced = untraced_units / scaled_s[:split].sum()
    traced = op_units / scaled_s[split:].sum()

    metrics = layer_metrics(spans, op_wall_s, op_units)
    for name in SETUP_SPANS:
        stats = setup_spans.get(name)
        metrics[f"{name}.ms"] = (stats.total_s * 1e3 if stats else 0.0, "ms")
    metrics["trace.overhead_ratio"] = (float(traced / untraced), "ratio")
    extra = {"traced_ops": workload.trace_ops, "traced_units": op_units, "digest": loop.digest()}
    return _result(loop, metrics), extra


def layer_metrics(spans: dict, op_wall_s: float, units: int) -> dict:
    """Per-op figures from span aggregates; `units` ops took `op_wall_s`."""
    per_op_ms = 1e3 / units
    out = {}
    for name in PARENT_SPANS + LEAF_SPANS:
        stats = spans.get(name)
        total = stats.total_s if stats else 0.0
        own = stats.self_s if stats else 0.0
        out[f"{name}.ms"] = (total * per_op_ms, "ms")
        if name in PARENT_SPANS:
            out[f"{name}.self_ms"] = (own * per_op_ms, "ms")
        out[f"{name}.calls"] = ((stats.calls if stats else 0) / units, "count")
        if name in ROW_SPANS:
            out[f"{name}.rows"] = ((stats.counters["rows"] if stats else 0) / units, "count")
    dedup = spans.get("inference.collect_valid")
    candidates = dedup.counters["candidates"] if dedup else 0
    valid = dedup.counters["valid_count"] if dedup else 0
    out["inference.candidates"] = (candidates / units, "count")
    out["inference.valid_count"] = (valid / units, "count")
    out["inference.dedup_yield"] = (valid / candidates if candidates else 0.0, "ratio")
    out["inference.collect_valid.share"] = (
        (dedup.total_s if dedup else 0.0) / op_wall_s,
        "ratio",
    )
    out["trace.op_ms"] = (op_wall_s * per_op_ms, "ms")
    self_sum_s = sum(stats.self_s for stats in spans.values())
    out["trace.unattributed_ms"] = ((op_wall_s - self_sum_s) * per_op_ms, "ms")
    return out


def _result(loop: OpLoop, metrics: dict) -> dict:
    return {
        "correct": loop.failed == 0,
        "attempted": loop.units,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
