"""Span tracing from outside the library, for the benchmark's traced run.

The library has no timers of its own, so the traced run swaps the module
attributes (and MlpNetwork methods) that the library calls through for
wrappers that time each call. A span's self time is its duration minus the
durations of the spans it encloses; the spans of one operation therefore sum
to the root span, and whatever the benchmark's own timer saw beyond the root
is reported as unattributed. Wrappers only record while `recording()` is
active, and `installed()` puts the original attributes back on exit, also
when the traced code raised.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    child_s: float = 0.0  # time covered by spans opened inside this one
    counters: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


def _rows(args, kwargs, result):
    """Batch rows passed to an MlpNetwork method (args[0] is the network)."""
    return {"rows": len(args[1])}


def _valid_counts(args, kwargs, result):
    """Above-threshold candidates offered to collect_valid and members kept."""
    trace = args[0]
    alpha = args[1] if len(args) > 1 else kwargs["alpha"]
    candidates = sum(int(np.count_nonzero(np.asarray(s) > alpha)) for s in trace.scores[1:])
    return {"candidates": candidates, "valid_count": len(result)}


def targets():
    """(owner, attribute, span name, counter) for every traced call site.

    The owner is the namespace the library looks the name up in at call
    time: `train` calls `adam_update` and `generate_negatives` through
    cdrm.model, the chain calls `sample_rng` through cdrm.langevin, and
    `infer` calls `collect_valid` and `kde.base_eu` through their modules.
    """
    from cdrm import data, inference, kde, langevin, model, model_io, nnet

    net = nnet.MlpNetwork
    return [
        (model, "train", "model.train", None),
        (model, "generate_negatives", "model.generate_negatives", None),
        (model, "adam_update", "nnet.adam_update", None),
        (model, "score_and_grad", "model.score_and_grad", None),
        (langevin, "run", "langevin.run", None),
        (langevin, "sample_rng", "langevin.sample_rng", None),
        (inference, "infer", "inference.infer", None),
        (inference, "collect_valid", "inference.collect_valid", _valid_counts),
        (kde, "base_eu", "kde.base_eu", None),
        (kde, "fit", "kde.fit", None),
        (data, "gen_toy", "data.gen_toy", None),
        (model_io, "save_model", "model_io.save_model", None),
        (model_io, "load_model", "model_io.load_model", None),
        (net, "forward_batch", "nnet.forward_batch", _rows),
        (net, "forward_and_grad_input_batch", "nnet.forward_and_grad_input_batch", _rows),
        (net, "grad_params_batch", "nnet.grad_params_batch", _rows),
    ]


class Tracer:
    """In-memory span aggregates, keyed by span name."""

    def __init__(self):
        self.spans: dict[str, SpanStats] = {}
        self._open: list[float] = []  # child time accumulated by each open span
        self._recording = False

    def take(self) -> dict[str, SpanStats]:
        """Return the aggregates recorded so far and start afresh."""
        spans, self.spans = self.spans, {}
        return spans

    @contextmanager
    def recording(self):
        self._recording = True
        try:
            yield self
        finally:
            self._recording = False

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            if not self._recording:
                return fn(*args, **kwargs)
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                child = self._open.pop()
                if self._open:
                    self._open[-1] += elapsed
                stats = self.spans.setdefault(name, SpanStats())
                stats.calls += 1
                stats.total_s += elapsed
                stats.child_s += child
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    stats.counters[key] = stats.counters.get(key, 0) + value
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap every target for its traced wrapper; restore on exit."""
        originals = []
        try:
            for owner, attr, name, counter in targets():
                original = vars(owner)[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, counter))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)
