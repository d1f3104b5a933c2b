"""Tests of the benchmark's own code.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cdrm import data  # noqa: E402
from cdrm.inference import InferenceResult  # noqa: E402

COUNT_SUFFIXES = (".calls", ".rows")
COUNT_NAMES = ("inference.candidates", "inference.valid_count", "inference.dedup_yield")

# Small variants so the traced runs finish in seconds; the op code is the same.
SMALL = dict(setup_repeats=1, min_samples=2, digest_ops=2, trace_ops=3)
SMALL_TRAIN = replace(workloads.WORKLOADS["train_toy"], **SMALL)
SMALL_INFER = replace(workloads.WORKLOADS["infer_data"], train_epochs=2, **SMALL)


def _values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def _counts(values):
    return {
        k: v for k, v in values.items() if k.endswith(COUNT_SUFFIXES) or k in COUNT_NAMES
    }


def _bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_inputs_are_a_function_of_the_seed():
    for name in ("infer_data", "infer_gap"):
        w = workloads.WORKLOADS[name]
        xs = [w.query(5, i) for i in range(64)]
        assert xs == [w.query(5, i) for i in range(64)]
        assert xs != [w.query(6, i) for i in range(64)]
        assert len(set(xs)) == len(xs)
        for x in xs:
            assert w.low <= (abs(x) if w.both_signs else x) <= w.high
    data_xs = [workloads.WORKLOADS["infer_data"].query(5, i) for i in range(64)]
    assert min(data_xs) < 0 < max(data_xs)  # both data bands are drawn

    train = workloads.WORKLOADS["train_toy"]
    states = [
        workloads.TrainState(data.gen_toy(seed=s), s, 25) for s in (5, 5, 6)
    ]
    assert states[0].dataset == states[1].dataset != states[2].dataset
    (m_a, cfg_a), (m_b, cfg_b), (m_c, _) = (train.prepare(st, 3) for st in states)
    assert cfg_a == cfg_b
    assert all(np.array_equal(a, b) for a, b in zip(m_a.net.weights, m_b.net.weights))
    assert not np.array_equal(m_a.net.weights[0], m_c.net.weights[0])
    assert not np.array_equal(m_a.net.weights[0], train.prepare(states[0], 4)[0].net.weights[0])


@pytest.mark.parametrize("workload", [SMALL_TRAIN, SMALL_INFER], ids=lambda w: w.name)
def test_traced_counts_repeat_and_self_times_sum_to_the_op(workload, tmp_path):
    runs = [harness.run_traced(workload, 4, 0.05, str(tmp_path))[0] for _ in range(2)]
    first, second = (_values(r) for r in runs)
    assert _counts(first) == _counts(second)
    assert first["langevin.run.calls"] == 1.0
    assert first["langevin.sample_rng.calls"] > 0

    for values in (first, second):
        self_ms = sum(values[f"{n}.self_ms"] for n in harness.PARENT_SPANS)
        self_ms += sum(values[f"{n}.ms"] for n in harness.LEAF_SPANS)
        unattributed = values["trace.unattributed_ms"]
        assert self_ms + unattributed == pytest.approx(values["trace.op_ms"], rel=1e-9)
        assert 0.0 <= unattributed < 0.05 * values["trace.op_ms"]


def test_wrappers_are_gone_after_the_traced_run(tmp_path):
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in tracing.targets()]
    harness.run_traced(SMALL_TRAIN, 1, 0.05, str(tmp_path))
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert all(vars(o)[a] is not f for o, a, f in originals)
            raise RuntimeError("traced code failed")
    assert all(vars(o)[a] is f for o, a, f in originals)


def test_digest_repeats_for_a_seed(tmp_path):
    runs = [harness.run_untraced(SMALL_TRAIN, s, 0.05, str(tmp_path)) for s in (2, 2, 3)]
    digests = [extra["digest"] for _, extra in runs]
    assert digests[0] == digests[1] != digests[2]
    assert digests[0]["ops"] == 2
    assert all(result["failed"] == 0 and result["correct"] for result, _ in runs)


class _FlakyWorkload:
    """Stand-in whose every third op fails its check or raises."""

    name = "flaky"
    digest_ops = 0

    def prepare(self, state, index):
        return index

    def run(self, state, index):
        if index % 3 == 1:
            raise workloads.TrainingDivergenceError("diverged")
        return index

    def check(self, state, index, out, workdir):
        return index % 3 != 2

    def units(self, state):
        return 2


def test_failed_checks_count_without_aborting(tmp_path):
    loop = harness.OpLoop(_FlakyWorkload(), None, str(tmp_path))
    for i in range(6):
        loop.run_op(i)
    assert (loop.units, loop.failed) == (12, 8)


def test_infer_check_rejects_inconsistent_results():
    gap = workloads.WORKLOADS["infer_gap"]
    dat = workloads.WORKLOADS["infer_data"]
    state = workloads.InferState(None, 0, np.array([[-1.5, 1.5]]))
    empty = InferenceResult(None, 1.0, None, 0, np.zeros(50))
    full = InferenceResult(np.array([0.4]), 0.3, 0.1, 12, np.zeros(50))
    assert gap.check(state, (0.0, 0), empty, "")
    assert dat.check(state, (0.5, 0), full, "")
    assert not dat.check(state, (0.5, 0), empty, "")  # data query came back empty
    assert not gap.check(state, (0.0, 0), full, "")  # gap query came back populated
    assert not dat.check(state, (0.5, 0), replace(full, eu=1.0), "")
    assert not dat.check(state, (0.5, 0), replace(full, eu=1.2), "")
    assert not dat.check(state, (0.5, 0), replace(full, au=-0.1), "")
    assert not dat.check(state, (0.5, 0), replace(full, prediction=np.array([2.0])), "")
    assert not gap.check(state, (0.0, 0), replace(empty, eu=0.9), "")


def test_train_check_rejects_a_non_finite_loss(tmp_path):
    w = workloads.WORKLOADS["train_toy"]
    state = w.setup(0, 0, str(tmp_path))
    args = w.prepare(state, 0)
    trained, losses = w.run(state, args)
    assert w.check(state, args, (trained, losses), str(tmp_path))
    assert not w.check(state, args, (trained, [math.nan]), str(tmp_path))


def _run_cli(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_cli_prints_every_declared_metric(trace, key):
    spec = _bench_spec()
    proc = _run_cli(
        ROOT, "--workload", "train_toy", "--seed", "1", "--seconds", "0.2", "--trace", trace
    )
    assert proc.returncode == 0, proc.stderr
    record, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec[key]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert record["env"]["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert record["env"]["seed"] == 1


def test_cli_fails_without_the_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli(
        tmp_path, "--workload", "train_toy", "--seed", "1", "--seconds", "1", "--trace", "0"
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
