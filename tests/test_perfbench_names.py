"""The library names the benchmark in `perfbench/` calls or traces exist,
and each of its workloads runs one op that passes its check.

The benchmark's own tests run outside the tier-1 suite, so without this a
renamed library function would break only `perfbench/run.py`.
"""

import importlib
import inspect
from pathlib import Path

import pytest
from cdrm import model, nnet

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_names_and_workloads_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in tracing.targets()
        if attr not in vars(owner)
    ]
    assert missing == []
    assert sorted(workloads.WORKLOADS) == ["infer_data", "infer_gap", "train_toy"]
    # the traced row counter of grad_params_batch reads len(workspace)
    assert len(nnet.Workspace([2, 3, 1], 5)) == 5


@pytest.mark.parametrize("name", ["train_toy", "infer_data", "infer_gap"])
def test_each_workload_runs_one_checked_op(monkeypatch, tmp_path, name):
    # set-up trains the infer model and reads what perfbench reads of the
    # library (next_state_dims, provenance_for, model_io), so a change that
    # drops one of them fails here and not only in the benchmark
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = importlib.import_module("workloads").WORKLOADS[name]
    state = workload.setup(1, 0, str(tmp_path))
    args = workload.prepare(state, 0)
    assert workload.check(state, args, workload.run(state, args), str(tmp_path))


def test_workloads_copy_the_fit_recipe(monkeypatch):
    # perfbench builds its models with `fit`'s init and density streams and
    # default hidden widths; a change to the recipe must move this copy too,
    # or the benchmark times a model the library no longer builds
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    hidden = inspect.signature(model.fit).parameters["hidden"].default
    assert (workloads._INIT_TAG, workloads._KDE_TAG) == (model._TAG_INIT, model._TAG_DENSITY)
    assert workloads.HIDDEN == list(hidden)
