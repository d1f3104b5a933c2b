"""The library names the benchmark in `perfbench/` calls or traces exist.

The benchmark's own tests run outside the tier-1 suite, so without this a
renamed library function would break only `perfbench/run.py --trace 1`.
"""

import importlib
from pathlib import Path

from cdrm import nnet

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
