"""Hostile values at every library entry point end in a cdrm error.

One table names each entry point, the argument under test and a call that
is valid with that argument's valid value; one strategy draws hostile
values for it. Whatever the value, only a `UsageError` or a
`RuntimeFailure` may escape, and an `InvalidInputError` names the
argument. The CLI's twin is
`tests/test_cli.py::test_hostile_knob_values_end_in_an_exit_code`.
"""

import math
import re
from typing import Any, Callable, NamedTuple

import numpy as np
import pytest
from cdrm import binref, data, kde, langevin, metrics, model, nnet
from cdrm.errors import InvalidInputError, RuntimeFailure, UsageError
from cdrm.inference import infer
from cdrm.rules import is_integer
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

DIMS = (1, 0, 1)
BOUNDS = [[-1.0, 1.0], [-1.0, 1.0]]
DATASET = data.gen_toy(n_per_region=5, seed=1)
NET = nnet.MlpNetwork.initialize([2, 4, 1], seed=0)
MODEL = model.CdrmModel(NET, np.array(BOUNDS), DIMS, kde.fit(DATASET.inputs, seed=0))
STATS = MODEL.kde_stats
GRID = binref.build(DATASET, 4)
CHAIN = langevin.LangevinConfig(n_samples=4, steps=2, step_size=0.1, noise_scale=0.01)
TRAIN = model.TrainConfig(epochs=0)


dataset = data.TransitionDataset


def flat(batch, with_grad):
    """A score function that is 0 everywhere, with zero gradients."""
    return np.zeros(len(batch)), np.zeros_like(batch) if with_grad else None


class Entry(NamedTuple):
    name: str  # the entry point, as the test id shows it
    argument: str  # the argument the hostile value replaces
    valid: Any  # a value of it that the call admits
    call: Callable[[Any], Any]
    sizes_arrays: bool = False  # its integers size allocations (layer widths)


ENTRIES = [
    Entry("infer", "s", [0.25], lambda v: infer(MODEL, v, [], cfg=CHAIN)),
    Entry("infer", "a", [], lambda v: infer(MODEL, [0.25], v, cfg=CHAIN)),
    Entry("infer", "dedup_tol", 0.01, lambda v: infer(MODEL, [0.25], [], cfg=CHAIN, dedup_tol=v)),
    Entry("TransitionDataset", "tuples", [[0.5, 0.5]], lambda v: dataset(v, DIMS, BOUNDS)),
    Entry("TransitionDataset", "dims", DIMS, lambda v: dataset([], v, BOUNDS)),
    Entry("TransitionDataset", "bounds", BOUNDS, lambda v: dataset([], DIMS, v)),
    Entry("CdrmModel", "input_bounds", BOUNDS, lambda v: model.CdrmModel(NET, v, DIMS)),
    Entry("RoomLayout", "noisy_region", data.Rect(0, 0, 0.3, 0.3), lambda v: data.RoomLayout(v)),
    Entry(
        "RoomLayout",
        "hidden_region",
        data.Rect(0.7, 0.7, 1, 1),
        lambda v: data.RoomLayout(hidden_region=v),
    ),
    Entry("kde.fit", "dataset_inputs", [[0.0], [0.5], [1.0]], lambda v: kde.fit(v)),
    Entry("KdeStats", "reference_points", [[0.0]], lambda v: kde.KdeStats(v, 0.5, 0.2, 0.1)),
    Entry("kde.density", "query", [0.5], lambda v: kde.density(STATS, v)),
    Entry("kde.density_batch", "queries", [[0.5]], lambda v: kde.density_batch(STATS, v)),
    Entry("metrics.auroc", "scores", [0.9, 0.1], lambda v: metrics.auroc(v, [1, 0])),
    Entry("metrics.auroc", "labels", [1, 0], lambda v: metrics.auroc([0.9, 0.1], v)),
    Entry("metrics.auprc", "scores", [0.9, 0.1], lambda v: metrics.auprc(v, [1, 0])),
    Entry("langevin.run", "fixed", [0.5], lambda v: langevin.run(flat, CHAIN, BOUNDS, v, 0)),
    Entry("langevin.run", "bounds", BOUNDS, lambda v: langevin.run(flat, CHAIN, v, [0.5], 0)),
    Entry("binref.build", "dataset", DATASET, lambda v: binref.build(v, 4)),
    Entry("binref.query", "s", [0.25], lambda v: binref.query(GRID, v, [])),
    Entry("binref.query", "a", [], lambda v: binref.query(GRID, [0.25], v)),
    Entry("model.fit", "dataset", DATASET, lambda v: model.fit(v, TRAIN)),
    Entry("model.fit", "hidden", [4], lambda v: model.fit(DATASET, TRAIN, v), True),
    Entry("model.train", "dataset", DATASET, lambda v: model.train(MODEL, v, TRAIN)),
    Entry("MlpNetwork", "layer_dims", [2, 1], lambda v: nnet.MlpNetwork.initialize(v, 0), True),
]

IDS = [f"{entry.name}-{entry.argument}" for entry in ENTRIES]

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.binary(max_size=3),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(-(2**80), 2**80),
    st.floats(-2.0, 2.0),  # ordinary numbers, so that arrays of the right shape are drawn too
)
SHAPES = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3)
HOSTILE = st.one_of(
    SCALARS,
    st.recursive(
        SCALARS,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner),
        max_leaves=6,
    ),
    hnp.arrays("U2", SHAPES),
    hnp.arrays(object, SHAPES, elements=SCALARS),
    hnp.arrays(np.complex128, SHAPES),
)


def names(entry: Entry, exc: Exception) -> bool:
    return re.search(rf"\b{re.escape(entry.argument)}\b", str(exc)) is not None


@pytest.mark.parametrize("entry", ENTRIES, ids=IDS)
def test_the_valid_call_returns(entry):
    entry.call(entry.valid)


# The inputs the entry points once let through as a raw TypeError or ValueError
# (a dict, an object, text, an object array, a ragged list), ran as if given
# 0.5 (text) or cut to its real part (complex).
PROBES = [{"a": 1}, object(), "0.5", np.array(["a"]), np.array([0.5], dtype=object)]
PROBES += [[[0.5], [0.5, 0.5]], np.array([0.5 + 3j])]


@pytest.mark.parametrize("probe", PROBES, ids=repr)
@pytest.mark.parametrize("entry", ENTRIES, ids=IDS)
def test_each_probe_is_refused_naming_the_argument(entry, probe):
    with pytest.raises(InvalidInputError) as refused:
        entry.call(probe)
    assert names(entry, refused.value), str(refused.value)


@settings(max_examples=800, deadline=None)
@given(st.sampled_from(ENTRIES), HOSTILE)
def test_hostile_values_end_in_a_cdrm_error(entry, value):
    # A width sizes the network's arrays: a valid but huge one would only
    # exhaust memory, which is not misuse.
    widths = value if entry.sizes_arrays and isinstance(value, (list, tuple)) else []
    assume(not any(is_integer(w) and w > 64 for w in widths))
    try:
        entry.call(value)
    except InvalidInputError as exc:
        assert names(entry, exc), str(exc)
    except (UsageError, RuntimeFailure):
        pass
