"""Every count parameter of the library follows `rules.checked_count`.

A count is an integer at or above its floor; a bool is not one. A numpy
integer is accepted and held as a Python int, so it gives the same result,
down to the repr, as the Python int. Each entry of COUNTS calls the library
with one count set to a given value and returns what that call made.
"""

from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from cdrm import binref, data, metrics, model
from cdrm.errors import InvalidInputError
from cdrm.inference import DEFAULT_CHAIN
from cdrm.langevin import LangevinConfig
from cdrm.nnet import AdamState, MlpNetwork, adam_update
from cdrm.rules import checked_count

TOY = data.gen_toy(n_per_region=5, seed=1)
NO_EPOCHS = model.TrainConfig(epochs=0)


@cache
def room_model() -> model.CdrmModel:
    return model.fit(data.gen_room(40, seed=2), NO_EPOCHS, hidden=(4,))[0]


def adam_step(step_index):
    net = MlpNetwork.initialize([2, 3, 1], seed=0)
    adam_update(net, np.ones(net.n_params), AdamState.zeros_for(net), step_index, 0.01)
    return net.params.tobytes()


def evaluation(grid_resolution):
    chain = replace(DEFAULT_CHAIN, n_samples=4, steps=2)
    return metrics.evaluate_room(room_model(), grid_resolution=grid_resolution, langevin_cfg=chain)


def fit(hidden):
    return model.fit(TOY, NO_EPOCHS, hidden)[0]


def network(net: MlpNetwork):
    return net.layer_dims, net.params.tobytes()


def grid(b):
    built = binref.build(TOY, b)
    return built.b, built.counts.tobytes()


def count(call_id, name, low, valid, call):
    return pytest.param(name, low, valid, call, id=f"{call_id}.{name}")


# Each entry: the call's id, the count's name, its floor, a valid value, the call.
COUNTS = [
    count("LangevinConfig", "n_samples", 1, 3, lambda v: LangevinConfig(v, 2, 0.1, 0.01)),
    count("LangevinConfig", "steps", 0, 2, lambda v: LangevinConfig(3, v, 0.1, 0.01)),
    count("TrainConfig", "epochs", 0, 2, lambda v: model.TrainConfig(epochs=v)),
    count("TrainConfig", "positive_batch", 1, 8, lambda v: model.TrainConfig(positive_batch=v)),
    count("gen_toy", "n_per_region", 1, 3, lambda v: data.gen_toy(n_per_region=v, seed=1)),
    count("gen_room", "n_steps", 1, 5, lambda v: data.gen_room(v, seed=2)),
    count("build", "b", 1, 4, grid),
    count("memory_report", "d_s", 1, 2, lambda v: binref.memory_report(v, 1, 4, 1)),
    count("memory_report", "d_a", 0, 1, lambda v: binref.memory_report(2, v, 4, 1)),
    count("memory_report", "b", 1, 4, lambda v: binref.memory_report(2, 1, v, 1)),
    count("memory_report", "d_next", 1, 1, lambda v: binref.memory_report(2, 1, 4, v)),
    count("probe_grid", "grid_resolution", 1, 3, lambda v: metrics.probe_grid(v).tobytes()),
    count("evaluate_room", "grid_resolution", 1, 2, evaluation),
    count("initialize", "layer_dims", 1, 3, lambda v: network(MlpNetwork.initialize([2, v, 1], 0))),
    count("fit", "hidden", 1, 3, lambda v: network(fit(hidden=(v,)).net)),
    count("adam_update", "step_index", 1, 2, adam_step),
]


@pytest.mark.parametrize("name, low, valid, call", COUNTS)
@pytest.mark.parametrize("bad", [2.5, True, "3", None, "low - 1"])
def test_a_count_refuses_what_is_not_an_integer_at_its_floor(name, low, valid, call, bad):
    value = low - 1 if bad == "low - 1" else bad
    with pytest.raises(InvalidInputError, match=f"^{name} must be an integer >= {low}, got "):
        call(value)


@pytest.mark.parametrize("name, low, valid, call", COUNTS)
def test_a_numpy_count_gives_the_python_ints_result(name, low, valid, call):
    assert repr(call(np.int64(valid))) == repr(call(valid))


def test_checked_count_returns_a_python_int():
    for value in (7, np.int64(7), np.uint64(7), np.int8(7)):
        assert type(checked_count("n", value)) is int and checked_count("n", value) == 7
    assert checked_count("n", 0, low=0) == 0
    message = r"^n must be an integer >= 1, got np.float64\(7.0\)$"
    with pytest.raises(InvalidInputError, match=message):
        checked_count("n", np.float64(7.0))
