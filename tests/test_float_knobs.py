"""Every float knob of the library follows `langevin.check_real`.

A float knob is an int, a float or a numpy real; a bool is not one. The
value is kept as given, so a numpy float64 gives the same result as the
Python float, provenance included. Each entry of KNOBS calls the library
with one knob set to a given value and returns what that call made.
"""

from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from cdrm import data, model, model_io
from cdrm.errors import InvalidInputError
from cdrm.inference import DEFAULT_CHAIN, infer
from cdrm.langevin import LangevinConfig, check_real


@cache
def toy_model() -> model.CdrmModel:
    return model.fit(data.gen_toy(n_per_region=5, seed=1), model.TrainConfig(epochs=0))[0]


def provenance(**knob):
    return model_io.provenance_for(model.TrainConfig(epochs=1, **knob))


def query(alpha):
    chain = replace(DEFAULT_CHAIN, n_samples=8, steps=2)
    return repr(infer(toy_model(), np.array([0.5]), np.empty(0), chain, alpha=alpha))


def knob(call_id, name, valid, call):
    return pytest.param(name, valid, call, id=f"{call_id}.{name}")


# Each entry: the call's id, the name its refusal starts with, a valid value, the call.
KNOBS = [
    knob("LangevinConfig", "step_size", 0.1, lambda v: LangevinConfig(3, 2, v, 0.01)),
    knob("LangevinConfig", "noise_scale", 0.01, lambda v: LangevinConfig(3, 2, 0.1, v)),
    knob("TrainConfig", "learning_rate", 0.01, lambda v: provenance(learning_rate=v)),
    knob("TrainConfig", "stability_eps", 1e-6, lambda v: provenance(stability_eps=v)),
    knob(
        "TrainConfig.langevin_step_size",
        "negative chain: step_size",
        0.1,
        lambda v: provenance(langevin_step_size=v),
    ),
    knob(
        "TrainConfig.langevin_noise",
        "negative chain: noise_scale",
        0.01,
        lambda v: provenance(langevin_noise=v),
    ),
    knob("infer", "alpha", 0.5, query),
]

BAD = [Fraction(1, 100), Decimal("0.01"), "0.1", True, np.True_, None, 0.1j, [0.1]]


@pytest.mark.parametrize("name, valid, call", KNOBS)
@pytest.mark.parametrize("bad", BAD, ids=repr)
def test_a_float_knob_refuses_what_is_not_a_real_number(name, valid, call, bad):
    with pytest.raises(InvalidInputError, match=f"^{name} must be a real number, got "):
        call(bad)


@pytest.mark.parametrize("name, valid, call", KNOBS)
def test_a_numpy_float_gives_the_python_floats_result(name, valid, call):
    assert call(np.float64(valid)) == call(valid)
    call(np.float32(valid))  # any numpy real is accepted


def test_a_valid_knob_is_stored_as_given():
    for value in (1, np.float32(0.01), np.int64(1), np.float64(0.01)):
        cfg = model.TrainConfig(learning_rate=value)
        assert cfg.learning_rate is value
        model_io.provenance_for(cfg)  # a numpy scalar is recorded as its Python scalar


def test_check_real_passes_every_real_kind():
    for value in (0, 1.5, np.int8(3), np.uint64(2), np.float16(0.5), np.longdouble(0.25)):
        check_real("knob", value)
    with pytest.raises(InvalidInputError, match=r"^knob must be a real number, got False$"):
        check_real("knob", False)
