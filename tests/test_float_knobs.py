"""Every float knob of the library follows `rules.checked_real`.

A float knob is an int, a float or a numpy real; a bool is not one. It is
finite and lies in the knob's interval. The value is kept as given, so a
numpy float64 gives the same result as the Python float, provenance
included. Each entry of KNOBS calls the library with one knob set to a
given value and returns what that call made.
"""

import re
from dataclasses import asdict, replace
from decimal import Decimal
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from cdrm import data, kde, model, model_io
from cdrm.errors import InvalidInputError
from cdrm.inference import DEFAULT_CHAIN, infer
from cdrm.langevin import LangevinConfig
from cdrm.rules import checked_real


@cache
def toy_set() -> data.TransitionDataset:
    return data.gen_toy(n_per_region=5, seed=1)


@cache
def toy_model() -> model.CdrmModel:
    return model.fit(toy_set(), model.TrainConfig(epochs=0))[0]


def provenance(**knob):
    return model_io.provenance_for(model.TrainConfig(epochs=1, **knob))


def query(alpha):
    chain = replace(DEFAULT_CHAIN, n_samples=8, steps=2)
    return repr(infer(toy_model(), np.array([0.5]), np.empty(0), chain, alpha=alpha))


def room(**knob):
    return data.gen_room(5, layout=data.RoomLayout(**knob), seed=1)


def corner(region, name):
    rect = getattr(data.RoomLayout, region)
    return lambda v: room(**{region: replace(rect, **{name: v})})


def density(**knob):
    stats = kde.KdeStats(np.eye(2), **{"bandwidth": 0.5, "mu": 0.2, "sigma": 0.1, **knob})
    return kde.base_eu(stats, np.array([0.5, 0.5]))


def knob(call_id, name, valid, call, interval="(-inf, inf)"):
    return pytest.param(name, valid, call, interval, id=f"{call_id}.{name}")


# Each entry: the call's id, the name its refusal starts with, a valid value,
# the call, and the interval the knob lies in.
KNOBS = [
    knob("LangevinConfig", "step_size", 0.1, lambda v: LangevinConfig(3, 2, v, 0.01), "(0, inf)"),
    knob("LangevinConfig", "noise_scale", 0.01, lambda v: LangevinConfig(3, 2, 0.1, v), "[0, inf)"),
    knob("TrainConfig", "learning_rate", 0.01, lambda v: provenance(learning_rate=v), "(0, inf)"),
    knob("TrainConfig", "stability_eps", 1e-6, lambda v: provenance(stability_eps=v), "(0, 0.5)"),
    knob(
        "TrainConfig.langevin_step_size",
        "negative chain: step_size",
        0.1,
        lambda v: provenance(langevin_step_size=v),
        "(0, inf)",
    ),
    knob(
        "TrainConfig.langevin_noise",
        "negative chain: noise_scale",
        0.01,
        lambda v: provenance(langevin_noise=v),
        "[0, inf)",
    ),
    knob("infer", "alpha", 0.5, query, "[0, 1]"),
    knob("gen_toy", "sigma_eta", 0.2, lambda v: data.gen_toy(3, sigma_eta=v), "[0, inf)"),
    knob("gen_room", "walk_step", 0.12, lambda v: data.gen_room(5, walk_step=v), "[0, inf)"),
    knob("RoomLayout", "noise_mean", 1.0, lambda v: room(noise_mean=v)),
    knob("RoomLayout", "noise_std", 0.5, lambda v: room(noise_std=v), "(0, inf)"),
    *(
        knob("RoomLayout", f"{region}.{name}", valid, corner(region, name))
        for region in ("noisy_region", "hidden_region")
        for name, valid in asdict(getattr(data.RoomLayout, region)).items()
    ),
    knob("KdeStats", "bandwidth", 0.5, lambda v: density(bandwidth=v), "(0, inf)"),
    knob("KdeStats", "sigma", 0.1, lambda v: density(sigma=v), "(0, inf)"),
    knob("KdeStats", "mu", 0.2, lambda v: density(mu=v)),
    knob("kde.fit", "bandwidth", 0.5, lambda v: kde.fit(toy_set().inputs, v).mu, "(0, inf)"),
    knob(
        "model.fit",
        "bandwidth",
        0.5,
        lambda v: model.fit(toy_set(), model.TrainConfig(epochs=0), bandwidth=v)[0].kde_stats.mu,
        "(0, inf)",
    ),
]

BAD = [Fraction(1, 100), Decimal("0.01"), "0.1", True, np.True_, None, 0.1j, [0.1]]


@pytest.mark.parametrize("name, valid, call, interval", KNOBS)
@pytest.mark.parametrize("bad", BAD, ids=repr)
def test_a_float_knob_refuses_what_is_not_a_real_number(name, valid, call, interval, bad):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(name)} must be a real number, got "):
        call(bad)


def ends(interval: str) -> list[tuple[float, float, bool]]:
    """The finite ends of an interval such as "(0, 0.5]": each as (end, the
    direction past it, whether the end itself lies in the interval)."""
    low, high = (float(end) for end in interval[1:-1].split(", "))
    found = [(low, -np.inf, interval[0] == "["), (high, np.inf, interval[-1] == "]")]
    return [end for end in found if np.isfinite(end[0])]


@pytest.mark.parametrize("name, valid, call, interval", KNOBS)
def test_a_float_knob_refuses_what_lies_outside_its_interval(name, valid, call, interval):
    outside = [np.nan, np.inf, -np.inf, 2**1024, -(2**1024)]  # an int past the float range
    for end, past, closed in ends(interval):
        outside.append(np.nextafter(end, past))
        if not closed:
            outside.append(end)
    message = f"^{re.escape(name)} must be finite and in {re.escape(interval)}, got "
    for value in outside:
        with pytest.raises(InvalidInputError, match=message):
            call(value)


@pytest.mark.parametrize("name, valid, call, interval", KNOBS)
def test_a_float_knob_takes_each_closed_end(name, valid, call, interval):
    for end, _, closed in ends(interval):
        if closed:
            call(end)


@pytest.mark.parametrize("name, valid, call, interval", KNOBS)
def test_a_numpy_float_gives_the_python_floats_result(name, valid, call, interval):
    assert call(np.float64(valid)) == call(valid)
    call(np.float32(valid))  # any numpy real is accepted


def test_a_valid_knob_is_stored_as_given():
    for value in (1, np.float32(0.01), np.int64(1), np.float64(0.01)):
        cfg = model.TrainConfig(learning_rate=value)
        assert cfg.learning_rate is value
        model_io.provenance_for(cfg)  # a numpy scalar is recorded as its Python scalar


def test_check_real_passes_every_real_kind():
    for value in (0, 1.5, np.int8(3), np.uint64(2), np.float16(0.5), np.longdouble(0.25)):
        assert checked_real("knob", value) is value
    with pytest.raises(InvalidInputError, match=r"^knob must be a real number, got False$"):
        checked_real("knob", False)
