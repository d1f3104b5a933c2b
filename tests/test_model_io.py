"""Model file round-trip, self-check battery, and provenance hashing."""

import json
from dataclasses import replace

import numpy as np
import pytest
from cdrm import kde
from cdrm.kde import KdeStats
from cdrm.errors import InvalidInputError, ModelFormatError, UnsupportedVersionError
from cdrm.model import LOGIT_CLIP, CdrmModel, TrainConfig
from cdrm.model_io import load_model, provenance_for, save_model
from cdrm.nnet import MlpNetwork
from hypothesis import given, settings
from hypothesis import strategies as st


def make_model(with_kde=True, seed=0):
    net = MlpNetwork.initialize([2, 6, 1], seed=seed)
    # weights with awkward decimals must survive the text format bit-exactly
    net.weights[0][0, 0] = 0.1 + 0.2
    stats = None
    if with_kde:
        stats = kde.fit(np.random.default_rng(3).uniform(-1, 1, size=(40, 1)), seed=4)
    return CdrmModel(
        net=net,
        input_bounds=np.tile([-1.0, 1.0], (2, 1)),
        dims=(1, 0, 1),
        kde_stats=stats,
        provenance=provenance_for(TrainConfig(epochs=7, seed=5)),
    )


class TestRoundTrip:
    def test_everything_restored_bit_exact(self, tmp_path):
        m = make_model()
        path = tmp_path / "model.json"
        save_model(path, m)
        out = load_model(path)
        assert out.dims == m.dims
        np.testing.assert_array_equal(out.input_bounds, m.input_bounds)
        assert out.net.layer_dims == m.net.layer_dims
        for wa, wb in zip(out.net.weights, m.net.weights):
            np.testing.assert_array_equal(wa, wb)
        for ba, bb in zip(out.net.biases, m.net.biases):
            np.testing.assert_array_equal(ba, bb)
        np.testing.assert_array_equal(
            out.kde_stats.reference_points, m.kde_stats.reference_points
        )
        assert out.kde_stats.bandwidth == m.kde_stats.bandwidth
        assert out.kde_stats.mu == m.kde_stats.mu
        assert out.kde_stats.sigma == m.kde_stats.sigma
        assert out.provenance == m.provenance

    def test_missing_kde_round_trips_as_none(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, make_model(with_kde=False))
        assert load_model(path).kde_stats is None

    def test_numpy_integer_dims_save_as_ints(self, tmp_path):
        # numpy dims were accepted, then refused by the JSON encoder on save
        m = replace(make_model(), dims=tuple(np.int64(d) for d in (1, 0, 1)))
        path = tmp_path / "model.json"
        save_model(path, m)
        dims = load_model(path).dims
        assert dims == (1, 0, 1) and all(type(d) is int for d in dims)

    def test_save_load_save_is_identical_text(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(a, make_model())
        save_model(b, load_model(a))
        assert a.read_text() == b.read_text()


def _floats(**kw):
    return st.floats(allow_nan=False, allow_infinity=False, **kw)


def _arrays(draw, shape, elements):
    size = int(np.prod(shape))
    return np.array(draw(st.lists(elements, min_size=size, max_size=size))).reshape(shape)


@st.composite
def models(draw):
    """Random small models: any layer widths, weights with awkward decimals,
    signed zeros and subnormals, bounds of any finite width, optional KDE."""
    dims = (draw(st.integers(1, 2)), draw(st.integers(0, 1)), draw(st.integers(1, 2)))
    layers = [sum(dims), *draw(st.lists(st.integers(1, 4), max_size=2)), 1]
    weight = _floats(min_value=-1e3, max_value=1e3)
    net = MlpNetwork(
        layers,
        [_arrays(draw, (o, i), weight) for i, o in zip(layers[:-1], layers[1:])],
        [_arrays(draw, (o,), weight) for o in layers[1:]],
    )
    lows = _arrays(draw, (sum(dims),), _floats(min_value=-1e6, max_value=1e6))
    widths = _arrays(draw, (sum(dims),), _floats(min_value=1e-9, max_value=1e6))
    stats = None
    if draw(st.booleans()):
        width = dims[0] + dims[1]  # rows within MAX_NORM of the origin, as KdeStats asks
        edge = kde.MAX_NORM / width
        stats = KdeStats(
            reference_points=_arrays(
                draw, (draw(st.integers(1, 4)), width), _floats(min_value=-edge, max_value=edge)
            ),
            bandwidth=draw(_floats(min_value=kde.MIN_BANDWIDTH)),
            mu=draw(_floats()),
            sigma=draw(_floats(min_value=1e-300)),
        )
    return CdrmModel(
        net=net,
        input_bounds=np.column_stack([lows, lows + widths]),
        dims=dims,
        kde_stats=stats,
        provenance=provenance_for(
            TrainConfig(epochs=draw(st.integers(0, 9)), seed=draw(st.integers(0, 2**64 - 1)))
        ),
    )


def _bits(arr):
    return np.asarray(arr, dtype=np.float64).tobytes()


@settings(max_examples=150, deadline=None)
@given(models())
def test_save_load_is_exact_for_random_models(tmp_path_factory, m):
    path = tmp_path_factory.mktemp("prop") / "model.json"
    save_model(path, m)
    out = load_model(path)
    assert (out.dims, out.provenance) == (m.dims, m.provenance)
    assert _bits(out.input_bounds) == _bits(m.input_bounds)
    assert out.net.layer_dims == m.net.layer_dims
    for a, b in zip(out.net.weights + out.net.biases, m.net.weights + m.net.biases):
        assert _bits(a) == _bits(b)
    if m.kde_stats is None:
        assert out.kde_stats is None
    else:
        assert _bits(out.kde_stats.reference_points) == _bits(m.kde_stats.reference_points)
        got = (out.kde_stats.bandwidth, out.kde_stats.mu, out.kde_stats.sigma)
        assert _bits(got) == _bits((m.kde_stats.bandwidth, m.kde_stats.mu, m.kde_stats.sigma))


def test_any_single_digit_change_loads_or_is_refused_as_a_format_error(tmp_path):
    # Every digit of a small saved model, each replaced by a different digit
    # (cycling through all nine alternatives over the positions): the file
    # either loads or is refused with one of the two format errors.
    net = MlpNetwork.initialize([2, 3, 1], seed=1)
    m = CdrmModel(
        net=net,
        input_bounds=np.tile([-1.0, 1.0], (2, 1)),
        dims=(1, 0, 1),
        kde_stats=kde.fit(np.random.default_rng(3).uniform(-1, 1, size=(4, 1)), seed=4),
        provenance=provenance_for(TrainConfig(epochs=2, seed=5)),
    )
    path, edited = tmp_path / "model.json", tmp_path / "edited.json"
    save_model(path, m)
    text = path.read_text()
    digits = [i for i, c in enumerate(text) if c.isdigit()]
    assert len(digits) > 1000
    for k, i in enumerate(digits):
        new = str((int(text[i]) + 1 + k % 9) % 10)
        edited.write_text(text[:i] + new + text[i + 1 :])
        try:
            load_model(edited)
        except (ModelFormatError, UnsupportedVersionError):
            pass


def test_a_clamp_digit_change_is_refused_unless_it_keeps_the_float(tmp_path):
    # Every digit of the stored clamp, replaced by each other digit: a text
    # that denotes another float is refused; one that rounds to the same
    # float (a last-digit change can) loads the same model.
    path, edited = tmp_path / "model.json", tmp_path / "edited.json"
    save_model(path, make_model())
    text, value = path.read_text(), repr(LOGIT_CLIP)
    start = text.index(f'"logit_clip": {value}') + len('"logit_clip": ')
    refused = 0
    for j, old in enumerate(value):
        for new in sorted(set("0123456789") - {old}) if old.isdigit() else []:
            edited.write_text(text[: start + j] + new + text[start + j + 1 :])
            if float(value[:j] + new + value[j + 1 :]) == LOGIT_CLIP:
                assert load_model(edited).net.layer_dims == [2, 6, 1]
                continue
            with pytest.raises(ModelFormatError):  # "03.8..." is not JSON
                load_model(edited)
            refused += 1
    assert refused == 17 * 9 - 1  # 3 -> 4 in the last digit is the same float


def test_float32_network_is_not_saved(tmp_path):
    m = make_model()
    path = tmp_path / "model.json"
    with pytest.raises(InvalidInputError, match="float64 network"):
        save_model(path, replace(m, net=m.net.astype(np.float32)))
    assert not path.exists()


class TestSelfCheck:
    def test_tampered_weight_detected(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, make_model())
        doc = json.loads(path.read_text())
        doc["weights"][0][0][0] += 1e-9
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="self-check"):
            load_model(path)

    def test_tampered_stored_score_detected(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, make_model())
        doc = json.loads(path.read_text())
        doc["self_check"]["scores"][0] += 1e-12
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="self-check"):
            load_model(path)

    @pytest.mark.parametrize("row, end", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_changed_input_bound_detected(self, tmp_path, row, end):
        # the probes are drawn from the bounds, so a changed bound no longer
        # rebuilds the stored battery
        path = tmp_path / "model.json"
        save_model(path, make_model())
        doc = json.loads(path.read_text())
        doc["input_bounds"][row][end] += 0.01
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="self-check probes"):
            load_model(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda probes: [p[:1] for p in probes],  # one column short
            lambda probes: probes[:-1],  # one probe short
            lambda probes: [probes[0][:1], *probes[1:]],  # ragged
            lambda probes: "probes",
        ],
        ids=["narrow", "short", "ragged", "not-a-list"],
    )
    def test_malformed_probes_refused(self, tmp_path, edit):
        path = tmp_path / "model.json"
        save_model(path, make_model())
        doc = json.loads(path.read_text())
        doc["self_check"]["probes"] = edit(doc["self_check"]["probes"])
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            load_model(path)


class TestFormatErrors:
    def test_not_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("not json {")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_missing_schema_version(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"weights": []}))
        with pytest.raises(ModelFormatError, match="schema_version"):
            load_model(path)

    def test_non_dict_document(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ModelFormatError):
            load_model(path)

    # the version is the integer 1: a bool, a float or text equal to 1 is not it
    @pytest.mark.parametrize("version", [99, True, 1.0, "1"], ids=repr)
    def test_future_schema_version_refused(self, tmp_path, version):
        path = tmp_path / "model.json"
        save_model(path, make_model())
        doc = json.loads(path.read_text())
        doc["schema_version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(UnsupportedVersionError):
            load_model(path)

    def test_missing_field_reported_as_malformed(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, make_model())
        doc = json.loads(path.read_text())
        del doc["weights"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="malformed"):
            load_model(path)


@pytest.mark.parametrize(
    "key, value",
    [
        ("layer_dims", [2, 6.0, 1]),
        ("layer_dims", [2, 6, True]),
        ("dims", [1, 0, 1.0]),
        ("dims", [1.0, 0, 1]),
        ("dims", [True, 0, 1]),
    ],
)
def test_non_integer_dims_rejected(tmp_path, key, value):
    # an integral float or a bool compares equal to the integer, but the
    # file must hold the integer itself
    path = tmp_path / "model.json"
    save_model(path, make_model())
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="malformed"):
        load_model(path)


@pytest.mark.parametrize("end, bad", [(0, float("nan")), (0, float("-inf")), (1, float("inf"))])
def test_non_finite_input_bound_rejected(tmp_path, end, bad):
    path = tmp_path / "model.json"
    save_model(path, make_model())
    doc = json.loads(path.read_text())
    doc["input_bounds"][0][end] = bad
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="input_bounds must be finite"):
        load_model(path)


def _edit_kde(path, field, value):
    doc = json.loads(path.read_text())
    doc["kde"][field] = value
    path.write_text(json.dumps(doc))


class TestKdeFields:
    """Hand-edited density fields are refused at load, not in `kde.base_eu`."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("bandwidth", 0.0),
            ("bandwidth", -0.5),
            ("bandwidth", float("nan")),
            ("bandwidth", float("inf")),
            ("bandwidth", 1e-200),
            ("sigma", 0.0),
            ("sigma", -1.0),
            ("sigma", float("nan")),
            ("sigma", float("inf")),
            ("mu", float("nan")),
            ("mu", float("-inf")),
        ],
    )
    def test_bad_scalar_rejected(self, tmp_path, field, value):
        path = tmp_path / "model.json"
        save_model(path, make_model())
        _edit_kde(path, field, value)
        with pytest.raises(ModelFormatError, match=field):
            load_model(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_reference_point_rejected(self, tmp_path, bad):
        path = tmp_path / "model.json"
        save_model(path, make_model())
        refs = make_model().kde_stats.reference_points.tolist()
        refs[3][0] = bad
        _edit_kde(path, "reference_points", refs)
        with pytest.raises(ModelFormatError, match="finite"):
            load_model(path)

    def test_reference_point_beyond_the_norm_limit_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, make_model())
        refs = make_model().kde_stats.reference_points.tolist()
        refs[3][0] = 1e200
        _edit_kde(path, "reference_points", refs)
        with pytest.raises(ModelFormatError, match="reference_points must lie within"):
            load_model(path)

    @pytest.mark.parametrize(
        "refs", [[[0.1, 0.2], [0.3, 0.4]], [0.1, 0.2], [], [[]]], ids=["wide", "flat", "empty", "zero-width"]
    )
    def test_reference_width_must_match_query_dims(self, tmp_path, refs):
        # the model has d_s + d_a = 1, so reference points are (n, 1)
        path = tmp_path / "model.json"
        save_model(path, make_model())
        _edit_kde(path, "reference_points", refs)
        with pytest.raises(ModelFormatError, match="reference_points must"):
            load_model(path)


class TestProvenance:
    def test_same_config_same_fingerprint(self):
        a = provenance_for(TrainConfig(epochs=3, seed=9))
        b = provenance_for(TrainConfig(epochs=3, seed=9))
        assert a == b

    def test_any_field_change_changes_hash(self):
        base = provenance_for(TrainConfig(epochs=3, seed=9))
        for other in (
            TrainConfig(epochs=4, seed=9),
            TrainConfig(epochs=3, seed=10),
            TrainConfig(epochs=3, seed=9, learning_rate=0.02),
            TrainConfig(epochs=3, seed=9, negative_batch=16),
        ):
            assert provenance_for(other)["config_sha256"] != base["config_sha256"]

    def test_numpy_scalar_fields_hash_as_the_python_scalars_they_hold(self):
        as_numpy = TrainConfig(epochs=np.int64(3), negative_batch=np.int64(8), seed=np.uint64(9))
        prov = provenance_for(as_numpy)
        assert prov == provenance_for(TrainConfig(epochs=3, negative_batch=8, seed=9))
        assert type(prov["epochs"]) is int
        lr = np.float32(0.01)
        assert provenance_for(TrainConfig(learning_rate=lr)) == provenance_for(
            TrainConfig(learning_rate=float(lr))
        )

    def test_fingerprint_survives_json(self):
        prov = provenance_for(TrainConfig(epochs=2, seed=1))
        assert prov == json.loads(json.dumps(prov))

    def test_fingerprint_pinned(self):
        # sha256 of the sorted-key JSON of every TrainConfig field, seed
        # expanded by derive_seed; a model file's hash must not drift
        prov = provenance_for(TrainConfig(epochs=3, seed=5))
        assert prov["config_sha256"] == (
            "e3e12d89d2b1cdc2a1f7020ecef6244058ed836687f72ad7f89444969700964f"
        )
