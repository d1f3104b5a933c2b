"""Model file round-trip, self-check battery, and provenance hashing."""

import json

import numpy as np
import pytest
from cdrm import kde
from cdrm.errors import ModelFormatError, UnsupportedVersionError
from cdrm.model import CdrmModel, TrainConfig
from cdrm.model_io import load_model, provenance_for, save_model
from cdrm.nnet import MlpNetwork


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
        assert out.logit_clip == m.logit_clip
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

    def test_save_load_save_is_identical_text(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(a, make_model())
        save_model(b, load_model(a))
        assert a.read_text() == b.read_text()


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

    def test_future_schema_version_refused(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, make_model())
        doc = json.loads(path.read_text())
        doc["schema_version"] = 99
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

    @pytest.mark.parametrize(
        "refs", [[[0.1, 0.2], [0.3, 0.4]], [0.1, 0.2], [], [[]]], ids=["wide", "flat", "empty", "zero-width"]
    )
    def test_reference_width_must_match_query_dims(self, tmp_path, refs):
        # the model has d_s + d_a = 1, so reference points are (n, 1)
        path = tmp_path / "model.json"
        save_model(path, make_model())
        _edit_kde(path, "reference_points", refs)
        with pytest.raises(ModelFormatError, match="reference points"):
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
