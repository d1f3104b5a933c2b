"""Dataset container, benchmark generators, and CSV round-trip."""

import math
import tempfile
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrm.data import (
    TOY_GAP,
    Rect,
    RegionLabel,
    RoomLayout,
    TransitionDataset,
    gen_room,
    gen_toy,
    label_probe,
    load_csv,
    save_csv,
)
from cdrm.errors import DatasetFormatError, InvalidInputError, OutOfBoundsError


def small_dataset():
    return TransitionDataset(
        np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]),
        dims=(1, 1, 1),
        bounds=np.array([[0.0, 1.0]] * 3),
    )


class TestTransitionDataset:
    def test_block_views(self):
        ds = small_dataset()
        np.testing.assert_array_equal(ds.inputs, [[0.1, 0.2], [0.4, 0.5]])
        assert len(ds) == 2

    def test_zero_action_dims(self):
        ds = TransitionDataset(
            np.array([[0.1, 0.9]]), dims=(1, 0, 1), bounds=np.array([[0, 1], [0, 1]])
        )
        np.testing.assert_array_equal(ds.inputs, [[0.1]])

    def test_rejects_width_mismatch(self):
        with pytest.raises(InvalidInputError):
            TransitionDataset(np.zeros((2, 4)), dims=(1, 1, 1), bounds=np.zeros((3, 2)))

    @pytest.mark.parametrize("shape", [(3, 1, 2), (3, 2, 1), (4,)], ids=["3x1x2", "3x2x1", "4"])
    def test_rejects_tuple_arrays_that_are_not_2d(self, shape):
        # a (3, 1, 2) array was once reshaped to (3, 2) and accepted
        with pytest.raises(InvalidInputError, match=r"not \(n, 2\)"):
            TransitionDataset(np.full(shape, 0.5), dims=(1, 0, 1), bounds=[[0, 1], [0, 1]])

    @pytest.mark.parametrize("shape", [(0,), (0, 5), (2, 0, 3)], ids=["0", "0x5", "2x0x3"])
    def test_empty_tuples_of_any_shape_become_zero_rows(self, shape):
        ds = TransitionDataset(np.empty(shape), dims=(1, 0, 1), bounds=[[0, 1], [0, 1]])
        assert ds.tuples.shape == (0, 2)

    def test_rejects_bad_dims(self):
        with pytest.raises(InvalidInputError):
            TransitionDataset(np.zeros((1, 1)), dims=(0, 0, 1), bounds=np.array([[0.0, 1.0]]))

    @pytest.mark.parametrize(
        "dims",
        [(1.0, 0, 1), (True, 0, True), (1, 0, np.float64(1.0)), (1, 1), (1, 0, 1, 1)]
        + [None, True, 1.5, -1, float("nan"), object(), 2**70],
    )
    def test_rejects_dims_that_are_not_integers(self, dims):
        # a float once reached model.fit as a raw TypeError, a bool only after the
        # density fit; (1, 1) raised a raw IndexError and (1, 0, 1, 1) was accepted;
        # a dims that is not a list or tuple raised a raw TypeError from len()
        with pytest.raises(InvalidInputError, match="bad dims"):
            TransitionDataset(np.array([[0.1, 0.9]]), dims=dims, bounds=np.array([[0, 1], [0, 1]]))

    def test_accepts_numpy_integer_dims(self):
        dims = tuple(np.int64(d) for d in (1, 0, 1))
        ds = TransitionDataset(np.array([[0.1, 0.9]]), dims=dims, bounds=np.array([[0, 1], [0, 1]]))
        assert ds.dims == (1, 0, 1)
        assert all(type(d) is int for d in ds.dims)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(InvalidInputError):
            TransitionDataset(
                np.array([[0.5, 0.5]]),
                dims=(1, 0, 1),
                bounds=np.array([[1.0, 0.0], [0.0, 1.0]]),
            )

    def test_rejects_out_of_bounds_tuples(self):
        with pytest.raises(OutOfBoundsError):
            TransitionDataset(
                np.array([[2.0, 0.5]]),
                dims=(1, 0, 1),
                bounds=np.array([[0.0, 1.0], [0.0, 1.0]]),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_tuples(self, bad):
        with pytest.raises(InvalidInputError, match="finite"):
            TransitionDataset(
                np.array([[0.5, 0.5], [bad, 0.5]]),
                dims=(1, 0, 1),
                bounds=np.array([[0.0, 1.0], [0.0, 1.0]]),
            )

    @pytest.mark.parametrize(
        "bounds",
        [[[np.nan, 1.0], [0.0, 1.0]], [[0.0, 1.0], [-np.inf, np.inf]], [[0.0, np.inf], [0.0, 1.0]]],
        ids=["nan-low", "infinite-row", "inf-high"],
    )
    def test_rejects_non_finite_bounds(self, bounds):
        with pytest.raises(InvalidInputError, match="bounds must be finite"):
            TransitionDataset(np.array([[0.5, 0.5]]), dims=(1, 0, 1), bounds=np.array(bounds))

    def test_rejects_bounds_of_infinite_width(self):
        # both ends finite, but every chain draws uniformly over this box
        with pytest.raises(InvalidInputError, match="finite width"):
            TransitionDataset(
                np.array([[0.5, 0.5]]), dims=(1, 0, 1), bounds=np.array([[0, 1], [-1e308, 1e308]])
            )

    def test_equality(self):
        assert small_dataset() == small_dataset()
        other = small_dataset()
        other.tuples[0, 0] = 0.11
        assert small_dataset() != other
        listed = small_dataset()
        assert TransitionDataset(listed.tuples, [1, 1, 1], listed.bounds) == listed


class TestGenToy:
    def test_deterministic(self):
        assert gen_toy(seed=3) == gen_toy(seed=3)
        assert gen_toy(seed=3) != gen_toy(seed=4)

    def test_region_structure(self):
        ds = gen_toy(n_per_region=150, seed=1)
        x = ds.tuples[:, 0]
        assert len(ds) == 300
        # nothing inside the gap, half on each side
        assert np.sum((x >= TOY_GAP[0]) & (x < TOY_GAP[1])) == 0
        assert np.sum(x < TOY_GAP[0]) == 150
        assert np.sum(x >= TOY_GAP[1]) == 150

    def test_clean_band_is_exact_sine(self):
        ds = gen_toy(seed=0)
        x = ds.tuples[:, 0]
        y = ds.tuples[:, 1]
        clean = x < TOY_GAP[0]
        np.testing.assert_allclose(y[clean], np.sin(x[clean]), atol=1e-15)

    def test_noisy_band_spread(self):
        ds = gen_toy(n_per_region=2000, sigma_eta=0.3, seed=5)
        x = ds.tuples[:, 0]
        y = ds.tuples[:, 1]
        noisy = x >= TOY_GAP[1]
        resid = y[noisy] - np.sin(x[noisy])
        assert abs(resid.std() - 0.3) < 0.02
        assert abs(resid.mean()) < 0.02

    def test_zero_noise(self):
        ds = gen_toy(sigma_eta=0.0, seed=2)
        np.testing.assert_allclose(
            ds.tuples[:, 1], np.sin(ds.tuples[:, 0]), atol=1e-15
        )

    def test_multimodal_mirrors_everything(self):
        uni = gen_toy(n_per_region=50, seed=9)
        multi = gen_toy(n_per_region=50, multimodal=True, seed=9)
        assert len(multi) == 2 * len(uni)
        np.testing.assert_array_equal(multi.tuples[:100, 0], multi.tuples[100:, 0])
        np.testing.assert_allclose(
            multi.tuples[:100, 1], -multi.tuples[100:, 1], atol=1e-15
        )

    def test_bounds_cover_samples(self):
        ds = gen_toy(sigma_eta=1.5, seed=11)  # large noise forces bound growth
        y = ds.tuples[:, 1]
        assert ds.bounds[1, 0] <= y.min() and y.max() <= ds.bounds[1, 1]
        assert ds.bounds[1, 0] <= -1.5 and ds.bounds[1, 1] >= 1.5

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            gen_toy(n_per_region=0)
        with pytest.raises(InvalidInputError):
            gen_toy(sigma_eta=-0.1)

    @pytest.mark.parametrize("sigma_eta", [np.nan, np.inf, -np.inf])
    def test_non_finite_sigma_eta_rejected(self, sigma_eta):
        with pytest.raises(InvalidInputError, match="sigma_eta"):
            gen_toy(sigma_eta=sigma_eta)

    @pytest.mark.parametrize("multimodal", ["no", "True", 1, 0, None, [True]], ids=repr)
    def test_multimodal_takes_only_a_bool(self, multimodal):
        with pytest.raises(InvalidInputError, match="^multimodal must be a bool, got "):
            gen_toy(n_per_region=3, multimodal=multimodal)

    def test_multimodal_takes_a_numpy_bool(self):
        for flag in (False, True):
            assert gen_toy(n_per_region=3, multimodal=np.bool_(flag)) == gen_toy(
                n_per_region=3, multimodal=flag
            )


class TestRect:
    def test_contains_is_inclusive(self):
        r = Rect(0.0, 0.0, 1.0, 1.0)
        assert r.contains(0.0, 0.0) and r.contains(1.0, 1.0)
        assert not r.contains(1.0001, 0.5)

    def test_overlaps(self):
        a = Rect(0, 0, 1, 1)
        assert a.overlaps(Rect(0.5, 0.5, 2, 2))
        assert a.overlaps(Rect(1.0, 1.0, 2, 2))  # shared corner counts
        assert not a.overlaps(Rect(1.1, 1.1, 2, 2))


class TestRoomLayout:
    def test_default_regions(self):
        layout = RoomLayout()
        assert label_probe(layout, np.array([0.1, 0.1])) is RegionLabel.AU_POSITIVE
        assert label_probe(layout, np.array([0.85, 0.85])) is RegionLabel.EU_POSITIVE
        assert label_probe(layout, np.array([0.5, 0.5])) is RegionLabel.CLEAN

    def test_label_rejects_outside_room(self):
        with pytest.raises(OutOfBoundsError):
            label_probe(RoomLayout(), np.array([1.5, 0.5]))

    def test_rejects_overlapping_regions(self):
        with pytest.raises(InvalidInputError):
            RoomLayout(noisy_region=Rect(0, 0, 0.8, 0.8))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("noise_mean", np.nan),
            ("noise_mean", np.inf),
            ("noise_mean", -np.inf),
            ("noise_std", np.nan),
            ("noise_std", np.inf),
            ("noise_std", 0.0),
        ],
    )
    def test_rejects_non_finite_noise(self, field, value):
        with pytest.raises(InvalidInputError, match=field):
            RoomLayout(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("noisy_region", (0, 0, 0.3, 0.3)), ("hidden_region", None), ("noisy_region", "r")],
    )
    def test_rejects_a_region_that_is_not_a_rect(self, field, value):
        # each once raised a raw AttributeError from reading a corner
        with pytest.raises(InvalidInputError, match=f"^{field} must be a Rect"):
            RoomLayout(**{field: value})

    def test_rejects_region_outside_room(self):
        with pytest.raises(InvalidInputError):
            RoomLayout(hidden_region=Rect(0.9, 0.9, 1.2, 1.2))

    @pytest.mark.parametrize(
        "field, value", [("noisy_region", Rect(0, 0, 0.8, 0.8)), ("noise_std", 0.0)]
    )
    def test_fields_cannot_be_set_past_the_checks(self, field, value):
        layout = RoomLayout()
        with pytest.raises(FrozenInstanceError):
            setattr(layout, field, value)
        assert layout == RoomLayout()


class TestGenRoom:
    def test_shapes_and_determinism(self):
        ds = gen_room(500, seed=4)
        assert ds.dims == (2, 0, 1)
        assert len(ds) == 500
        assert ds == gen_room(500, seed=4)

    def test_no_sample_in_hidden_region(self):
        layout = RoomLayout()
        ds = gen_room(3000, layout=layout, seed=0)
        for x, y in ds.inputs:
            assert not layout.hidden_region.contains(x, y)

    def test_walk_steps_bounded(self):
        ds = gen_room(800, seed=1, walk_step=0.12)
        moves = np.diff(ds.inputs, axis=0)
        assert np.abs(moves).max() <= 0.12 + 1e-12

    def test_clean_region_reads_field(self):
        layout = RoomLayout()
        ds = gen_room(2000, layout=layout, seed=2)
        for (x, y), k in zip(ds.inputs, ds.tuples[:, 2]):
            if not layout.noisy_region.contains(x, y):
                assert k == pytest.approx(0.5 * (x + y), abs=1e-12)

    def test_noisy_region_statistics(self):
        layout = RoomLayout()
        ds = gen_room(6000, layout=layout, seed=3)
        ks = [
            k
            for (x, y), k in zip(ds.inputs, ds.tuples[:, 2])
            if layout.noisy_region.contains(x, y)
        ]
        ks = np.array(ks)
        assert len(ks) > 100
        assert abs(ks.mean() - layout.noise_mean) < 0.1
        assert abs(ks.std() - layout.noise_std) < 0.1

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            gen_room(0)

    @pytest.mark.parametrize("walk_step", [np.nan, np.inf, -0.1])
    def test_bad_walk_step_rejected(self, walk_step):
        with pytest.raises(InvalidInputError, match="walk_step"):
            gen_room(10, walk_step=walk_step)

    def test_zero_walk_step_stays_put(self):
        ds = gen_room(5, walk_step=0.0, seed=1)
        assert np.all(ds.inputs == ds.inputs[0])


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        ds = gen_toy(n_per_region=20, seed=6)
        path = tmp_path / "toy.csv"
        save_csv(ds, path)
        assert load_csv(path) == ds

    def test_room_round_trip(self, tmp_path):
        ds = gen_room(50, seed=7)
        path = tmp_path / "room.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert back == ds
        assert np.array_equal(back.bounds, ds.bounds)

    def test_missing_dims_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("0.1,0.2\n")
        with pytest.raises(DatasetFormatError) as e:
            load_csv(p)
        assert e.value.line == 1

    def test_missing_bounds_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("# dims=1,0,1\n0.1,0.2\n")
        with pytest.raises(DatasetFormatError) as e:
            load_csv(p)
        assert e.value.line == 2

    def test_dims_header_of_two_entries_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("# dims=1,0\n# bounds=0.0:1.0\n0.1\n")
        with pytest.raises(DatasetFormatError, match="dims header must have three entries") as e:
            load_csv(p)
        assert e.value.line == 1

    def test_bounds_header_of_wrong_length_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("# dims=1,0,1\n# bounds=0.0:1.0\n0.1,0.2\n")
        with pytest.raises(DatasetFormatError, match="expected 2 bounds entries, got 1") as e:
            load_csv(p)
        assert e.value.line == 2

    def test_bad_row_width_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("# dims=1,0,1\n# bounds=0.0:1.0,0.0:1.0\n0.1,0.2\n0.3\n")
        with pytest.raises(DatasetFormatError) as e:
            load_csv(p)
        assert e.value.line == 4

    def test_non_numeric_value_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("# dims=1,0,1\n# bounds=0.0:1.0,0.0:1.0\nzap,0.2\n")
        with pytest.raises(DatasetFormatError) as e:
            load_csv(p)
        assert e.value.line == 3

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_value_names_line(self, tmp_path, value):
        # NaN compares false against the bounds, so it must be caught here
        p = tmp_path / "bad.csv"
        p.write_text(f"# dims=1,0,1\n# bounds=0.0:1.0,0.0:1.0\n0.1,0.2\n0.3,{value}\n")
        with pytest.raises(DatasetFormatError) as e:
            load_csv(p)
        assert e.value.line == 4

    def test_non_finite_bounds_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("# dims=1,0,1\n# bounds=0.0:1.0,nan:1.0\n0.1,0.2\n")
        with pytest.raises(DatasetFormatError) as e:
            load_csv(p)
        assert e.value.line == 2

    def test_empty_payload_allowed(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("# dims=1,0,1\n# bounds=0.0:1.0,0.0:1.0\n")
        ds = load_csv(p)
        assert len(ds) == 0


finite = st.floats(allow_nan=False, allow_infinity=False)
SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310]


@st.composite
def csv_datasets(draw):
    """Datasets of finite floats: signed zeros, subnormals and values on the bounds."""
    dims = (draw(st.integers(1, 2)), draw(st.integers(0, 1)), draw(st.integers(1, 2)))
    d_total = sum(dims)
    # only boxes of finite width exist: wider ones are refused (see
    # test_rejects_bounds_of_infinite_width)
    pair = (
        st.lists(finite, min_size=2, max_size=2, unique=True)
        .map(sorted)
        .filter(lambda p: math.isfinite(p[1] - p[0]))
    )
    bounds = np.array([draw(pair) for _ in range(d_total)])
    n = draw(st.integers(0, 6))
    tuples = np.empty((n, d_total))
    for k, (low, high) in enumerate(bounds):
        inside = [v for v in SPECIALS if low <= v <= high]
        value = st.one_of(
            st.floats(low, high), st.sampled_from([low, high] + inside)
        )
        tuples[:, k] = draw(st.lists(value, min_size=n, max_size=n))
    return TransitionDataset(tuples, dims=dims, bounds=bounds)


@settings(max_examples=200, deadline=None)
@given(csv_datasets())
def test_csv_round_trip_is_exact(ds):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ds.csv"
        save_csv(ds, path)
        back = load_csv(path)
    assert back == ds
    # == treats -0.0 and 0.0 as equal; the bytes keep the sign
    assert back.tuples.tobytes() == ds.tuples.tobytes()
    assert back.bounds.tobytes() == ds.bounds.tobytes()
