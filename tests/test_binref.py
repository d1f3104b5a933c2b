"""Dense bin-grid baseline: counting, queries, and the memory report."""

import warnings

import numpy as np
import pytest
from cdrm import kde
from cdrm.binref import bin_infer, build, memory_report, query
from cdrm.data import TransitionDataset
from cdrm.errors import InvalidInputError, OutOfBoundsError
from cdrm.inference import infer
from cdrm.langevin import LangevinConfig
from cdrm.model import CdrmModel
from cdrm.nnet import MlpNetwork
from hypothesis import given, settings
from hypothesis import strategies as st


def dataset_1d(tuples):
    tuples = np.asarray(tuples, dtype=np.float64)
    return TransitionDataset(tuples, (1, 0, 1), np.tile([0.0, 1.0], (2, 1)))


class TestBuild:
    def test_counts_match_histogramdd(self):
        # np.histogramdd bins half-open with a closed top edge, the same
        # convention; it is an independent implementation to count against
        rng = np.random.default_rng(1)
        tuples = rng.uniform(0.0, 1.0, size=(500, 2))
        tuples[:5] = [[0.0, 1.0]] * 5  # exercise both edges
        ds = dataset_1d(tuples)
        for b in (1, 3, 7):
            grid = build(ds, b)
            ref, _ = np.histogramdd(tuples, bins=(b, b), range=[(0, 1), (0, 1)])
            np.testing.assert_array_equal(grid.counts, ref.astype(np.int64))

    def test_total_count_is_dataset_size(self):
        rng = np.random.default_rng(2)
        ds = dataset_1d(rng.uniform(0, 1, size=(64, 2)))
        assert build(ds, 5).counts.sum() == 64

    def test_empty_dataset_builds_zero_grid(self):
        ds = dataset_1d(np.empty((0, 2)))
        grid = build(ds, 4)
        assert grid.counts.sum() == 0
        assert grid.counts.shape == (4, 4)

    @pytest.mark.parametrize("dataset", [None, np.zeros((3, 2)), "ds"])
    def test_rejects_what_is_not_a_dataset(self, dataset):
        # each once raised a raw AttributeError from reading its dims
        with pytest.raises(InvalidInputError, match="^dataset must be a TransitionDataset"):
            build(dataset, 4)

    def test_bad_b_rejected(self):
        ds = dataset_1d([[0.5, 0.5]])
        with pytest.raises(InvalidInputError):
            build(ds, 0)

    def test_flags_view(self):
        ds = dataset_1d([[0.1, 0.1], [0.9, 0.9]])
        grid = build(ds, 2)
        np.testing.assert_array_equal(grid.counts > 0, [[True, False], [False, True]])


class TestQuery:
    def test_centers_of_occupied_cells_in_index_order(self):
        # b=4 over [0,1]: cells at 0.125, 0.375, 0.625, 0.875
        ds = dataset_1d([[0.1, 0.7], [0.1, 0.1], [0.1, 0.65]])
        grid = build(ds, 4)
        centers = query(grid, [0.1], [])
        assert [c[0] for c in centers] == pytest.approx([0.125, 0.625])

    def test_unseen_input_gives_empty_list(self):
        ds = dataset_1d([[0.1, 0.1]])
        grid = build(ds, 4)
        assert query(grid, [0.9], []) == []

    def test_top_edge_query_falls_in_last_cell(self):
        ds = dataset_1d([[0.99, 0.5]])
        grid = build(ds, 4)
        assert len(query(grid, [1.0], [])) == 1

    def test_out_of_bounds_query_rejected(self):
        grid = build(dataset_1d([[0.5, 0.5]]), 4)
        with pytest.raises(OutOfBoundsError):
            query(grid, [1.5], [])

    def test_wrong_dims_rejected(self):
        grid = build(dataset_1d([[0.5, 0.5]]), 4)
        with pytest.raises(InvalidInputError):
            query(grid, [0.5, 0.5], [])

    def test_action_dims_route_into_cell(self):
        tuples = np.array([[0.1, 0.1, 0.9], [0.1, 0.9, 0.1]])
        ds = TransitionDataset(tuples, (1, 1, 1), np.tile([0.0, 1.0], (3, 1)))
        grid = build(ds, 2)
        lo = query(grid, [0.1], [0.1])
        hi = query(grid, [0.1], [0.9])
        assert [c[0] for c in lo] == pytest.approx([0.75])
        assert [c[0] for c in hi] == pytest.approx([0.25])


class TestBinInfer:
    def test_empty_cell_reports_full_epistemic(self):
        grid = build(dataset_1d([[0.1, 0.1]]), 4)
        res = bin_infer(grid, [0.9], [])
        assert res.prediction is None
        assert res.eu == 1.0
        assert res.au is None
        assert res.valid_count == 0

    def test_most_populated_cell_wins(self):
        ds = dataset_1d([[0.1, 0.7], [0.1, 0.72], [0.1, 0.1]])
        grid = build(ds, 4)
        res = bin_infer(grid, [0.1], [])
        assert res.prediction[0] == pytest.approx(0.625)
        assert res.eu == 0.0
        assert res.valid_count == 2

    def test_tie_goes_to_lowest_index_cell(self):
        ds = dataset_1d([[0.1, 0.7], [0.1, 0.1]])
        grid = build(ds, 4)
        assert bin_infer(grid, [0.1], []).prediction[0] == pytest.approx(0.125)

    def test_spread_is_root_total_variance_of_centers(self):
        ds = dataset_1d([[0.1, 0.1], [0.1, 0.9]])
        grid = build(ds, 4)
        res = bin_infer(grid, [0.1], [])
        centers = np.array([0.125, 0.875])
        assert res.au == pytest.approx(np.sqrt(centers.var()), rel=1e-12)

    def test_single_occupied_cell_zero_spread(self):
        grid = build(dataset_1d([[0.1, 0.5]]), 4)
        assert bin_infer(grid, [0.1], []).au == 0.0


class TestMemoryReport:
    def test_joint_and_cubic_forms_coincide_for_unit_dims(self):
        rep = memory_report(1, 1, 10, d_next=1)
        assert rep.joint_cells == 1000
        assert rep.cubic_scaling_cells == 1000

    def test_joint_counts_all_dimensions(self):
        rep = memory_report(2, 1, 4, d_next=2)
        assert rep.joint_cells == 4**5
        assert rep.cubic_scaling_cells == 2 * 2 * 1 * 64

    def test_next_state_width_is_required(self):
        # a default of d_s would count 3**4 cells for the room dims (2, 0, 1)
        assert memory_report(2, 0, 3, d_next=1).joint_cells == 3**3
        with pytest.raises(TypeError):
            memory_report(2, 0, 3)

    def test_saturation_clamps(self):
        # exact Python ints, far past int64
        rep = memory_report(5, 5, 100, d_next=5)
        assert rep.joint_cells == 100**15
        assert rep.cubic_scaling_cells == 5 * 5 * 5 * 100**3

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            memory_report(0, 1, 10, d_next=1)
        with pytest.raises(InvalidInputError):
            memory_report(1, -1, 10, d_next=1)
        with pytest.raises(InvalidInputError):
            memory_report(1, 1, 0, d_next=1)
        with pytest.raises(InvalidInputError):
            memory_report(1, 1, 10, d_next=0)


QUERY_KINDS = {
    "inside": None,
    "low": None,
    "high": None,
    "below": OutOfBoundsError,
    "above": OutOfBoundsError,
    "inf": InvalidInputError,
    "-inf": InvalidInputError,
    "nan": InvalidInputError,
    "short-s": InvalidInputError,
    "long-s": InvalidInputError,
    "wrong-a": InvalidInputError,
    "long-a": InvalidInputError,
}


@st.composite
def boxes_and_queries(draw):
    """A layout, a box, and one query of a QUERY_KINDS kind against it."""
    dims = (draw(st.integers(1, 2)), draw(st.integers(0, 1)), 1)
    n_in = dims[0] + dims[1]
    lows = [draw(st.floats(-100.0, 100.0)) for _ in range(sum(dims))]
    bounds = np.array([[lo, lo + draw(st.floats(1e-6, 100.0))] for lo in lows])
    point = [draw(st.floats(lo, hi)) for lo, hi in bounds[:n_in]]
    kind = draw(st.sampled_from(sorted(QUERY_KINDS)))
    k = draw(st.integers(0, n_in - 1))
    low, high = bounds[k]
    point[k] = {
        "low": low,
        "high": high,
        "below": np.nextafter(low, -np.inf),
        "above": np.nextafter(high, np.inf),
        "inf": np.inf,
        "-inf": -np.inf,
        "nan": np.nan,
    }.get(kind, point[k])
    s, a = point[: dims[0]], point[dims[0] :]
    s = {"short-s": s[:-1], "long-s": s + [0.0]}.get(kind, s)
    a = {"wrong-a": a[:-1] if a else [0.0], "long-a": a + [0.0]}.get(kind, a)
    return dims, bounds, kind, s, a


def _outcome(fn):
    try:
        fn()
    except (InvalidInputError, OutOfBoundsError) as exc:
        return type(exc)
    return None


@settings(max_examples=150, deadline=None)
@given(boxes_and_queries())
def test_infer_and_grid_admit_the_same_queries(case):
    # C6 compares the two on the same queries, so they must refuse the same ones
    dims, bounds, kind, s, a = case
    tuples = np.random.default_rng(0).uniform(bounds[:, 0], bounds[:, 1], size=(8, sum(dims)))
    ds = TransitionDataset(tuples, dims, bounds)
    net = MlpNetwork.initialize([sum(dims), 4, 1], seed=0)
    model = CdrmModel(net, ds.bounds, ds.dims, kde_stats=kde.fit(ds.inputs, seed=0))
    grid = build(ds, 3)
    chain = LangevinConfig(n_samples=4, steps=1, step_size=0.1, noise_scale=0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        from_model = _outcome(lambda: infer(model, s, a, cfg=chain))
        from_grid = _outcome(lambda: query(grid, s, a))
    assert from_model is from_grid is QUERY_KINDS[kind]
