"""Density estimates against direct summation; rarity-score behavior."""

import numpy as np
import pytest

from cdrm.errors import DegenerateDatasetError, InvalidInputError
from cdrm import kde, model, nnet


def direct_density(points, h, q):
    # reference implementation: plain loop over kernel terms
    total = 0.0
    for p in points:
        d2 = float(np.sum((q - p) ** 2))
        total += np.exp(-d2 / (2.0 * h * h))
    return total / len(points)


def test_density_matches_direct_sum():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(200, 3))
    stats = kde.fit(pts, bandwidth_rule=0.7)
    for q in rng.normal(size=(20, 3)):
        assert abs(kde.density(stats, q) - direct_density(pts, 0.7, q)) < 1e-12


def test_density_batch_matches_scalar():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(50, 2))
    stats = kde.fit(pts, bandwidth_rule=0.5)
    qs = rng.normal(size=(10, 2))
    batch = kde.density_batch(stats, qs)
    for i, q in enumerate(qs):
        assert batch[i] == pytest.approx(kde.density(stats, q), abs=1e-14)


def test_density_at_reference_point_is_high():
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 10.0]])
    stats = kde.fit(pts, bandwidth_rule=0.5)
    assert kde.density(stats, np.array([0.0, 0.0])) > kde.density(
        stats, np.array([5.0, 5.0])
    )


def test_median_heuristic_on_known_pairs():
    # three collinear points: pairwise distances 1, 1, 2 -> median 1
    pts = np.array([[0.0], [1.0], [2.0]])
    assert kde.median_heuristic_bandwidth(pts) == pytest.approx(1.0 / np.sqrt(2.0))


def test_median_heuristic_subsamples_large_sets():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(kde.BANDWIDTH_SAMPLE + 500, 2))
    h1 = kde.median_heuristic_bandwidth(pts, seed=0)
    h2 = kde.median_heuristic_bandwidth(pts, seed=0)
    assert h1 == h2
    assert h1 > 0


def test_coincident_points_raise():
    pts = np.zeros((10, 2))
    with pytest.raises(DegenerateDatasetError):
        kde.median_heuristic_bandwidth(pts)
    with pytest.raises(DegenerateDatasetError):
        kde.fit(pts)


def test_fit_validates_input():
    with pytest.raises(InvalidInputError):
        kde.fit(np.zeros((1, 2)))
    with pytest.raises(InvalidInputError):
        kde.fit(np.zeros(5))
    with pytest.raises(InvalidInputError):
        kde.fit(np.zeros((5, 2)), bandwidth_rule="scott")
    with pytest.raises(InvalidInputError):
        kde.fit(np.zeros((5, 2)), bandwidth_rule=-1.0)
    for bandwidth in (np.inf, np.nan):
        with pytest.raises(InvalidInputError):
            kde.fit(np.random.default_rng(0).normal(size=(5, 2)), bandwidth_rule=bandwidth)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_rejects_non_finite_points(bad):
    pts = np.random.default_rng(0).normal(size=(20, 2))
    pts[7, 1] = bad
    with pytest.raises(InvalidInputError, match="finite"):
        kde.fit(pts)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_points_beyond_the_norm_limit_are_refused_naming_the_argument():
    # finite, but their squared distances overflow; fit once blamed the
    # bandwidth, which the caller never passed
    with pytest.raises(InvalidInputError, match="^dataset_inputs must lie within"):
        kde.fit([[1e200], [-1e200], [0.0]])
    stats = kde.fit([[0.0], [0.5], [2.0]])
    with pytest.raises(InvalidInputError, match="^query must lie within"):
        kde.density(stats, [1e200])
    with pytest.raises(InvalidInputError, match="^queries must lie within"):
        kde.density_batch(stats, [[0.0], [-1e200]])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_points_at_the_norm_limit_fit_without_overflow():
    edge = kde.MAX_NORM
    stats = kde.fit([[-edge], [0.0], [edge]])
    assert np.isfinite(stats.bandwidth) and stats.sigma > 0.0
    assert 0.0 < kde.base_eu(stats, [edge]) < 1.0


def test_min_bandwidth_is_the_least_whose_kernel_denominator_is_normal():
    tiny = np.finfo(np.float64).tiny
    h = kde.MIN_BANDWIDTH
    assert 2.0 * h * h >= tiny and 2.0 * h**2 >= tiny
    below = float(np.nextafter(h, 0))
    assert 2.0 * below * below < tiny


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bandwidth", [1e-200, 1e-160])
def test_a_fit_bandwidth_below_the_floor_is_refused_naming_it(bandwidth):
    # 2 h^2 underflowed and the density divided by zero or overflowed
    with pytest.raises(InvalidInputError, match="^bandwidth must be at least 1.05e-154"):
        kde.fit([[0.0], [0.5], [2.0]], bandwidth_rule=bandwidth)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_exponent_past_the_float_range_contributes_zero():
    # -d^2 / (2 h^2) overflows to -inf, whose exp is exactly 0
    for h in (1e-150, kde.MIN_BANDWIDTH):
        for points in ([[0.0], [0.5], [2.0]], [[0.0], [1e10], [3e10]]):
            with pytest.raises(DegenerateDatasetError, match="constant"):
                kde.fit(points, bandwidth_rule=h)
            stats = kde.KdeStats(points, h, 0.2, 0.1)
            assert kde.density_batch(stats, points).tolist() == [1 / 3] * 3
    stats = kde.KdeStats([[0.0], [0.5]], kde.MIN_BANDWIDTH, 0.2, 0.1)
    assert kde.density(stats, [kde.MAX_NORM]) == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_points_too_close_for_the_bandwidth_floor_are_degenerate():
    # the median rule's bandwidth would fall below MIN_BANDWIDTH, which the
    # caller never passed
    pts = [[0.0], [1e-160], [2e-160]]
    with pytest.raises(DegenerateDatasetError, match="too close together"):
        kde.fit(pts)


def test_fit_subsamples_beyond_cap():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(kde.MAX_REFERENCE_POINTS + 100, 2))
    stats = kde.fit(pts, bandwidth_rule=1.0)
    assert len(stats.reference_points) == kde.MAX_REFERENCE_POINTS


@pytest.mark.parametrize("seed", [0, 7, (3, 0xDE), 2**63 + 1], ids=repr)
def test_subsamples_keep_their_pinned_rows(seed):
    # no artifact digest reaches a subsample, so its rows are pinned here:
    # the sorted draw of np.random.default_rng(seed) without replacement
    pts = np.random.default_rng(5).normal(size=(kde.BANDWIDTH_SAMPLE + 300, 2))
    rows = np.sort(
        np.random.default_rng(seed).choice(len(pts), kde.BANDWIDTH_SAMPLE, replace=False)
    )
    # a set of exactly BANDWIDTH_SAMPLE rows is used whole
    h = kde.median_heuristic_bandwidth(pts, seed=seed)
    assert h == kde.median_heuristic_bandwidth(pts[rows])

    pts = np.random.default_rng(6).normal(size=(kde.MAX_REFERENCE_POINTS + 300, 1))
    rows = np.sort(
        np.random.default_rng(seed).choice(len(pts), kde.MAX_REFERENCE_POINTS, replace=False)
    )
    stats = kde.fit(pts, bandwidth_rule=1.0, seed=seed)
    assert stats.reference_points.tobytes() == pts[rows].tobytes()


def test_fit_standardization_constants():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(64, 2))
    stats = kde.fit(pts, bandwidth_rule=0.8)
    self_density = kde.density_batch(stats, pts)
    assert stats.mu == pytest.approx(self_density.mean())
    assert stats.sigma == pytest.approx(self_density.std())


def test_base_eu_decreases_with_density():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(128, 2))
    stats = kde.fit(pts, bandwidth_rule=0.8)
    inside = kde.base_eu(stats, np.zeros(2))
    outside = kde.base_eu(stats, np.array([8.0, 8.0]))
    assert 0.0 < inside < outside < 1.0


def test_base_eu_is_monotone_in_standardized_density():
    # walking away from the data mass must never lower the rarity score
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(256, 1))
    stats = kde.fit(pts, bandwidth_rule=0.5)
    xs = np.linspace(0.0, 10.0, 40)
    values = [kde.base_eu(stats, np.array([x])) for x in xs]
    dens = [kde.density(stats, np.array([x])) for x in xs]
    order = np.argsort(dens)
    assert np.all(np.diff(np.array(values)[order]) <= 1e-15)


def test_base_eu_midpoint_at_mean_density():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(100, 2))
    stats = kde.fit(pts, bandwidth_rule=1.0)
    # a query whose density equals the reference mean scores exactly 0.5
    stats_probe = kde.KdeStats(stats.reference_points, stats.bandwidth, 0.0, 1.0)
    target = stats.mu
    lo, hi = np.zeros(2), np.full(2, 20.0)
    for _ in range(60):  # bisect along a ray for the mean-density point
        mid = (lo + hi) / 2
        if kde.density(stats_probe, mid) > target:
            lo = mid
        else:
            hi = mid
    assert kde.base_eu(stats, lo) == pytest.approx(0.5, abs=1e-3)


def test_query_width_mismatch():
    stats = kde.fit(np.random.default_rng(8).normal(size=(10, 3)), bandwidth_rule=1.0)
    with pytest.raises(InvalidInputError):
        kde.density(stats, np.zeros(2))
    with pytest.raises(InvalidInputError):
        kde.density_batch(stats, np.zeros((4, 2)))


_GOOD_FIELDS = {"reference_points": np.eye(2), "bandwidth": 0.5, "mu": 0.2, "sigma": 0.1}


@pytest.mark.parametrize(
    "field, value",
    [
        ("bandwidth", 0.0),
        ("bandwidth", -0.5),
        ("bandwidth", np.nan),
        ("bandwidth", np.inf),
        ("sigma", 0.0),
        ("sigma", -1.0),
        ("sigma", np.nan),
        ("sigma", np.inf),
        ("mu", np.nan),
        ("mu", np.inf),
        ("mu", -np.inf),
        ("reference_points", [[0.0, np.nan]]),
        ("reference_points", [[np.inf, 0.0], [0.0, 0.0]]),
        ("reference_points", np.zeros(3)),
        ("reference_points", np.zeros((0, 2))),
        ("reference_points", np.zeros((2, 0))),
        ("reference_points", [[1e200, 0.0]]),  # beyond MAX_NORM: the density overflowed
        ("bandwidth", 1e-200),  # 2 h^2 underflows to 0: the density divided by zero
        ("bandwidth", np.nextafter(kde.MIN_BANDWIDTH, 0)),  # 2 h^2 is subnormal
    ],
)
def test_stats_refuse_a_bad_field_on_construction(field, value):
    # each would make `base_eu` return NaN, crash, or give a meaningless EU
    with pytest.raises(InvalidInputError, match=f"^{field} must"):
        kde.KdeStats(**{**_GOOD_FIELDS, field: value})


@pytest.mark.parametrize("width", [1, 3])
def test_model_refuses_reference_points_of_another_input_width(width):
    # dims (2, 0, 1): the density is queried on 2-wide (state, action) inputs
    words = r"^kde_stats.reference_points must have shape \(None, 2\)"
    with pytest.raises(InvalidInputError, match=words):
        model.CdrmModel(
            net=nnet.MlpNetwork.initialize([3, 4, 1], seed=0),
            input_bounds=np.tile([0.0, 1.0], (3, 1)),
            dims=(2, 0, 1),
            kde_stats=kde.KdeStats(np.eye(4)[:, :width], bandwidth=0.5, mu=0.2, sigma=0.1),
        )
