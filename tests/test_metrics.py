"""Ranking metrics against brute-force enumeration and hand-worked values."""

import itertools

import numpy as np
import pytest

from cdrm.errors import InvalidInputError, UndefinedMetricError
from cdrm.metrics import auprc, auroc, evaluate_room, probe_grid
from cdrm.model import CdrmModel
from cdrm.nnet import MlpNetwork


def brute_force_auroc(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p, n in itertools.product(pos, neg):
        if p > n:
            total += 1.0
        elif p == n:
            total += 0.5
    return total / (len(pos) * len(neg))


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_inverted_separation(self):
        assert auroc([0.1, 0.2, 0.9, 0.8], [1, 1, 0, 0]) == 0.0

    def test_all_tied_is_half(self):
        assert auroc([0.5, 0.5, 0.5, 0.5], [1, 1, 0, 0]) == 0.5

    def test_matches_brute_force_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            labels = rng.integers(0, 2, n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            # quantized scores force plenty of ties
            scores = rng.integers(0, 5, n) / 4.0
            assert auroc(scores, labels) == pytest.approx(
                brute_force_auroc(scores, labels), abs=1e-12
            )

    def test_single_class_raises(self):
        with pytest.raises(UndefinedMetricError):
            auroc([0.5, 0.6], [1, 1])
        with pytest.raises(UndefinedMetricError):
            auroc([0.5, 0.6], [0, 0])

    def test_nonfinite_scores_raise(self):
        with pytest.raises(UndefinedMetricError):
            auroc([np.nan, 0.5], [1, 0])

    @pytest.mark.parametrize("metric", [auroc, auprc])
    def test_mismatched_lengths_raise(self, metric):
        with pytest.raises(InvalidInputError):
            metric([0.5, 0.6, 0.7], [1, 0])


class TestAuprc:
    def test_hand_example_interleaved(self):
        # descending: 0.9(+), 0.8(-), 0.7(+) -> 1*(1/2) + (1/2)*(2/3) = 5/6
        value = auprc([0.9, 0.8, 0.7], [1, 0, 1])
        assert value == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_perfect_ranking_is_one(self):
        assert auprc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_worst_ranking_single_positive(self):
        # positive admitted last among k negatives: AP = 1/(k+1)
        for k in (1, 3, 7):
            scores = [0.9 - 0.1 * i for i in range(k)] + [0.05]
            labels = [0] * k + [1]
            assert auprc(scores, labels) == pytest.approx(
                1.0 / (k + 1), abs=1e-12
            )

    def test_all_tied_gives_prevalence(self):
        # one tie group holding everything: precision = prevalence at recall 1
        value = auprc([0.5] * 6, [1, 1, 0, 0, 0, 0])
        assert value == pytest.approx(2.0 / 6.0, abs=1e-12)

    def test_tie_group_not_split(self):
        # the tied pair (one of each class) is admitted as a unit
        value = auprc([0.9, 0.5, 0.5, 0.1], [1, 1, 0, 0])
        # groups: {0.9}: tp=1 n=1; {0.5,0.5}: tp=2 n=3; {0.1}: tp=2 n=4
        assert value == pytest.approx(0.5 * 1.0 + 0.5 * (2.0 / 3.0), abs=1e-12)

    def test_no_positives_raises(self):
        with pytest.raises(UndefinedMetricError):
            auprc([0.5, 0.6], [0, 0])

    def test_no_negatives_is_one(self):
        assert auprc([0.5, 0.9], [1, 1]) == 1.0


class TestProbeGrid:
    def test_cell_centers(self):
        grid = probe_grid(2)
        np.testing.assert_allclose(
            grid, [[0.25, 0.25], [0.25, 0.75], [0.75, 0.25], [0.75, 0.75]]
        )

    def test_row_major_order_and_range(self):
        grid = probe_grid(5)
        assert grid.shape == (25, 2)
        assert grid.min() == pytest.approx(0.1)
        assert grid.max() == pytest.approx(0.9)
        # first coordinate varies slowest
        assert np.all(np.diff(grid[:5, 0]) == 0)


def test_evaluate_room_refuses_a_model_that_is_not_a_room_model():
    toy = CdrmModel(
        net=MlpNetwork.initialize([2, 4, 1], seed=0),
        input_bounds=np.array([[0.0, 1.0], [0.0, 1.0]]),
        dims=(1, 0, 1),
    )
    with pytest.raises(InvalidInputError, match=r"room model with dims \(2, 0, 1\)"):
        evaluate_room(toy, grid_resolution=2)
