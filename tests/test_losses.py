import math

import numpy as np
import pytest

from peaktrack import (
    FrameTargets,
    GridPoint,
    HeadOutput,
    PipelineConfig,
    SupervisedPoint,
    finite_difference_check,
    focal_loss,
    masked_l1_loss,
    targets_from_head,
    total_loss,
)
from peaktrack.simulator import synthesize_head_outputs

from .conftest import separated_annotations

# hand-computed with the formulas alone, frozen before wiring the tests
POSITIVE_CELL_VALUE = 0.17328679513998632   # -(1-0.5)^2 ln(0.5)
NEGATIVE_CELL_VALUE = 0.001053605156578263  # -(0.1)^2 ln(0.9)


def random_head(rng, shape=(12, 16), classes=1, downsample=4):
    rows, cols = shape
    return HeadOutput(
        rng.uniform(0.0, 1.0, size=(rows, cols, classes)),
        rng.uniform(-4.0, 4.0, size=(rows, cols, 2)),
        rng.uniform(-4.0, 4.0, size=(rows, cols, 2)),
        rng.uniform(-4.0, 4.0, size=(rows, cols, 2)),
        downsample,
    )


class TestFocalLoss:
    def test_positive_cell_hand_value(self):
        gt = np.zeros((4, 4, 1))
        gt[1, 1, 0] = 1.0
        pred = np.zeros((4, 4, 1))
        pred[1, 1, 0] = 0.5
        value, _ = focal_loss(pred, gt, 2, 4, 1)
        assert value == pytest.approx(POSITIVE_CELL_VALUE, abs=1e-12)

    def test_negative_cell_hand_value(self):
        gt = np.zeros((4, 4, 1))
        pred = np.zeros((4, 4, 1))
        pred[2, 2, 0] = 0.1
        value, _ = focal_loss(pred, gt, 2, 4, 1)
        assert value == pytest.approx(NEGATIVE_CELL_VALUE, abs=1e-12)

    def test_exact_positives_contribute_zero(self):
        gt = np.zeros((6, 6, 1))
        for r, c in ((1, 1), (4, 2)):
            gt[r, c, 0] = 1.0
        value, _ = focal_loss(gt.copy(), gt, 2, 4, 2)
        assert value == 0.0

    def test_strictly_positive_on_deviation(self, rng):
        gt = np.zeros((6, 6, 1))
        gt[2, 3, 0] = 1.0
        pred = gt.copy()
        pred[0, 0, 0] = 0.2  # nonzero prediction on a zero cell
        value, _ = focal_loss(pred, gt, 2, 4, 1)
        assert value > 0.0

    def test_normalization_by_object_count(self):
        gt = np.zeros((4, 4, 1))
        gt[0, 0, 0] = 1.0
        pred = np.zeros((4, 4, 1))
        pred[0, 0, 0] = 0.5
        v1, _ = focal_loss(pred, gt, 2, 4, 1)
        v5, _ = focal_loss(pred, gt, 2, 4, 5)
        assert v5 == pytest.approx(v1 / 5.0, rel=1e-12)

    def test_rejections(self):
        with pytest.raises(ValueError):
            focal_loss(np.zeros((2, 2, 1)), np.zeros((2, 3, 1)), 2, 4, 1)
        with pytest.raises(ValueError):
            focal_loss(np.zeros((2, 2, 1)), np.zeros((2, 2, 1)), 2, 4, 0)

    def test_nan_in_gt_heatmap_rejected(self):
        gt = np.zeros((2, 2, 1))
        gt[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            focal_loss(np.full((2, 2, 1), 0.5), gt, 2, 4, 1)

    def test_gradient_matches_finite_differences(self, rng):
        gt = np.zeros((8, 8, 1))
        for r, c in ((1, 1), (5, 6), (3, 2)):
            gt[r, c, 0] = 1.0
        gt[2, 2, 0] = 0.6  # soft negative as in rendered tails
        pred = rng.uniform(0.05, 0.95, size=gt.shape)
        err = finite_difference_check(
            lambda x: focal_loss(x, gt, 2, 4, 3), pred, step=1e-4, seed=3, n_coords=150
        )
        assert err < 1e-4

    def test_gradient_at_saturated_predictions(self):
        gt = np.zeros((3, 3, 1))
        gt[0, 1, 0] = 1.0
        pred = np.zeros((3, 3, 1))
        pred[1, 1, 0] = 1.0  # maximally wrong negative
        value, grad = focal_loss(pred, gt, 2, 4, 1)
        assert np.all(np.isfinite(grad)) and math.isfinite(value)
        assert grad[0, 0, 0] == 0.0   # zero prediction on a zero cell: flat
        assert grad[1, 1, 0] > 0.0    # wrong negative: pushed down
        assert grad[0, 1, 0] < 0.0    # missed positive: pushed up


class TestMaskedL1:
    def test_zero_at_equality(self):
        pred = np.zeros((4, 4, 2))
        pred[1, 2] = (3.0, 7.0)
        value, grad = masked_l1_loss(pred, [(GridPoint(2, 1), (3.0, 7.0))], 1)
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_hand_value_single_object(self):
        pred = np.zeros((4, 4, 2))
        pred[0, 0] = (10.0, 20.0)
        value, grad = masked_l1_loss(pred, [(GridPoint(0, 0), (12.0, 17.0))], 1)
        assert value == pytest.approx(5.0, abs=1e-12)
        assert tuple(grad[0, 0]) == (-1.0, 1.0)

    def test_two_object_normalization(self):
        pred = np.zeros((4, 4, 2))
        pred[0, 0] = (1.0, 0.0)      # residual sum 1.0
        pred[2, 3] = (2.0, 1.0)      # residual sum 3.0
        points = [(GridPoint(0, 0), (0.0, 0.0)), (GridPoint(3, 2), (0.0, 0.0))]
        value, _ = masked_l1_loss(pred, points, 2)
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_unsupervised_cells_have_zero_gradient(self, rng):
        pred = rng.normal(size=(5, 5, 2))
        _, grad = masked_l1_loss(pred, [(GridPoint(1, 1), (0.0, 0.0))], 1)
        mask = np.zeros((5, 5, 2), dtype=bool)
        mask[1, 1] = True
        assert np.all(grad[~mask] == 0.0)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            masked_l1_loss(np.zeros((4, 4, 2)), [(GridPoint(4, 0), (0.0, 0.0))], 1)

    def test_residual_scaling_is_linear(self, rng):
        pred = rng.uniform(1.0, 2.0, size=(6, 6, 2))
        points = [(GridPoint(1, 1), (0.5, 0.5)), (GridPoint(4, 3), (0.25, 0.75))]
        base, _ = masked_l1_loss(pred, points, 2)
        for c in (0.0, 0.5, 3.0):
            scaled = np.zeros_like(pred)
            for cell, target in points:
                t = np.asarray(target)
                residual = pred[cell.row, cell.col] - t
                scaled[cell.row, cell.col] = t + c * residual
            value, _ = masked_l1_loss(scaled, points, 2)
            assert value == pytest.approx(c * base, rel=1e-12, abs=1e-15)

    def test_gradient_matches_finite_differences_away_from_kinks(self, rng):
        pred = rng.uniform(-5.0, 5.0, size=(8, 8, 2))
        points = [
            (GridPoint(1, 1), (0.0, 0.0)),
            (GridPoint(5, 2), (1.25, -2.0)),
            (GridPoint(7, 7), (3.0, 3.0)),
        ]
        step = 1e-4
        mask = np.ones(pred.shape, dtype=bool)
        for cell, target in points:
            for ch in range(2):
                if abs(pred[cell.row, cell.col, ch] - target[ch]) <= 2 * step:
                    mask[cell.row, cell.col, ch] = False
        err = finite_difference_check(
            lambda x: masked_l1_loss(x, points, 3),
            pred,
            step=step,
            seed=5,
            n_coords=150,
            smooth_mask=mask,
        )
        assert err < 1e-6


class TestTotalLoss:
    def test_ideal_outputs_have_zero_regression_losses(self, rng):
        ann = separated_annotations(rng, 1, 12, image_size=(320, 320))
        head = synthesize_head_outputs(ann, None, (320, 320), 4)
        bd = total_loss(head, targets_from_head(head), PipelineConfig())
        assert bd.l_size == 0.0 and bd.l_off == 0.0 and bd.l_d == 0.0
        assert bd.l_h > 0.0  # soft negatives on the Gaussian tails remain
        assert bd.total == bd.l_h

    def test_empty_frame_zero_total(self):
        shape = (8, 8)
        zeros = HeadOutput(
            np.zeros(shape + (1,)),
            np.zeros(shape + (2,)),
            np.zeros(shape + (2,)),
            np.zeros(shape + (2,)),
            4,
        )
        bd = total_loss(zeros, targets_from_head(zeros), PipelineConfig())
        assert bd.total == 0.0
        assert bd.n_objects == 0

    def test_breakdown_identity_random_inputs(self, rng):
        cfg = PipelineConfig()
        for _ in range(25):
            pred = random_head(rng)
            gt = random_head(rng)
            targets = FrameTargets(
                heatmap=(gt.heatmap == gt.heatmap.max()).astype(float),
                points=tuple(
                    SupervisedPoint(
                        GridPoint(int(rng.integers(16)), int(rng.integers(12))),
                        (float(rng.uniform(1, 5)), float(rng.uniform(1, 5))),
                        (float(rng.uniform()), float(rng.uniform())),
                        (float(rng.normal()), float(rng.normal())),
                    )
                    for _ in range(int(rng.integers(1, 6)))
                ),
            )
            bd = total_loss(pred, targets, cfg)
            recomposed = bd.l_h + cfg.size_loss_weight * bd.l_size + bd.l_off + bd.l_d
            assert bd.total == pytest.approx(recomposed, abs=1e-9)
            assert bd.l_h >= 0 and bd.l_size >= 0 and bd.l_off >= 0 and bd.l_d >= 0

    def test_total_matches_hand_composition(self, rng):
        cfg = PipelineConfig()
        gt_ann = separated_annotations(rng, 1, 3, image_size=(320, 320))
        gt_head = synthesize_head_outputs(gt_ann, None, (320, 320), 4)
        targets = targets_from_head(gt_head)
        pred = random_head(rng, shape=gt_head.grid_shape)
        n = targets.n_objects
        lh, _ = focal_loss(pred.heatmap, targets.heatmap, cfg.focal_alpha, cfg.focal_beta, n)
        ls, _ = masked_l1_loss(pred.size_map, [(p.cell, p.size) for p in targets.points], n)
        lo, _ = masked_l1_loss(pred.offset_map, [(p.cell, p.offset) for p in targets.points], n)
        ld, _ = masked_l1_loss(pred.disp_map, [(p.cell, p.displacement) for p in targets.points], n)
        bd = total_loss(pred, targets, cfg)
        assert bd.total == pytest.approx(lh + 0.1 * ls + lo + ld, abs=1e-12)

    def test_dim_mismatch_rejected(self, rng):
        pred = random_head(rng, shape=(12, 16))
        gt = random_head(rng, shape=(12, 12))
        with pytest.raises(ValueError):
            total_loss(pred, targets_from_head(gt), PipelineConfig())


class TestFiniteDifferenceCheck:
    def test_constant_loss_has_zero_error(self):
        def flat(x):
            return 0.0, np.zeros_like(x)

        err = finite_difference_check(flat, np.ones((4, 4, 1)), step=1e-4, seed=1)
        assert err == 0.0

    def test_wrong_gradient_is_caught(self):
        def broken(x):
            return float((x**2).sum()), 3.0 * x  # true gradient is 2x

        err = finite_difference_check(broken, np.full((3, 3, 1), 0.7), step=1e-4, seed=2)
        assert err > 0.1

    def test_step_validation(self):
        def flat(x):
            return 0.0, np.zeros_like(x)

        with pytest.raises(ValueError):
            finite_difference_check(flat, np.ones((2, 2, 1)), step=0.0, seed=1)
        with pytest.raises(ValueError):
            finite_difference_check(flat, np.ones((2, 2, 1)), step=0.5, seed=1)
