"""Reference implementations of the training losses with analytic gradients.

These are plain numpy functions meant as a checking ground for external
training stacks: every loss returns both its value and the exact gradient
with respect to the prediction, and `finite_difference_check` verifies the
two against central differences.

The heatmap loss is a penalty-reduced focal loss: cells whose target is
exactly 1 are positives, all others are negatives whose penalty is scaled
down by (1 - target)^beta near rendered bumps.  Size, offset and
displacement use an L1 penalty evaluated only at supervised cells.  All
losses are normalized by the number of objects in the frame.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import NamedTuple

import numpy as np

from .geometry import GridPoint, PipelineConfig
from .heatmap import HeadOutput

CLAMP_EPS = 1e-12

LossFn = Callable[[np.ndarray], tuple[float, np.ndarray]]


class SupervisedPoint(NamedTuple):
    """Targets regressed at one object's top cell."""

    cell: GridPoint
    size: tuple[float, float]
    offset: tuple[float, float]
    displacement: tuple[float, float]


class FrameTargets(NamedTuple):
    """Ground truth for one frame: dense heatmap plus sparse regression targets."""

    heatmap: np.ndarray
    points: tuple[SupervisedPoint, ...]

    @property
    def n_objects(self) -> int:
        return len(self.points)


class LossBreakdown(NamedTuple):
    """Per-head loss values; `total` is their weighted sum."""

    l_h: float
    l_size: float
    l_off: float
    l_d: float
    total: float
    n_objects: int


def focal_loss(
    pred: np.ndarray,
    gt: np.ndarray,
    alpha: float,
    beta: float,
    n_objects: int,
) -> tuple[float, np.ndarray]:
    """Penalty-reduced focal loss over a heatmap and its gradient.

    Positive cells (gt exactly 1) contribute (1-p)^alpha log(p); negative
    cells contribute (1-gt)^beta p^alpha log(1-p).  The total is negated and
    divided by `n_objects`.  Log arguments are clamped to at least eps, so a
    perfect prediction contributes exactly zero while a maximally wrong one
    stays finite; the gradient is that of the clamped expression.
    """
    if pred.shape != gt.shape:
        raise ValueError(f"pred shape {pred.shape} != gt shape {gt.shape}")
    if n_objects < 1:
        raise ValueError("n_objects must be >= 1")
    # NaN and +-inf fail this form
    if not (gt.min(initial=0.0) >= 0.0 and gt.max(initial=0.0) <= 1.0):
        raise ValueError("gt heatmap values must lie in [0, 1]")

    positive = gt == 1.0
    one_minus = 1.0 - pred
    # Only the log arguments are clamped, so a zero power factor still kills
    # its term exactly (a perfect prediction contributes exactly 0).
    log_p = np.log(np.clip(pred, CLAMP_EPS, None))
    log_1mp = np.log(np.clip(one_minus, CLAMP_EPS, None))

    contrib = np.where(
        positive,
        one_minus**alpha * log_p,
        (1.0 - gt) ** beta * pred**alpha * log_1mp,
    )
    value = -float(contrib.sum()) / n_objects

    # Where a log sits on its clamp, its derivative term vanishes.
    inv_p = np.where(pred > CLAMP_EPS, 1.0 / np.clip(pred, CLAMP_EPS, None), 0.0)
    inv_1mp = np.where(
        one_minus > CLAMP_EPS, 1.0 / np.clip(one_minus, CLAMP_EPS, None), 0.0
    )
    d_pos = -alpha * one_minus ** (alpha - 1.0) * log_p + one_minus**alpha * inv_p
    d_neg = (1.0 - gt) ** beta * (
        alpha * pred ** (alpha - 1.0) * log_1mp - pred**alpha * inv_1mp
    )
    grad = -np.where(positive, d_pos, d_neg) / n_objects
    return value, grad


def masked_l1_loss(
    pred: np.ndarray,
    points: Sequence[tuple[GridPoint, tuple[float, float]]],
    n_objects: int,
) -> tuple[float, np.ndarray]:
    """L1 loss over the listed cells of a 2-channel map and its gradient.

    Cells not listed contribute nothing and get zero gradient; the
    subgradient at exact equality is 0.  The sum of per-channel absolute
    differences is divided by `n_objects`.
    """
    if pred.ndim != 3 or pred.shape[2] != 2:
        raise ValueError("pred must be a (rows, cols, 2) array")
    if n_objects < 1:
        raise ValueError("n_objects must be >= 1")
    rows, cols = pred.shape[:2]
    total = 0.0
    grad = np.zeros_like(pred, dtype=np.float64)
    for cell, target in points:
        if not (0 <= cell.row < rows and 0 <= cell.col < cols):
            raise ValueError(f"supervision cell {cell} outside {rows}x{cols} grid")
        diff = pred[cell.row, cell.col, :].astype(np.float64) - np.asarray(
            target, dtype=np.float64
        )
        total += float(np.abs(diff).sum())
        grad[cell.row, cell.col, :] += np.sign(diff)
    return total / n_objects, grad / n_objects


def targets_from_head(gt_head: HeadOutput) -> FrameTargets:
    """Recover sparse supervision from an ideal ground-truth head output.

    Cells whose heatmap value is exactly 1 are object centers; the targets
    for each are read from the dense maps at that cell.  Only meaningful on
    synthesized (noise-free) ground truth.  Sparse grids are made dense.
    """
    heatmap, size_map, offset_map, disp_map = _dense_grids(gt_head)
    rows, cols = np.nonzero((heatmap == 1.0).any(axis=2))
    points = []
    for r, c in zip(rows.tolist(), cols.tolist()):
        points.append(
            SupervisedPoint(
                cell=GridPoint(c, r),
                size=tuple(size_map[r, c].tolist()),
                offset=tuple(offset_map[r, c].tolist()),
                displacement=tuple(disp_map[r, c].tolist()),
            )
        )
    return FrameTargets(heatmap=heatmap, points=tuple(points))


def _dense_grids(head: HeadOutput) -> tuple[np.ndarray, ...]:
    """heatmap, size, offset and displacement as dense arrays (`SparseGrid.dense()`)."""
    return tuple(
        np.asarray(g) for g in (head.heatmap, head.size_map, head.offset_map, head.disp_map)
    )


def total_loss(
    pred: HeadOutput,
    targets: FrameTargets,
    cfg: PipelineConfig,
) -> LossBreakdown:
    """Combined objective: l_h + size_loss_weight * l_size + l_off + l_d.

    Every component is normalized by the same object count; frames without
    objects use a divisor of 1 so the result stays finite (and zero when
    predictions are zero too).
    """
    if pred.heatmap.shape != targets.heatmap.shape:
        raise ValueError(
            f"pred heatmap {pred.heatmap.shape} does not match "
            f"target heatmap {targets.heatmap.shape}"
        )
    n = max(targets.n_objects, 1)
    heatmap, size_map, offset_map, disp_map = _dense_grids(pred)
    l_h, _ = focal_loss(heatmap, targets.heatmap, cfg.focal_alpha, cfg.focal_beta, n)
    l_size, _ = masked_l1_loss(size_map, [(p.cell, p.size) for p in targets.points], n)
    l_off, _ = masked_l1_loss(offset_map, [(p.cell, p.offset) for p in targets.points], n)
    l_d, _ = masked_l1_loss(disp_map, [(p.cell, p.displacement) for p in targets.points], n)
    total = l_h + cfg.size_loss_weight * l_size + l_off + l_d
    return LossBreakdown(
        l_h=l_h,
        l_size=l_size,
        l_off=l_off,
        l_d=l_d,
        total=total,
        n_objects=targets.n_objects,
    )


def finite_difference_check(
    loss_fn: LossFn,
    x0: np.ndarray,
    step: float,
    seed: int,
    n_coords: int = 100,
    smooth_mask: np.ndarray | None = None,
) -> float:
    """Compare analytic gradients against central differences.

    Samples `n_coords` coordinates of `x0` (restricted to `smooth_mask` when
    given, so callers can exclude L1 kinks and clamp boundaries within one
    step) and returns the max relative error, with denominator
    max(|analytic|, |numeric|, 1e-8).
    """
    if not 0.0 < step <= 1e-2:
        raise ValueError("step must lie in (0, 1e-2]")
    pool = np.arange(x0.size) if smooth_mask is None else np.flatnonzero(smooth_mask)
    if pool.size == 0:
        raise ValueError("no smooth coordinates available to sample")
    rng = np.random.default_rng(seed)
    idx = rng.choice(pool, size=n_coords, replace=pool.size < n_coords)

    _, grad = loss_fn(x0)
    max_err = 0.0
    for i in idx.tolist():
        hi = x0.copy()
        lo = x0.copy()
        hi.flat[i] += step
        lo.flat[i] -= step
        numeric = (loss_fn(hi)[0] - loss_fn(lo)[0]) / (2.0 * step)
        analytic = float(grad.flat[i])
        err = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8)
        max_err = max(max_err, err)
    return max_err
