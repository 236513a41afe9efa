"""Ground-truth heatmap rendering and head-output decoding.

A frame's objects are rendered as one Gaussian bump per object on the
heatmap channel of its class, centered on the quantized cell of its top
point and with a peak value of exactly 1.  Overlapping bumps keep the
elementwise maximum so values stay valid probabilities.  Decoding walks the
opposite direction, in arrays: `_peaks` finds the local maxima of a
predicted heatmap, size, offset and displacement are read at those cells
together, and one mask drops the peaks of non-positive size before a
`Detection` is built for each peak kept.  `extract_peaks` is the tuple view.

Dimension tuples are (height, width) in input-image pixels; grids are
numpy arrays of shape (H/R, W/R, channels) with x mapped to columns.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

import numpy as np

from .geometry import (
    BBox,
    Detection,
    GridPoint,
    PipelineConfig,
    TopPoint,
    quantize_point,
    require_downsample,
    require_peak_limits,
    top_point_from_bbox,
)

if TYPE_CHECKING:  # fileio imports this module
    from .fileio import SparseGrid

    Grid = np.ndarray | SparseGrid

logger = logging.getLogger(__name__)

# Peak value of a Gaussian tail at 3 standard deviations is ~1.1e-2, below
# any useful score threshold, so rendering stops there.
GAUSSIAN_TRUNCATION_SIGMAS = 3.0
MIN_SIGMA_CELLS = 2.0 / 3.0
GAUSSIAN_IOU = 0.7


@dataclass(frozen=True)
class ObjectAnnotation:
    track_id: int
    class_id: int
    bbox: BBox


@dataclass(frozen=True)
class FrameAnnotations:
    """All annotated objects of one frame; frame indices are 1-based."""

    frame_index: int
    objects: tuple[ObjectAnnotation, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.frame_index < 1:
            raise ValueError(f"frame_index must be >= 1, got {self.frame_index}")
        object.__setattr__(self, "objects", tuple(self.objects))
        ids = [o.track_id for o in self.objects]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate track ids in frame {self.frame_index}")


@dataclass(frozen=True)
class HeadOutput:
    """The four per-frame prediction grids plus their downsampling factor.

    `heatmap` has one channel per class with values in [0, 1]; `size_map`
    carries (w, h) in pixels, `offset_map` sub-cell fractions (x, y) and
    `disp_map` per-object motion (dx, dy) in pixels, each with 2 channels.
    Each grid is a dense array or a `fileio.SparseGrid`, as
    `read_head_outputs` gives them.
    """

    heatmap: Grid
    size_map: Grid
    offset_map: Grid
    disp_map: Grid
    downsample: int

    def __post_init__(self) -> None:
        grids = {
            f.name: getattr(self, f.name) for f in fields(self) if f.name != "downsample"
        }
        for name, g in grids.items():
            if len(g.shape) != 3:
                raise ValueError(f"{name} must be a (rows, cols, channels) array")
            # a cell a sparse grid does not store is 0.0, in range and finite
            stored = g if isinstance(g, np.ndarray) else g.values
            if name == "heatmap":
                # NaN and +-inf fail this form, so it doubles as the finiteness check
                if not (stored.min(initial=0.0) >= 0.0 and stored.max(initial=0.0) <= 1.0):
                    raise ValueError("heatmap values must lie in [0, 1]")
            elif g.shape[2] != 2:
                raise ValueError(f"{name} must have 2 channels")
            elif not np.all(np.isfinite(stored)):
                raise ValueError(f"{name} contains non-finite values")
        shapes = {g.shape[:2] for g in grids.values()}
        if len(shapes) != 1:
            raise ValueError(f"head grids disagree on spatial dims: {sorted(shapes)}")
        require_downsample(self.downsample)

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.heatmap.shape[:2]

    @property
    def num_classes(self) -> int:
        return self.heatmap.shape[2]


@dataclass(frozen=True)
class Placement:
    """One renderable object: its clamped anchor and derived grid quantities."""

    annotation: ObjectAnnotation
    top: TopPoint
    cell: GridPoint
    offset: tuple[float, float]
    sigma: float


def _iou_radius(w: float, h: float, min_overlap: float = GAUSSIAN_IOU) -> float:
    """Largest corner displacement keeping box IoU >= min_overlap.

    Three cases (shifted, shrunk, grown box), each a quadratic in the
    radius; the binding constraint is the smallest positive root.
    """
    o = min_overlap
    b1 = h + w
    c1 = w * h * (1 - o) / (1 + o)
    r1 = (b1 - math.sqrt(b1 * b1 - 4 * c1)) / 2

    a2 = 4.0
    b2 = 2 * (h + w)
    c2 = (1 - o) * w * h
    r2 = (b2 - math.sqrt(b2 * b2 - 4 * a2 * c2)) / (2 * a2)

    a3 = 4.0 * o
    b3 = -2 * o * (h + w)
    c3 = (o - 1) * w * h
    r3 = (b3 + math.sqrt(b3 * b3 - 4 * a3 * c3)) / (2 * a3)
    return min(r1, r2, r3)


def gaussian_sigma(size: tuple[float, float], downsample: int) -> float:
    """Standard deviation (in cells) of the rendered bump for an object size.

    Derived from the IoU-0.7 corner radius of the box's cell-space extent,
    sigma = (2r + 1) / 6, clamped to at least 2/3 so tiny objects keep a
    usable support.
    """
    w, h = size
    if w <= 0 or h <= 0:
        raise ValueError(f"object size must be positive, got {size}")
    r = _iou_radius(w / downsample, h / downsample)
    return max((2.0 * r + 1.0) / 6.0, MIN_SIGMA_CELLS)


def _grid_dims(image_size: tuple[int, int], downsample: int) -> tuple[int, int]:
    """(rows, cols) of the grid; the image dims must be positive multiples of R >= 1."""
    require_downsample(downsample)
    h_px, w_px = image_size
    if h_px < 1 or w_px < 1 or h_px % downsample or w_px % downsample:
        raise ValueError(
            f"image dims {image_size} must be positive multiples of downsample {downsample}"
        )
    return h_px // downsample, w_px // downsample


def check_class_ids(objects: tuple[ObjectAnnotation, ...], num_classes: int) -> None:
    """Fail unless num_classes >= 1 and every object's class is one of them."""
    if num_classes < 1:
        raise ValueError(f"num_classes must be >= 1, got {num_classes}")
    for obj in objects:
        if not 0 <= obj.class_id < num_classes:
            raise ValueError(f"class_id {obj.class_id} out of range for {num_classes} classes")


def clamped_top(bbox: BBox, image_size: tuple[int, int], downsample: int) -> TopPoint | None:
    """A box's anchor on the frame: its top point clamped onto the frame.

    A top point up to one cell (R pixels) outside the frame is clamped onto
    its border, strictly inside so its cell index stays in range; one
    farther out has no anchor (None).
    """
    h_px, w_px = image_size
    margin = float(downsample)
    top = top_point_from_bbox(bbox)
    if not (-margin <= top.x < w_px + margin and -margin <= top.y < h_px + margin):
        return None
    return TopPoint(min(max(top.x, 0.0), w_px - 1e-6), min(max(top.y, 0.0), h_px - 1e-6))


def place_objects(
    ann: FrameAnnotations,
    image_size: tuple[int, int],
    downsample: int,
    num_classes: int = 1,
) -> list[Placement]:
    """Resolve each object to a grid cell, skipping those without an anchor.

    Objects anchor at `clamped_top`; those beyond its margin are dropped (a
    warning reports the count).  Rendering and `simulator.corrupt` both
    place objects through it, so the heatmap bumps and the regression
    entries always sit at the same cells.
    """
    _grid_dims(image_size, downsample)
    check_class_ids(ann.objects, num_classes)
    placements: list[Placement] = []
    skipped = 0
    for obj in ann.objects:
        top = clamped_top(obj.bbox, image_size, downsample)
        if top is None:
            skipped += 1
            continue
        cell, offset = quantize_point(top, downsample)
        sigma = gaussian_sigma((obj.bbox.w, obj.bbox.h), downsample)
        placements.append(Placement(obj, top, cell, offset, sigma))
    if skipped:
        logger.warning(
            "frame %d: skipped %d object(s) with top point beyond the clamp margin",
            ann.frame_index,
            skipped,
        )
    return placements


def render_gt_heatmap(
    ann: FrameAnnotations,
    image_size: tuple[int, int],
    downsample: int,
    num_classes: int = 1,
) -> np.ndarray:
    """Render the ground-truth heatmap (rows, cols, num_classes) for a frame.

    Each object contributes exp(-(dx^2 + dy^2) / (2 sigma^2)) around its top
    cell on its class channel, truncated at 3 sigma; overlaps keep the max.
    The center cell is exactly 1.
    """
    placements = place_objects(ann, image_size, downsample, num_classes)
    rows, cols = _grid_dims(image_size, downsample)
    heatmap = np.zeros((rows, cols, num_classes), dtype=np.float64)
    for p in placements:
        _draw_gaussian(heatmap[:, :, p.annotation.class_id], p.cell, p.sigma)
    return heatmap


def _draw_gaussian(
    channel: np.ndarray, cell: GridPoint, sigma: float, peak: float = 1.0
) -> None:
    rows, cols = channel.shape
    reach = int(math.ceil(GAUSSIAN_TRUNCATION_SIGMAS * sigma))
    r0 = max(cell.row - reach, 0)
    r1 = min(cell.row + reach, rows - 1)
    c0 = max(cell.col - reach, 0)
    c1 = min(cell.col + reach, cols - 1)
    rr = np.arange(r0, r1 + 1, dtype=np.float64) - cell.row
    cc = np.arange(c0, c1 + 1, dtype=np.float64) - cell.col
    d2 = rr[:, None] ** 2 + cc[None, :] ** 2
    bump = peak * np.exp(-d2 / (2.0 * sigma * sigma))
    bump[d2 > (GAUSSIAN_TRUNCATION_SIGMAS * sigma) ** 2] = 0.0
    region = channel[r0 : r1 + 1, c0 : c1 + 1]
    np.maximum(region, bump, out=region)


def extract_peaks(
    heatmap: Grid, max_peaks: int, score_threshold: float
) -> list[tuple[GridPoint, int, float]]:
    """The peaks `decode_detections` decodes (see `_peaks`), as (cell, channel, score) tuples."""
    peaks = zip(*(a.tolist() for a in _peaks(heatmap, max_peaks, score_threshold)))
    return [(GridPoint(c, r), ch, s) for r, c, ch, s in peaks]


def _peaks(heatmap: Grid, max_peaks: int, score_threshold: float) -> tuple[np.ndarray, ...]:
    """Rows, columns, channels and scores of the cells that are >= all 8 neighbors.

    Border cells compare only against existing neighbors.  A plateau is not
    thinned: equal adjacent cells are all peaks, as with CenterNet's
    max-pool NMS, so two neighboring cells of 0.9 decode to two detections.
    Results at or above `score_threshold` are sorted by descending score,
    ties broken by lower row, then lower column, then lower channel, and
    truncated to `max_peaks` (a warning reports the count found and kept).

    A dense heatmap is scanned whole.  A `SparseGrid` takes only its stored
    cells at or above the threshold as candidates and looks up their
    neighbors, unless the threshold is 0: then a cell that is not stored
    can be a peak, and the heatmap is scanned dense.
    """
    require_peak_limits(max_peaks, score_threshold)
    if not isinstance(heatmap, np.ndarray) and score_threshold <= 0:
        heatmap = heatmap.dense()
    if len(heatmap.shape) != 3:
        raise ValueError("heatmap must be a (rows, cols, channels) array")
    if isinstance(heatmap, np.ndarray):
        flat, scores = _scanned_peaks(heatmap, score_threshold)
    else:
        flat, scores = _stored_peaks(heatmap, score_threshold)
    # flat positions ascend in (row, col, channel) order
    order = np.lexsort((flat, -scores))
    if order.size > max_peaks:
        message = "kept %d of %d peaks at or above score threshold %g (max_peaks)"
        logger.warning(message, max_peaks, order.size, score_threshold)
    order = order[:max_peaks]
    return (*np.unravel_index(flat[order], heatmap.shape), scores[order])


def _scanned_peaks(heatmap: np.ndarray, score_threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions and scores of a dense heatmap's peaks, by a scan of every cell."""
    rows, cols, channels = heatmap.shape
    padded = np.full((rows + 2, cols + 2, channels), -np.inf)
    padded[1:-1, 1:-1] = heatmap
    is_peak = heatmap >= score_threshold
    for dr in (0, 1, 2):
        for dc in (0, 1, 2):
            if dr != 1 or dc != 1:
                is_peak &= heatmap >= padded[dr : dr + rows, dc : dc + cols]
    # np.nonzero on a 3-d mask is ~20x slower than this on a 256x256x1 grid
    flat = np.flatnonzero(is_peak)
    return flat, np.take(heatmap, flat).astype(np.float64, copy=False)


_NEIGHBORS = np.array([(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if dr or dc])


def _stored_peaks(heatmap: SparseGrid, score_threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions and scores of a sparse heatmap's peaks, for a threshold > 0.

    Only a stored cell reaches the threshold; each is compared with its
    neighbors, looked up among the stored cells.  A neighbor row off the
    grid is a flat position no cell has, so it reads 0.0, below every
    candidate; a neighbor column off the grid would wrap into the next or
    previous row, so it is skipped.
    """
    _, cols, channels = heatmap.shape
    reached = heatmap.values >= score_threshold
    flat, scores = heatmap.index[reached], heatmap.values[reached]
    n_col = (flat // channels % cols)[:, None] + _NEIGHBORS[:, 1]
    neighbors = heatmap.lookup(flat[:, None] + (_NEIGHBORS @ (cols, 1)) * channels)
    is_peak = ((n_col < 0) | (n_col >= cols) | (scores[:, None] >= neighbors)).all(axis=1)
    return flat[is_peak], scores[is_peak]


def _at_cells(grid: Grid, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The (n, channels) float64 values of (row, col) cells of a dense or sparse grid."""
    if isinstance(grid, np.ndarray):
        return grid[rows, cols].astype(np.float64, copy=False)
    _, width, channels = grid.shape
    return grid.lookup((rows * width + cols)[:, None] * channels + np.arange(channels))


def decode_detections(head: HeadOutput, cfg: PipelineConfig) -> list[Detection]:
    """Turn head grids into detections.

    For each heatmap peak, the anchor is (cell + offset) * R, with size and
    displacement read from the same cell.  Peaks whose regressed size is not
    positive are dropped (a warning reports the count).
    """
    if head.num_classes != cfg.num_classes:
        raise ValueError(
            f"head has {head.num_classes} classes but config expects {cfg.num_classes}"
        )
    if head.downsample != cfg.downsample:
        raise ValueError(
            f"head downsample {head.downsample} != config downsample {cfg.downsample}"
        )
    rows, cols, channels, scores = _peaks(head.heatmap, cfg.max_peaks, cfg.score_threshold)
    size = _at_cells(head.size_map, rows, cols)
    kept = (size > 0).all(axis=1)
    if not kept.all():
        logger.warning(
            "dropped %d of %d peaks whose regressed size is not positive", (~kept).sum(), kept.size
        )
    rows, cols, channels, scores, size = (a[kept] for a in (rows, cols, channels, scores, size))
    cells = np.stack([cols, rows], axis=1)
    tops = (cells + _at_cells(head.offset_map, rows, cols)) * cfg.downsample
    disp = _at_cells(head.disp_map, rows, cols)
    columns = (cells, channels, scores, tops, size, disp)
    return [
        Detection(TopPoint(x, y), GridPoint(c, r), (w, h), s, ch, (dx, dy))
        for (c, r), ch, s, (x, y), (w, h), (dx, dy) in zip(*(a.tolist() for a in columns))
    ]
