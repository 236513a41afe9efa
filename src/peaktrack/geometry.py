"""Box and keypoint geometry shared by every stage of the pipeline.

Coordinate conventions:
  * x is the column axis, y the row axis, origin at the image top-left.
  * Boxes are (x1, y1, w, h) in input-image pixels, top-left corner plus extent.
  * The detection anchor ("top point") of a box sits at half its width and
    one tenth of its height below the top edge.  `top_of` is this rule and
    `_corners` its inverse; every other site calls one of them.
  * Grids are downsampled by an integer factor R; a continuous pixel point p
    maps to the cell floor(p / R) with a fractional offset in [0, 1).

All types here are immutable NamedTuples, except that `Detections` holds a
frame's detections as columns of plain lists.  A class with rules to keep
is a `__slots__ = ()` subclass of its field NamedTuple, whose `__new__`
checks them; `_make` and `_replace` skip `__new__`, so nothing calls them
on such a class.

The box rule `require_box`, `IOU_THRESHOLD` and the downsample and class
count defaults live in `rules`, which holds no class, so scoring can check
boxes without this module.  They are imported back and
re-exported here: `BBox` checks the same rule, and `PipelineConfig` takes
the same defaults.
"""

from __future__ import annotations

import sys
from typing import Iterable, NamedTuple, Sequence

from .rules import (  # noqa: F401
    DEFAULT_DOWNSAMPLE,
    DEFAULT_NUM_CLASSES,
    IOU_THRESHOLD,
    _require_finite,
    require_box,
)

TOP_HEIGHT_FRACTION = 0.1
_BELOW_TOP = 1.0 - TOP_HEIGHT_FRACTION


def require_float_sized(name: str, value: int) -> None:
    """An integer that pixel arithmetic makes a float is at most the largest float."""
    if value > sys.float_info.max:
        raise ValueError(f"{name} must be at most {sys.float_info.max:g}")


def require_downsample(downsample: int) -> None:
    """The one rule for a grid's downsample factor R: 1 <= R <= the largest float."""
    if downsample < 1:
        raise ValueError(f"downsample must be >= 1, got {downsample}")
    require_float_sized("downsample", downsample)


def require_peak_limits(max_peaks: int, score_threshold: float) -> None:
    """The one rule for a peak search: at least one peak, a threshold in [0, 1]."""
    if max_peaks < 1:
        raise ValueError("max_peaks must be >= 1")
    if not 0.0 <= score_threshold <= 1.0:
        raise ValueError("score_threshold must be in [0, 1]")


class _BBox(NamedTuple):
    x1: float
    y1: float
    w: float
    h: float


class BBox(_BBox):
    """Axis-aligned box: top-left corner (x1, y1) and positive extent (w, h).

    Every field and the far edges x2 = x1 + w and y2 = y1 + h are finite.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        require_box(*self)
        return self

    @property
    def x2(self) -> float:
        return self.x1 + self.w

    @property
    def y2(self) -> float:
        return self.y1 + self.h

    def corners(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


class _TopPoint(NamedTuple):
    x: float
    y: float


class TopPoint(_TopPoint):
    """Continuous detection anchor in input-image pixels."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _require_finite("TopPoint", *self)
        return self


class GridPoint(NamedTuple):
    """Integer heatmap cell index (col along x, row along y)."""

    col: int
    row: int


class _Detection(NamedTuple):
    top: TopPoint
    cell: GridPoint
    size: tuple[float, float]
    score: float
    class_id: int
    displacement: tuple[float, float]


class Detection(_Detection):
    """One decoded object: anchor point, source cell, box size, score and motion.

    `displacement` is the predicted motion from the previous frame to the
    current one, in pixels; `top` is already offset-corrected back to image
    coordinates.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        w, h = self.size
        if w <= 0 or h <= 0:
            raise ValueError(f"Detection size must be positive, got {self.size}")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"Detection score must be in [0, 1], got {self.score}")
        return self

    def bbox(self) -> BBox:
        (box,) = top_boxes([self.top.x], [self.top.y], [self.size[0]], [self.size[1]])
        return BBox(*box)


class Detections(NamedTuple):
    """A frame's detections as columns, one entry per detection, in decode order.

    Each column holds one field of `Detection` as plain Python values: the
    anchor (x, y), the size (w, h), score and class, the displacement (dx,
    dy) and the source cell (col, row).  `of` and `rows` convert from and
    to `Detection`s; `rows` checks each detection by `TopPoint`'s and
    `Detection`'s rules, in order, so the first broken rule is raised.
    """

    x: list[float]
    y: list[float]
    w: list[float]
    h: list[float]
    score: list[float]
    class_id: list[int]
    dx: list[float]
    dy: list[float]
    col: list[int]
    row: list[int]

    @classmethod
    def of(cls, dets: Iterable[Detection]) -> Detections:
        columns = cls(*([] for _ in cls._fields))
        for d in dets:
            values = (d.top.x, d.top.y, *d.size, d.score, d.class_id, *d.displacement)
            for column, value in zip(columns, (*values, d.cell.col, d.cell.row)):
                column.append(value)
        return columns

    def rows(self) -> list[Detection]:
        return [
            Detection(TopPoint(x, y), GridPoint(col, row), (w, h), score, class_id, (dx, dy))
            for x, y, w, h, score, class_id, dx, dy, col, row in zip(*self)
        ]


class _PipelineConfig(NamedTuple):
    downsample: int = DEFAULT_DOWNSAMPLE
    max_peaks: int = 100
    score_threshold: float = 0.4
    num_classes: int = DEFAULT_NUM_CLASSES
    gate_scale: float = 1.0
    size_loss_weight: float = 0.1
    focal_alpha: float = 2.0
    focal_beta: float = 4.0


class PipelineConfig(_PipelineConfig):
    """Knobs for decoding and association.

    Defaults: downsample factor 4, at most 100 peaks per frame, score
    threshold 0.4, one object class, association gate of 1x the detection's
    larger box side, size-loss weight 0.1 and focal exponents (2, 4).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        require_downsample(self.downsample)
        require_peak_limits(self.max_peaks, self.score_threshold)
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if not self.gate_scale > 0:
            raise ValueError("gate_scale must be positive")
        if not self.size_loss_weight > 0:
            raise ValueError("size_loss_weight must be positive")
        # below these bounds, p**(alpha - 1) at p = 0 or (1 - gt)**beta at gt = 1 is unbounded
        if not self.focal_alpha >= 1:
            raise ValueError("focal_alpha must be >= 1")
        if not self.focal_beta >= 0:
            raise ValueError("focal_beta must be >= 0")
        return self


def top_of(x1, y1, w, h):
    """The top point (x1 + w/2, y1 + h/10) of a box (x1, y1, w, h), of floats or arrays."""
    return x1 + w / 2.0, y1 + h * TOP_HEIGHT_FRACTION


def _corners(x: float, y: float, w: float, h: float) -> tuple[float, float, float, float]:
    """The corners (x1, y1, x2, y2) of the box of size (w, h) whose `top_of` is (x, y)."""
    return x - w / 2.0, y - h * TOP_HEIGHT_FRACTION, x + w / 2.0, y + h * _BELOW_TOP


def top_boxes(
    xs: Sequence[float], ys: Sequence[float], ws: Sequence[float], hs: Sequence[float]
) -> list[tuple[float, float, float, float]]:
    """(x1, y1, w, h) of each box of anchor (x, y) and size (w, h) > 0.

    The box is the one of `_corners`: its extent is x2 - x1 and y2 - y1,
    which can differ from (w, h) in the last bit.
    """
    return [(x1, y1, x2 - x1, y2 - y1) for x1, y1, x2, y2 in map(_corners, xs, ys, ws, hs)]
