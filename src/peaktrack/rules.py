"""Box and top-point rules, the finiteness test and the defaults every command needs at start-up.

This module holds no class and imports nothing beyond `math` and `typing`,
so `evaluate` can check MOT boxes and show its defaults without loading
`geometry`.  `geometry` re-exports the box rule and the defaults, so
`BBox` and `PipelineConfig` keep one source for the rule and for each
default.  `require_top_points` is `TopPoint`'s rule on columns, which
decode and association check without building a `TopPoint`.
"""

from __future__ import annotations

import math
from typing import Collection, Sequence

# a prediction matches a ground-truth box at IoU >= this, unless set otherwise
IOU_THRESHOLD = 0.5
# the `PipelineConfig` defaults that `render-heatmap`'s options show
DEFAULT_DOWNSAMPLE = 4
DEFAULT_NUM_CLASSES = 1


def all_finite(values: Collection[float]) -> bool:
    """Whether every value is finite; a finite sum says so at once, else each value is tested."""
    return math.isfinite(sum(values)) or all(map(math.isfinite, values))


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


def require_top_points(xs: Sequence[float], ys: Sequence[float]) -> None:
    """`TopPoint`'s rule on columns: each (x, y) is finite, and the first pair
    that is not raises as a `TopPoint` would, without building one."""
    if not (all_finite(xs) and all_finite(ys)):
        for x, y in zip(xs, ys):
            _require_finite("TopPoint", x, y)


def require_box(x1: float, y1: float, w: float, h: float) -> None:
    """The one rule for a box: finite x1, y1, w, h, with w, h > 0, and far
    edges x1 + w and y1 + h that are finite too.

    A broken rule raises ValueError for the first of these three checks that
    fails.
    """
    x2, y2 = x1 + w, y1 + h
    if w > 0 and h > 0 and math.isfinite(x2) and math.isfinite(y2):
        return  # a sum is finite only when both its terms are
    _require_finite("BBox", x1, y1, w, h)
    if w <= 0 or h <= 0:
        raise ValueError(f"BBox extent must be positive, got w={w}, h={h}")
    raise ValueError(f"BBox edges must be finite, got x2={x2}, y2={y2}")
