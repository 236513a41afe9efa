"""Synthetic scenes, ideal head outputs, and controlled corruption.

The generator moves constant-velocity agents inside the frame (velocities
flip at the borders, and a step of any length is folded back in, so boxes
never leave it) and hands out persistent ids, which gives the rest of the
pipeline a deterministic desk-scale test bed.  `corrupt` converts
annotations into the grids a perfect network would emit, as `SparseGrid`s of
their stored cells (a heatmap with noise added stays a dense array),
degraded with the usual failure modes: dropped objects, spurious peaks,
position jitter, heatmap noise and a temporally jittered reference frame.
Objects, reference-frame anchors and false positives are placed as columns
through one array path, anchored by `geometry.top_of`.
`synthesize_head_outputs` is `corrupt` with every rate 0.  Seeds must be
>= 0, and frame dims at most the largest float.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import DEFAULT_DOWNSAMPLE, BBox, require_box, require_float_sized, top_of
from .heatmap import (
    FrameAnnotations,
    HeadOutput,
    ObjectAnnotation,
    SparseGrid,
    _grid_dims,
    check_class_ids,
    draw_bumps,
    gaussian_sigma,
)


def _require_seed(seed: int) -> None:
    # numpy's own message for a negative seed names no config key
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


class _SceneConfig(NamedTuple):
    height: int
    width: int
    frames: int
    min_objects: int
    max_objects: int
    min_size: float
    max_size: float
    min_speed: float
    max_speed: float
    downsample: int = DEFAULT_DOWNSAMPLE
    spawn_prob: float = 0.0
    despawn_prob: float = 0.0
    seed: int = 0


class SceneConfig(_SceneConfig):
    """Scene geometry and dynamics; image dims are (height, width) pixels."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _grid_dims(self.image_size, self.downsample)
        for name in ("height", "width"):  # positions in the frame are floats
            require_float_sized(name, getattr(self, name))
        # MOT frame numbers and numpy's draw of the object count are int64
        for name in ("frames", "max_objects"):
            if getattr(self, name) >= 2**63:
                raise ValueError(f"{name} must be < 2**63")
        if self.frames < 1:
            raise ValueError("frames must be >= 1")
        if not 1 <= self.min_objects <= self.max_objects:
            raise ValueError("need 1 <= min_objects <= max_objects")
        if not 0 < self.min_size <= self.max_size:
            raise ValueError("need 0 < min_size <= max_size")
        if self.max_size > min(self.width, self.height):
            raise ValueError("objects larger than the frame cannot be placed")
        if not 0 <= self.min_speed <= self.max_speed:
            raise ValueError("need 0 <= min_speed <= max_speed")
        for name in ("spawn_prob", "despawn_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        _require_seed(self.seed)
        return self

    @property
    def image_size(self) -> tuple[int, int]:
        return (self.height, self.width)


class _CorruptionConfig(NamedTuple):
    fn_rate: float = 0.0
    fp_rate: float = 0.0
    jitter_sigma: float = 0.0
    hm_noise_sigma: float = 0.0
    temporal_jitter_k: int = 0
    seed: int = 0


class CorruptionConfig(_CorruptionConfig):
    """Rates for the supported degradations; all-zero means identity."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 <= self.fn_rate <= 1.0:
            raise ValueError("fn_rate must be in [0, 1]")
        if not (self.fp_rate >= 0 and self.jitter_sigma >= 0 and self.hm_noise_sigma >= 0):
            raise ValueError("corruption rates must be non-negative")
        if not 0 <= self.temporal_jitter_k <= 3:
            raise ValueError("temporal_jitter_k must be in 0..3")
        _require_seed(self.seed)
        return self


class _Agent:
    __slots__ = ("id", "w", "h", "x", "y", "vx", "vy")

    def __init__(self, id: int, w: float, h: float, x: float, y: float, vx: float, vy: float):
        self.id, self.w, self.h, self.x, self.y, self.vx, self.vy = id, w, h, x, y, vx, vy


def _spawn_agent(rng: np.random.Generator, cfg: SceneConfig, agent_id: int) -> _Agent:
    w = float(rng.uniform(cfg.min_size, cfg.max_size))
    h = float(rng.uniform(cfg.min_size, cfg.max_size))
    x = float(rng.uniform(0.0, cfg.width - w))
    y = float(rng.uniform(0.0, cfg.height - h))
    vx = float(rng.uniform(cfg.min_speed, cfg.max_speed))
    vy = float(rng.uniform(cfg.min_speed, cfg.max_speed))
    if rng.random() < 0.5:
        vx = -vx
    if rng.random() < 0.5:
        vy = -vy
    return _Agent(agent_id, w, h, x, y, vx, vy)


def _reflect(pos: float, vel: float, hi: float) -> tuple[float, float]:
    # Fold the position back into [0, hi], flipping direction per bounce.
    if hi <= 0.0:
        return 0.0, 0.0
    if abs(pos) > 2.0 * hi:
        # a period of 2*hi is two bounces, so vel keeps its sign; fmod is exact,
        # and the loop alone would never end once 2*hi - pos rounds to -pos
        pos = math.fmod(pos, 2.0 * hi)
    while pos < 0.0 or pos > hi:
        if pos < 0.0:
            pos = -pos
        else:
            pos = 2.0 * hi - pos
        vel = -vel
    return pos, vel


def gen_scene(cfg: SceneConfig) -> list[FrameAnnotations]:
    """Generate annotations for `cfg.frames` frames.

    Agents keep their velocity until they bounce off a frame border; each
    frame every agent may despawn (permanently) with `despawn_prob` and one
    new agent may spawn with `spawn_prob` while below `max_objects`.  Boxes
    always lie fully inside the frame.
    """
    rng = np.random.default_rng(cfg.seed)
    next_id = 1
    agents: list[_Agent] = []
    for _ in range(int(rng.integers(cfg.min_objects, cfg.max_objects + 1))):
        agents.append(_spawn_agent(rng, cfg, next_id))
        next_id += 1

    frames: list[FrameAnnotations] = []
    for frame_index in range(1, cfg.frames + 1):
        if frame_index > 1:
            agents = [a for a in agents if rng.random() >= cfg.despawn_prob]
            for a in agents:
                a.x, a.vx = _reflect(a.x + a.vx, a.vx, cfg.width - a.w)
                a.y, a.vy = _reflect(a.y + a.vy, a.vy, cfg.height - a.h)
            if len(agents) < cfg.max_objects and rng.random() < cfg.spawn_prob:
                agents.append(_spawn_agent(rng, cfg, next_id))
                next_id += 1
        frames.append(
            FrameAnnotations(
                frame_index,
                tuple(
                    ObjectAnnotation(a.id, 0, BBox(a.x, a.y, a.w, a.h)) for a in agents
                ),
            )
        )
    return frames


def synthesize_head_outputs(
    ann_t: FrameAnnotations,
    ann_prev: FrameAnnotations | None,
    image_size: tuple[int, int],
    downsample: int,
    num_classes: int = 1,
) -> HeadOutput:
    """Grids a perfect network would produce for this frame pair.

    This is `corrupt` with every rate 0; see there for the grid layout.
    """
    return corrupt(ann_t, ann_prev, image_size, downsample, CorruptionConfig(), num_classes)


def pick_reference_frame(
    frame_index: int,
    total_frames: int,
    jitter_k: int,
    rng: np.random.Generator,
) -> int | None:
    """Index of the frame used as the displacement reference.

    With no jitter this is simply the previous frame (None for the first).
    A jitter of k picks uniformly from [t-k, t+k] clamped to the sequence.
    """
    if jitter_k == 0:
        return frame_index - 1 if frame_index > 1 else None
    lo = max(frame_index - jitter_k, 1)
    hi = min(frame_index + jitter_k, total_frames)
    return int(rng.integers(lo, hi + 1))


def check_grid(
    image_size: tuple[int, int],
    downsample: int,
    num_classes: int,
    objects: Sequence[ObjectAnnotation],
) -> tuple[int, int]:
    """(rows, cols) of the head grids, after every check `corrupt` makes before drawing.

    The image dims are positive multiples of R, every object's class is one
    of `num_classes`, and every flat cell index fits int64.
    """
    rows, cols = _grid_dims(image_size, downsample)
    check_class_ids(objects, num_classes)
    # flat indices are int64, on the heatmap's channels and the regression grids' two
    if rows * cols * max(num_classes, 2) > 2**63:
        raise ValueError(
            f"a {rows}x{cols} grid with num_classes {num_classes} has more cells than "
            "an int64 index reaches"
        )
    return rows, cols


def _columns(objects: tuple[ObjectAnnotation, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boxes as (n, 4) rows (x1, y1, w, h), class ids and track ids of annotated objects."""
    boxes = [(o.bbox.x1, o.bbox.y1, o.bbox.w, o.bbox.h) for o in objects]
    return (
        np.array(boxes, dtype=np.float64).reshape(-1, 4),
        np.array([o.class_id for o in objects], dtype=np.int64),
        np.array([o.track_id for o in objects], dtype=np.int64),
    )


def _anchors(
    boxes: np.ndarray, image_size: tuple[int, int], downsample: int
) -> tuple[np.ndarray, np.ndarray]:
    """Anchors (n, 2) of (n, 4) boxes on the frame, and the mask of boxes that have one.

    A box's anchor is its top point (`geometry.top_of`) clamped onto the
    frame, strictly inside so its cell index stays in range.  A top point up
    to one cell (R pixels) outside the frame is clamped; one farther out has
    no anchor.
    """
    h_px, w_px = image_size
    margin = float(downsample)
    x, y = top_of(*boxes.T)
    has = (-margin <= x) & (x < w_px + margin) & (-margin <= y) & (y < h_px + margin)
    tops = np.stack([np.clip(x, 0.0, w_px - 1e-6), np.clip(y, 0.0, h_px - 1e-6)], axis=1)
    return tops, has


def corrupt(
    ann_t: FrameAnnotations,
    ann_prev: FrameAnnotations | None,
    image_size: tuple[int, int],
    downsample: int,
    corruption: CorruptionConfig,
    num_classes: int = 1,
    rng: np.random.Generator | None = None,
) -> HeadOutput:
    """Head outputs for a frame pair, degraded by `corruption`.

    Each object is dropped with probability `fn_rate` and the survivors'
    boxes are shifted by N(0, jitter_sigma^2); a shifted box whose edge
    leaves float64 fails by `require_box`.  The survivors are then rendered
    as a perfect network would: the heatmap is their ground truth, and at
    each one's top cell the size, quantization offset and displacement
    (current anchor minus reference anchor, zero for objects without one)
    are written; all other cells stay zero.  Both frames anchor by
    `_anchors`; an object of this frame without an anchor is skipped (one
    warning per frame reports the count), and one of the reference frame
    gives no displacement and logs nothing.  Every class id of both frames
    is checked before the first random draw, so an out-of-range class fails
    whatever `fn_rate` drops, and so is the grid size: every flat index must
    fit int64.  A Poisson(fp_rate)-distributed number of spurious peaks is
    injected at uniform positions with sizes resampled from the frame's
    objects, each carrying believable size/offset entries and a score in
    [0.5, 1].  Finally Gaussian noise of scale `hm_noise_sigma` is added to
    the heatmap and clamped back to [0, 1].  Pass `rng` to thread one stream
    through a whole sequence; otherwise a fresh one is seeded from the
    config.

    Objects and false positives are placed together, as columns of one
    entry each, objects first: cell floor(p / R), offset p / R - cell and
    the sigma of `gaussian_sigma`.  The grids are built from those columns:
    the heatmap is the `SparseGrid` of `heatmap.draw_bumps` of all bumps, or
    a dense array once noise is added, and each regression grid is the
    `SparseGrid.of_columns` of the last entry written to each cell.  No
    dense regression grid is allocated.
    """
    prev_objects = ann_prev.objects if ann_prev is not None else ()
    rows, cols = check_grid(image_size, downsample, num_classes, (*ann_t.objects, *prev_objects))
    if rng is None:
        rng = np.random.default_rng(corruption.seed)
    h_px, w_px = image_size

    all_boxes, class_ids, ids = _columns(ann_t.objects)
    kept = rng.random(len(all_boxes)) >= corruption.fn_rate
    boxes, class_ids, ids = all_boxes[kept], class_ids[kept], ids[kept]
    if corruption.jitter_sigma > 0:
        boxes[:, :2] += rng.normal(0.0, corruption.jitter_sigma, size=(len(boxes), 2))
        # the first box with an edge beyond float64 raises the box rule's message
        for box in boxes[~np.isfinite(boxes[:, :2] + boxes[:, 2:]).all(axis=1)][:1]:
            require_box(*box.tolist())

    tops, placed = _anchors(boxes, image_size, downsample)
    if not placed.all():
        import logging  # only to warn, so a scene with nothing to skip never loads it

        logging.getLogger(__name__).warning(
            "frame %d: skipped %d object(s) with top point beyond the clamp margin",
            ann_t.frame_index,
            (~placed).sum(),
        )
    boxes, class_ids, ids, tops = (a[placed] for a in (boxes, class_ids, ids, tops))
    disp = np.zeros_like(tops)
    if prev_objects:
        prev_boxes, _, prev_ids = _columns(prev_objects)
        prev_tops, prev_placed = _anchors(prev_boxes, image_size, downsample)
        order = np.argsort(prev_ids)
        at = order[np.minimum(np.searchsorted(prev_ids[order], ids), order.size - 1)]
        found = (prev_ids[at] == ids) & prev_placed[at]
        disp[found] = tops[found] - prev_tops[at[found]]

    # false positives: x, y, w, h, class, peak
    size_pool = all_boxes[:, 2:].tolist()
    fps = []
    for _ in range(int(rng.poisson(corruption.fp_rate))):
        # keep strictly inside the frame so the cell index stays in range
        x = min(float(rng.uniform(0.0, w_px)), w_px - 1e-6)
        y = min(float(rng.uniform(0.0, h_px)), h_px - 1e-6)
        if size_pool:
            base_w, base_h = size_pool[int(rng.integers(len(size_pool)))]
            scale = float(rng.uniform(0.5, 1.5))
            fp_w = min(base_w * scale, float(w_px))
            fp_h = min(base_h * scale, float(h_px))
        else:
            fp_w = float(rng.uniform(w_px / 16.0, w_px / 4.0))
            fp_h = float(rng.uniform(h_px / 16.0, h_px / 4.0))
        class_id = int(rng.integers(num_classes))
        fps.append((x, y, fp_w, fp_h, class_id, float(rng.uniform(0.5, 1.0))))
    fp = np.array(fps, dtype=np.float64).reshape(-1, 6)

    point = np.concatenate([tops, fp[:, :2]]) / downsample
    cell = np.floor(point)
    offset = point - cell
    cell_col, cell_row = cell.astype(np.int64).T
    size = np.concatenate([boxes[:, 2:], fp[:, 2:4]])
    disp = np.concatenate([disp, np.zeros((len(fp), 2))])
    heatmap = draw_bumps(
        (rows, cols, num_classes),
        cell_row,
        cell_col,
        np.concatenate([class_ids, fp[:, 4].astype(np.int64)]),
        gaussian_sigma((size[:, 0], size[:, 1]), downsample),
        np.concatenate([np.ones(len(tops)), fp[:, 5]]),
    )
    if corruption.hm_noise_sigma > 0:
        # about half the cells are not zero now, so the heatmap stays dense
        heatmap = heatmap.dense()
        heatmap += rng.normal(0.0, corruption.hm_noise_sigma, size=heatmap.shape)
        np.clip(heatmap, 0.0, 1.0, out=heatmap)

    # a cell keeps its last entry, as assigning the entries in order would;
    # np.unique keeps the first occurrence, so it reads them backwards
    cells, last = np.unique((cell_row * cols + cell_col)[::-1], return_index=True)
    index = (2 * cells[:, None] + (0, 1)).reshape(-1)
    winners = len(cell) - 1 - last
    size_map, offset_map, disp_map = (
        SparseGrid.of_columns((rows, cols, 2), index, a[winners].reshape(-1))
        for a in (size, offset, disp)
    )
    return HeadOutput(heatmap, size_map, offset_map, disp_map, downsample)
