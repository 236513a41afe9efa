"""Synthetic scenes, ideal head outputs, and controlled corruption.

The generator moves constant-velocity agents inside the frame (velocities
flip at the borders, and a step of any length is folded back in, so boxes
never leave it) and hands out persistent ids, which gives the rest of the
pipeline a deterministic desk-scale test bed.  `corrupt` converts
annotations into the grids a perfect network would emit, as `SparseGrid`s of
their stored cells, degraded with the usual failure modes: dropped objects,
spurious peaks, position jitter, heatmap noise and a temporally jittered
reference frame.
`synthesize_head_outputs` is `corrupt` with every rate 0.  Seeds must be
>= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import BBox, PipelineConfig, TopPoint, quantize_point
from .heatmap import (
    FrameAnnotations,
    HeadOutput,
    ObjectAnnotation,
    SparseGrid,
    _grid_dims,
    check_class_ids,
    clamped_top,
    draw_bumps,
    gaussian_sigma,
    place_objects,
    stored_bits,
)


def _require_seed(seed: int) -> None:
    # numpy's own message for a negative seed names no config key
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


@dataclass(frozen=True)
class SceneConfig:
    """Scene geometry and dynamics; image dims are (height, width) pixels."""

    height: int
    width: int
    frames: int
    min_objects: int
    max_objects: int
    min_size: float
    max_size: float
    min_speed: float
    max_speed: float
    downsample: int = PipelineConfig.downsample
    spawn_prob: float = 0.0
    despawn_prob: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        _grid_dims(self.image_size, self.downsample)
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

    @property
    def image_size(self) -> tuple[int, int]:
        return (self.height, self.width)


@dataclass(frozen=True)
class CorruptionConfig:
    """Rates for the supported degradations; all-zero means identity."""

    fn_rate: float = 0.0
    fp_rate: float = 0.0
    jitter_sigma: float = 0.0
    hm_noise_sigma: float = 0.0
    temporal_jitter_k: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.fn_rate <= 1.0:
            raise ValueError("fn_rate must be in [0, 1]")
        if self.fp_rate < 0 or self.jitter_sigma < 0 or self.hm_noise_sigma < 0:
            raise ValueError("corruption rates must be non-negative")
        if not 0 <= self.temporal_jitter_k <= 3:
            raise ValueError("temporal_jitter_k must be in 0..3")
        _require_seed(self.seed)


@dataclass
class _Agent:
    id: int
    w: float
    h: float
    x: float
    y: float
    vx: float
    vy: float


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


def _stored(shape: tuple[int, int, int], index: np.ndarray, values: np.ndarray) -> SparseGrid:
    """The entries whose float bits are not zero, as a grid: `SparseGrid.of`'s rule."""
    kept = stored_bits(values)
    return SparseGrid(shape, index[kept], values[kept])


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
    boxes are shifted by N(0, jitter_sigma^2).  The survivors are then
    rendered as a perfect network would: the heatmap is their ground truth,
    and at each one's top cell the size, quantization offset and
    displacement (current top minus reference top, zero for objects without
    one) are written; all other cells stay zero.  Both tops are
    `heatmap.clamped_top`; a reference object beyond its margin has no top
    and is not placed, so only this frame's skips are logged.  Every class
    id of both frames is checked before the first random draw, so an
    out-of-range class fails whatever `fn_rate` drops.  A
    Poisson(fp_rate)-distributed number of spurious peaks is injected at
    uniform positions with sizes resampled from the frame's objects, each
    carrying believable size/offset entries and a score in [0.5, 1].
    Finally Gaussian noise of scale `hm_noise_sigma` is added to the heatmap
    and clamped back to [0, 1].  Pass `rng` to thread one stream through a
    whole sequence; otherwise a fresh one is seeded from the config.

    The four grids are `SparseGrid`s built from per-entry arrays: the
    heatmap is `heatmap.draw_bumps` of all bumps, made dense only to add
    noise, and each regression grid keeps the last entry written to a cell.
    No dense regression grid is allocated.
    """
    rows, cols = _grid_dims(image_size, downsample)
    prev_objects = ann_prev.objects if ann_prev is not None else ()
    check_class_ids((*ann_t.objects, *prev_objects), num_classes)
    if rng is None:
        rng = np.random.default_rng(corruption.seed)
    h_px, w_px = image_size

    kept = [obj for obj in ann_t.objects if rng.random() >= corruption.fn_rate]
    if corruption.jitter_sigma > 0:
        jittered = []
        for obj in kept:
            dx, dy = rng.normal(0.0, corruption.jitter_sigma, size=2)
            box = obj.bbox
            jittered.append(
                ObjectAnnotation(
                    obj.track_id,
                    obj.class_id,
                    BBox(box.x1 + float(dx), box.y1 + float(dy), box.w, box.h),
                )
            )
        kept = jittered

    # None for a reference object beyond the clamp margin, as for an unmatched one
    prev_tops = {o.track_id: clamped_top(o.bbox, image_size, downsample) for o in prev_objects}
    kept_ann = FrameAnnotations(ann_t.frame_index, tuple(kept))
    placements = place_objects(kept_ann, image_size, downsample, num_classes)

    # one entry per placement, then per false positive:
    # row, col, class, sigma, peak, w, h, offset x, offset y, dx, dy
    entries = []
    for p in placements:
        prev = prev_tops.get(p.annotation.track_id)
        disp = (p.top.x - prev.x, p.top.y - prev.y) if prev else (0.0, 0.0)
        box = p.annotation.bbox
        entries.append(
            (p.cell.row, p.cell.col, p.annotation.class_id, p.sigma, 1.0, box.w, box.h)
            + p.offset
            + disp
        )

    size_pool = [(o.bbox.w, o.bbox.h) for o in ann_t.objects]
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
        cell, offset = quantize_point(TopPoint(x, y), downsample)
        class_id = int(rng.integers(num_classes))
        peak = float(rng.uniform(0.5, 1.0))
        sigma = gaussian_sigma((fp_w, fp_h), downsample)
        entries.append(
            (cell.row, cell.col, class_id, sigma, peak, fp_w, fp_h) + offset + (0.0, 0.0)
        )

    table = np.array(entries, dtype=np.float64).reshape(-1, 11)
    cell_row, cell_col, channel = table[:, :3].astype(np.int64).T
    heatmap = draw_bumps(
        (rows, cols, num_classes), cell_row, cell_col, channel, table[:, 3], table[:, 4]
    )
    if corruption.hm_noise_sigma > 0:
        dense = heatmap.dense()
        dense += rng.normal(0.0, corruption.hm_noise_sigma, size=dense.shape)
        np.clip(dense, 0.0, 1.0, out=dense)
        heatmap = SparseGrid.of(dense)

    # a cell keeps its last entry, as assigning the entries in order would;
    # np.unique keeps the first occurrence, so it reads them backwards
    cells, last = np.unique((cell_row * cols + cell_col)[::-1], return_index=True)
    index = (2 * cells[:, None] + (0, 1)).reshape(-1)
    winners = table[::-1][last]
    size_map, offset_map, disp_map = (
        _stored((rows, cols, 2), index, winners[:, k : k + 2].reshape(-1)) for k in (5, 7, 9)
    )
    return HeadOutput(heatmap, size_map, offset_map, disp_map, downsample)
