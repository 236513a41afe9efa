"""Shared builders for the test suite."""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np
import pytest

from peaktrack import (
    BBox,
    Detection,
    FrameAnnotations,
    GridPoint,
    ObjectAnnotation,
    Track,
    TopPoint,
)

from .oracles import euclid


@pytest.fixture(autouse=True, scope="session")
def _src_on_child_path():
    """Put `src/` on the path of the `python -m peaktrack` processes tests start.

    `pythonpath = ["src"]` in pyproject.toml reaches only this process.
    """
    with pytest.MonkeyPatch.context() as mp:
        src = Path(__file__).resolve().parents[1] / "src"
        mp.setenv("PYTHONPATH", str(src), prepend=os.pathsep)
        yield


def make_detection(
    x: float,
    y: float,
    w: float = 12.0,
    h: float = 30.0,
    score: float = 1.0,
    class_id: int = 0,
    disp: tuple[float, float] = (0.0, 0.0),
    downsample: int = 4,
) -> Detection:
    return Detection(
        top=TopPoint(x, y),
        cell=GridPoint(math.floor(x / downsample), math.floor(y / downsample)),
        size=(w, h),
        score=score,
        class_id=class_id,
        displacement=disp,
    )


def make_track(track_id: int, x: float, y: float, class_id: int = 0) -> Track:
    return Track(id=track_id, class_id=class_id, last_top=TopPoint(x, y))


def random_instance(rng, n_tracks, n_dets, span=200.0, classes=1):
    """Random tracks and detections for the matcher oracles."""
    tracks = [
        make_track(
            i + 1,
            float(rng.uniform(0, span)),
            float(rng.uniform(0, span)),
            class_id=int(rng.integers(classes)),
        )
        for i in range(n_tracks)
    ]
    dets = [
        make_detection(
            float(rng.uniform(0, span)),
            float(rng.uniform(0, span)),
            w=float(rng.uniform(5, 40)),
            h=float(rng.uniform(5, 40)),
            score=float(rng.choice([0.5, 0.6, 0.7, 0.8, 0.9, 1.0])),
            class_id=int(rng.integers(classes)),
            disp=(float(rng.normal(0, 5)), float(rng.normal(0, 5))),
        )
        for _ in range(n_dets)
    ]
    return tracks, dets


def match_cost(tracks, dets, matches):
    """Total distance of `matches`, from each track to its detection's
    predicted previous position."""
    by_id = {t.id: t for t in tracks}
    total = 0.0
    for tid, di in matches:
        det = dets[di]
        predicted = (det.top.x - det.displacement[0], det.top.y - det.displacement[1])
        total += euclid((by_id[tid].last_top.x, by_id[tid].last_top.y), predicted)
    return total


def separated_annotations(
    rng: np.random.Generator,
    frame_index: int,
    n_objects: int,
    image_size: tuple[int, int] = (640, 640),
    downsample: int = 4,
    min_cell_gap: int = 3,
    num_classes: int = 1,
) -> FrameAnnotations:
    """Random frame whose top cells are pairwise >= min_cell_gap apart.

    Boxes use integer corners, even widths and heights divisible by 10, so
    every geometric operation downstream is exact in float arithmetic.
    """
    h_px, w_px = image_size
    cells: list[tuple[int, int]] = []
    objects: list[ObjectAnnotation] = []
    attempts = 0
    while len(objects) < n_objects:
        attempts += 1
        if attempts > 20000:
            raise RuntimeError("could not place separated objects; lower n_objects")
        w = 2 * int(rng.integers(4, 31))      # even, 8..60
        h = 10 * int(rng.integers(1, 13))     # multiple of 10, 10..120
        top_x = int(rng.integers(w // 2, w_px - w // 2 + 1))
        top_y = int(rng.integers(h // 10, h_px - (h - h // 10) + 1))
        col, row = top_x // downsample, top_y // downsample
        if any(max(abs(col - c), abs(row - r)) < min_cell_gap for c, r in cells):
            continue
        cells.append((col, row))
        objects.append(
            ObjectAnnotation(
                track_id=len(objects) + 1,
                class_id=int(rng.integers(num_classes)),
                bbox=BBox(float(top_x - w // 2), float(top_y - h // 10), float(w), float(h)),
            )
        )
    return FrameAnnotations(frame_index, tuple(objects))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
