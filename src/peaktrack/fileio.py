"""On-disk formats: binary grids, MOTChallenge text rows, head directories.

Grid files are deliberately minimal so any language can read them:

    magic   7 bytes  ASCII "TTGRID1"
    header  3 x u32  little endian: height, width, channels
    payload H*W*C x f32 little endian, row-major, channel-minor, all finite

MOT rows are the 9-column comma-separated MOTChallenge layout
(frame, id, x, y, w, h, conf, class, visibility); `class` and `visibility`
are written as -1 where this pipeline has nothing meaningful to put there.

A head-output directory holds four grid files per frame, named
NNNNNN.heatmap.grid / .size.grid / .offset.grid / .disp.grid.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .geometry import BBox
from .heatmap import FrameAnnotations, HeadOutput, ObjectAnnotation

GRID_MAGIC = b"TTGRID1"
_HEADER = struct.Struct("<III")

# head grid file name -> HeadOutput field
_HEAD_FILES = {
    "heatmap": "heatmap",
    "size": "size_map",
    "offset": "offset_map",
    "disp": "disp_map",
}


class FileFormatError(Exception):
    """A file does not follow one of the formats above."""


def write_grid(path: str | Path, grid: np.ndarray) -> None:
    """Store a (rows, cols, channels) array as float32."""
    arr = np.asarray(grid)
    if arr.ndim != 3:
        raise ValueError("grid must be a (rows, cols, channels) array")
    if arr.size == 0:
        raise ValueError("grid must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("grid contains non-finite values")
    h, w, c = arr.shape
    payload = np.ascontiguousarray(arr, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(GRID_MAGIC)
        fh.write(_HEADER.pack(h, w, c))
        fh.write(payload)


def read_grid(path: str | Path) -> np.ndarray:
    """Load a grid file back as float64."""
    data = Path(path).read_bytes()
    if data[: len(GRID_MAGIC)] != GRID_MAGIC:
        raise FileFormatError(f"{path}: bad magic, not a grid file")
    header_end = len(GRID_MAGIC) + _HEADER.size
    if len(data) < header_end:
        raise FileFormatError(
            f"{path}: truncated header, expected {header_end} bytes, got {len(data)}"
        )
    h, w, c = _HEADER.unpack(data[len(GRID_MAGIC) : header_end])
    if h < 1 or w < 1 or c < 1:
        raise FileFormatError(f"{path}: invalid dims {h}x{w}x{c}")
    expected = header_end + 4 * h * w * c
    if len(data) != expected:
        raise FileFormatError(
            f"{path}: payload mismatch, expected {expected} bytes, got {len(data)}"
        )
    values = np.frombuffer(data, dtype="<f4", offset=header_end)
    if not np.all(np.isfinite(values)):
        raise FileFormatError(f"{path}: grid contains non-finite values")
    return values.reshape(h, w, c).astype(np.float64)


@dataclass(frozen=True)
class MotRow:
    frame: int
    track_id: int
    x: float
    y: float
    w: float
    h: float
    conf: float = 1.0
    class_id: int = -1
    visibility: float = -1.0


def _parse_int(text: str, what: str, path: str | Path, line_no: int) -> int:
    try:
        value = float(text)
    except ValueError:
        raise FileFormatError(f"{path}:{line_no}: {what} {text!r} is not a number")
    if value != int(value):
        raise FileFormatError(f"{path}:{line_no}: {what} {text!r} is not integral")
    return int(value)


def read_mot_file(path: str | Path) -> list[MotRow]:
    """Parse a MOT result or ground-truth file, preserving row order."""
    rows: list[MotRow] = []
    first_line: dict[tuple[int, int], int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 9:
                raise FileFormatError(
                    f"{path}:{line_no}: expected 9 comma-separated fields, "
                    f"got {len(fields)}"
                )
            frame = _parse_int(fields[0], "frame", path, line_no)
            track_id = _parse_int(fields[1], "id", path, line_no)
            class_id = _parse_int(fields[7], "class", path, line_no)
            try:
                x, y, w, h, conf, vis = (float(fields[i]) for i in (2, 3, 4, 5, 6, 8))
                BBox(x, y, w, h)
            except ValueError as exc:
                raise FileFormatError(f"{path}:{line_no}: {exc}")
            if frame < 1:
                raise FileFormatError(f"{path}:{line_no}: frame must be >= 1")
            earlier = first_line.setdefault((frame, track_id), line_no)
            if earlier != line_no:
                raise FileFormatError(
                    f"{path}:{line_no}: id {track_id} already appears in frame {frame} "
                    f"at line {earlier}"
                )
            rows.append(MotRow(frame, track_id, x, y, w, h, conf, class_id, vis))
    return rows


def write_mot_file(path: str | Path, rows: Iterable[MotRow]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in rows:
            fh.write(
                f"{r.frame},{r.track_id},{r.x:.6f},{r.y:.6f},{r.w:.6f},{r.h:.6f},"
                f"{r.conf:.6f},{r.class_id},{r.visibility:g}\n"
            )


def rows_to_frames(rows: Sequence[MotRow]) -> dict[int, list[tuple[int, BBox]]]:
    """Group rows by frame for the evaluation module."""
    frames: dict[int, list[tuple[int, BBox]]] = {}
    for r in rows:
        frames.setdefault(r.frame, []).append((r.track_id, BBox(r.x, r.y, r.w, r.h)))
    return frames


def rows_to_annotations(rows: Sequence[MotRow]) -> list[FrameAnnotations]:
    """Rows as per-frame annotations; a class of -1 maps to class 0."""
    by_frame: dict[int, list[ObjectAnnotation]] = {}
    for r in rows:
        class_id = 0 if r.class_id < 0 else r.class_id
        by_frame.setdefault(r.frame, []).append(
            ObjectAnnotation(r.track_id, class_id, BBox(r.x, r.y, r.w, r.h))
        )
    return [
        FrameAnnotations(frame, tuple(objs)) for frame, objs in sorted(by_frame.items())
    ]


def head_grid_path(directory: str | Path, frame_index: int, map_name: str) -> Path:
    return Path(directory) / f"{frame_index:06d}.{map_name}.grid"


def write_head_outputs(directory: str | Path, frame_index: int, head: HeadOutput) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, field in _HEAD_FILES.items():
        write_grid(head_grid_path(directory, frame_index, name), getattr(head, field))


def read_head_outputs(
    directory: str | Path, frame_index: int, downsample: int
) -> HeadOutput:
    grids = {}
    for name, field in _HEAD_FILES.items():
        path = head_grid_path(directory, frame_index, name)
        if not path.exists():
            raise FileFormatError(f"missing head grid {path}")
        grids[field] = read_grid(path)
    return HeadOutput(**grids, downsample=downsample)


def list_head_frames(directory: str | Path) -> list[int]:
    """Frame indices present in a head-output directory, ascending."""
    pattern = re.compile(r"^(\d{6})\.heatmap\.grid$")
    frames = []
    for entry in Path(directory).iterdir():
        m = pattern.match(entry.name)
        if m:
            frames.append(int(m.group(1)))
    return sorted(frames)
