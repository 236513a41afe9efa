"""On-disk formats: binary grids, MOTChallenge text rows, head directories.

Grid files are deliberately minimal so any language can read them.  Both
kinds share the magic length and the header; all numbers are little endian:

    magic   7 bytes  ASCII "TTGRID1" (dense) or "TTGRID2" (sparse)
    header  3 x u32  height, width, channels

    dense payload    H*W*C x f32, row-major, channel-minor, all finite
    sparse payload   u32 count k, then k x u32 flat indices (row-major,
                     channel-minor, strictly ascending, each < H*W*C), then
                     k x f32 values, all finite; every other value is 0.0

`write_grid` stores the values whose float32 bit pattern is not zero (so
-0.0 and denormals round-trip exactly) and picks whichever payload is
smaller: sparse when 4 + 8k < 4*H*W*C, dense otherwise, and always dense
when H*W*C exceeds 2**32 and an index could overflow u32.  Head grids are a
few Gaussian bumps and a few regression cells, so they go sparse; a heatmap
with noise added is about half non-zero and costs about the dense size.

MOT rows are the 9-column comma-separated MOTChallenge layout
(frame, id, x, y, w, h, conf, class, visibility); `class` and `visibility`
are written as -1 where this pipeline has nothing meaningful to put there.

A head-output directory holds four grid files per frame, named
NNNNNN.heatmap.grid / .size.grid / .offset.grid / .disp.grid, and one grid
shape: every frame's grids have the same rows and columns.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .geometry import BBox, require_downsample
from .heatmap import FrameAnnotations, HeadOutput, ObjectAnnotation

GRID_MAGIC = b"TTGRID1"
SPARSE_GRID_MAGIC = b"TTGRID2"
_HEADER = struct.Struct("<III")
_COUNT = struct.Struct("<I")
_HEADER_END = len(GRID_MAGIC) + _HEADER.size

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
    """Store a (rows, cols, channels) array as float32, dense or sparse."""
    arr = np.asarray(grid)
    if arr.ndim != 3:
        raise ValueError("grid must be a (rows, cols, channels) array")
    if arr.size == 0:
        raise ValueError("grid must be non-empty")
    h, w, c = arr.shape
    # a finite float64 beyond the float32 range becomes inf here, so the
    # finiteness check runs on the float32 values that are written
    with np.errstate(over="ignore"):
        values = np.ascontiguousarray(arr, dtype="<f4").reshape(-1)
    stored = values.view("<u4") != 0
    k = int(np.count_nonzero(stored))
    if 4 + 8 * k < 4 * values.size and values.size <= 2**32:
        index = np.flatnonzero(stored)
        values = values[index]
        magic, indices = SPARSE_GRID_MAGIC, _COUNT.pack(k) + index.astype("<u4").tobytes()
    else:
        magic, indices = GRID_MAGIC, b""
    if not np.all(np.isfinite(values)):
        raise ValueError("grid contains non-finite values")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(_HEADER.pack(h, w, c))
        fh.write(indices)
        fh.write(values.tobytes())


def read_grid(path: str | Path) -> np.ndarray:
    """Load a dense or sparse grid file back as a dense float64 array."""
    data = Path(path).read_bytes()
    magic = data[: len(GRID_MAGIC)]
    if magic not in (GRID_MAGIC, SPARSE_GRID_MAGIC):
        raise FileFormatError(f"{path}: bad magic, not a grid file")
    if len(data) < _HEADER_END:
        raise FileFormatError(
            f"{path}: truncated header, expected {_HEADER_END} bytes, got {len(data)}"
        )
    h, w, c = _HEADER.unpack(data[len(GRID_MAGIC) : _HEADER_END])
    if h < 1 or w < 1 or c < 1:
        raise FileFormatError(f"{path}: invalid dims {h}x{w}x{c}")
    size = h * w * c
    if magic == GRID_MAGIC:
        expected = _HEADER_END + 4 * size
        if len(data) != expected:
            raise FileFormatError(
                f"{path}: payload mismatch, expected {expected} bytes, got {len(data)}"
            )
        values = np.frombuffer(data, dtype="<f4", offset=_HEADER_END)
        if not np.all(np.isfinite(values)):
            raise FileFormatError(f"{path}: grid contains non-finite values")
        return values.reshape(h, w, c).astype(np.float64)

    count_end = _HEADER_END + _COUNT.size
    if len(data) < count_end:
        raise FileFormatError(
            f"{path}: truncated header, expected {count_end} bytes, got {len(data)}"
        )
    (k,) = _COUNT.unpack(data[_HEADER_END:count_end])
    expected = count_end + 8 * k
    if len(data) != expected:
        raise FileFormatError(
            f"{path}: payload mismatch, expected {expected} bytes for {k} values, "
            f"got {len(data)}"
        )
    index = np.frombuffer(data, dtype="<u4", count=k, offset=count_end)
    values = np.frombuffer(data, dtype="<f4", count=k, offset=count_end + 4 * k)
    if np.any(index[1:] <= index[:-1]):
        raise FileFormatError(f"{path}: indices are not strictly ascending")
    if k and index[-1] >= size:
        raise FileFormatError(f"{path}: index {index[-1]} out of range for {h}x{w}x{c} grid")
    if not np.all(np.isfinite(values)):
        raise FileFormatError(f"{path}: grid contains non-finite values")
    grid = np.zeros(size, dtype=np.float64)
    grid[index] = values
    return grid.reshape(h, w, c)


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
    """One frame's four grids as a `HeadOutput`.

    A frame that breaks a `HeadOutput` rule is a `FileFormatError` naming
    the frame's files.
    """
    require_downsample(downsample)  # a bad argument, not a bad file
    grids = {}
    for name, field in _HEAD_FILES.items():
        path = head_grid_path(directory, frame_index, name)
        if not path.exists():
            raise FileFormatError(f"missing head grid {path}")
        grids[field] = read_grid(path)
    try:
        return HeadOutput(**grids, downsample=downsample)
    except ValueError as exc:
        raise FileFormatError(f"{head_grid_path(directory, frame_index, '*')}: {exc}") from exc


def list_head_frames(directory: str | Path) -> list[int]:
    """Frame indices present in a head-output directory, ascending."""
    pattern = re.compile(r"^(\d{6})\.heatmap\.grid$")
    frames = []
    for entry in Path(directory).iterdir():
        m = pattern.match(entry.name)
        if m:
            frames.append(int(m.group(1)))
    return sorted(frames)
