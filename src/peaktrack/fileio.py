"""On-disk formats: binary grids, MOTChallenge text rows, head directories.

Grid files are deliberately minimal so any language can read them.  Both
kinds share the magic length and the header; all numbers are little endian:

    magic   7 bytes  ASCII "TTGRID1" (dense) or "TTGRID2" (sparse)
    header  3 x u32  height, width, channels

    dense payload    H*W*C x f32, row-major, channel-minor, all finite
    sparse payload   u32 count k, then k x u32 flat indices (row-major,
                     channel-minor, strictly ascending, each < H*W*C), then
                     k x f32 values, all finite; every other value is 0.0

A `SparseGrid` holds a grid as its stored cells and checks its own index
rules when it is built: three dims >= 1, and a 1-D integer index, strictly
ascending and inside the grid, with one value each.  `SparseGrid.of` is the
one stored-cell rule: a cell is stored when its float bits are not zero, so
-0.0 and denormals round-trip exactly.  `write_grid` stores those cells of
the float32 grid and picks whichever payload is smaller: sparse when
4 + 8k < 4*H*W*C, dense otherwise, and always dense when H*W*C exceeds 2**32
and an index could overflow u32.  Head grids go sparse; a heatmap with
noise added is about half non-zero and costs about the dense size.

`read_sparse_grid` is the one parser: it checks the bytes and that every
value is finite, builds a `SparseGrid` (by `SparseGrid.of` from a dense
payload), reports any broken rule as `path: reason`, and refuses a header
whose dense float64 grid numpy cannot allocate, so `.dense()` works;
`read_grid` is its `.dense()`.  `track` decodes the stored cells.

MOT rows are the 9-column comma-separated MOTChallenge layout
(frame, id, x, y, w, h, conf, class, visibility); `class` and `visibility`
are written as -1 where this pipeline has nothing meaningful to put there.
`read_mot_table` is the one reader: masks accept, one walk explains.  It
decodes the file as UTF-8 with universal newlines (a byte that is not UTF-8
is kept as a lone surrogate, which no number holds), splits on "\n" alone,
skips lines that are blank after `str.strip`, and converts every field of
the file in one `np.array(fields, dtype=np.float64)` call, which parses
each string with Python's `float`.  Boolean masks over the rows then test
the other rules (frame, id and class integral and within int64, a valid
box, frame >= 1, no repeated (frame, id)).  A file that passes becomes a
`MotTable` of columns, the form every command reads; `MotTable.frames`
gives the per-frame ids and boxes that scoring reads.  A file that fails
anywhere, in the field count, the conversion or a mask, is
walked again line by line in file order, and the first rule its first bad
line breaks is reported as `path:line: reason`; text that is not UTF-8 is
the first rule of each line.

`MotRow` and `write_mot_file` are the one writer.  `read_mot_file`,
`MotTable.rows` and `rows_to_frames` are a row view that no command reads;
they stay only for `benchmarks/traced.py`, which times evaluate through them.

A head-output directory holds four grid files per frame, named
<frame>.heatmap.grid / .size.grid / .offset.grid / .disp.grid with <frame>
the frame index, zero-padded to at least 6 digits (a name the writer would
not write, such as 0000001.heatmap.grid, is no frame), and one grid shape:
every frame's grids have the same rows and columns.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .evaluation import FrameColumns
from .geometry import BBox, require_downsample
from .heatmap import HeadOutput

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
    # a finite float64 beyond the float32 range becomes inf here, so the
    # finiteness check runs on the float32 values that are written
    with np.errstate(over="ignore"):
        values = np.ascontiguousarray(arr, dtype="<f4")
    cells = SparseGrid.of(values)
    if not np.all(np.isfinite(cells.values)):
        raise ValueError("grid contains non-finite values")
    k = cells.index.size
    if 4 + 8 * k < 4 * values.size and values.size <= 2**32:
        magic, indices = SPARSE_GRID_MAGIC, _COUNT.pack(k) + cells.index.astype("<u4").tobytes()
        values = cells.values.astype("<f4")
    else:
        magic, indices = GRID_MAGIC, b""
    with open(path, "wb") as fh:
        fh.write(magic + _HEADER.pack(*arr.shape) + indices)
        fh.write(values.tobytes())


def _require_dims(shape: tuple[int, ...]) -> str:
    """A grid has three dims, each at least 1; returns them as "HxWxC"."""
    dims = "x".join(map(str, shape))
    if len(shape) != 3 or min(shape) < 1:
        raise ValueError(f"invalid dims {dims}")
    return dims


@dataclass(frozen=True, eq=False)  # == on arrays has no single truth value
class SparseGrid:
    """A (rows, cols, channels) grid held as its stored cells; every other cell is 0.0.

    `index` holds flat positions (row-major, channels minor) as integers,
    strictly ascending and inside the grid, and `values` the float64 value at
    each; other input raises `ValueError`.  `np.asarray(grid)` is `grid.dense()`.
    """

    shape: tuple[int, int, int]
    index: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        dims = _require_dims(self.shape)
        index = self.index
        if index.ndim != 1 or not np.issubdtype(index.dtype, np.integer):
            raise ValueError("index must be a 1-D integer array")
        if self.values.shape != index.shape:
            raise ValueError(f"{index.size} indices but {self.values.size} values")
        if np.any(index[1:] <= index[:-1]):
            raise ValueError("indices are not strictly ascending")
        if index.size and not 0 <= index[0] <= index[-1] < math.prod(self.shape):
            bad = index[0] if index[0] < 0 else index[-1]
            raise ValueError(f"index {bad} out of range for {dims} grid")

    @classmethod
    def of(cls, array: np.ndarray) -> SparseGrid:
        """The cells of a float array whose bits are not zero, so -0.0 and denormals count."""
        flat = array.reshape(-1)
        # np.flatnonzero on the raw bits is slower than on this comparison
        index = np.flatnonzero(flat.view(f"u{flat.itemsize}") != 0)
        return cls(array.shape, index, flat[index].astype(np.float64))

    def dense(self) -> np.ndarray:
        """The grid as a float64 array of `shape`."""
        grid = np.zeros(self.shape)
        grid.reshape(-1)[self.index] = self.values
        return grid

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("a SparseGrid has no dense array to share without a copy")
        return self.dense() if dtype is None else self.dense().astype(dtype)

    def lookup(self, flat: np.ndarray) -> np.ndarray:
        """The values at flat positions, by binary search; a cell not stored reads 0.0."""
        if not self.index.size:
            return np.zeros(np.shape(flat))
        at = np.minimum(np.searchsorted(self.index, flat), self.index.size - 1)
        return np.where(self.index[at] == flat, self.values[at], 0.0)


def read_sparse_grid(path: str | Path) -> SparseGrid:
    """Load a dense or sparse grid file as its cells whose float32 bits are not zero."""
    data = Path(path).read_bytes()
    magic = data[: len(GRID_MAGIC)]
    try:
        if magic not in (GRID_MAGIC, SPARSE_GRID_MAGIC):
            raise ValueError("bad magic, not a grid file")
        if len(data) < _HEADER_END:
            raise ValueError(f"truncated header, expected {_HEADER_END} bytes, got {len(data)}")
        shape = _HEADER.unpack(data[len(GRID_MAGIC) : _HEADER_END])
        dims = _require_dims(shape)  # before the payload, whose length the dims give
        if magic == GRID_MAGIC:
            expected = _HEADER_END + 4 * math.prod(shape)
            if len(data) != expected:
                raise ValueError(f"payload mismatch, expected {expected} bytes, got {len(data)}")
            grid = SparseGrid.of(np.frombuffer(data, "<f4", offset=_HEADER_END).reshape(shape))
        else:
            count_end = _HEADER_END + _COUNT.size
            if len(data) < count_end:
                raise ValueError(f"truncated header, expected {count_end} bytes, got {len(data)}")
            (k,) = _COUNT.unpack(data[_HEADER_END:count_end])
            expected = count_end + 8 * k
            if len(data) != expected:
                raise ValueError(
                    f"payload mismatch, expected {expected} bytes for {k} values, got {len(data)}"
                )
            index = np.frombuffer(data, "<u4", count=k, offset=count_end)
            values = np.frombuffer(data, "<f4", count=k, offset=count_end + 4 * k)
            grid = SparseGrid(shape, index.astype(np.int64), values.astype(np.float64))
        if not np.all(np.isfinite(grid.values)):
            raise ValueError("grid contains non-finite values")
    except ValueError as exc:  # the byte checks above and the rules of `SparseGrid`
        raise FileFormatError(f"{path}: {exc}") from None
    try:
        # `.dense()` must not fail on a grid read here; np.empty touches no memory
        np.empty(shape)
    except MemoryError:
        raise FileFormatError(f"{path}: cannot allocate a {dims} grid") from None
    return grid


def read_grid(path: str | Path) -> np.ndarray:
    """Load a dense or sparse grid file back as a dense float64 array."""
    return read_sparse_grid(path).dense()


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


_INT_FIELDS = ((0, "frame"), (1, "id"), (7, "class"))
_INT64_END = 2.0**63  # integral float64 values in [-2**63, 2**63) fit int64
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")  # a byte that "surrogateescape" kept


@dataclass(frozen=True, eq=False)  # == on arrays has no single truth value
class MotTable:
    """A MOT file as numpy columns, one entry per row in file order."""

    frame: np.ndarray  # (n,) int64
    track_id: np.ndarray  # (n,) int64
    class_id: np.ndarray  # (n,) int64
    box: np.ndarray  # (n, 4) float64: x1, y1, w, h
    conf: np.ndarray  # (n,) float64
    visibility: np.ndarray  # (n,) float64

    def rows(self) -> list[MotRow]:
        return [
            MotRow(*fields)
            for fields in zip(
                self.frame.tolist(),
                self.track_id.tolist(),
                *self.box.T.tolist(),
                self.conf.tolist(),
                self.class_id.tolist(),
                self.visibility.tolist(),
            )
        ]

    def frames(self) -> dict[int, FrameColumns]:
        """Ids and boxes per frame, ascending, each frame in file order."""
        order = np.argsort(self.frame, kind="stable")
        frame = self.frame[order]
        starts = np.flatnonzero(np.diff(frame, prepend=0)).tolist()  # frames are >= 1
        ids = self.track_id[order].tolist()
        box = self.box[order]
        ends = [*starts[1:], len(ids)]
        return {
            int(frame[lo]): FrameColumns(ids[lo:hi], box[lo:hi]) for lo, hi in zip(starts, ends)
        }


def read_mot_table(path: str | Path) -> MotTable:
    """Parse a MOT result or ground-truth file into columns.

    A file that breaks a rule raises `FileFormatError` for its first bad
    line, as `path:line: reason`.
    """
    # universal newlines; a byte that is not UTF-8 becomes a lone surrogate,
    # which no number holds, so the walk finds its line
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        text = fh.read()
    # split on "\n" alone: str.splitlines would also split on \f, \x1c or
    # \u2028 inside a line and shift the line numbers
    numbered = [
        (no, line) for no, line in enumerate(map(str.strip, text.split("\n")), start=1) if line
    ]
    lines = [line for _, line in numbered]
    try:
        if any(line.count(",") != 8 for line in lines):
            raise ValueError("a line without 9 fields")
        fields = ",".join(lines).split(",") if lines else []
        values = np.array(fields, dtype=np.float64).reshape(len(lines), 9)
    except ValueError:  # the walk finds the line and words the reason
        raise _first_error(path, numbered) from None

    ints = values[:, [i for i, _ in _INT_FIELDS]]
    box = values[:, 2:6]
    with np.errstate(over="ignore"):  # an edge past float64's range is inf, and bad
        edges = box[:, :2] + box[:, 2:]
    good = (
        ((ints == np.trunc(ints)) & (ints >= -_INT64_END) & (ints < _INT64_END)).all(axis=1)
        & np.isfinite(box).all(axis=1)
        & (box[:, 2] > 0)
        & (box[:, 3] > 0)
        & np.isfinite(edges).all(axis=1)
        & (ints[:, 0] >= 1)
    )
    # a (frame, id) repeats when two neighbours in sorted key order are equal;
    # the integral float64 values compare as their int64 ones do
    keys = ints[np.lexsort((ints[:, 1], ints[:, 0])), :2]
    if not good.all() or (keys[1:] == keys[:-1]).all(axis=1).any():
        raise _first_error(path, numbered)
    frame, track_id, class_id = ints.astype(np.int64).T
    return MotTable(
        frame=frame,
        track_id=track_id,
        class_id=class_id,
        box=np.ascontiguousarray(box),
        conf=values[:, 6].copy(),
        visibility=values[:, 8].copy(),
    )


def _first_error(path: str | Path, numbered: Sequence[tuple[int, str]]) -> FileFormatError:
    """The first rule that the first bad line of a MOT file breaks.

    Lines are walked in file order, and each line's rules are checked in
    this order: UTF-8 text; field count; frame, id and class (a number,
    integral, within int64); the six float fields parse; a valid `BBox`;
    frame >= 1; and a (frame, id) no earlier line holds.
    """
    seen: dict[tuple[int, int], int] = {}
    for line_no, line in numbered:
        try:
            escaped = _ESCAPED_BYTE.search(line)
            if escaped:
                raise ValueError(f"not UTF-8 text (byte 0x{ord(escaped[0]) - 0xDC00:02x})")
            fields = line.split(",")
            if len(fields) != 9:
                raise ValueError(f"expected 9 comma-separated fields, got {len(fields)}")
            ints = []
            for i, what in _INT_FIELDS:
                try:
                    value = float(fields[i])
                except ValueError:
                    raise ValueError(f"{what} {fields[i]!r} is not a number") from None
                if not (math.isfinite(value) and value == math.trunc(value)):
                    raise ValueError(f"{what} {fields[i]!r} is not integral")
                if not -_INT64_END <= value < _INT64_END:
                    raise ValueError(f"{what} {fields[i]!r} is out of range")
                ints.append(int(value))
            frame, track_id, _ = ints
            x, y, w, h, _, _ = (float(fields[i]) for i in (2, 3, 4, 5, 6, 8))
            BBox(x, y, w, h)
            if frame < 1:
                raise ValueError("frame must be >= 1")
            earlier = seen.setdefault((frame, track_id), line_no)
            if earlier != line_no:
                raise ValueError(
                    f"id {track_id} already appears in frame {frame} at line {earlier}"
                )
        except ValueError as exc:
            return FileFormatError(f"{path}:{line_no}: {exc}")
    raise AssertionError(f"{path}: rejected, but no line breaks a rule")


def read_mot_file(path: str | Path) -> list[MotRow]:
    """Parse a MOT result or ground-truth file, preserving row order."""
    return read_mot_table(path).rows()


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
    """One frame's four grids as a `HeadOutput` of `SparseGrid`s.

    A missing grid file, or a frame that breaks a `HeadOutput` rule, is a
    `FileFormatError` naming the file or the frame's files.
    """
    require_downsample(downsample)  # a bad argument, not a bad file
    grids = {}
    for name, field in _HEAD_FILES.items():
        path = head_grid_path(directory, frame_index, name)
        try:
            grids[field] = read_sparse_grid(path)
        except FileNotFoundError:
            raise FileFormatError(f"missing head grid {path}") from None
    try:
        return HeadOutput(**grids, downsample=downsample)
    except ValueError as exc:
        raise FileFormatError(f"{head_grid_path(directory, frame_index, '*')}: {exc}") from exc


def list_head_frames(directory: str | Path) -> list[int]:
    """Frame indices of the heatmap files named as the writer names them, ascending."""
    pattern = re.compile(r"(\d+)\.heatmap\.grid")
    frames = []
    for entry in Path(directory).iterdir():
        m = pattern.fullmatch(entry.name)
        if m and head_grid_path(directory, int(m[1]), "heatmap").name == entry.name:
            frames.append(int(m[1]))
    return sorted(frames)
