"""On-disk formats: binary grids and head directories.

Grid files are deliberately minimal so any language can read them.  Both
kinds share the magic length and the header; all numbers are little endian:

    magic   7 bytes  ASCII "TTGRID1" (dense) or "TTGRID2" (sparse)
    header  3 x u32  height, width, channels

    dense payload    H*W*C x f32, row-major, channel-minor, all finite
    sparse payload   u32 count k, then k x u32 flat indices (row-major,
                     channel-minor, strictly ascending, each < H*W*C), then
                     k x f32 values, all finite; every other value is 0.0

`write_grid` takes a dense array or a `heatmap.SparseGrid` (the grid as
its stored cells) and writes the same bytes for both forms of one grid.  It
stores the cells whose float32 bits are not zero (`SparseGrid.of`'s rule,
so -0.0 and denormals round-trip exactly), reading a `SparseGrid`'s stored
values without scanning the grid, and picks whichever payload is smaller:
sparse when 4 + 8k < 4*H*W*C, dense otherwise, and always dense when H*W*C
exceeds 2**32 and an index could overflow u32.  Head grids go sparse; a
heatmap with noise added is about half non-zero and costs about the dense
size.

`read_sparse_grid` is the one parser: it checks the bytes and that every
value is finite, builds a `SparseGrid` (by `SparseGrid.of` from a dense
payload), reports any broken rule as `path: reason`, and refuses a header
whose dense float64 grid numpy cannot allocate, so `.dense()` works;
`read_grid` is its `.dense()`.  `track` decodes the stored cells.

MOT text rows live in `peaktrack.motfile`, which needs no numpy.

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
from pathlib import Path

import numpy as np

from .geometry import require_downsample
from .heatmap import HeadOutput, SparseGrid, require_grid_dims, stored_bits
from .motfile import FileFormatError

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


def write_grid(path: str | Path, grid: np.ndarray | SparseGrid) -> None:
    """Store a (rows, cols, channels) array or `SparseGrid` as float32, dense or sparse.

    Both forms of one grid write the same bytes.  A `SparseGrid` is not
    scanned: its stored values are cast to float32 and those whose float32
    bits are not zero are kept.
    """
    # a finite float64 beyond the float32 range becomes inf in these casts,
    # so the finiteness check runs on the float32 values that are written
    with np.errstate(over="ignore"):
        if not isinstance(grid, SparseGrid):
            arr = np.asarray(grid)
            if arr.ndim != 3:
                raise ValueError("grid must be a (rows, cols, channels) array")
            if arr.size == 0:
                raise ValueError("grid must be non-empty")
            grid = SparseGrid.of(np.ascontiguousarray(arr, dtype="<f4"))
        values = grid.values.astype("<f4")
    kept = stored_bits(values)
    index, values = grid.index[kept], values[kept]
    if not np.all(np.isfinite(values)):
        raise ValueError("grid contains non-finite values")
    size, k = math.prod(grid.shape), index.size
    if 4 + 8 * k < 4 * size and size <= 2**32:
        magic = SPARSE_GRID_MAGIC
        payload = _COUNT.pack(k) + index.astype("<u4").tobytes() + values.tobytes()
    else:
        dense = np.zeros(size, dtype="<f4")
        dense[index] = values
        magic, payload = GRID_MAGIC, dense.tobytes()
    with open(path, "wb") as fh:
        fh.write(magic + _HEADER.pack(*grid.shape))
        fh.write(payload)


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
        dims = require_grid_dims(shape)  # before the payload, whose length the dims give
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
    except (MemoryError, ValueError):  # ValueError: beyond numpy's largest array
        raise FileFormatError(f"{path}: cannot allocate a {dims} grid") from None
    return grid


def read_grid(path: str | Path) -> np.ndarray:
    """Load a dense or sparse grid file back as a dense float64 array."""
    return read_sparse_grid(path).dense()


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
