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
stores the cells whose float32 bits are not zero (`stored_bits`, after the
cast to float32, since a float64 denormal can become a float32 zero; so
-0.0 and float32 denormals round-trip exactly), reading a `SparseGrid`'s
stored values without scanning the grid, and picks whichever payload is
smaller: sparse when 4 + 8k < 4*H*W*C, dense otherwise, and always dense
when H*W*C exceeds 2**32 and an index could overflow u32.  Head grids go sparse; a
heatmap with noise added is about half non-zero and costs about the dense
size.  The writer runs on numpy, which it imports when called.

`_parse_grid` is the one parser.  It checks the bytes and that every value
is finite, and reports any broken rule as `path: reason`.  A sparse payload
is read with `array` into a `SparseGrid`, without numpy; a dense payload
imports numpy and stays a dense float64 array, which decode searches
with numpy.
The parser refuses a header whose dense float64 grid could not be mapped
into memory, so `.dense()` works.  `read_sparse_grid` gives either payload
as a `SparseGrid` (by `SparseGrid.of` from a dense one) and `read_grid` as a
dense array.  `read_head_outputs` keeps each file's own form, except that a
sparse file storing a quarter of its cells or more is made dense for decode.

MOT text rows live in `peaktrack.motfile`, which needs no numpy.

A head-output directory holds four grid files per frame, named
<frame>.heatmap.grid / .size.grid / .offset.grid / .disp.grid with <frame>
the frame index, zero-padded to at least 6 digits (a name the writer would
not write, such as 0000001.heatmap.grid, is no frame), and one grid shape:
every frame's grids have the same rows and columns.
"""

from __future__ import annotations

import math
import mmap
import os
import re
import struct
import sys
from array import array
from pathlib import Path
from typing import TYPE_CHECKING

from .geometry import require_downsample
from .heatmap import (
    _HEAD_GRIDS,
    HeadOutput,
    SparseGrid,
    format_dims,
    require_grid_dims,
    stored_bits,
)
from .motfile import FileFormatError
from .rules import all_finite

if TYPE_CHECKING:
    import numpy as np

GRID_MAGIC = b"TTGRID1"
SPARSE_GRID_MAGIC = b"TTGRID2"
_HEADER = struct.Struct("<III")
_COUNT = struct.Struct("<I")
_HEADER_END = len(GRID_MAGIC) + _HEADER.size
# A sparse head grid storing at least 1/_DENSE_FILL of its cells is decoded
# dense: numpy searches it faster than Python walks that many stored cells.
_DENSE_FILL = 4

# each of a frame's grid file names starts with the frame index, zero-padded to 6 digits
_FRAME_PREFIX = "{:06d}."
# head grid file name -> HeadOutput field
_HEAD_FILES = dict(zip(("heatmap", "size", "offset", "disp"), _HEAD_GRIDS))


def write_grid(path: str | Path, grid: np.ndarray | SparseGrid) -> None:
    """Store a (rows, cols, channels) array or `SparseGrid` as float32, dense or sparse.

    Both forms of one grid write the same bytes.  A `SparseGrid` is not
    scanned: its stored values are cast to float32 and those whose float32
    bits are not zero are kept.
    """
    import numpy as np

    # a finite float64 beyond the float32 range becomes inf in these casts,
    # so the finiteness check runs on the float32 values that are written
    with np.errstate(over="ignore"):
        if isinstance(grid, SparseGrid):
            shape, index = grid.shape, np.asarray(grid.index)
            values = np.asarray(grid.values).astype("<f4")
            kept = stored_bits(values)
            index, values, flat = index[kept], values[kept], None
        else:
            arr = np.asarray(grid)
            if arr.ndim != 3:
                raise ValueError("grid must be a (rows, cols, channels) array")
            if arr.size == 0:
                raise ValueError("grid must be non-empty")
            shape, flat = arr.shape, np.ascontiguousarray(arr, dtype="<f4").reshape(-1)
            index = np.flatnonzero(stored_bits(flat))
            values = flat[index]
    if not np.all(np.isfinite(values)):
        raise ValueError("grid contains non-finite values")
    size, k = math.prod(shape), index.size
    if 4 + 8 * k < 4 * size and size <= 2**32:
        magic = SPARSE_GRID_MAGIC
        payload = _COUNT.pack(k) + index.astype("<u4").tobytes() + values.tobytes()
    else:
        if flat is None:
            flat = np.zeros(size, dtype="<f4")
            flat[index] = values
        # a cell not stored has zero bits, so the float32 grid is the payload
        magic, payload = GRID_MAGIC, flat.tobytes()
    with open(path, "wb") as fh:
        fh.write(magic + _HEADER.pack(*shape))
        fh.write(payload)


def _little_endian(typecode: str, data: bytes) -> array:
    """An `array` of little-endian items, in the machine's byte order."""
    items = array(typecode, data)
    if sys.byteorder == "big":
        items.byteswap()
    return items


def _parse_grid(path: str | Path) -> np.ndarray | SparseGrid:
    """A dense grid file as a float64 array, a sparse one as a `SparseGrid`."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[: len(GRID_MAGIC)]
    try:
        if magic not in (GRID_MAGIC, SPARSE_GRID_MAGIC):
            raise ValueError("bad magic, not a grid file")
        if len(data) < _HEADER_END:
            raise ValueError(f"truncated header, expected {_HEADER_END} bytes, got {len(data)}")
        shape = _HEADER.unpack(data[len(GRID_MAGIC) : _HEADER_END])
        require_grid_dims(shape)  # before the payload, whose length the dims give
        if magic == GRID_MAGIC:
            expected = _HEADER_END + 4 * math.prod(shape)
            if len(data) != expected:
                raise ValueError(f"payload mismatch, expected {expected} bytes, got {len(data)}")
            import numpy as np

            grid = np.frombuffer(data, "<f4", offset=_HEADER_END).reshape(shape)
            grid = grid.astype(np.float64)
            finite = bool(np.isfinite(grid).all())
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
            values_start = count_end + 4 * k
            grid = SparseGrid(
                shape,
                _little_endian("I", data[count_end:values_start]),
                _little_endian("f", data[values_start:]),
            )
            finite = all_finite(grid.values)
        if not finite:
            raise ValueError("grid contains non-finite values")
    except ValueError as exc:  # the byte checks above and the rules of `SparseGrid`
        raise FileFormatError(f"{path}: {exc}") from None
    try:
        # `.dense()` must not fail on a grid read here; a private anonymous
        # mapping reserves the float64 grid's bytes without touching them
        with mmap.mmap(-1, 8 * math.prod(shape), access=mmap.ACCESS_COPY):
            pass
    except (OSError, OverflowError, ValueError, MemoryError):
        raise FileFormatError(f"{path}: cannot allocate a {format_dims(shape)} grid") from None
    return grid


def read_sparse_grid(path: str | Path) -> SparseGrid:
    """Load a dense or sparse grid file as its cells whose float32 bits are not zero."""
    grid = _parse_grid(path)
    return grid if isinstance(grid, SparseGrid) else SparseGrid.of(grid)


def read_grid(path: str | Path) -> np.ndarray:
    """Load a dense or sparse grid file back as a dense float64 array."""
    grid = _parse_grid(path)
    return grid.dense() if isinstance(grid, SparseGrid) else grid


def _head_stem(directory: str | Path, frame_index: int) -> str:
    """A frame's grid paths up to the map name: <directory>/<frame>."""
    return str(Path(directory) / _FRAME_PREFIX.format(frame_index))


def head_grid_path(directory: str | Path, frame_index: int, map_name: str) -> Path:
    return Path(f"{_head_stem(directory, frame_index)}{map_name}.grid")


def write_head_outputs(directory: str | Path, frame_index: int, head: HeadOutput) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, field in _HEAD_FILES.items():
        write_grid(head_grid_path(directory, frame_index, name), getattr(head, field))


def remove_head_outputs(directory: str | Path, frame_index: int) -> None:
    """Delete a frame's grid files from a head directory, those that exist."""
    for name in _HEAD_FILES:
        head_grid_path(directory, frame_index, name).unlink(missing_ok=True)


def read_head_outputs(
    directory: str | Path, frame_index: int, downsample: int
) -> HeadOutput:
    """One frame's four grids as a `HeadOutput`, each a `SparseGrid` or, from a
    dense file or a sparse one storing a quarter of its cells or more, a
    float64 array.

    A missing grid file, or a frame that breaks a `HeadOutput` rule, is a
    `FileFormatError` naming the file or the frame's files.
    """
    require_downsample(downsample)  # a bad argument, not a bad file
    stem = _head_stem(directory, frame_index)
    grids = {}
    for name, field in _HEAD_FILES.items():
        path = f"{stem}{name}.grid"
        try:
            grid = _parse_grid(path)
        except FileNotFoundError:
            raise FileFormatError(f"missing head grid {path}") from None
        if isinstance(grid, SparseGrid) and _DENSE_FILL * len(grid.index) >= math.prod(grid.shape):
            grid = grid.dense()
        grids[field] = grid
    try:
        return HeadOutput(**grids, downsample=downsample)
    except ValueError as exc:
        raise FileFormatError(f"{stem}*.grid: {exc}") from exc


def list_head_frames(directory: str | Path) -> list[int]:
    """Frame indices of the heatmap files named as the writer names them, ascending."""
    pattern = re.compile(r"(\d+)\.heatmap\.grid")
    frames = []
    for name in os.listdir(directory):
        m = pattern.fullmatch(name)
        if m and f"{_FRAME_PREFIX.format(int(m[1]))}heatmap.grid" == name:
            frames.append(int(m[1]))
    return sorted(frames)
