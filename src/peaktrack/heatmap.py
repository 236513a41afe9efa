"""Head grids: Gaussian bumps, their sigma, and head-output decoding.

A frame's objects are rendered as one Gaussian bump per object on the
heatmap channel of its class, centered on the quantized cell of its top
point and with a peak value of exactly 1.  Overlapping bumps keep the
elementwise maximum so values stay valid probabilities.  `draw_bumps` draws
all of a frame's bumps at once, into a `SparseGrid` of the cells they
cover, with the sigma of `gaussian_sigma`; `simulator.corrupt` places the
objects.  Rendering runs on numpy, which those functions import when called.

Decoding walks the opposite direction and needs no numpy for a
`SparseGrid`: `_peaks` finds the local maxima of a predicted heatmap among
its stored cells in Python, size, offset and displacement are read at those
cells, and peaks of non-positive size are dropped.  `decode_columns` gives
the peaks kept as one `Detections` table of plain lists, with no Python
object per detection; `decode_detections` is its `Detection` view and
`extract_peaks` the tuple view of the peaks.  A dense heatmap (a TTGRID1
file, or an array passed in) is searched with numpy, and so is a
`SparseGrid` at `score_threshold = 0`, where a cell that is not stored can
be a peak.  Both warnings, of truncated and of dropped peaks, go to the
logger `peaktrack.heatmap`; `logging` is imported only to send one.

Dimension tuples are (height, width) in input-image pixels; grids are
numpy arrays of shape (H/R, W/R, channels) with x mapped to columns, or
`SparseGrid`s of that shape.  A `SparseGrid` holds a grid as its stored
cells, in an `array` of integer flat positions and an `array` of float
values, and checks its own index rules when it is built: three dims >= 1,
and positions strictly ascending and inside the grid, with one value each.
`SparseGrid.of_columns` is the one stored-cell rule for numpy columns, and
`SparseGrid.of` its view for a dense array: an entry is stored when its
float bits are not zero (`stored_bits`), so -0.0 and denormals count.
"""

from __future__ import annotations

import math
import operator
from array import array
from itertools import compress, islice, repeat
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .geometry import (
    BBox,
    Detection,
    Detections,
    GridPoint,
    PipelineConfig,
    checked,
    require_downsample,
    require_peak_limits,
)
from .rules import all_finite, require_top_points

if TYPE_CHECKING:
    import numpy as np

    Grid = np.ndarray | SparseGrid

# Peak value of a Gaussian tail at 3 standard deviations is ~1.1e-2, below
# any useful score threshold, so rendering stops there.
GAUSSIAN_TRUNCATION_SIGMAS = 3.0
MIN_SIGMA_CELLS = 2.0 / 3.0
GAUSSIAN_IOU = 0.7
# the `array` typecodes of integers, signed and unsigned
_INTEGER_TYPECODES = "bBhHiIlLqQ"
# the grids of a `HeadOutput`, in field order
_HEAD_GRIDS = ("heatmap", "size_map", "offset_map", "disp_map")


def _warn(message: str, *args: object) -> None:
    """A warning on this module's logger, importing `logging` only now."""
    import logging

    logging.getLogger(__name__).warning(message, *args)


def format_dims(shape: tuple[int, ...]) -> str:
    """A grid's dims as "HxWxC", as messages name them."""
    return "x".join(map(str, shape))


def require_grid_dims(shape: tuple[int, ...]) -> None:
    """A grid has three dims, each at least 1."""
    if len(shape) != 3 or min(shape) < 1:
        raise ValueError(f"invalid dims {format_dims(shape)}")


def stored_bits(values: np.ndarray) -> np.ndarray:
    """Mask of the float values whose bits are not zero, so -0.0 and denormals count."""
    return values.view(f"u{values.itemsize}") != 0


class SparseGrid:
    """A (rows, cols, channels) grid held as its stored cells; every other cell is 0.0.

    `index` holds flat positions (row-major, channels minor), strictly
    ascending and inside the grid, in an `array` of an integer type, and
    `values` the value at each in an `array` of float32 or float64.  Arrays
    of those types are kept as they are, so a grid file's payload is read
    without a copy; any other sequences of integers and reals are copied
    into `array("q")` and `array("d")`, and other input raises `ValueError`.
    A numpy caller passes `of` a dense array, or `of_columns` two 1-D
    arrays, and keeps the entries whose bits are not zero.  `np.asarray(grid)`
    is `grid.dense()`, so a grid is a plain class and not a tuple, which numpy
    would read as a sequence of its three fields.
    """

    __slots__ = ("shape", "index", "values")

    def __init__(self, shape: tuple[int, int, int], index: Sequence[int], values: Sequence[float]):
        require_grid_dims(shape)
        if not (isinstance(index, array) and index.typecode in _INTEGER_TYPECODES):
            try:
                index = array("q", index)
            except (TypeError, OverflowError):  # a float, a nested row, or beyond int64
                raise ValueError("index must be a 1-D integer array") from None
        if not (isinstance(values, array) and values.typecode in "fd"):
            try:
                values = array("d", values)
            except TypeError:
                raise ValueError("values must be a 1-D array of reals") from None
        if len(values) != len(index):
            raise ValueError(f"{len(index)} indices but {len(values)} values")
        if not all(map(operator.lt, index, islice(index, 1, None))):
            raise ValueError("indices are not strictly ascending")
        if index and not 0 <= index[0] <= index[-1] < math.prod(shape):
            bad = index[0] if index[0] < 0 else index[-1]
            raise ValueError(f"index {bad} out of range for {format_dims(shape)} grid")
        self.shape, self.index, self.values = shape, index, values

    @classmethod
    def of(cls, grid: np.ndarray) -> SparseGrid:
        """The cells of a float array whose bits are not zero, by `of_columns`."""
        import numpy as np

        flat = grid.reshape(-1)
        return cls.of_columns(grid.shape, np.arange(flat.size), flat)

    @classmethod
    def of_columns(
        cls, shape: tuple[int, int, int], index: np.ndarray, values: np.ndarray
    ) -> SparseGrid:
        """The entries of numpy columns whose value bits are not zero (`stored_bits`), as a grid.

        The same grid as `SparseGrid(shape, index[kept], values[kept])`, copied
        through bytes without making a Python object of each element.
        """
        import numpy as np

        kept = stored_bits(values)
        return cls(
            shape,
            array("q", index[kept].astype(np.int64).tobytes()),
            array("d", values[kept].astype(np.float64).tobytes()),
        )

    def dense(self) -> np.ndarray:
        """The grid as a float64 array of `shape`."""
        import numpy as np

        grid = np.zeros(self.shape)
        grid.reshape(-1)[np.asarray(self.index)] = np.asarray(self.values)
        return grid

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("a SparseGrid has no dense array to share without a copy")
        return self.dense() if dtype is None else self.dense().astype(dtype)


class ObjectAnnotation(NamedTuple):
    track_id: int
    class_id: int
    bbox: BBox


@checked
class FrameAnnotations(NamedTuple):
    """All annotated objects of one frame, as a tuple; frame indices are 1-based."""

    frame_index: int
    objects: tuple[ObjectAnnotation, ...] = ()

    def _check(self) -> FrameAnnotations | None:
        if self.frame_index < 1:
            raise ValueError(f"frame_index must be >= 1, got {self.frame_index}")
        # before the duplicate test, so a generator of objects is read once
        if type(self.objects) is not tuple:
            return self._replace(objects=tuple(self.objects))
        ids = [o.track_id for o in self.objects]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate track ids in frame {self.frame_index}")
        return None


@checked
class HeadOutput(NamedTuple):
    """The four per-frame prediction grids plus their downsampling factor.

    `heatmap` has one channel per class with values in [0, 1]; `size_map`
    carries (w, h) in pixels, `offset_map` sub-cell fractions (x, y) and
    `disp_map` per-object motion (dx, dy) in pixels, each with 2 channels.
    Each grid is a dense array or a `SparseGrid`, as `simulator.corrupt`
    and `fileio.read_head_outputs` give them.
    """

    heatmap: Grid
    size_map: Grid
    offset_map: Grid
    disp_map: Grid
    downsample: int

    def _check(self) -> None:
        grids = dict(zip(_HEAD_GRIDS, self))
        for name, g in grids.items():
            if len(g.shape) != 3:
                raise ValueError(f"{name} must be a (rows, cols, channels) array")
            if name == "heatmap":
                if not (_finite(g) and _in_unit_interval(g)):
                    raise ValueError("heatmap values must lie in [0, 1]")
            elif g.shape[2] != 2:
                raise ValueError(f"{name} must have 2 channels")
            elif not _finite(g):
                raise ValueError(f"{name} contains non-finite values")
        shapes = {g.shape[:2] for g in grids.values()}
        if len(shapes) != 1:
            raise ValueError(f"head grids disagree on spatial dims: {sorted(shapes)}")
        require_downsample(self.downsample)

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.heatmap.shape[:2]

    @property
    def num_classes(self) -> int:
        return self.heatmap.shape[2]


def _finite(grid: Grid) -> bool:
    """Whether every value of a dense or sparse grid is finite."""
    if isinstance(grid, SparseGrid):
        return all_finite(grid.values)
    import numpy as np

    return bool(np.isfinite(grid).all())


def _in_unit_interval(grid: Grid) -> bool:
    """Whether every value of a finite grid, 0.0 at each cell not stored, lies in [0, 1]."""
    if isinstance(grid, SparseGrid):
        return 0.0 <= min(grid.values, default=0.0) and max(grid.values, default=0.0) <= 1.0
    return 0.0 <= grid.min(initial=0.0) and grid.max(initial=0.0) <= 1.0


def require_head_config(head: HeadOutput, cfg: PipelineConfig) -> None:
    """The head's classes and downsample factor are the config's; decode needs both."""
    if head.num_classes != cfg.num_classes:
        raise ValueError(
            f"head has {head.num_classes} classes but config expects {cfg.num_classes}"
        )
    if head.downsample != cfg.downsample:
        raise ValueError(
            f"head downsample {head.downsample} != config downsample {cfg.downsample}"
        )


def _iou_radius(w, h, min_overlap: float = GAUSSIAN_IOU):
    """Largest corner displacement keeping box IoU >= min_overlap, for floats or arrays.

    Three cases (shifted, shrunk, grown box), each a quadratic in the
    radius; the binding constraint is the smallest positive root.
    """
    import numpy as np

    o = min_overlap
    b1 = h + w
    c1 = w * h * (1 - o) / (1 + o)
    r1 = (b1 - np.sqrt(b1 * b1 - 4 * c1)) / 2

    a2 = 4.0
    b2 = 2 * (h + w)
    c2 = (1 - o) * w * h
    r2 = (b2 - np.sqrt(b2 * b2 - 4 * a2 * c2)) / (2 * a2)

    a3 = 4.0 * o
    b3 = -2 * o * (h + w)
    c3 = (o - 1) * w * h
    r3 = (b3 + np.sqrt(b3 * b3 - 4 * a3 * c3)) / (2 * a3)
    return np.minimum(np.minimum(r1, r2), r3)


def gaussian_sigma(size, downsample: int):
    """Standard deviation (in cells) of the rendered bump for an object size.

    Derived from the IoU-0.7 corner radius of the box's cell-space extent,
    sigma = (2r + 1) / 6, clamped to at least 2/3 so tiny objects keep a
    usable support.  `size` is (w, h) as floats or as arrays of one shape,
    and sigma has that shape; the first size that is not positive fails.
    """
    import numpy as np

    w, h = size
    bad = (np.asarray(w) <= 0) | (np.asarray(h) <= 0)
    if bad.any():
        first = np.argmax(bad)
        got = (np.ravel(w)[first].item(), np.ravel(h)[first].item())
        raise ValueError(f"object size must be positive, got {got}")
    r = _iou_radius(w / downsample, h / downsample)
    return np.maximum((2.0 * r + 1.0) / 6.0, MIN_SIGMA_CELLS)


def _grid_dims(image_size: tuple[int, int], downsample: int) -> tuple[int, int]:
    """(rows, cols) of the grid; the image dims must be positive multiples of R >= 1."""
    require_downsample(downsample)
    h_px, w_px = image_size
    if h_px < 1 or w_px < 1 or h_px % downsample or w_px % downsample:
        raise ValueError(
            f"image dims {image_size} must be positive multiples of downsample {downsample}"
        )
    return h_px // downsample, w_px // downsample


def check_class_ids(objects: tuple[ObjectAnnotation, ...], num_classes: int) -> None:
    """Fail unless num_classes >= 1 and every object's class is one of them."""
    if num_classes < 1:
        raise ValueError(f"num_classes must be >= 1, got {num_classes}")
    for obj in objects:
        if not 0 <= obj.class_id < num_classes:
            raise ValueError(f"class_id {obj.class_id} out of range for {num_classes} classes")


def draw_bumps(
    shape: tuple[int, int, int],
    rows: np.ndarray,
    cols: np.ndarray,
    channels: np.ndarray,
    sigmas: np.ndarray,
    peaks: np.ndarray,
) -> SparseGrid:
    """Bump i, of height peaks[i] > 0 at (rows[i], cols[i]) on channels[i], as a grid.

    A bump covers the square window of reach ceil(3 sigma) around its cell,
    clipped to the grid; a cell at squared distance d2 from the center
    holds peak * exp(-d2 / (2 sigma^2)), and 0 where d2 > (3 sigma)^2.
    Where bumps overlap, a cell keeps the maximum.  All windows are laid
    out in one array, and the grid is never made dense.
    """
    import numpy as np

    n_rows, n_cols, n_channels = shape
    reach = np.ceil(GAUSSIAN_TRUNCATION_SIGMAS * sigmas).astype(np.int64)
    r0, c0 = np.maximum(rows - reach, 0), np.maximum(cols - reach, 0)
    height = np.minimum(rows + reach, n_rows - 1) - r0 + 1
    width = np.minimum(cols + reach, n_cols - 1) - c0 + 1
    # window cell j of bump b sits at row r0 + j // width, column c0 + j % width
    counts = height * width
    bump = np.repeat(np.arange(counts.size), counts)
    j = np.arange(bump.size) - np.repeat(np.cumsum(counts) - counts, counts)
    r = r0[bump] + j // width[bump]
    c = c0[bump] + j % width[bump]
    d2 = ((r - rows[bump]) ** 2 + (c - cols[bump]) ** 2).astype(np.float64)
    # Python's float pow: numpy's square differs from it in the last bit for
    # about one value in a thousand, and the cut must not move
    limit = np.array([(GAUSSIAN_TRUNCATION_SIGMAS * s) ** 2 for s in sigmas.tolist()])
    inside = d2 <= limit[bump]
    bump, d2 = bump[inside], d2[inside]
    sigma = sigmas[bump]
    values = peaks[bump] * np.exp(-d2 / (2.0 * sigma * sigma))
    flat = (r[inside] * n_cols + c[inside]) * n_channels + channels[bump]
    order = np.argsort(flat)
    flat, values = flat[order], values[order]
    first = np.flatnonzero(np.diff(flat, prepend=-1))
    if first.size:
        flat, values = flat[first], np.maximum.reduceat(values, first)
    return SparseGrid.of_columns(shape, flat, values)


def extract_peaks(
    heatmap: Grid, max_peaks: int, score_threshold: float
) -> list[tuple[GridPoint, int, float]]:
    """The peaks `decode_detections` decodes (see `_peaks`), as (cell, channel, score) tuples."""
    peaks = _peaks(heatmap, max_peaks, score_threshold)
    return [(GridPoint(c, r), ch, s) for r, c, ch, s in peaks]


def _peaks(
    heatmap: Grid, max_peaks: int, score_threshold: float
) -> list[tuple[int, int, int, float]]:
    """(row, column, channel, score) of the cells that are >= all 8 neighbors.

    Border cells compare only against existing neighbors.  A plateau is not
    thinned: equal adjacent cells are all peaks, as with CenterNet's
    max-pool NMS, so two neighboring cells of 0.9 decode to two detections.
    Results at or above `score_threshold` are sorted by descending score,
    ties broken by lower row, then lower column, then lower channel, and
    truncated to `max_peaks` (a warning reports the count found and kept).

    A `SparseGrid` takes only its stored cells at or above the threshold as
    candidates and looks up their neighbors, in Python, unless the
    threshold is 0: then a cell that is not stored can be a peak, and the
    heatmap is made dense.  A dense heatmap is searched with numpy.
    Both find the same peaks in a heatmap of finite values, which every
    `HeadOutput` and grid file holds.
    """
    require_peak_limits(max_peaks, score_threshold)
    if isinstance(heatmap, SparseGrid) and score_threshold <= 0:
        heatmap = heatmap.dense()
    if len(heatmap.shape) != 3:
        raise ValueError("heatmap must be a (rows, cols, channels) array")
    if isinstance(heatmap, SparseGrid):
        found = _stored_peaks(heatmap, score_threshold)
    else:
        found = _scanned_peaks(heatmap, score_threshold)
    # found is in flat order, which is (row, col, channel) order, and the sort is stable
    found.sort(key=operator.itemgetter(1), reverse=True)
    if len(found) > max_peaks:
        message = "kept %d of %d peaks at or above score threshold %g (max_peaks)"
        _warn(message, max_peaks, len(found), score_threshold)
    _, cols, channels = heatmap.shape
    peaks = []
    for flat, score in found[:max_peaks]:
        row, rest = divmod(flat, cols * channels)
        peaks.append((row, *divmod(rest, channels), score))
    return peaks


def _scanned_peaks(heatmap: np.ndarray, score_threshold: float) -> list[tuple[int, float]]:
    """(flat position, score) of a dense heatmap's peaks in flat order, by a numpy scan.

    The cells at or above the threshold are the candidates; each is compared
    with its 8 neighbors in a copy of the grid padded with -inf, so a border
    cell compares only against the neighbors that exist.
    """
    import numpy as np

    rows, cols, channels = heatmap.shape
    padded = np.full((rows + 2, cols + 2, channels), -np.inf)
    padded[1:-1, 1:-1] = heatmap
    # np.nonzero on a 3-d mask is ~20x slower than this on a 256x256x1 grid
    flat = np.flatnonzero(heatmap >= score_threshold)
    scores = np.take(heatmap, flat).astype(np.float64, copy=False)
    row, col = np.divmod(flat // channels, cols)
    at = ((row + 1) * (cols + 2) + col + 1) * channels + flat % channels
    is_peak = np.ones(flat.size, dtype=bool)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr or dc:
                is_peak &= scores >= padded.take(at + (dr * (cols + 2) + dc) * channels)
    return list(zip(flat[is_peak].tolist(), scores[is_peak].tolist()))


def _stored_peaks(heatmap: SparseGrid, score_threshold: float) -> list[tuple[int, float]]:
    """(flat position, score) of a sparse heatmap's peaks in flat order, for a threshold > 0.

    Only a stored cell reaches the threshold; each such candidate is
    compared with its neighbors, looked up among the candidates: a cell
    below the threshold, stored or not, is below every candidate, so it
    reads 0.0.  So does a neighbor row off the grid, a flat position no
    cell has; a neighbor column off the grid would wrap into the next or
    previous row, so it is skipped.
    """
    _, cols, channels = heatmap.shape
    reached = map(operator.ge, heatmap.values, repeat(score_threshold))
    candidates = dict(compress(zip(heatmap.index, heatmap.values), reached))
    value_at = candidates.get
    # the neighbors' flat offsets: above and below, then the columns to each side
    row = cols * channels
    middle = (-row, row)
    left = (-row - channels, -channels, row - channels)
    right = (-row + channels, channels, row + channels)
    peaks = []
    for flat, score in candidates.items():
        col = flat // channels % cols
        for step in middle + left * (col > 0) + right * (col < cols - 1):
            if value_at(flat + step, 0.0) > score:
                break
        else:
            peaks.append((flat, score))
    return peaks


def _at_cells(grid: Grid, cells: list[tuple[int, int]]) -> list[tuple[float, float]]:
    """The two channel values of a dense or sparse 2-channel grid at (row, col) cells."""
    if isinstance(grid, SparseGrid):
        _, width, _ = grid.shape
        value_at = dict(zip(grid.index, grid.values)).get
        flats = [2 * (r * width + c) for r, c in cells]
        return [(value_at(f, 0.0), value_at(f + 1, 0.0)) for f in flats]
    import numpy as np

    values = grid[[r for r, _ in cells], [c for _, c in cells]]
    return list(map(tuple, values.astype(np.float64, copy=False).tolist()))


def _columns(rows: list[tuple], width: int) -> list[list]:
    """The columns of `width`-tuples, as lists; `width` empty lists for no rows."""
    return [list(column) for column in zip(*rows)] or [[] for _ in range(width)]


def decode_detections(head: HeadOutput, cfg: PipelineConfig) -> list[Detection]:
    """`decode_columns`'s detections as `Detection`s, in the same order."""
    return decode_columns(head, cfg).rows()


def decode_columns(head: HeadOutput, cfg: PipelineConfig) -> Detections:
    """Turn head grids into a table of detections, one per peak kept.

    For each heatmap peak, the anchor is (cell + offset) * R, with size and
    displacement read from the same cell.  Peaks whose regressed size is not
    positive are dropped (a warning reports the count).  Every detection
    keeps `TopPoint`'s and `Detection`'s rules: a finite anchor, a positive
    size and a score in [0, 1].  Sizes are positive as kept and scores are
    heatmap values, which `HeadOutput` holds in [0, 1]; anchors are checked
    by `rules.require_top_points`, so no `Detection` is built.
    """
    require_head_config(head, cfg)
    peaks = _peaks(head.heatmap, cfg.max_peaks, cfg.score_threshold)
    cells = [(r, c) for r, c, _, _ in peaks]
    sizes = _at_cells(head.size_map, cells)
    kept = [w > 0 and h > 0 for w, h in sizes]
    if not all(kept):
        _warn(
            "dropped %d of %d peaks whose regressed size is not positive",
            kept.count(False),
            len(kept),
        )
        peaks, cells, sizes = (list(compress(a, kept)) for a in (peaks, cells, sizes))
    r_px = cfg.downsample
    rows, cols, channels, scores = _columns(peaks, 4)
    ws, hs = _columns(sizes, 2)
    oxs, oys = _columns(_at_cells(head.offset_map, cells), 2)
    dxs, dys = _columns(_at_cells(head.disp_map, cells), 2)
    dets = Detections(
        [(c + ox) * r_px for c, ox in zip(cols, oxs)],
        [(r + oy) * r_px for r, oy in zip(rows, oys)],
        ws,
        hs,
        scores,
        channels,
        dxs,
        dys,
        cols,
        rows,
    )
    require_top_points(dets.x, dets.y)
    return dets
