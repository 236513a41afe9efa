"""MOTChallenge text rows: the one reader and the one writer, without numpy.

MOT rows are the 9-column comma-separated MOTChallenge layout
(frame, id, x, y, w, h, conf, class, visibility); `class` and `visibility`
are written as -1 where this pipeline has nothing meaningful to put there.

`read_mot_columns` is the one reader, one walk over the file.  It decodes
the file as UTF-8 with universal newlines (a byte that is not UTF-8 is kept
as a lone surrogate, which no number holds), splits on "\\n" alone, skips
lines that are blank after `str.strip`, and checks every other line in file
order by these rules, in this order: UTF-8 text; 9 fields; frame, id and
class each a number, integral and within int64; the six float fields parse
as Python's `float` parses them; a valid box (`rules.require_box`);
frame >= 1; and a (frame, id) that no earlier line holds.  The first rule
that the first bad line breaks is reported as `path:line: reason`.

The walk checks each rule's common case inline: one `int` per integral
field and a range test, then the box condition itself.  Only a line that
fails one of them calls the rule's helper (`_integral`, `require_box`),
which finds the rule that broke and words its message, so a good line
costs no helper call and a bad one gets the helper's message.

A frame, id or class written as an integer literal (one that `int` reads:
digits, an optional sign, underscores between digits, whitespace around)
is read exactly, so ids above 2**53 stay distinct; any other integral form,
such as `3.0` or `1e3`, is read through `float`.  Either way a value
outside int64 is out of range.

The walk gives the file's columns, `MotColumns`, the one in-memory table of
a MOT file: `render-heatmap` and `overlay` read them as they are,
`read_mot_frames` groups them per frame for scoring, and `read_mot_file`
gives `MotRow`s.  `rows_to_frames` groups `MotRow`s as (id, `BBox`) pairs
per frame.

`write_mot_file` is the one writer.  It formats each row, a `MotRow` or
any tuple of the same nine fields (`track` writes plain tuples), with one
`%` template: integers for frame, id and class, six decimals for the box
and conf, and `%g` for visibility.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .rules import require_box

if TYPE_CHECKING:
    from .geometry import BBox

Box = tuple[float, float, float, float]  # x1, y1, w, h

_INT64_END = 2**63
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")  # a byte that "surrogateescape" kept
_ROW_TEMPLATE = "%d,%d,%.6f,%.6f,%.6f,%.6f,%.6f,%d,%g\n"


class FileFormatError(Exception):
    """A file does not follow one of peaktrack's formats (MOT rows, grid files)."""


class MotRow(NamedTuple):
    """One MOT row; `class_id` and `visibility` default to -1, "not given"."""

    frame: int
    track_id: int
    x: float
    y: float
    w: float
    h: float
    conf: float = 1.0
    class_id: int = -1
    visibility: float = -1.0


class MotColumns(NamedTuple):
    """A MOT file as columns, one entry per row in file order."""

    frame: list[int]
    track_id: list[int]
    box: list[Box]
    conf: list[float]
    class_id: list[int]
    visibility: list[float]


class FrameColumns(NamedTuple):
    """One frame as columns: ids in order and their (x1, y1, w, h) boxes."""

    ids: list[int]
    boxes: list[Box]


def _integral(text: str, what: str) -> int:
    """A frame, id or class field: a number, integral and within int64."""
    try:
        value = int(text)  # an integer literal, read exactly
    except ValueError:
        try:
            number = float(text)
        except ValueError:
            raise ValueError(f"{what} {text!r} is not a number") from None
        if not (math.isfinite(number) and number == math.trunc(number)):
            raise ValueError(f"{what} {text!r} is not integral") from None
        value = int(number)
    if not -_INT64_END <= value < _INT64_END:
        raise ValueError(f"{what} {text!r} is out of range")
    return value


def read_mot_columns(path: str | Path) -> MotColumns:
    """Parse a MOT result or ground-truth file into columns, in file order.

    A file that breaks a rule raises `FileFormatError` for its first bad
    line, as `path:line: reason`.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        text = fh.read()
    escapes = _ESCAPED_BYTE.search(text) is not None  # else no line needs the byte rule
    cols = MotColumns([], [], [], [], [], [])
    seen: dict[tuple[int, int], int] = {}
    lo, hi, isfinite = -_INT64_END, _INT64_END, math.isfinite
    # split on "\n" alone: str.splitlines would also split on \f, \x1c or
    # \u2028 inside a line and shift the line numbers
    for line_no, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            if escapes and (escaped := _ESCAPED_BYTE.search(line)):
                raise ValueError(f"not UTF-8 text (byte 0x{ord(escaped[0]) - 0xDC00:02x})")
            fields = line.split(",")
            if len(fields) != 9:
                raise ValueError(f"expected 9 comma-separated fields, got {len(fields)}")
            try:
                frame, track_id, class_id = int(fields[0]), int(fields[1]), int(fields[7])
                if not (lo <= frame < hi and lo <= track_id < hi and lo <= class_id < hi):
                    raise ValueError
            except ValueError:  # not all three integer literals within int64
                frame = _integral(fields[0], "frame")
                track_id = _integral(fields[1], "id")
                class_id = _integral(fields[7], "class")
            x, y, w, h = float(fields[2]), float(fields[3]), float(fields[4]), float(fields[5])
            conf, visibility = float(fields[6]), float(fields[8])
            if not (w > 0 and h > 0 and isfinite(x + w) and isfinite(y + h)):
                require_box(x, y, w, h)
            if frame < 1:
                raise ValueError("frame must be >= 1")
            earlier = seen.setdefault((frame, track_id), line_no)
            if earlier != line_no:
                raise ValueError(
                    f"id {track_id} already appears in frame {frame} at line {earlier}"
                )
        except ValueError as exc:
            raise FileFormatError(f"{path}:{line_no}: {exc}") from None
        cols.frame.append(frame)
        cols.track_id.append(track_id)
        cols.box.append((x, y, w, h))
        cols.conf.append(conf)
        cols.class_id.append(class_id)
        cols.visibility.append(visibility)
    return cols


def read_mot_frames(path: str | Path) -> dict[int, FrameColumns]:
    """Ids and boxes per frame, frames ascending, each frame in file order."""
    cols = read_mot_columns(path)
    frames: dict[int, FrameColumns] = {}
    for frame, track_id, box in zip(cols.frame, cols.track_id, cols.box):
        at = frames.get(frame)
        if at is None:
            at = frames[frame] = FrameColumns([], [])
        at.ids.append(track_id)
        at.boxes.append(box)
    return {frame: frames[frame] for frame in sorted(frames)}


def read_mot_file(path: str | Path) -> list[MotRow]:
    """Parse a MOT result or ground-truth file, preserving row order."""
    cols = read_mot_columns(path)
    return [
        MotRow(frame, track_id, *box, conf, class_id, visibility)
        for frame, track_id, box, conf, class_id, visibility in zip(*cols)
    ]


def write_mot_file(path: str | Path, rows: Iterable[tuple]) -> None:
    """Write `MotRow`s, or tuples of the same nine fields, one line each."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines([_ROW_TEMPLATE % row for row in rows])


def rows_to_frames(rows: Sequence[MotRow]) -> dict[int, list[tuple[int, BBox]]]:
    """Group rows by frame for the evaluation module."""
    from .geometry import BBox

    frames: dict[int, list[tuple[int, BBox]]] = {}
    for r in rows:
        frames.setdefault(r.frame, []).append((r.track_id, BBox(r.x, r.y, r.w, r.h)))
    return frames
