"""Displacement-conditioned data association and track lifecycle.

Each detection carries a predicted displacement from the previous frame, so
subtracting it yields where the object was one frame ago.  Matching
compares those predicted previous positions against the last known
positions of live tracks.  The default matcher is greedy (confident
detections claim the nearest track first); a Hungarian matcher solving the
same gated problem optimally is provided for comparisons.  Both see only
the pairs allowed to match (same class, within the gate), as a map from
(track index, detection index) to distance: greedy walks each detection's
pairs, and Hungarian solves them with `assignment.max_weight_pairs`, one
connected component at a time.  `_gated_pairs` finds those pairs in
Python without a tracks x detections array: `assignment.near_pairs`, the
sweep that IoU scoring uses too, gives the tracks that lie in the square
around each detection's gate, and only those are measured.

Association runs on columns: a frame's detections are a
`geometry.Detections` table, the live tracks are a `TrackColumns` table
inside `TrackerState`, and `advance` returns each result row as a plain
tuple, so a frame makes no Python object per detection, track or row.
`greedy_match`, `hungarian_match`, `step` and `TrackerState.active` are
views of this path for callers holding `Track`s and `Detection`s.

Lifecycle is deliberately local and owned by `advance` alone: unmatched
tracks are dropped immediately, unmatched detections always start new
tracks, and ids are never reused.
"""

from __future__ import annotations

import math
import operator
from itertools import compress
from typing import Callable, NamedTuple, Sequence

from .assignment import max_weight_pairs, near_pairs
from .geometry import BBox, Detection, Detections, PipelineConfig, TopPoint, require_box, top_boxes
from .rules import require_top_points


class Track(NamedTuple):
    id: int
    class_id: int
    last_top: TopPoint


class TrackColumns(NamedTuple):
    """Live tracks as columns, oldest first: ids, classes and last positions."""

    ids: list[int]
    class_id: list[int]
    x: list[float]
    y: list[float]

    @classmethod
    def of(cls, tracks: Sequence[Track]) -> TrackColumns:
        return cls(
            [t.id for t in tracks],
            [t.class_id for t in tracks],
            [t.last_top.x for t in tracks],
            [t.last_top.y for t in tracks],
        )


class TrackerState:
    """Per-sequence mutable state: live tracks as columns plus the next unused id."""

    __slots__ = ("live", "next_id")

    def __init__(self, live: TrackColumns | None = None, next_id: int = 1):
        self.live = TrackColumns([], [], [], []) if live is None else live
        self.next_id = next_id

    @property
    def active(self) -> list[Track]:
        """The live tracks as `Track`s, oldest first (a copy: editing one changes no state)."""
        return [Track(i, c, TopPoint(x, y)) for i, c, x, y in zip(*self.live)]


class TrackOutput(NamedTuple):
    """One result row of the frame `step` was called for; the caller numbers frames."""

    track_id: int
    bbox: BBox
    score: float


MatchResult = tuple[list[tuple[int, int]], list[int], list[int]]
# (track id, x1, y1, w, h, score): one result row of `advance`
Row = tuple[int, float, float, float, float, float]


def _predicted(dets: Detections) -> tuple[list[float], list[float]]:
    """Each detection's predicted previous position, x - dx and y - dy, as columns.

    Each position is finite, by `rules.require_top_points`.
    """
    xs = list(map(operator.sub, dets.x, dets.dx))
    ys = list(map(operator.sub, dets.y, dets.dy))
    require_top_points(xs, ys)
    return xs, ys


def _gated_pairs(
    tracks: TrackColumns, dets: Detections, gate_scale: float
) -> dict[tuple[int, int], float]:
    """{(track index, detection index): distance} for the pairs allowed to match.

    The distance runs from a track's last position to a detection's
    predicted previous position; a pair is allowed when both have the same
    class and the distance is within gate_scale * max(det width, det height).
    Pairs come in ascending (track, detection) order.

    Candidates are `assignment.near_pairs` of the tracks as points and of
    squares of half-side r = fl(gate * (1 + 2**-51)) around the predicted
    positions (px, py), which hold every pair the gate keeps: |dx| and |dy|
    are at most hypot(dx, dy), and if fl(x - px) <= gate, then x - px <=
    gate * (1 + 2**-52), as round-to-nearest has relative error at most
    2**-53 and a difference in the subnormal range is exact; that is at most
    r, and a float x at most the real px + r is at most fl(px + r).  The
    other three edges are alike.  A half-side of gate would miss x = 2**-52
    at px = -1 + 2**-53 with gate 1: fl(x - px) = 1.0, yet x > fl(px + 1).
    """
    px, py = _predicted(dets)
    gates = [gate_scale * max(w, h) for w, h in zip(dets.w, dets.h)]
    half = [g * (1 + 2**-51) for g in gates]
    squares = [(x - r, y - r, x + r, y + r) for x, y, r in zip(px, py, half)]
    points = [(x, y, x, y) for x, y in zip(tracks.x, tracks.y)]
    pairs = {}
    for ti, di in near_pairs(points, squares):
        if tracks.class_id[ti] == dets.class_id[di]:
            dist = math.hypot(tracks.x[ti] - px[di], tracks.y[ti] - py[di])
            if dist <= gates[di]:
                pairs[ti, di] = dist
    return pairs


def _greedy_pairs(
    tracks: TrackColumns, dets: Detections, gate_scale: float
) -> list[tuple[int, int]]:
    """`greedy_match`'s matches as (track index, detection index), in processing order."""
    near: dict[int, list[tuple[float, int]]] = {}  # each detection's (distance, track index)
    for (ti, di), d in _gated_pairs(tracks, dets, gate_scale).items():
        near.setdefault(di, []).append((d, ti))
    scores = dets.score
    taken: set[int] = set()
    matches: list[tuple[int, int]] = []
    for di in sorted(near, key=lambda i: (-scores[i], i)):
        free = [pair for pair in near[di] if pair[1] not in taken]
        if free:
            ti = min(free)[1]
            taken.add(ti)
            matches.append((ti, di))
    return matches


def _hungarian_pairs(
    tracks: TrackColumns, dets: Detections, gate_scale: float
) -> list[tuple[int, int]]:
    """`hungarian_match`'s matches as (track index, detection index), by detection index."""
    pairs = _gated_pairs(tracks, dets, gate_scale)
    # Each pair weighs big - d, with big above the sum of all allowed
    # distances, so a larger matching always weighs more, and among equal
    # sizes the smaller total distance does.
    big = sum(pairs.values()) + 1.0
    matched = max_weight_pairs({pair: big - d for pair, d in pairs.items()})
    return sorted(matched, key=operator.itemgetter(1))


def _result(
    tracks: Sequence[Track], dets: Sequence[Detection], gate_scale: float, solve: Callable
) -> MatchResult:
    """A column matcher's matches by track id, with the unmatched track ids and
    detection indices."""
    pairs = solve(TrackColumns.of(tracks), Detections.of(dets), gate_scale)
    matches = [(tracks[ti].id, di) for ti, di in pairs]
    matched_tracks = {tid for tid, _ in matches}
    matched_dets = {di for _, di in matches}
    unmatched_tracks = [t.id for t in tracks if t.id not in matched_tracks]
    unmatched_dets = [i for i in range(len(dets)) if i not in matched_dets]
    return matches, unmatched_tracks, unmatched_dets


def greedy_match(
    tracks: Sequence[Track],
    dets: Sequence[Detection],
    gate_scale: float,
) -> MatchResult:
    """Greedy association of detections to tracks.

    Detections are processed in descending score order (ties: lower index).
    Each takes the nearest still-unmatched track of its class, measured as
    the Euclidean distance between the track's last position and the
    detection's predicted previous position, provided that distance is
    within gate_scale * max(det width, det height).  Distance ties go to
    the earliest-created track.

    Returns (matches as (track_id, det_index) pairs in processing order,
    unmatched track ids, unmatched detection indices).
    """
    return _result(tracks, dets, gate_scale, _greedy_pairs)


def hungarian_match(
    tracks: Sequence[Track],
    dets: Sequence[Detection],
    gate_scale: float,
) -> MatchResult:
    """Optimal gated assignment on the same problem `greedy_match` solves.

    Pairs outside the gate (or across classes) can never match; among the
    remaining pairs the result is a maximum-cardinality matching of minimum
    total Euclidean distance.  Matches are returned sorted by detection
    index.
    """
    return _result(tracks, dets, gate_scale, _hungarian_pairs)


# each matcher's name and its solver on columns
MATCHERS = {"greedy": _greedy_pairs, "hungarian": _hungarian_pairs}


def advance(
    state: TrackerState,
    dets: Detections,
    cfg: PipelineConfig,
    matcher: str = "greedy",
) -> list[Row]:
    """Advance the tracker by one frame and return its result rows.

    Matched tracks adopt their detection's position; unmatched detections
    spawn new tracks with fresh ids (ascending detection index); unmatched
    tracks are dropped on the spot.  Each detection gives one row, (track
    id, x1, y1, w, h, score) with the box of its anchor and size
    (`geometry.top_boxes`), checked by `geometry.require_box`.  Rows come
    back sorted by track id.
    """
    if matcher not in MATCHERS:
        raise ValueError(f"unknown matcher {matcher!r}, expected one of {list(MATCHERS)}")
    live = state.live
    pairs = MATCHERS[matcher](live, dets, cfg.gate_scale)
    xs, ys = dets.x, dets.y
    track_of = [0] * len(xs)  # each detection's track id
    alive = [False] * len(live.ids)
    born = [True] * len(xs)
    for ti, di in pairs:
        alive[ti], born[di] = True, False
        live.x[ti], live.y[ti] = xs[di], ys[di]
        track_of[di] = live.ids[ti]
    live = state.live = TrackColumns(*(list(compress(column, alive)) for column in live))
    births = list(compress(range(len(xs)), born))
    for di in births:
        track_of[di] = state.next_id
        state.next_id += 1
        for column, value in zip(live, (track_of[di], dets.class_id[di], xs[di], ys[di])):
            column.append(value)
    boxes = top_boxes(xs, ys, dets.w, dets.h)
    # matched rows first, then born ones: the first box that breaks the rule is reported
    for di in [di for _, di in pairs] + births:
        require_box(*boxes[di])
    rows = [(tid, *box, score) for tid, box, score in zip(track_of, boxes, dets.score)]
    rows.sort(key=operator.itemgetter(0))
    return rows


def step(
    state: TrackerState,
    dets: Sequence[Detection],
    cfg: PipelineConfig,
    matcher: str = "greedy",
) -> list[TrackOutput]:
    """`advance` on `Detection`s, its rows as `TrackOutput`s."""
    rows = advance(state, Detections.of(dets), cfg, matcher)
    return [TrackOutput(tid, BBox(x1, y1, w, h), score) for tid, x1, y1, w, h, score in rows]
