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
Python without a tracks x detections array: each detection bisects the
tracks of its class, sorted by x, for those whose x lies within its gate,
and measures only those.

Lifecycle is deliberately local and owned by `step` alone: unmatched tracks
are dropped immediately, unmatched detections always start new tracks, and
ids are never reused.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Sequence

from .assignment import max_weight_pairs
from .geometry import BBox, Detection, PipelineConfig, TopPoint

@dataclass
class Track:
    id: int
    class_id: int
    last_top: TopPoint


@dataclass
class TrackerState:
    """Per-sequence mutable state: live tracks plus the next unused id."""

    active: list[Track] = field(default_factory=list)
    next_id: int = 1


@dataclass(frozen=True)
class TrackOutput:
    """One result row of the frame `step` was called for; the caller numbers frames."""

    track_id: int
    bbox: BBox
    score: float


MatchResult = tuple[list[tuple[int, int]], list[int], list[int]]


def predict_prev_positions(dets: Sequence[Detection]) -> list[TopPoint]:
    """Where each detection says its object was in the previous frame."""
    return [
        TopPoint(d.top.x - d.displacement[0], d.top.y - d.displacement[1]) for d in dets
    ]


def _gated_pairs(
    tracks: Sequence[Track], dets: Sequence[Detection], gate_scale: float
) -> dict[tuple[int, int], float]:
    """{(track index, detection index): distance} for the pairs allowed to match.

    The distance runs from a track's last position to a detection's
    predicted previous position; a pair is allowed when both have the same
    class and the distance is within gate_scale * max(det width, det height).
    Pairs come in ascending (track, detection) order.

    Each detection measures only the tracks of its class whose x offset
    dx = x - px from it lies in [-gate, gate], found by bisection among
    that class's tracks sorted by x.  dx is computed as the distance
    computes it, it rises with x however it rounds, and |dx| <= hypot(dx,
    dy), so the window drops no pair the gate would keep.
    """
    columns: dict[int, tuple[list[int], list[float], list[float]]] = {}
    for ti in sorted(range(len(tracks)), key=lambda ti: tracks[ti].last_top.x):
        track = tracks[ti]
        order, xs, ys = columns.setdefault(track.class_id, ([], [], []))
        order.append(ti)
        xs.append(track.last_top.x)
        ys.append(track.last_top.y)
    pairs = []
    for di, (det, prev) in enumerate(zip(dets, predict_prev_positions(dets))):
        if det.class_id not in columns:
            continue
        order, xs, ys = columns[det.class_id]
        gate = gate_scale * max(det.size)
        px, py = prev.x, prev.y

        def dx(x: float) -> float:
            return x - px

        lo = bisect_left(xs, -gate, key=dx)
        hi = bisect_right(xs, gate, lo, key=dx)
        for ti, x, y in zip(order[lo:hi], xs[lo:hi], ys[lo:hi]):
            dist = math.hypot(x - px, y - py)
            if dist <= gate:
                pairs.append(((ti, di), dist))
    pairs.sort()
    return dict(pairs)


def _result(
    tracks: Sequence[Track], n_dets: int, matches: list[tuple[int, int]]
) -> MatchResult:
    """Attach the unmatched track ids and detection indices to `matches`."""
    matched_tracks = {tid for tid, _ in matches}
    matched_dets = {di for _, di in matches}
    unmatched_tracks = [t.id for t in tracks if t.id not in matched_tracks]
    unmatched_dets = [i for i in range(n_dets) if i not in matched_dets]
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
    near: dict[int, list[tuple[float, int]]] = {}  # each detection's (distance, track index)
    for (ti, di), d in _gated_pairs(tracks, dets, gate_scale).items():
        near.setdefault(di, []).append((d, ti))
    taken: set[int] = set()
    matches: list[tuple[int, int]] = []
    for di in sorted(near, key=lambda i: (-dets[i].score, i)):
        free = [pair for pair in near[di] if pair[1] not in taken]
        if free:
            ti = min(free)[1]
            taken.add(ti)
            matches.append((tracks[ti].id, di))
    return _result(tracks, len(dets), matches)


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
    pairs = _gated_pairs(tracks, dets, gate_scale)
    # Each pair weighs big - d, with big above the sum of all allowed
    # distances, so a larger matching always weighs more, and among equal
    # sizes the smaller total distance does.
    big = sum(pairs.values()) + 1.0
    matched = max_weight_pairs({pair: big - d for pair, d in pairs.items()})
    matches = sorted(((tracks[ti].id, di) for ti, di in matched), key=lambda pair: pair[1])
    return _result(tracks, len(dets), matches)


MATCHERS = {"greedy": greedy_match, "hungarian": hungarian_match}


def step(
    state: TrackerState,
    dets: Sequence[Detection],
    cfg: PipelineConfig,
    matcher: str = "greedy",
) -> list[TrackOutput]:
    """Advance the tracker by one frame and return its result rows.

    Matched tracks adopt their detection's position; unmatched detections
    spawn new tracks with fresh ids (ascending detection index); unmatched
    tracks are dropped on the spot.  Rows come back sorted by track id.
    """
    if matcher not in MATCHERS:
        raise ValueError(f"unknown matcher {matcher!r}, expected one of {list(MATCHERS)}")
    matches, unmatched_tracks, unmatched_dets = MATCHERS[matcher](
        state.active, dets, cfg.gate_scale
    )

    by_id = {t.id: t for t in state.active}
    outputs: list[TrackOutput] = []
    for track_id, di in matches:
        det = dets[di]
        by_id[track_id].last_top = det.top
        outputs.append(TrackOutput(track_id, det.bbox(), det.score))
    dead = set(unmatched_tracks)
    state.active = [t for t in state.active if t.id not in dead]
    for di in sorted(unmatched_dets):
        det = dets[di]
        track = Track(id=state.next_id, class_id=det.class_id, last_top=det.top)
        state.next_id += 1
        state.active.append(track)
        outputs.append(TrackOutput(track.id, det.bbox(), det.score))
    outputs.sort(key=lambda row: row.track_id)
    return outputs
