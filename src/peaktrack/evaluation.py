"""CLEAR-MOT metrics and IDF1 over frame-aligned box sequences.

Sequences are mappings from 1-based frame index to a list of
(id, BBox) pairs, or to `FrameColumns`: a list of ids plus their (n, 4)
array of x1, y1, w, h rows, as `MotTable.frames` gives them.  An id
appears at most once per frame.  Correspondence between ground truth and
predictions is kept frame to frame: each frame is one assignment over the
pairs at IoU >= threshold that keeps the most remembered pairs, then
maximizes the total IoU (so a prediction two ids remember goes to the
pairing with the larger total), and a ground truth whose matched
prediction id changes counts one identity switch.  IDF1 instead scores a
single global pairing of whole trajectories.

Scoring turns each frame's pairs into columns once, at entry (columns
pass through as they are), then walks the frames once.  Each frame gets
one (gt × pred) IoU matrix, computed by numpy broadcasting with the same
arithmetic as `bbox_iou`, so every entry is the exact float the scalar
gives.  That matrix drives the frame's CLEAR matching and adds the frame's
`IoU >= threshold` hits into a (gt id × pred id) count matrix; one
assignment on the counts at the end gives IDF1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence, Union

import numpy as np

from .assignment import linear_sum_assignment
from .geometry import BBox

FrameBoxes = Sequence[tuple[int, BBox]]


class FrameColumns(NamedTuple):
    """One frame as columns: ids in order and their (n, 4) x1, y1, w, h boxes."""

    ids: list[int]
    boxes: np.ndarray


Sequence_ = Mapping[int, Union[FrameBoxes, FrameColumns]]

IOU_THRESHOLD = 0.5
MOSTLY_TRACKED_COVERAGE = 0.8
MOSTLY_LOST_COVERAGE = 0.2


@dataclass(frozen=True)
class FrameTally:
    tp: int
    fp: int
    fn: int
    idsw: int
    iou_sum: float
    matches: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class MetricsReport:
    """Sequence-level scores; `mota` is exactly 1 - (fp+fn+idsw)/gt_total."""

    mota: float
    motp: float
    idf1: float
    mt: float
    ml: float
    fp: int
    fn: int
    idsw: int
    gt_total: int


def _iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every row of `a` with every row of `b`, both (n, 4) (x1, y1, w, h)."""
    ax1, ay1, aw, ah = (a[:, k, None] for k in range(4))
    bx1, by1, bw, bh = (b[None, :, k] for k in range(4))
    iw = np.maximum(np.minimum(ax1 + aw, bx1 + bw) - np.maximum(ax1, bx1), 0.0)
    ih = np.maximum(np.minimum(ay1 + ah, by1 + bh) - np.maximum(ay1, by1), 0.0)
    inter = iw * ih
    union = aw * ah + bw * bh - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)


def _box_array(boxes: Sequence[BBox]) -> np.ndarray:
    return np.array([(b.x1, b.y1, b.w, b.h) for b in boxes], dtype=np.float64).reshape(-1, 4)


def bbox_iou(a: BBox, b: BBox) -> float:
    return float(_iou_matrix(_box_array([a]), _box_array([b]))[0, 0])


def _frame_columns(boxes: FrameBoxes | FrameColumns) -> FrameColumns:
    if isinstance(boxes, FrameColumns):
        return boxes
    return FrameColumns([i for i, _ in boxes], _box_array([b for _, b in boxes]))


def _columns(seq: Sequence_) -> dict[int, FrameColumns]:
    return {frame: _frame_columns(boxes) for frame, boxes in seq.items()}


_NO_BOXES = FrameColumns([], np.zeros((0, 4)))


def _match(
    iou: np.ndarray,
    gt_ids: Sequence[int],
    pred_ids: Sequence[int],
    prev_correspondence: Mapping[int, int],
    iou_threshold: float,
) -> tuple[FrameTally, dict[int, int]]:
    """`match_frame` on a precomputed (gt × pred) IoU matrix."""
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    pred_index = {pid: j for j, pid in enumerate(pred_ids)}
    score = np.where(iou >= iou_threshold, iou, 0.0)
    bonus = min(len(gt_ids), len(pred_ids)) + 1  # above any sum of IoUs
    for i, gid in enumerate(gt_ids):
        j = pred_index.get(prev_correspondence.get(gid))
        if j is not None and score[i, j] > 0:
            score[i, j] += bonus
    rows, cols = linear_sum_assignment(score, maximize=True)

    corr = dict(prev_correspondence)
    idsw = 0
    iou_sum = 0.0
    matches = []
    for i, j in zip(rows.tolist(), cols.tolist()):
        if score[i, j] == 0:
            continue
        gid, pid = gt_ids[i], pred_ids[j]
        before = prev_correspondence.get(gid)
        if before is not None and before != pid:
            idsw += 1
        corr[gid] = pid
        iou_sum += float(iou[i, j])
        matches.append((gid, pid))

    tp = len(matches)
    tally = FrameTally(
        tp=tp,
        fp=len(pred_ids) - tp,
        fn=len(gt_ids) - tp,
        idsw=idsw,
        iou_sum=iou_sum,
        matches=tuple(matches),
    )
    return tally, corr


def match_frame(
    gt_boxes: FrameBoxes,
    pred_boxes: FrameBoxes,
    prev_correspondence: Mapping[int, int],
    iou_threshold: float = IOU_THRESHOLD,
) -> tuple[FrameTally, dict[int, int]]:
    """Match one frame and update the gt-id -> pred-id correspondence.

    One assignment over the pairs at IoU >= `iou_threshold` keeps the most
    remembered pairs, then maximizes the total IoU; a prediction remembered
    by two ids goes to the pairing with the larger total IoU, not the higher
    single IoU.  A ground truth matched to a different prediction id than
    its remembered one contributes one identity switch.
    """
    gt, pred = _frame_columns(gt_boxes), _frame_columns(pred_boxes)
    iou = _iou_matrix(gt.boxes, pred.boxes)
    return _match(iou, gt.ids, pred.ids, prev_correspondence, iou_threshold)


def _sorted_ids(seq: Mapping[int, FrameColumns]) -> np.ndarray:
    return np.array(sorted(set().union(*(cols.ids for cols in seq.values()))))


def _check_sequences(
    gt: Mapping[int, FrameColumns], pred: Mapping[int, FrameColumns]
) -> tuple[int, int]:
    if not gt or all(len(cols.ids) == 0 for cols in gt.values()):
        raise ValueError("ground truth sequence is empty; metrics are undefined")
    lo, hi = min(gt), max(gt)
    stray = [f for f in pred if f < lo or f > hi]
    if stray:
        raise ValueError(
            f"prediction frames {sorted(stray)} lie outside the ground truth "
            f"range [{lo}, {hi}]"
        )
    for name, seq in (("ground truth", gt), ("prediction", pred)):
        for frame, cols in seq.items():
            if len(set(cols.ids)) != len(cols.ids):
                twice = next(i for k, i in enumerate(cols.ids) if i in cols.ids[:k])
                raise ValueError(f"{name} id {twice} appears twice in frame {frame}")
    return lo, hi


def compute_clear(
    gt: Sequence_,
    pred: Sequence_,
    iou_threshold: float = IOU_THRESHOLD,
) -> MetricsReport:
    """Score a whole sequence; see MetricsReport for the fields."""
    gt, pred = _columns(gt), _columns(pred)
    lo, hi = _check_sequences(gt, pred)

    # IDF1 input: on how many frames each (gt id, pred id) pair overlaps, rows
    # and columns in ascending id order
    all_gt_ids, all_pred_ids = _sorted_ids(gt), _sorted_ids(pred)
    hits = np.zeros((len(all_gt_ids), len(all_pred_ids)))
    corr: dict[int, int] = {}
    fp = fn = idsw = tp = 0
    iou_sum = 0.0
    present: Counter[int] = Counter()  # frames each gt id appears on
    covered: Counter[int] = Counter()  # frames each gt id is matched on
    for frame in range(lo, hi + 1):
        gt_ids, gt_boxes = gt.get(frame, _NO_BOXES)
        pred_ids, pred_boxes = pred.get(frame, _NO_BOXES)
        iou = _iou_matrix(gt_boxes, pred_boxes)
        tally, corr = _match(iou, gt_ids, pred_ids, corr, iou_threshold)
        r, c = np.nonzero(iou >= iou_threshold)
        if r.size:
            rows = np.searchsorted(all_gt_ids, gt_ids)
            cols = np.searchsorted(all_pred_ids, pred_ids)
            np.add.at(hits, (rows[r], cols[c]), 1.0)
        fp += tally.fp
        fn += tally.fn
        idsw += tally.idsw
        tp += tally.tp
        iou_sum += tally.iou_sum
        present.update(gt_ids)
        covered.update(gid for gid, _ in tally.matches)

    gt_total = tp + fn
    rows, cols = linear_sum_assignment(-hits)  # the best trajectory pairing
    coverages = [covered[gid] / n for gid, n in present.items()]
    mt = sum(c >= MOSTLY_TRACKED_COVERAGE for c in coverages) / len(coverages)
    ml = sum(c <= MOSTLY_LOST_COVERAGE for c in coverages) / len(coverages)
    return MetricsReport(
        mota=1.0 - (fp + fn + idsw) / gt_total,
        motp=iou_sum / tp if tp else 0.0,
        # IDF1 = 2*IDTP / (gt boxes + pred boxes); every gt box is a TP or an
        # FN, every prediction a TP or an FP
        idf1=2.0 * float(hits[rows, cols].sum()) / (gt_total + tp + fp),
        mt=mt,
        ml=ml,
        fp=fp,
        fn=fn,
        idsw=idsw,
        gt_total=gt_total,
    )


def compute_idf1(
    gt: Sequence_,
    pred: Sequence_,
    iou_threshold: float = IOU_THRESHOLD,
) -> float:
    """Identity F1: one global trajectory pairing maximizing per-frame hits.

    A ground-truth and a predicted trajectory agree on a frame when both are
    present and overlap at `iou_threshold`; the optimal pairing maximizes the
    total agreement (equivalently minimizes ID false positives plus
    negatives), giving IDF1 = 2*IDTP / (gt boxes + pred boxes).
    """
    return compute_clear(gt, pred, iou_threshold).idf1
