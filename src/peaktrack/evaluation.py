"""CLEAR-MOT metrics and IDF1 over frame-aligned box sequences.

Sequences are mappings from 1-based frame index to a list of
(id, BBox) pairs; an id appears at most once per frame.  Correspondence
between ground truth and predictions is kept frame to frame: each frame
is one assignment over the pairs at IoU >= threshold that keeps the most
remembered pairs, then maximizes the total IoU (so a prediction two ids
remember goes to the pairing with the larger total), and a ground truth
whose matched prediction id changes counts one identity switch.  IDF1
instead scores a single global pairing of whole trajectories.

Scoring walks the frames once.  Each frame gets one (gt × pred) IoU
matrix, computed by numpy broadcasting with the same arithmetic as
`bbox_iou`, so every entry is the exact float the scalar gives.  That
matrix drives the frame's CLEAR matching and adds the frame's
`IoU >= threshold` hits into a (gt id × pred id) count matrix; one
assignment on the counts at the end gives IDF1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .assignment import linear_sum_assignment
from .geometry import BBox

FrameBoxes = Sequence[tuple[int, BBox]]
Sequence_ = Mapping[int, FrameBoxes]

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


def _frame_iou(
    gt_boxes: FrameBoxes, pred_boxes: FrameBoxes
) -> tuple[list[int], list[int], np.ndarray]:
    """One frame's gt ids, pred ids and (gt × pred) IoU matrix."""
    return (
        [gid for gid, _ in gt_boxes],
        [pid for pid, _ in pred_boxes],
        _iou_matrix(_box_array([b for _, b in gt_boxes]), _box_array([b for _, b in pred_boxes])),
    )


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
    gt_ids, pred_ids, iou = _frame_iou(gt_boxes, pred_boxes)
    return _match(iou, gt_ids, pred_ids, prev_correspondence, iou_threshold)


def _id_order(seq: Sequence_) -> dict[int, int]:
    ids = sorted({i for boxes in seq.values() for i, _ in boxes})
    return {i: k for k, i in enumerate(ids)}


class _IdHits:
    """IDF1 input: on how many frames each (gt id, pred id) pair overlaps.

    Rows are the ground truth ids and columns the prediction ids, both in
    ascending order.
    """

    def __init__(self, gt: Sequence_, pred: Sequence_):
        self.row_of = _id_order(gt)
        self.col_of = _id_order(pred)
        self.counts = np.zeros((len(self.row_of), len(self.col_of)))

    def add(
        self, gt_ids: Sequence[int], pred_ids: Sequence[int], iou: np.ndarray, threshold: float
    ) -> None:
        r, c = np.nonzero(iou >= threshold)
        if r.size:
            rows = np.array([self.row_of[gid] for gid in gt_ids])
            cols = np.array([self.col_of[pid] for pid in pred_ids])
            np.add.at(self.counts, (rows[r], cols[c]), 1.0)

    def idf1(self, boxes: int) -> float:
        """2*IDTP / `boxes` (gt plus pred boxes) under the best trajectory pairing."""
        rows, cols = linear_sum_assignment(-self.counts)
        idtp = float(self.counts[rows, cols].sum())
        return 2.0 * idtp / boxes


def _check_sequences(gt: Sequence_, pred: Sequence_) -> tuple[int, int]:
    if not gt or all(len(v) == 0 for v in gt.values()):
        raise ValueError("ground truth sequence is empty; metrics are undefined")
    lo, hi = min(gt), max(gt)
    stray = [f for f in pred if f < lo or f > hi]
    if stray:
        raise ValueError(
            f"prediction frames {sorted(stray)} lie outside the ground truth "
            f"range [{lo}, {hi}]"
        )
    for name, seq in (("ground truth", gt), ("prediction", pred)):
        for frame, boxes in seq.items():
            seen: set[int] = set()
            for i, _ in boxes:
                if i in seen:
                    raise ValueError(f"{name} id {i} appears twice in frame {frame}")
                seen.add(i)
    return lo, hi


def compute_clear(
    gt: Sequence_,
    pred: Sequence_,
    iou_threshold: float = IOU_THRESHOLD,
) -> MetricsReport:
    """Score a whole sequence; see MetricsReport for the fields."""
    lo, hi = _check_sequences(gt, pred)

    id_hits = _IdHits(gt, pred)
    corr: dict[int, int] = {}
    fp = fn = idsw = tp = 0
    iou_sum = 0.0
    present: Counter[int] = Counter()  # frames each gt id appears on
    covered: Counter[int] = Counter()  # frames each gt id is matched on
    for frame in range(lo, hi + 1):
        gt_ids, pred_ids, iou = _frame_iou(gt.get(frame, ()), pred.get(frame, ()))
        tally, corr = _match(iou, gt_ids, pred_ids, corr, iou_threshold)
        id_hits.add(gt_ids, pred_ids, iou, iou_threshold)
        fp += tally.fp
        fn += tally.fn
        idsw += tally.idsw
        tp += tally.tp
        iou_sum += tally.iou_sum
        present.update(gt_ids)
        covered.update(gid for gid, _ in tally.matches)

    gt_total = tp + fn
    coverages = [covered[gid] / n for gid, n in present.items()]
    mt = sum(c >= MOSTLY_TRACKED_COVERAGE for c in coverages) / len(coverages)
    ml = sum(c <= MOSTLY_LOST_COVERAGE for c in coverages) / len(coverages)
    return MetricsReport(
        mota=1.0 - (fp + fn + idsw) / gt_total,
        motp=iou_sum / tp if tp else 0.0,
        # every gt box is a TP or an FN, every prediction a TP or an FP
        idf1=id_hits.idf1(gt_total + tp + fp),
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
