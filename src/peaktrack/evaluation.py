"""CLEAR-MOT metrics and IDF1 over frame-aligned box sequences.

Sequences are mappings from 1-based frame index to a list of
(id, BBox) pairs, or to `FrameColumns`: a list of ids plus their list of
(x1, y1, w, h) boxes, as `read_mot_frames` gives them.  An id appears at
most once per frame.  Correspondence between ground truth and
predictions is kept frame to frame: each frame is one assignment over the
pairs at IoU >= threshold that keeps the most remembered pairs, then
maximizes the total IoU (so a prediction two ids remember goes to the
pairing with the larger total), and a ground truth whose matched
prediction id changes counts one identity switch.  IDF1 instead scores a
single global pairing of whole trajectories.

Scoring turns each frame's pairs into columns once, at entry (columns
pass through as they are), then walks, in order, the frames either side
holds; a frame that neither holds would change nothing.  In each frame
`overlapping_pairs` measures the IoU of the (gt, pred) pairs that
`assignment.near_pairs` finds; every other pair has IoU 0, so it can be
neither a CLEAR match nor an IDF1 hit.  The pairs at IoU >= threshold
drive the frame's CLEAR matching and add one hit each to a (gt id, pred
id) -> hits count; one assignment on the counts at the end gives IDF1.
Both go to `assignment.max_weight_pairs`, one component at a time.

`FrameTally` and `MetricsReport` are `NamedTuple`s, and this module does
not load `geometry`: `BBox` is only read by attribute here, and
`IOU_THRESHOLD` comes from `rules`.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence, Union

from .assignment import max_weight_pairs, near_pairs
from .motfile import Box, FrameColumns
from .rules import IOU_THRESHOLD

if TYPE_CHECKING:
    from .geometry import BBox

FrameBoxes = Sequence[tuple[int, "BBox"]]
Sequence_ = Mapping[int, Union[FrameBoxes, FrameColumns]]

MOSTLY_TRACKED_COVERAGE = 0.8
MOSTLY_LOST_COVERAGE = 0.2


class FrameTally(NamedTuple):
    tp: int
    fp: int
    fn: int
    idsw: int
    iou_sum: float
    matches: tuple[tuple[int, int], ...]


class MetricsReport(NamedTuple):
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


def overlapping_pairs(a: Sequence[Box], b: Sequence[Box]) -> list[tuple[int, int, float]]:
    """(i, j, IoU of a[i] and b[j]) for every pair of boxes whose IoU is not 0, sorted.

    Boxes are (x1, y1, w, h); two overlap when the intersection has positive
    width and height, and an overlap whose IoU underflows to 0 (a sliver
    5e-324 wide) is no pair, as it could be no match either.  Candidates
    are the `assignment.near_pairs` of the spans (x1, y1, x1 + w, y1 + h).
    The IoU is `inter / (aw*ah + bw*bh - inter)`, 0 where that union is not
    positive, with inter the product of the intersection's width
    `min(ax1 + aw, bx1 + bw) - max(ax1, bx1)` and height; a sum of two
    floats and a min or max by comparison do not depend on their order.
    """
    a_spans, b_spans = ([(x1, y1, x1 + w, y1 + h) for x1, y1, w, h in side] for side in (a, b))
    pairs = []
    for i, j in near_pairs(a_spans, b_spans):
        px1, py1, px2, py2 = a_spans[i]
        qx1, qy1, qx2, qy2 = b_spans[j]
        # min and max by comparison; a tie yields an equal value
        ih = (py2 if py2 < qy2 else qy2) - (py1 if py1 > qy1 else qy1)
        if ih > 0:
            iw = (px2 if px2 < qx2 else qx2) - (px1 if px1 > qx1 else qx1)
            if iw > 0:
                inter = iw * ih
                union = a[i][2] * a[i][3] + b[j][2] * b[j][3] - inter
                iou = inter / union if union > 0 else 0.0
                if iou:
                    pairs.append((i, j, iou))
    return pairs


def _frame_columns(boxes: FrameBoxes | FrameColumns) -> FrameColumns:
    if isinstance(boxes, FrameColumns):
        return boxes
    return FrameColumns([i for i, _ in boxes], [(b.x1, b.y1, b.w, b.h) for _, b in boxes])


def _columns(seq: Sequence_) -> dict[int, FrameColumns]:
    return {frame: _frame_columns(boxes) for frame, boxes in seq.items()}


_NO_BOXES = FrameColumns([], [])


def _match(
    pairs: Sequence[tuple[int, int, float]],
    gt_ids: Sequence[int],
    pred_ids: Sequence[int],
    prev_correspondence: Mapping[int, int],
    iou_threshold: float,
) -> tuple[FrameTally, dict[int, int]]:
    """One frame's CLEAR matching on its `overlapping_pairs`, as set out
    above, and the updated gt-id -> pred-id correspondence."""
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    iou = {(i, j): value for i, j, value in pairs if value >= iou_threshold}
    score = dict(iou)
    pred_index = {pid: j for j, pid in enumerate(pred_ids)}
    bonus = min(len(gt_ids), len(pred_ids)) + 1  # above any sum of IoUs
    for i, gid in enumerate(gt_ids):
        key = (i, pred_index.get(prev_correspondence.get(gid)))
        if key in score:
            score[key] += bonus

    corr = dict(prev_correspondence)
    idsw = 0
    iou_sum = 0.0
    matches = []
    for i, j in max_weight_pairs(score):  # ascending gt row, so the IoUs add in row order
        gid, pid = gt_ids[i], pred_ids[j]
        before = prev_correspondence.get(gid)
        if before is not None and before != pid:
            idsw += 1
        corr[gid] = pid
        iou_sum += iou[i, j]
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


def _check_sequences(gt: Mapping[int, FrameColumns], pred: Mapping[int, FrameColumns]) -> None:
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


def compute_clear(
    gt: Sequence_,
    pred: Sequence_,
    iou_threshold: float = IOU_THRESHOLD,
) -> MetricsReport:
    """Score a whole sequence; see MetricsReport for the fields."""
    gt, pred = _columns(gt), _columns(pred)
    _check_sequences(gt, pred)

    # IDF1 input: on how many frames each (gt id, pred id) pair has IoU >= threshold
    hits: Counter[tuple[int, int]] = Counter()
    corr: dict[int, int] = {}
    fp = fn = idsw = tp = 0
    iou_sum = 0.0
    present: Counter[int] = Counter()  # frames each gt id appears on
    covered: Counter[int] = Counter()  # frames each gt id is matched on
    # a frame that neither side holds changes no tally, hit or correspondence
    for frame in sorted(gt.keys() | pred.keys()):
        gt_ids, gt_boxes = gt.get(frame, _NO_BOXES)
        pred_ids, pred_boxes = pred.get(frame, _NO_BOXES)
        pairs = overlapping_pairs(gt_boxes, pred_boxes)
        tally, corr = _match(pairs, gt_ids, pred_ids, corr, iou_threshold)
        hits.update((gt_ids[i], pred_ids[j]) for i, j, iou in pairs if iou >= iou_threshold)
        fp += tally.fp
        fn += tally.fn
        idsw += tally.idsw
        tp += tally.tp
        iou_sum += tally.iou_sum
        present.update(gt_ids)
        covered.update(gid for gid, _ in tally.matches)

    gt_total = tp + fn
    id_tp = sum(hits[pair] for pair in max_weight_pairs(hits))  # the best trajectory pairing
    coverages = [covered[gid] / n for gid, n in present.items()]
    mt = sum(c >= MOSTLY_TRACKED_COVERAGE for c in coverages) / len(coverages)
    ml = sum(c <= MOSTLY_LOST_COVERAGE for c in coverages) / len(coverages)
    return MetricsReport(
        mota=1.0 - (fp + fn + idsw) / gt_total,
        motp=iou_sum / tp if tp else 0.0,
        # IDF1 = 2*IDTP / (gt boxes + pred boxes); every gt box is a TP or an
        # FN, every prediction a TP or an FP
        idf1=2.0 * id_tp / (gt_total + tp + fp),
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
