"""Output checks computed apart from the program under test.

Everything here works on the text files the CLI writes (`gt.txt`, the
result file) and on the numbers `evaluate --csv` prints, with numpy and
scipy only; nothing imports `peaktrack`.  A failed check raises
`CheckFailed`, which fails the benchmark run.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

IOU_THRESHOLD = 0.5
TOP_HEIGHT_FRACTION = 0.1
BOX_TOLERANCE_PX = 1e-3
PRINTED_TOLERANCE = 1e-6  # evaluate --csv prints six decimals


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def read_rows(path: str | Path) -> np.ndarray:
    """MOT rows as an (n, 6) float array of frame, id, x, y, w, h."""
    rows = np.loadtxt(path, delimiter=",", ndmin=2, usecols=range(6))
    return rows.reshape(-1, 6)


def split_frames(rows: np.ndarray) -> dict[int, np.ndarray]:
    """Row indices of each frame, in file order."""
    frames = rows[:, 0].astype(np.int64)
    order = np.argsort(frames, kind="stable")
    keys, starts = np.unique(frames[order], return_index=True)
    return {int(k): idx for k, idx in zip(keys, np.split(order, starts[1:]))}


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every (x, y, w, h) box in `a` against every box in `b`.

    The arithmetic follows the scalar definition step by step, so each
    value is the float the scalar formula gives.
    """
    ax, ay, aw, ah = (a[:, k : k + 1] for k in range(4))
    bx, by, bw, bh = (b[:, k] for k in range(4))
    iw = np.maximum(np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx), 0.0)
    ih = np.maximum(np.minimum(ay + ah, by + bh) - np.maximum(ay, by), 0.0)
    inter = iw * ih
    union = aw * ah + bw * bh - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)


def idf1_reference(gt: np.ndarray, pred: np.ndarray, thr: float = IOU_THRESHOLD) -> float:
    """IDF1 from per-(gt id, pred id) hit counts and one optimal pairing."""
    if len(pred) == 0 or len(gt) == 0:
        return 0.0
    g_ids, g_col = np.unique(gt[:, 1], return_inverse=True)
    p_ids, p_col = np.unique(pred[:, 1], return_inverse=True)
    hits = np.zeros((len(g_ids), len(p_ids)))
    pred_frames = split_frames(pred)
    for frame, gi in split_frames(gt).items():
        pi = pred_frames.get(frame)
        if pi is None:
            continue
        r, c = np.nonzero(iou_matrix(gt[gi, 2:6], pred[pi, 2:6]) >= thr)
        np.add.at(hits, (g_col[gi[r]], p_col[pi[c]]), 1.0)
    rows, cols = linear_sum_assignment(-hits)
    return 2.0 * float(hits[rows, cols].sum()) / (len(gt) + len(pred))


def max_true_positives(gt: np.ndarray, pred: np.ndarray, thr: float = IOU_THRESHOLD) -> int:
    """Sum over frames of the most disjoint GT/result pairs at IoU >= thr."""
    total = 0
    pred_frames = split_frames(pred)
    for frame, gi in split_frames(gt).items():
        pi = pred_frames.get(frame)
        if pi is None:
            continue
        ok = iou_matrix(gt[gi, 2:6], pred[pi, 2:6]) >= thr
        rows, cols = linear_sum_assignment(ok.astype(float), maximize=True)
        total += int(ok[rows, cols].sum())
    return total


def check_lifecycle(pred: np.ndarray, identities: int) -> None:
    """Ids unique per frame, one contiguous run each, handed out 1..N in order."""
    frames = pred[:, 0].astype(np.int64)
    ids = pred[:, 1].astype(np.int64)
    pairs = np.unique(np.stack([frames, ids], axis=1), axis=0)
    require(len(pairs) == len(pred), "an id appears twice in one frame")
    require(
        np.array_equal(np.unique(ids), np.arange(1, identities + 1)),
        f"result ids are not exactly 1..{identities}",
    )
    lo = np.full(identities + 1, np.iinfo(np.int64).max)
    hi = np.zeros(identities + 1, dtype=np.int64)
    np.minimum.at(lo, ids, frames)
    np.maximum.at(hi, ids, frames)
    count = np.bincount(ids, minlength=identities + 1)
    require(
        np.array_equal((hi - lo + 1)[1:], count[1:]),
        "an id skips frames, so a dead track came back",
    )
    require(bool(np.all(np.diff(lo[1:]) >= 0)), "ids do not first appear in increasing order")


def check_clean(gt: np.ndarray, pred: np.ndarray, downsample: int) -> None:
    """Uncorrupted scene: one row per occupied top-point cell, boxes on GT boxes."""
    pred_frames = split_frames(pred)
    for frame, gi in split_frames(gt).items():
        g = gt[gi]
        tops = np.stack([g[:, 2] + g[:, 4] / 2.0, g[:, 3] + g[:, 5] * TOP_HEIGHT_FRACTION], 1)
        cells = len(np.unique(np.floor(tops / downsample), axis=0))
        pi = pred_frames.get(frame, np.zeros(0, dtype=np.int64))
        require(len(pi) == cells, f"frame {frame}: {len(pi)} result rows for {cells} occupied cells")
        if len(pi):
            gap = np.abs(pred[pi, None, 2:6] - g[None, :, 2:6]).max(axis=2).min(axis=1)
            worst = float(gap.max())
            require(
                worst <= BOX_TOLERANCE_PX,
                f"frame {frame}: a result box is {worst:.3g} px from every GT box",
            )


def check_report(report: dict[str, float], gt: np.ndarray, pred: np.ndarray) -> None:
    """CLEAR identities and the printed IDF1 against the reference."""
    fp, fn, idsw = int(report["fp"]), int(report["fn"]), int(report["idsw"])
    gt_total = int(report["gt_total"])
    require(gt_total == len(gt), f"gt_total {gt_total} != {len(gt)} GT rows")
    tp = gt_total - fn
    require(tp == len(pred) - fp, f"gt_total - fn = {tp} but result rows - fp = {len(pred) - fp}")
    mota = 1.0 - (fp + fn + idsw) / gt_total
    require(
        abs(report["mota"] - mota) <= PRINTED_TOLERANCE,
        f"printed MOTA {report['mota']} != 1 - (fp + fn + idsw) / gt_total = {mota}",
    )
    bound = max_true_positives(gt, pred)
    require(tp <= bound, f"TP {tp} exceeds the largest per-frame matching total {bound}")
    idf1 = idf1_reference(gt, pred)
    require(
        abs(report["idf1"] - idf1) <= PRINTED_TOLERANCE,
        f"printed IDF1 {report['idf1']} != reference {idf1:.6f}",
    )
