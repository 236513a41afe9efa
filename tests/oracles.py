"""Independent brute-force implementations used to cross-check the library.

Everything here is written from the documented rules alone and stays free
of the library's own algorithm code, so a bug cannot hide in both sides.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple


def iou_radius_oracle(w: float, h: float, min_overlap: float = 0.7) -> float:
    """Three-case corner radius keeping IoU >= min_overlap, via the quadratic
    formula with explicit root selection per case."""
    o = min_overlap

    # shifted box: overlap (w-r)(h-r), union 2wh - overlap
    # (1+o) r^2 - (1+o)(w+h) r + (1-o) wh >= 0, keep the smaller root
    a = 1.0
    b = -(w + h)
    c = w * h * (1 - o) / (1 + o)
    r1 = (-b - math.sqrt(b * b - 4 * a * c)) / (2 * a)

    # shrunk box: (w-2r)(h-2r) / (wh) >= o, keep the smaller root
    a = 4.0
    b = -2.0 * (w + h)
    c = (1 - o) * w * h
    r2 = (-b - math.sqrt(b * b - 4 * a * c)) / (2 * a)

    # grown box: wh / ((w+2r)(h+2r)) >= o, keep the positive root
    a = 4.0 * o
    b = 2.0 * o * (w + h)
    c = (o - 1) * w * h
    r3 = (-b + math.sqrt(b * b - 4 * a * c)) / (2 * a)
    return min(r1, r2, r3)


def gaussian_sigma_oracle(size: tuple[float, float], downsample: int) -> float:
    """Bump sigma in cells for a (w, h) box: (2r + 1) / 6 of the IoU-0.7 radius
    of the box in cells, at least 2/3."""
    w, h = size
    r = iou_radius_oracle(w / downsample, h / downsample)
    return max((2.0 * r + 1.0) / 6.0, 2.0 / 3.0)


class Point(NamedTuple):
    x: float
    y: float


class Cell(NamedTuple):
    col: int
    row: int


class Placement(NamedTuple):
    annotation: object
    top: Point
    cell: Cell
    offset: tuple[float, float]
    sigma: float


def clamped_top_oracle(bbox, image_size: tuple[int, int], downsample: int) -> Point | None:
    """A box's top point (x1 + w/2, y1 + h/10) clamped just inside the frame,
    or None when it lies more than one cell (R pixels) outside it.

    h/10 is written h * 0.1, the product the documented anchor uses, so the
    bits agree with a grid built from it.
    """
    h_px, w_px = image_size
    x, y = bbox.x1 + bbox.w / 2.0, bbox.y1 + bbox.h * 0.1
    if not (-downsample <= x < w_px + downsample and -downsample <= y < h_px + downsample):
        return None
    return Point(min(max(x, 0.0), w_px - 1e-6), min(max(y, 0.0), h_px - 1e-6))


def place_objects_oracle(ann, image_size: tuple[int, int], downsample: int, num_classes=1):
    """One `Placement` per object of a frame that has a clamped top, in order:
    cell floor(top / R), offset top / R - cell, and `gaussian_sigma_oracle`.

    `num_classes` is accepted and ignored: class ids do not move a placement.
    """
    placements = []
    for obj in ann.objects:
        top = clamped_top_oracle(obj.bbox, image_size, downsample)
        if top is None:
            continue
        cx, cy = top.x / downsample, top.y / downsample
        cell = Cell(math.floor(cx), math.floor(cy))
        sigma = gaussian_sigma_oracle((obj.bbox.w, obj.bbox.h), downsample)
        placements.append(Placement(obj, top, cell, (cx - cell.col, cy - cell.row), sigma))
    return placements


def euclid(p: tuple[float, float], q: tuple[float, float]) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


def greedy_oracle(tracks, dets, gate_scale):
    """Quadratic-scan greedy matcher following the documented ordering rules.

    Detections in descending score order (ties: lower index) each claim the
    nearest unmatched same-class track whose distance between the track's
    last position and the detection's (top - displacement) stays within
    gate_scale * max(det size); distance ties go to the earlier track.
    """
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    used = [False] * len(tracks)
    matches = []
    for di in order:
        det = dets[di]
        predicted = (det.top.x - det.displacement[0], det.top.y - det.displacement[1])
        gate = gate_scale * max(det.size)
        best = -1
        best_d = None
        for ti, track in enumerate(tracks):
            if used[ti] or track.class_id != det.class_id:
                continue
            d = euclid((track.last_top.x, track.last_top.y), predicted)
            if d <= gate and (best_d is None or d < best_d):
                best, best_d = ti, d
        if best >= 0:
            used[best] = True
            matches.append((tracks[best].id, di))
    matched_dets = {di for _, di in matches}
    unmatched_tracks = [t.id for i, t in enumerate(tracks) if not used[i]]
    unmatched_dets = [i for i in range(len(dets)) if i not in matched_dets]
    return matches, unmatched_tracks, unmatched_dets


def assignment_oracle(dist, feasible) -> tuple[int, float]:
    """Best (cardinality, total cost) matching over the feasible pairs.

    Enumerates every injective mapping of the smaller side into the larger
    one and scores the feasible subset of its pairs, preferring more matched
    pairs and then lower total distance.  Exponential; fine for n, m <= 7.
    """
    n, m = len(dist), len(dist[0]) if len(dist) else 0
    if n == 0 or m == 0:
        return 0, 0.0
    best_card = 0
    best_cost = 0.0
    if n <= m:
        rows = range(n)
        for perm in itertools.permutations(range(m), n):
            card = 0
            cost = 0.0
            for i in rows:
                if feasible[i][perm[i]]:
                    card += 1
                    cost += dist[i][perm[i]]
            if card > best_card or (card == best_card and cost < best_cost):
                best_card, best_cost = card, cost
    else:
        for perm in itertools.permutations(range(n), m):
            card = 0
            cost = 0.0
            for j in range(m):
                if feasible[perm[j]][j]:
                    card += 1
                    cost += dist[perm[j]][j]
            if card > best_card or (card == best_card and cost < best_cost):
                best_card, best_cost = card, cost
    return best_card, best_cost


def assignment_total_oracle(cost, maximize: bool = False) -> float:
    """Best total over every injective map of the smaller side of `cost`.

    `cost` is a list of rows; the result is the minimum total, or the
    maximum with `maximize`, and 0 when either side is empty.  Exponential;
    fine for 7 or fewer on the larger side.
    """
    if not cost or not cost[0]:
        return 0.0
    if len(cost) > len(cost[0]):
        cost = [list(col) for col in zip(*cost)]
    n, m = len(cost), len(cost[0])
    totals = [
        sum(cost[i][perm[i]] for i in range(n))
        for perm in itertools.permutations(range(m), n)
    ]
    return max(totals) if maximize else min(totals)


def iou_oracle(a, b) -> float:
    """Plain interval-arithmetic IoU of two (x1, y1, w, h) boxes."""
    ax1, ay1, aw, ah = a
    bx1, by1, bw, bh = b
    iw = min(ax1 + aw, bx1 + bw) - max(ax1, bx1)
    ih = min(ay1 + ah, by1 + bh) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (aw * ah + bw * bh - inter)


def idf1_oracle(gt, pred, iou_threshold: float = 0.5) -> float:
    """Brute-force IDF1: try every injective trajectory pairing.

    gt and pred map frame -> [(id, BBox)].  A pairing earns one hit per
    frame where both trajectories exist and overlap at the threshold; IDF1
    is 2 * best total hits / (gt boxes + pred boxes).
    """
    gt_traj: dict[int, dict[int, object]] = {}
    for frame, boxes in gt.items():
        for gid, box in boxes:
            gt_traj.setdefault(gid, {})[frame] = box
    pred_traj: dict[int, dict[int, object]] = {}
    for frame, boxes in pred.items():
        for pid, box in boxes:
            pred_traj.setdefault(pid, {})[frame] = box

    total_gt = sum(len(t) for t in gt_traj.values())
    total_pred = sum(len(t) for t in pred_traj.values())
    if total_pred == 0 or total_gt == 0:
        return 0.0

    g_ids = sorted(gt_traj)
    p_ids = sorted(pred_traj)
    hits = {}
    for gid in g_ids:
        for pid in p_ids:
            n = 0
            for frame, gbox in gt_traj[gid].items():
                pbox = pred_traj[pid].get(frame)
                if pbox is not None and (
                    iou_oracle(
                        (gbox.x1, gbox.y1, gbox.w, gbox.h),
                        (pbox.x1, pbox.y1, pbox.w, pbox.h),
                    )
                    >= iou_threshold
                ):
                    n += 1
            hits[(gid, pid)] = n

    best = 0
    if len(g_ids) <= len(p_ids):
        for perm in itertools.permutations(p_ids, len(g_ids)):
            best = max(best, sum(hits[(g, p)] for g, p in zip(g_ids, perm)))
    else:
        for perm in itertools.permutations(g_ids, len(p_ids)):
            best = max(best, sum(hits[(g, p)] for g, p in zip(perm, p_ids)))
    return 2.0 * best / (total_gt + total_pred)


def peaks_oracle(heatmap, max_peaks: int, score_threshold: float):
    """Local maxima by a plain scan of each cell's 8 neighbours.

    A cell is a peak when it is at or above the threshold and >= every
    neighbour that exists in its channel.  Returns (row, col, channel,
    score) sorted by (-score, row, col, channel), cut at `max_peaks`.
    """
    rows, cols, channels = heatmap.shape
    found = []
    for r in range(rows):
        for c in range(cols):
            for ch in range(channels):
                v = float(heatmap[r, c, ch])
                if v < score_threshold:
                    continue
                if all(
                    v >= heatmap[r + dr, c + dc, ch]
                    for dr in (-1, 0, 1)
                    for dc in (-1, 0, 1)
                    if 0 <= r + dr < rows and 0 <= c + dc < cols
                ):
                    found.append((r, c, ch, v))
    found.sort(key=lambda p: (-p[3], p[0], p[1], p[2]))
    return found[:max_peaks]


def clear_match_oracle(iou, remembered, iou_threshold: float = 0.5) -> tuple[int, float]:
    """Best (remembered pairs kept, total IoU) over every matching of the
    pairs at IoU >= iou_threshold.

    `iou` is a (gt × pred) list of lists and `remembered` maps a gt row to
    the pred column it was matched to before.  Every partial matching is
    enumerated row by row, each row left unmatched or given a free column;
    more remembered pairs win, then the larger total IoU.  Exponential;
    fine for n, m <= 5.
    """
    n, m = len(iou), len(iou[0]) if len(iou) else 0
    best = (0, 0.0)

    def walk(i, used, kept, total):
        nonlocal best
        if i == n:
            best = max(best, (kept, total))
            return
        walk(i + 1, used, kept, total)
        for j in range(m):
            if j not in used and iou[i][j] >= iou_threshold:
                walk(i + 1, used | {j}, kept + (remembered.get(i) == j), total + iou[i][j])

    walk(0, frozenset(), 0, 0.0)
    return best


def mot_rows_oracle(path):
    """Per-line MOT reader: the rows as 9-tuples (frame, id, x, y, w, h, conf,
    class, visibility) in file order, or the first error as 'path:line: reason'.

    Lines come from iterating the file in text mode, so only "\\n", "\\r\\n"
    and "\\r" end a line; a line that is blank after `str.strip` is skipped.
    """
    rows = []
    first_line = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{line_no}: "
            fields = line.split(",")
            if len(fields) != 9:
                return where + f"expected 9 comma-separated fields, got {len(fields)}"
            ints = []
            for i, what in ((0, "frame"), (1, "id"), (7, "class")):
                try:
                    value = float(fields[i])
                except ValueError:
                    return where + f"{what} {fields[i]!r} is not a number"
                if not math.isfinite(value) or value != int(value):
                    return where + f"{what} {fields[i]!r} is not integral"
                if not -(2**63) <= int(value) < 2**63:
                    return where + f"{what} {fields[i]!r} is out of range"
                ints.append(int(value))
            frame, track_id, class_id = ints
            try:
                x, y, w, h, conf, vis = (float(fields[i]) for i in (2, 3, 4, 5, 6, 8))
            except ValueError as exc:
                return where + str(exc)
            for v in (x, y, w, h):
                if not math.isfinite(v):
                    return where + f"BBox must be finite, got {v!r}"
            if w <= 0 or h <= 0:
                return where + f"BBox extent must be positive, got w={w}, h={h}"
            if not (math.isfinite(x + w) and math.isfinite(y + h)):
                return where + f"BBox edges must be finite, got x2={x + w}, y2={y + h}"
            if frame < 1:
                return where + "frame must be >= 1"
            earlier = first_line.setdefault((frame, track_id), line_no)
            if earlier != line_no:
                return (
                    where + f"id {track_id} already appears in frame {frame} at line {earlier}"
                )
            rows.append((frame, track_id, x, y, w, h, conf, class_id, vis))
    return rows
