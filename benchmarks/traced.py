"""Traced in-process run: the calls `simulate`, `track` and `evaluate` make.

`run_pipeline` calls the same public functions in the same order as
`cmd_simulate`, `cmd_track` and `cmd_evaluate`, and wraps each call in a
span (name, start, end, parent).  A frame span is the parent of that
frame's calls.  Beside the CLI's own calls it makes three standalone calls
on the same inputs, so their layers get a time of their own:
`extract_peaks` on each decoded heatmap, the matcher on the tracker's live
tracks before each `step`, and `compute_idf1` after `compute_clear`.

With tracing off the same calls run without spans or counters; the
difference in wall time between the two is the tracing overhead.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from checks import require
from peaktrack import (
    ConfigFile,
    MotRow,
    TrackerState,
    compute_clear,
    compute_idf1,
    corrupt,
    decode_detections,
    extract_peaks,
    gen_scene,
    greedy_match,
    hungarian_match,
    list_head_frames,
    pick_reference_frame,
    read_head_outputs,
    read_mot_file,
    rows_to_frames,
    step,
    synthesize_head_outputs,
    write_head_outputs,
    write_mot_file,
)

# Layer spans whose busy time is reported as the metric `<span>_s`.
LAYER_SPANS = (
    "simulator.gen_scene",
    "simulator.synthesize",
    "fileio.grid_write",
    "fileio.grid_read",
    "fileio.mot_write",
    "fileio.mot_read",
    "heatmap.decode",
    "heatmap.extract_peaks",
    "association.step",
    "association.match",
    "evaluation.compute_clear",
    "evaluation.compute_idf1",
)


class Tracer:
    """In-memory spans and counters; with `enabled` false it records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = {"id": index, "name": name, "parent": parent}
        self.spans.append(record)
        self._open.append(index)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, n: int) -> None:
        if self.enabled:
            self.counts[name] += int(n)

    def busy(self, name: str) -> float:
        """Busy time of one layer: the sum of its span durations."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def write(self, path: Path, **fields) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({**fields, **s}) + "\n")


def _nonzero(head) -> tuple[int, int]:
    grids = (head.heatmap, head.size_map, head.offset_map, head.disp_map)
    stored = [np.asarray(g, dtype=np.float32) for g in grids]
    return sum(int(np.count_nonzero(g)) for g in stored), sum(g.size for g in stored)


def run_pipeline(config: Path, out_dir: Path, matcher: str, tracer: Tracer) -> dict:
    """simulate -> track -> evaluate in this process; returns the evaluate report."""
    span, count = tracer.span, tracer.count
    cfg_file = ConfigFile(config)
    scene = cfg_file.scene()
    corruption = cfg_file.corruption()
    cfg = cfg_file.pipeline()
    heads_dir = out_dir / "heads"
    gt_path = out_dir / "gt.txt"
    result_path = out_dir / "result.txt"

    with span("simulate"):
        with span("simulator.gen_scene"):
            frames = gen_scene(scene)
        heads_dir.mkdir(parents=True, exist_ok=True)
        gt_rows = [
            MotRow(ann.frame_index, obj.track_id, obj.bbox.x1, obj.bbox.y1, obj.bbox.w, obj.bbox.h)
            for ann in frames
            for obj in ann.objects
        ]
        with span("fileio.mot_write"):
            write_mot_file(gt_path, gt_rows)
        count("simulator.objects", len(gt_rows))
        rng = np.random.default_rng(corruption.seed if corruption else 0)
        jitter_k = corruption.temporal_jitter_k if corruption else 0
        for ann in frames:
            with span("frame"):
                ref = pick_reference_frame(ann.frame_index, scene.frames, jitter_k, rng)
                ann_prev = frames[ref - 1] if ref is not None else None
                with span("simulator.synthesize"):
                    if corruption is not None:
                        head = corrupt(
                            ann, ann_prev, scene.image_size, scene.downsample,
                            corruption, cfg.num_classes, rng=rng,
                        )
                    else:
                        head = synthesize_head_outputs(
                            ann, ann_prev, scene.image_size, scene.downsample, cfg.num_classes
                        )
                with span("fileio.grid_write"):
                    write_head_outputs(heads_dir, ann.frame_index, head)
                if tracer.enabled:
                    nonzero, values = _nonzero(head)
                    count("fileio.grid_nonzero", nonzero)
                    count("fileio.grid_values", values)
        if tracer.enabled:
            count("fileio.grid_bytes", sum(p.stat().st_size for p in heads_dir.iterdir()))

    match_fn = greedy_match if matcher == "greedy" else hungarian_match
    with span("track"):
        state = TrackerState()
        rows: list[MotRow] = []
        for frame_index in list_head_frames(heads_dir):
            with span("frame"):
                with span("fileio.grid_read"):
                    head = read_head_outputs(heads_dir, frame_index, cfg.downsample)
                with span("heatmap.decode"):
                    dets = decode_detections(head, cfg)
                with span("heatmap.extract_peaks"):
                    peaks = extract_peaks(head.heatmap, cfg.max_peaks, cfg.score_threshold)
                with span("association.match"):
                    matches, dead, born = match_fn(state.active, dets, cfg.gate_scale)
                if tracer.enabled:
                    require(
                        len(peaks) < cfg.max_peaks,
                        f"frame {frame_index}: {len(peaks)} peaks reach max_peaks, decode truncated",
                    )
                    count("heatmap.peaks", len(peaks))
                    count("heatmap.detections", len(dets))
                    count("association.pairs", len(state.active) * len(dets))
                    count("association.matches", len(matches))
                    count("association.births", len(born))
                    count("association.deaths", len(dead))
                with span("association.step"):
                    outputs = step(state, dets, cfg, matcher=matcher)
                for out in outputs:
                    box = out.bbox
                    rows.append(
                        MotRow(frame_index, out.track_id, box.x1, box.y1, box.w, box.h, out.score)
                    )
        with span("fileio.mot_write"):
            write_mot_file(result_path, rows)

    with span("evaluate"):
        with span("fileio.mot_read"):
            gt_read = read_mot_file(gt_path)
            gt = rows_to_frames(gt_read)
            pred_read = read_mot_file(result_path)
            pred = rows_to_frames(pred_read)
        with span("evaluation.compute_clear"):
            report = compute_clear(gt, pred)
        with span("evaluation.compute_idf1"):
            idf1 = compute_idf1(gt, pred)
        require(idf1 == report.idf1, f"standalone IDF1 {idf1} != compute_clear's {report.idf1}")
        if tracer.enabled:
            count("fileio.mot_rows", len(gt_read) + len(pred_read))
            count(
                "evaluation.iou_pairs",
                sum(len(boxes) * len(pred.get(frame, ())) for frame, boxes in gt.items()),
            )
            gt_ids = {gid for boxes in gt.values() for gid, _ in boxes}
            pred_ids = {pid for boxes in pred.values() for pid, _ in boxes}
            count("evaluation.id_pairs", len(gt_ids) * len(pred_ids))

    return {
        "mota": report.mota,
        "motp": report.motp,
        "idf1": report.idf1,
        "fp": report.fp,
        "fn": report.fn,
        "idsw": report.idsw,
        "identities": state.next_id - 1,
    }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Busy times and counts of one traced run, by per-layer metric name."""
    c = tracer.counts
    metrics = {f"{name}_s": tracer.busy(name) for name in LAYER_SPANS}
    metrics.update(
        {
            "simulator.objects": c["simulator.objects"],
            "fileio.grid_bytes": c["fileio.grid_bytes"],
            "fileio.grid_nonzero_ratio": c["fileio.grid_nonzero"] / c["fileio.grid_values"],
            "fileio.mot_rows": c["fileio.mot_rows"],
            "heatmap.peaks": c["heatmap.peaks"],
            "heatmap.detections": c["heatmap.detections"],
            "heatmap.kept_ratio": c["heatmap.detections"] / max(c["heatmap.peaks"], 1),
            "association.pairs": c["association.pairs"],
            "association.matches": c["association.matches"],
            "association.births": c["association.births"],
            "association.deaths": c["association.deaths"],
            "evaluation.iou_pairs": c["evaluation.iou_pairs"],
            "evaluation.id_pairs": c["evaluation.id_pairs"],
        }
    )
    return metrics
