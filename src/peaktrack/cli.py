"""Command-line surface: simulate, track, evaluate, render, check, overlay.

Exit codes: 0 success, 1 validation problem (bad flags, bad config, bad
inputs), 2 file/format problem, 3 a numeric check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

# Only modules without numpy or a config or box class at module level, so
# `evaluate` loads none of them and `track` on sparse heads no numpy; every
# command imports the rest in its body.
from .motfile import FileFormatError, MotRow, read_mot_columns, read_mot_frames, write_mot_file
from .rules import DEFAULT_DOWNSAMPLE, DEFAULT_NUM_CLASSES, IOU_THRESHOLD

if TYPE_CHECKING:
    import numpy as np

    from .evaluation import MetricsReport
    from .geometry import BBox, PipelineConfig
    from .losses import FrameTargets

# the names of `association.MATCHERS`: `import peaktrack.cli` must not load
# `association`, and with it `geometry`, for `evaluate`
MATCHER_NAMES = ("greedy", "hungarian")

GT_FILE_NAME = "gt.txt"
HEADS_DIR_NAME = "heads"


class _Parser(argparse.ArgumentParser):
    """argparse, but argument errors exit with the validation code (1)."""

    def error(self, message: str):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="peaktrack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("simulate", help="generate a synthetic scene and head grids")
    p.add_argument("--config", required=True, help="config file with a [scene] section")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("track", help="decode head grids and associate into tracks")
    p.add_argument("--heads", required=True, help="directory of per-frame head grids")
    p.add_argument("--config", help="config file with a [pipeline] section")
    p.add_argument("--matcher", choices=MATCHER_NAMES, default="greedy")
    p.add_argument("--out", required=True, help="output MOT result file")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("evaluate", help="score a result file against ground truth")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--iou-threshold", type=float, default=IOU_THRESHOLD)
    p.add_argument("--csv", action="store_true", help="machine readable output")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("render-heatmap", help="render the GT heatmap of one frame")
    p.add_argument("--gt", required=True)
    p.add_argument("--frame", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--width", type=int, required=True, help="image width in pixels")
    p.add_argument("--height", type=int, required=True, help="image height in pixels")
    p.add_argument("--downsample", type=int, default=DEFAULT_DOWNSAMPLE)
    p.add_argument("--classes", type=int, default=DEFAULT_NUM_CLASSES)
    p.set_defaults(func=cmd_render_heatmap)

    p = sub.add_parser("losscheck", help="loss breakdown plus gradient verification")
    p.add_argument("--pred", required=True, help="directory of predicted head grids")
    p.add_argument("--gt", required=True, help="directory of ground-truth head grids")
    p.add_argument("--config", help="config file with a [pipeline] section")
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=cmd_losscheck)

    p = sub.add_parser("overlay", help="draw GT and predicted boxes into a PPM image")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--frame", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--width", type=int, default=0, help="canvas width (0 = auto)")
    p.add_argument("--height", type=int, default=0, help="canvas height (0 = auto)")
    p.set_defaults(func=cmd_overlay)
    return parser


def cmd_simulate(args: argparse.Namespace) -> int:
    import numpy as np

    from .config import ConfigError, ConfigFile
    from .fileio import list_head_frames, remove_head_outputs, write_head_outputs
    from .simulator import check_grid, corrupt, gen_scene, pick_reference_frame

    cfg_file = ConfigFile(args.config)
    scene = cfg_file.scene()
    corruption = cfg_file.corruption()
    pipeline = cfg_file.pipeline()
    if scene.downsample != pipeline.downsample:
        # grid files do not record R, so `track` would decode at the wrong scale
        raise ConfigError(
            f"{args.config}: [scene] downsample {scene.downsample} differs from "
            f"[pipeline] downsample {pipeline.downsample}"
        )
    out_dir = Path(args.out)
    heads_dir = out_dir / HEADS_DIR_NAME
    gt_path = out_dir / GT_FILE_NAME
    # `track` would track the frames that a longer scene left in heads/ as this one's
    existing = list_head_frames(heads_dir) if heads_dir.is_dir() else []
    stale = [f for f in existing if not 1 <= f <= scene.frames]
    if stale:
        raise ValueError(
            f"{heads_dir}: head frames {stale} lie outside this scene's frames "
            f"1..{scene.frames}; remove them or simulate into another --out"
        )

    frames = gen_scene(scene)
    # `corrupt`'s own checks, run before anything is written
    objects = [obj for ann in frames for obj in ann.objects]
    rows, cols = check_grid(scene.image_size, scene.downsample, pipeline.num_classes, objects)
    # each false positive is drawn in Python, and numpy's Poisson refuses huge rates
    cells = rows * cols * pipeline.num_classes
    if corruption.fp_rate > cells:
        raise ConfigError(
            f"{args.config}: [corruption] fp_rate must be at most {cells}, "
            "the cells of one frame's heatmap"
        )
    gt_rows = [
        MotRow(ann.frame_index, obj.track_id, obj.bbox.x1, obj.bbox.y1, obj.bbox.w, obj.bbox.h)
        for ann in frames
        for obj in ann.objects
    ]

    # what this run creates, for a failure below to remove: the directories
    # (innermost first), gt.txt and the frames heads/ did not hold
    made_dirs = [d for d in (heads_dir, *heads_dir.parents) if not d.exists()]
    made_gt = not gt_path.exists()
    try:
        heads_dir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(corruption.seed)
        for ann in frames:
            ref = pick_reference_frame(
                ann.frame_index, scene.frames, corruption.temporal_jitter_k, rng
            )
            ann_prev = frames[ref - 1] if ref is not None else None
            head = corrupt(
                ann,
                ann_prev,
                scene.image_size,
                scene.downsample,
                corruption,
                pipeline.num_classes,
                rng=rng,
            )
            write_head_outputs(heads_dir, ann.frame_index, head)
        # last, so a failure above leaves no ground truth for heads that are not there
        write_mot_file(gt_path, gt_rows)
    except BaseException:
        # the files of frames heads/ held before were overwritten and stay; a
        # removal that fails leaves the error above to be reported
        with contextlib.suppress(OSError):
            for frame_index in sorted(set(range(1, scene.frames + 1)) - set(existing)):
                remove_head_outputs(heads_dir, frame_index)
            if made_gt:
                gt_path.unlink(missing_ok=True)
        for directory in made_dirs:
            with contextlib.suppress(OSError):  # not empty: something else wrote there
                directory.rmdir()
        raise

    print(f"wrote {len(gt_rows)} GT rows to {gt_path}")
    print(f"wrote head grids for {len(frames)} frames to {heads_dir}")
    return 0


def cmd_track(args: argparse.Namespace) -> int:
    from .association import TrackerState, advance
    from .config import ConfigFile
    from .fileio import head_grid_path, list_head_frames, read_head_outputs
    from .geometry import PipelineConfig
    from .heatmap import decode_columns

    cfg = ConfigFile(args.config).pipeline() if args.config else PipelineConfig()
    frame_indices = list_head_frames(args.heads)
    if not frame_indices:
        raise ValueError(f"no head grids found in {args.heads}")
    if frame_indices[0] < 1:  # the rows written below are MOT rows
        raise FileFormatError(
            f"{head_grid_path(args.heads, frame_indices[0], 'heatmap')}: head frame "
            "indices start at 1, as MOT frames do"
        )
    # `advance` takes each call as the next frame, so a gap would be associated
    # with a one-frame displacement
    gaps = [(a + 1, b) for a, b in zip(frame_indices, frame_indices[1:]) if b > a + 1]
    if gaps:
        count = sum(b - a for a, b in gaps)
        # ten frames at most from each gap, so a gap of any length costs the same
        missing = [f for a, b in gaps for f in range(a, min(b, a + 10))][:10]
        frames = f"frames {missing}" if count <= 10 else f"{count} frames, first {missing}"
        raise ValueError(f"{args.heads}: head grids missing for {frames}")

    state = TrackerState()
    rows: list[tuple] = []  # MotRow's nine fields, as plain tuples
    first_shape = None
    for frame_index in frame_indices:
        head = read_head_outputs(args.heads, frame_index, cfg.downsample)
        # a cell index means the same pixels only at one grid shape
        first_shape = first_shape or head.grid_shape
        if head.grid_shape != first_shape:
            raise FileFormatError(
                f"{head_grid_path(args.heads, frame_index, 'heatmap')}: grid shape "
                f"{head.grid_shape} differs from frame {frame_indices[0]}'s {first_shape}"
            )
        dets = decode_columns(head, cfg)
        rows += [(frame_index, *row, -1, -1.0) for row in advance(state, dets, cfg, args.matcher)]
    write_mot_file(args.out, rows)
    print(
        f"tracked {len(frame_indices)} frames with {args.matcher} matching, "
        f"{state.next_id - 1} identities, {len(rows)} rows -> {args.out}"
    )
    return 0


def _report_lines(report: MetricsReport, csv: bool) -> list[str]:
    """The report's fields in order; floats at 6 decimals in csv, else 3."""
    decimals = 6 if csv else 3
    fields = report._asdict()
    texts = [
        f"{v:.{decimals}f}" if isinstance(v, float) else str(v) for v in fields.values()
    ]
    if csv:
        return [",".join(fields), ",".join(texts)]
    width = 9
    header = " ".join(name.upper().ljust(width) for name in fields)
    values = " ".join(text.ljust(width) for text in texts)
    return [header.rstrip(), values.rstrip()]


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .evaluation import compute_clear

    gt = read_mot_frames(args.gt)
    pred = read_mot_frames(args.pred)
    report = compute_clear(gt, pred, args.iou_threshold)
    for line in _report_lines(report, args.csv):
        print(line)
    return 0


def cmd_render_heatmap(args: argparse.Namespace) -> int:
    from .fileio import write_grid
    from .geometry import BBox
    from .heatmap import FrameAnnotations, ObjectAnnotation
    from .simulator import synthesize_head_outputs

    if args.classes < 1:
        raise ValueError(f"--classes must be >= 1, got {args.classes}")
    gt = read_mot_columns(args.gt)
    # class -1 (a row without a class), like any negative class, renders on channel 0
    objects = [
        ObjectAnnotation(i, max(c, 0), BBox(*box))
        for frame, i, c, box in zip(gt.frame, gt.track_id, gt.class_id, gt.box)
        if frame == args.frame
    ]
    if not objects:
        raise ValueError(f"frame {args.frame} not present in {args.gt}")
    ann = FrameAnnotations(args.frame, objects)
    size = (args.height, args.width)
    heatmap = synthesize_head_outputs(ann, None, size, args.downsample, args.classes).heatmap
    write_grid(args.out, heatmap)
    print(f"wrote {heatmap.shape[0]}x{heatmap.shape[1]}x{heatmap.shape[2]} heatmap to {args.out}")
    return 0


def _gradient_checks(
    targets: FrameTargets, cfg: PipelineConfig, tolerance: float
) -> tuple[list[str], bool]:
    """Verify analytic gradients at seeded random kink-free points."""
    import numpy as np

    from .losses import finite_difference_check, focal_loss, masked_l1_loss

    step_size = 1e-4
    rng = np.random.default_rng(12345)
    n = max(targets.n_objects, 1)
    errors: dict[str, float] = {}

    pred_hm = rng.uniform(0.05, 0.95, size=targets.heatmap.shape)
    errors["focal"] = finite_difference_check(
        lambda x: focal_loss(x, targets.heatmap, cfg.focal_alpha, cfg.focal_beta, n),
        pred_hm,
        step=step_size,
        seed=7,
    )

    for name, points in (
        ("size", [(p.cell, p.size) for p in targets.points]),
        ("offset", [(p.cell, p.offset) for p in targets.points]),
        ("disp", [(p.cell, p.displacement) for p in targets.points]),
    ):
        shape = targets.heatmap.shape[:2] + (2,)
        pred = rng.uniform(-5.0, 5.0, size=shape)
        # keep sampled coordinates away from the L1 kinks
        mask = np.ones(shape, dtype=bool)
        for cell, target in points:
            for ch in range(2):
                if abs(pred[cell.row, cell.col, ch] - target[ch]) <= 2 * step_size:
                    mask[cell.row, cell.col, ch] = False
        errors[name] = finite_difference_check(
            lambda x, pts=points: masked_l1_loss(x, pts, n),
            pred,
            step=step_size,
            seed=11,
            smooth_mask=mask,
        )
    lines = [
        f"gradcheck {name}: max_rel_err={err:.3e} tol={tolerance:.1e} "
        f"{'ok' if err <= tolerance else 'FAIL'}"
        for name, err in errors.items()
    ]
    return lines, all(err <= tolerance for err in errors.values())


def cmd_losscheck(args: argparse.Namespace) -> int:
    from .config import ConfigFile
    from .fileio import list_head_frames, read_head_outputs
    from .geometry import PipelineConfig
    from .heatmap import require_head_config
    from .losses import targets_from_head, total_loss

    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise ValueError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    cfg = ConfigFile(args.config).pipeline() if args.config else PipelineConfig()
    frame_indices = list_head_frames(args.gt)
    if not frame_indices:
        raise ValueError(f"no head grids found in {args.gt}")
    stray = sorted(set(list_head_frames(args.pred)) - set(frame_indices))
    if stray:
        raise ValueError(
            f"{args.pred}: prediction frames {stray} have no ground truth in {args.gt}"
        )

    first_targets: FrameTargets | None = None
    for frame_index in frame_indices:
        gt_head = read_head_outputs(args.gt, frame_index, cfg.downsample)
        pred_head = read_head_outputs(args.pred, frame_index, cfg.downsample)
        require_head_config(gt_head, cfg)
        require_head_config(pred_head, cfg)
        targets = targets_from_head(gt_head)
        if first_targets is None:
            first_targets = targets
        bd = total_loss(pred_head, targets, cfg)
        print(
            f"frame {frame_index}: l_h={bd.l_h:.6f} l_size={bd.l_size:.6f} "
            f"l_off={bd.l_off:.6f} l_d={bd.l_d:.6f} total={bd.total:.6f} "
            f"n={bd.n_objects}"
        )

    assert first_targets is not None
    lines, ok = _gradient_checks(first_targets, cfg, args.tolerance)
    for line in lines:
        print(line)
    return 0 if ok else 3


def _draw_box(img: np.ndarray, box: BBox, color: tuple[int, int, int]) -> None:
    h, w = img.shape[:2]
    x1 = max(int(math.floor(box.x1)), 0)
    y1 = max(int(math.floor(box.y1)), 0)
    x2 = min(int(math.ceil(box.x2)), w - 1)
    y2 = min(int(math.ceil(box.y2)), h - 1)
    if x1 > x2 or y1 > y2:
        return
    thickness = 2
    img[y1 : min(y1 + thickness, y2 + 1), x1 : x2 + 1] = color
    img[max(y2 - thickness + 1, y1) : y2 + 1, x1 : x2 + 1] = color
    img[y1 : y2 + 1, x1 : min(x1 + thickness, x2 + 1)] = color
    img[y1 : y2 + 1, max(x2 - thickness + 1, x1) : x2 + 1] = color


def cmd_overlay(args: argparse.Namespace) -> int:
    import numpy as np

    from .geometry import BBox

    if args.width < 0 or args.height < 0:
        raise ValueError(
            f"--width and --height must be >= 0 (0 = auto), got {args.width} and {args.height}"
        )
    gt = read_mot_columns(args.gt)
    pred = read_mot_columns(args.pred)
    if args.frame not in gt.frame and args.frame not in pred.frame:
        raise ValueError(f"frame {args.frame} not present in {args.gt} or {args.pred}")
    width, height = args.width, args.height
    if width == 0 or height == 0:
        # rows of every frame count; boxes left of or above the canvas keep the margin
        boxes = gt.box + pred.box
        right = max(x + w for x, _, w, _ in boxes)
        bottom = max(y + h for _, y, _, h in boxes)
        width = width or max(math.ceil(right), 0) + 10
        height = height or max(math.ceil(bottom), 0) + 10

    img = np.zeros((height, width, 3), dtype=np.uint8)
    for cols, color in ((gt, (0, 200, 0)), (pred, (230, 60, 60))):
        for frame, box in zip(cols.frame, cols.box):
            if frame == args.frame:
                _draw_box(img, BBox(*box), color)
    with open(args.out, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (width, height))
        fh.write(img.tobytes())
    print(f"wrote {width}x{height} overlay for frame {args.frame} to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, MemoryError) as exc:  # ConfigError included
        # MemoryError: a canvas or grid larger than numpy can allocate
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
