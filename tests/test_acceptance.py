"""Acceptance suite: every release criterion with its tolerance pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion; any assertion failure marks the criterion red.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from peaktrack import (
    CorruptionConfig,
    FrameTargets,
    GridPoint,
    HeadOutput,
    PipelineConfig,
    SceneConfig,
    SupervisedPoint,
    TrackerState,
    compute_clear,
    compute_idf1,
    corrupt,
    decode_detections,
    finite_difference_check,
    focal_loss,
    gen_scene,
    greedy_match,
    hungarian_match,
    masked_l1_loss,
    step,
    synthesize_head_outputs,
    targets_from_head,
    total_loss,
)
from peaktrack.geometry import top_of

from .conftest import match_cost, random_instance, separated_annotations
from .oracles import assignment_oracle, euclid, greedy_oracle, idf1_oracle

E2E_SCENE_CFG = """
[scene]
width = 512
height = 512
frames = 100
min_objects = 20
max_objects = 20
min_size = 16
max_size = 48
min_speed = 0.5
max_speed = 2.5
seed = 14
"""

ABLATION_CFG = E2E_SCENE_CFG.replace("frames = 100", "frames = 40") + """
[corruption]
fn_rate = 0.1
fp_rate = 0.5
jitter_sigma = 2.0
seed = 11
"""


def _pass(label: str) -> None:
    print(f"\nACCEPTANCE {label}: PASS")


def run_pipeline(frames, image_size, corruption=None, rng=None, matcher="greedy"):
    """simulate -> decode -> associate -> score, all in memory."""
    cfg = PipelineConfig()
    state = TrackerState()
    gt, pred = {}, {}
    prev = None
    for ann in frames:
        if corruption is not None:
            head = corrupt(ann, prev, image_size, 4, corruption, rng=rng)
        else:
            head = synthesize_head_outputs(ann, prev, image_size, 4)
        dets = decode_detections(head, cfg)
        outs = step(state, dets, cfg, matcher=matcher)
        pred[ann.frame_index] = [(o.track_id, o.bbox) for o in outs]
        gt[ann.frame_index] = [(o.track_id, o.bbox) for o in ann.objects]
        prev = ann
    return compute_clear(gt, pred)


def test_render_decode_round_trip():
    """200 random frames, <= 50 objects, top cells >= 3 cells apart:
    every top point within 1e-6 px, every box exact, under 30 s."""
    rng = np.random.default_rng(2024)
    cfg = PipelineConfig()
    started = time.monotonic()
    total_objects = 0
    for frame in range(200):
        n = int(rng.integers(1, 51))
        ann = separated_annotations(rng, 1, n, image_size=(640, 640), min_cell_gap=3)
        head = synthesize_head_outputs(ann, None, (640, 640), 4)
        dets = decode_detections(head, cfg)
        assert len(dets) == n
        expected = {}
        for obj in ann.objects:
            b = obj.bbox
            expected[top_of(b.x1, b.y1, b.w, b.h)] = b.corners()
        for d in dets:
            key = min(
                expected, key=lambda t: (t[0] - d.top.x) ** 2 + (t[1] - d.top.y) ** 2
            )
            assert euclid(key, (d.top.x, d.top.y)) < 1e-6
            assert d.bbox().corners() == expected[key]
            del expected[key]
        total_objects += n
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"round trip took {elapsed:.1f}s"
    _pass(
        f"render/decode round trip (200 frames, {total_objects} objects, "
        f"{elapsed:.1f}s)"
    )


def test_loss_gradients_and_hand_values():
    """Analytic gradients match central differences (step 1e-4) within 1e-4
    over >= 100 coordinates per loss; both hand-computed values match."""
    rng = np.random.default_rng(99)
    gt = np.zeros((10, 12, 1))
    for r, c in ((2, 3), (7, 9), (5, 5)):
        gt[r, c, 0] = 1.0
    gt[4, 4, 0] = 0.35  # soft negative
    pred = rng.uniform(0.05, 0.95, size=gt.shape)
    focal_err = finite_difference_check(
        lambda x: focal_loss(x, gt, 2, 4, 3), pred, step=1e-4, seed=1, n_coords=120
    )
    assert focal_err < 1e-4

    points = [(GridPoint(3, 2), (1.0, -2.0)), (GridPoint(9, 7), (0.25, 0.5))]
    pred_map = rng.uniform(-4.0, 4.0, size=(10, 12, 2))
    mask = np.ones(pred_map.shape, dtype=bool)
    for cell, target in points:
        for ch in range(2):
            if abs(pred_map[cell.row, cell.col, ch] - target[ch]) <= 2e-4:
                mask[cell.row, cell.col, ch] = False
    l1_err = finite_difference_check(
        lambda x: masked_l1_loss(x, points, 2),
        pred_map,
        step=1e-4,
        seed=2,
        n_coords=120,
        smooth_mask=mask,
    )
    assert l1_err < 1e-4

    gt1 = np.zeros((4, 4, 1))
    gt1[1, 1, 0] = 1.0
    pred1 = np.zeros((4, 4, 1))
    pred1[1, 1, 0] = 0.5
    positive_value, _ = focal_loss(pred1, gt1, 2, 4, 1)
    assert abs(positive_value - 0.1733) < 1e-4

    pred2 = np.zeros((4, 4, 1))
    pred2[2, 2, 0] = 0.1
    negative_value, _ = focal_loss(pred2, np.zeros((4, 4, 1)), 2, 4, 1)
    assert abs(negative_value - 0.0010536) < 1e-4
    _pass(
        f"loss gradients and hand values (focal err {focal_err:.2e}, "
        f"l1 err {l1_err:.2e})"
    )


def test_objective_breakdown_identity():
    """total == l_h + 0.1*l_size + l_off + l_d to 1e-9 on random inputs;
    ideal outputs have exactly zero regression losses."""
    rng = np.random.default_rng(5)
    cfg = PipelineConfig()
    for _ in range(50):
        rows, cols = int(rng.integers(6, 16)), int(rng.integers(6, 16))
        pred = HeadOutput(
            rng.uniform(0, 1, (rows, cols, 1)),
            rng.normal(size=(rows, cols, 2)),
            rng.normal(size=(rows, cols, 2)),
            rng.normal(size=(rows, cols, 2)),
            4,
        )
        targets = FrameTargets(
            heatmap=rng.choice([0.0, 0.3, 1.0], size=(rows, cols, 1)),
            points=tuple(
                SupervisedPoint(
                    GridPoint(int(rng.integers(cols)), int(rng.integers(rows))),
                    (float(rng.uniform(1, 9)), float(rng.uniform(1, 9))),
                    (float(rng.uniform()), float(rng.uniform())),
                    (float(rng.normal()), float(rng.normal())),
                )
                for _ in range(int(rng.integers(1, 7)))
            ),
        )
        bd = total_loss(pred, targets, cfg)
        assert bd.total == pytest.approx(
            bd.l_h + cfg.size_loss_weight * bd.l_size + bd.l_off + bd.l_d, abs=1e-9
        )

    ann = separated_annotations(rng, 1, 15, image_size=(320, 320))
    prev = separated_annotations(rng, 1, 15, image_size=(320, 320))
    head = synthesize_head_outputs(ann, prev, (320, 320), 4)
    bd = total_loss(head, targets_from_head(head), cfg)
    assert bd.l_size == 0.0 and bd.l_off == 0.0 and bd.l_d == 0.0
    assert bd.l_h > 0.0
    _pass("objective breakdown identity (50 random + ideal-zero)")


def test_end_to_end_perfect_scene_via_cli(tmp_path):
    """100 frames, 20 agents, uncorrupted, through the real CLI:
    MOTA = 1.0, IDF1 = 1.0, IDSW = 0 in under 10 s."""
    cfg_path = tmp_path / "scene.cfg"
    cfg_path.write_text(E2E_SCENE_CFG)
    sim_dir = tmp_path / "sim"
    results = tmp_path / "results.txt"

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "peaktrack", *argv], capture_output=True, text=True
        )

    started = time.monotonic()
    sim = cli("simulate", "--config", str(cfg_path), "--out", str(sim_dir))
    assert sim.returncode == 0, sim.stderr
    trk = cli("track", "--heads", str(sim_dir / "heads"), "--out", str(results))
    assert trk.returncode == 0, trk.stderr
    ev = cli(
        "evaluate", "--gt", str(sim_dir / "gt.txt"), "--pred", str(results), "--csv"
    )
    assert ev.returncode == 0, ev.stderr
    elapsed = time.monotonic() - started

    header, values = ev.stdout.strip().splitlines()
    metrics = dict(zip(header.split(","), values.split(",")))
    assert float(metrics["mota"]) == 1.0
    assert float(metrics["idf1"]) == 1.0
    assert int(metrics["idsw"]) == 0
    assert elapsed < 10.0, f"CLI path took {elapsed:.1f}s"
    _pass(f"end-to-end perfect scene via CLI ({elapsed:.1f}s)")


def test_assignment_matchers_against_oracles():
    """500 random instances with n, m <= 7: optimal matcher equals the
    exhaustive optimum within 1e-9, greedy equals the quadratic-scan oracle,
    and the optimal cost never exceeds greedy's where both match the same
    number of pairs (all ungated instances qualify)."""
    rng = np.random.default_rng(123)
    comparable = 0
    for trial in range(500):
        n, m = int(rng.integers(0, 8)), int(rng.integers(0, 8))
        tracks, dets = random_instance(rng, n, m)
        ungated = trial % 2 == 0
        gate_scale = 1e9 if ungated else float(rng.choice([0.8, 1.5]))

        h_matches, _, _ = hungarian_match(tracks, dets, gate_scale)
        g = greedy_match(tracks, dets, gate_scale)
        assert g == greedy_oracle(tracks, dets, gate_scale)

        dist = [
            [
                euclid(
                    (t.last_top.x, t.last_top.y),
                    (d.top.x - d.displacement[0], d.top.y - d.displacement[1]),
                )
                for d in dets
            ]
            for t in tracks
        ]
        feasible = [
            [
                t.class_id == d.class_id and dist[ti][di] <= gate_scale * max(d.size)
                for di, d in enumerate(dets)
            ]
            for ti, t in enumerate(tracks)
        ]
        best_card, best_cost = assignment_oracle(dist, feasible)
        h_cost = match_cost(tracks, dets, h_matches)
        assert len(h_matches) == best_card
        assert h_cost == pytest.approx(best_cost, abs=1e-9)

        g_matches = g[0]
        if len(g_matches) == len(h_matches):
            comparable += 1
            assert h_cost <= match_cost(tracks, dets, g_matches) + 1e-9
        if ungated:
            assert len(g_matches) == len(h_matches) == min(n, m)
    assert comparable >= 250
    _pass(f"assignment oracles (500 instances, {comparable} cost-comparable)")


def test_metric_oracles():
    """MOTA identity exact on every report, the hand-traced 0.6 scenario,
    and IDF1 equal to brute-force trajectory matching on <= 6x6 instances."""
    from peaktrack import BBox

    def box(x=0.0, y=0.0):
        return BBox(x, y, 10.0, 10.0)

    gt = {f: [(1, box())] for f in range(1, 11)}
    pred: dict[int, list] = {f: [] for f in range(1, 11)}
    for f in range(1, 4):
        pred[f].append((1, box()))
    for f in range(4, 9):
        pred[f].append((2, box()))
    pred[1].append((99, box(500, 500)))
    report = compute_clear(gt, pred)
    assert (report.gt_total, report.fp, report.fn, report.idsw) == (10, 1, 2, 1)
    assert report.mota == pytest.approx(0.6, abs=1e-12)

    rng = np.random.default_rng(31)
    for _ in range(50):
        frames = int(rng.integers(1, 7))
        g, p = {}, {}
        for f in range(1, frames + 1):
            g[f] = [
                (gid, box(float(20 * rng.integers(0, 6)), 0.0))
                for gid in range(1, int(rng.integers(1, 7)) + 1)
            ]
            p[f] = [
                (pid, box(float(20 * rng.integers(0, 6)), 0.0))
                for pid in range(1, int(rng.integers(0, 7)) + 1)
            ]
        rep = compute_clear(g, p)
        assert rep.mota == 1.0 - (rep.fp + rep.fn + rep.idsw) / rep.gt_total
        assert compute_idf1(g, p) == pytest.approx(idf1_oracle(g, p), abs=1e-12)
    _pass("metric oracles (hand trace + 50 random instances)")


def test_corruption_degrades_metrics_monotonically():
    """Over 20 corruption seeds, mean MOTA strictly falls and FN strictly
    rises as fn_rate sweeps 0 -> 0.3; injected FPs raise reported FP."""
    scene = SceneConfig(
        height=256,
        width=256,
        frames=40,
        min_objects=10,
        max_objects=10,
        min_size=14,
        max_size=40,
        min_speed=0.5,
        max_speed=2.0,
        seed=14,
    )
    frames = gen_scene(scene)
    seeds = range(20)

    mean_mota, mean_fn = [], []
    for rate in (0.0, 0.1, 0.2, 0.3):
        motas, fns = [], []
        for seed in seeds:
            rng = np.random.default_rng(1000 + seed)
            rep = run_pipeline(
                frames,
                scene.image_size,
                corruption=CorruptionConfig(fn_rate=rate, seed=seed),
                rng=rng,
            )
            motas.append(rep.mota)
            fns.append(rep.fn)
        mean_mota.append(float(np.mean(motas)))
        mean_fn.append(float(np.mean(fns)))
    for lo, hi in zip(mean_mota[1:], mean_mota[:-1]):
        assert lo < hi, f"mean MOTA did not fall: {mean_mota}"
    for hi, lo in zip(mean_fn[1:], mean_fn[:-1]):
        assert hi > lo, f"mean FN did not rise: {mean_fn}"

    fp_counts = {0.0: [], 1.0: []}
    for rate in fp_counts:
        for seed in seeds:
            rng = np.random.default_rng(2000 + seed)
            rep = run_pipeline(
                frames,
                scene.image_size,
                corruption=CorruptionConfig(fp_rate=rate, seed=seed),
                rng=rng,
            )
            fp_counts[rate].append(rep.fp)
    assert np.mean(fp_counts[1.0]) > np.mean(fp_counts[0.0])
    _pass(
        f"corruption monotonicity (MOTA {['%.3f' % m for m in mean_mota]}, "
        f"FN {['%.1f' % f for f in mean_fn]})"
    )


def test_ablation_harness_greedy_vs_hungarian(tmp_path, capsys):
    """Greedy and optimal matching run on the same corrupted scene and emit
    a two-row table; repeated runs are byte-identical."""
    from peaktrack.cli import main

    cfg_path = tmp_path / "ablation.cfg"
    cfg_path.write_text(ABLATION_CFG)
    sim_dir = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(sim_dir)]) == 0

    rows = {}
    for matcher in ("greedy", "hungarian"):
        out = tmp_path / f"{matcher}.txt"
        rerun = tmp_path / f"{matcher}_again.txt"
        for target in (out, rerun):
            assert (
                main(
                    [
                        "track",
                        "--heads",
                        str(sim_dir / "heads"),
                        "--matcher",
                        matcher,
                        "--out",
                        str(target),
                    ]
                )
                == 0
            )
        assert out.read_bytes() == rerun.read_bytes(), "tracking is not deterministic"
        assert (
            main(
                [
                    "evaluate",
                    "--gt",
                    str(sim_dir / "gt.txt"),
                    "--pred",
                    str(out),
                    "--csv",
                ]
            )
            == 0
        )
        header, values = capsys.readouterr().out.strip().splitlines()[-2:]
        rows[matcher] = values

    capsys.readouterr()
    table = ["matcher," + header] + [f"{m},{v}" for m, v in rows.items()]
    print()
    for line in table:
        print(line)
    assert len(table) == 3
    _pass("ablation harness (greedy vs hungarian, deterministic)")
