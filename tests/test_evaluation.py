import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peaktrack import (
    BBox,
    compute_clear,
    compute_idf1,
    read_mot_file,
    read_mot_frames,
    rows_to_frames,
)
from peaktrack.cli import main
from peaktrack import evaluation
from peaktrack.evaluation import _match, overlapping_pairs
from peaktrack.rules import IOU_THRESHOLD

from .oracles import clear_match_oracle, idf1_oracle, iou_oracle


def box(x=0.0, y=0.0, w=10.0, h=10.0):
    return BBox(x, y, w, h)


def constant_track(gid, frames, x=0.0, y=0.0):
    return {f: [(gid, box(x, y))] for f in frames}


def merge(*seqs):
    out: dict[int, list] = {}
    for seq in seqs:
        for f, boxes in seq.items():
            out.setdefault(f, []).extend(boxes)
    return out


# Coordinates on a small integer grid make touching, nested and disjoint
# boxes common; the float ranges cover the general case.
coords = st.one_of(st.integers(-20, 20).map(float), st.floats(-1e4, 1e4))
extents = st.one_of(st.integers(1, 20).map(float), st.floats(1e-3, 1e4))
boxes = st.builds(BBox, coords, coords, extents, extents)
# A small integer grid, on which IoUs near 0.5 are common.
grid = st.integers(0, 6).map(float)
side = st.integers(4, 10).map(float)
small_boxes = st.builds(BBox, grid, grid, side, side)


@st.composite
def sequences(draw):
    """Small random gt and pred sequences; ids unique per frame."""
    frames = draw(st.integers(1, 5))
    slot = st.integers(0, 4).map(lambda k: BBox(20.0 * k, 0.0, 10.0, 10.0))

    def seq(max_ids):
        ids = st.lists(st.integers(1, max_ids), unique=True, max_size=max_ids)
        return {
            f: [(i, draw(st.one_of(slot, boxes))) for i in draw(ids)]
            for f in range(1, frames + 1)
        }

    gt = seq(4)
    if not any(gt.values()):
        gt[1] = [(1, draw(boxes))]
    return gt, seq(5)


def corners(bs):
    return [(b.x1, b.y1, b.w, b.h) for b in bs]


def match_one_frame(gt, pred, prev, threshold=IOU_THRESHOLD):
    """`_match` on the `overlapping_pairs` of one frame's (id, BBox) pairs."""
    pairs = overlapping_pairs(corners(b for _, b in gt), corners(b for _, b in pred))
    return _match(pairs, [i for i, _ in gt], [i for i, _ in pred], prev, threshold)


def brute_force_pairs(a, b):
    """Every (i, j) with a non-zero `iou_oracle`, by a double loop."""
    pairs = ((i, j, iou_oracle(p, q)) for i, p in enumerate(a) for j, q in enumerate(b))
    return [pair for pair in pairs if pair[2] != 0.0]


# Left edges and widths on a small integer grid make equal x1 and touching
# edges (one box's x1 + w is another's x1) common; a very wide box stays
# open across the whole sweep.
edge = st.one_of(st.integers(-10, 10).map(float), st.floats(-1e4, 1e4))
width = st.one_of(st.integers(1, 10).map(float), st.floats(1e-3, 1e4), st.floats(1e6, 1e9))
sweep_boxes = st.builds(BBox, edge, edge, width, st.one_of(st.integers(1, 10).map(float), extents))


class TestBBoxIoU:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(boxes, min_size=1, max_size=5), st.lists(boxes, max_size=5))
    def test_matrix_is_exactly_the_scalar(self, gt, pred):
        # the kernel's pairs are the non-zero entries of the (gt x pred) IoU
        # matrix; iou_oracle does the same float operations in the same
        # order, so equality is exact, not approximate
        found = {(i, j): iou for i, j, iou in overlapping_pairs(corners(gt), corners(pred))}
        for i, a in enumerate(gt):
            for j, b in enumerate(pred):
                want = iou_oracle((a.x1, a.y1, a.w, a.h), (b.x1, b.y1, b.w, b.h))
                one = [iou for _, _, iou in overlapping_pairs(corners([a]), corners([b]))]
                assert [found.get((i, j), 0.0)] == (one or [0.0]) == [want]

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(sweep_boxes, max_size=12),
        st.lists(sweep_boxes, max_size=12),
        st.floats(0.0, 1.0, exclude_min=True),
    )
    def test_sweep_pairs_equal_the_double_loop(self, gt, pred, threshold):
        pairs = overlapping_pairs(corners(gt), corners(pred))
        want = brute_force_pairs(corners(gt), corners(pred))
        assert pairs == want
        assert [p for p in pairs if p[2] >= threshold] == [p for p in want if p[2] >= threshold]

    def test_identical(self):
        assert overlapping_pairs(corners([box()]), corners([box()])) == [(0, 0, 1.0)]

    def test_disjoint(self):
        assert overlapping_pairs(corners([box(0, 0)]), corners([box(100, 100)])) == []

    def test_half_overlap(self):
        # 10x10 boxes offset by 5 in x: inter 50, union 150
        ((_, _, iou),) = overlapping_pairs(corners([box(0, 0)]), corners([box(5, 0)]))
        assert iou == pytest.approx(1 / 3)


class TestMatchFrame:
    def test_identical_sets_all_tp(self):
        gt = [(1, box(0, 0)), (2, box(50, 50))]
        tally, corr = match_one_frame(gt, gt, {})
        assert (tally.tp, tally.fp, tally.fn, tally.idsw) == (2, 0, 0, 0)
        assert corr == {1: 1, 2: 2}

    def test_low_iou_is_fp_plus_fn(self):
        gt = [(1, box(0, 0, 10, 10))]
        pred = [(5, box(6, 0, 10, 10))]  # IoU = 4/16 = 0.25
        tally, _ = match_one_frame(gt, pred, {})
        assert (tally.tp, tally.fp, tally.fn, tally.idsw) == (0, 1, 1, 0)

    def test_identity_change_counts_one_switch(self):
        gt = [(1, box())]
        tally, corr = match_one_frame(gt, [(101, box())], {})
        assert tally.idsw == 0
        tally, corr = match_one_frame(gt, [(101, box())], corr)
        assert tally.idsw == 0
        tally, corr = match_one_frame(gt, [(202, box())], corr)
        assert tally.idsw == 1
        assert corr == {1: 202}

    def test_persisting_match_survives_better_newcomer(self):
        # remembered pair is kept even when another prediction overlaps more
        gt = [(1, box(0, 0, 10, 10))]
        pred = [(7, box(1, 0, 10, 10)), (8, box(0, 0, 10, 10))]
        tally, corr = match_one_frame(gt, pred, {1: 7})
        assert corr[1] == 7
        assert tally.idsw == 0
        assert tally.tp == 1 and tally.fp == 1

    def test_sub_threshold_pair_cannot_take_a_match(self):
        # both straight pairings clear 0.5 (0.538, 0.562); the crossed ones
        # have the larger IoU sum (0.471 + 0.681) but 0.471 is below the gate
        gt = [(1, box(5, 3, 10, 10)), (2, box(9, 2, 10, 10))]
        pred = [(1, box(8, 3, 10, 10)), (2, box(7, 1, 10, 10))]
        tally, corr = match_one_frame(gt, pred, {})
        assert tally.tp == 2
        assert corr == {1: 1, 2: 2}

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(small_boxes, max_size=4),
        st.lists(small_boxes, max_size=4),
        st.lists(st.integers(-1, 4), min_size=4, max_size=4),
        st.sampled_from([0.5, 0.3, 0.7]),
    )
    def test_matches_oracle(self, gt_boxes, pred_boxes, memory, threshold):
        # memory[i] is the pred index gt i remembers: -1 for none, and an
        # index past the frame's predictions for a prediction now absent
        gt = [(i + 1, b) for i, b in enumerate(gt_boxes)]
        pred = [(j + 101, b) for j, b in enumerate(pred_boxes)]
        prev = {i + 1: k + 101 for i, k in enumerate(memory[: len(gt)]) if k >= 0}
        tally, corr = match_one_frame(gt, pred, prev, threshold)
        iou = [
            [iou_oracle((a.x1, a.y1, a.w, a.h), (b.x1, b.y1, b.w, b.h)) for b in pred_boxes]
            for a in gt_boxes
        ]
        remembered = {i: k for i, k in enumerate(memory[: len(gt)]) if 0 <= k < len(pred)}
        kept, total = clear_match_oracle(iou, remembered, threshold)
        assert sum(prev.get(g) == p for g, p in tally.matches) == kept
        assert abs(tally.iou_sum - total) <= 1e-9
        assert all(corr[g] == p for g, p in tally.matches)

    @pytest.mark.parametrize("threshold", [0.0, -1.0, 1.5, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        # at a threshold of 0 two disjoint boxes would count as a match
        with pytest.raises(ValueError, match=r"iou_threshold must be in \(0, 1\]"):
            match_one_frame([(1, box(0, 0))], [(2, box(50, 50))], {}, threshold)


class TestComputeClear:
    def test_perfect_tracking(self):
        gt = merge(constant_track(1, range(1, 11), 0, 0), constant_track(2, range(1, 11), 50, 0))
        pred = merge(constant_track(9, range(1, 11), 0, 0), constant_track(8, range(1, 11), 50, 0))
        rep = compute_clear(gt, pred)
        assert rep.mota == 1.0
        assert rep.idf1 == 1.0
        assert rep.motp == pytest.approx(1.0)
        assert (rep.mt, rep.ml, rep.idsw) == (1.0, 0.0, 0)

    def test_hand_traced_mota(self):
        # one GT identity over 10 frames; predictions: id 1 frames 1-3,
        # id 2 frames 4-8 (one switch), nothing in 9-10 (two misses),
        # plus one far-away spurious box in frame 1 (one false positive)
        gt = constant_track(1, range(1, 11))
        pred = merge(
            constant_track(1, range(1, 4)),
            constant_track(2, range(4, 9)),
            {1: [(99, box(500, 500))]},
        )
        rep = compute_clear(gt, pred)
        assert (rep.fp, rep.fn, rep.idsw, rep.gt_total) == (1, 2, 1, 10)
        assert rep.mota == pytest.approx(0.6, abs=1e-12)

    def test_empty_predictions(self):
        gt = constant_track(1, range(1, 6))
        rep = compute_clear(gt, {})
        assert rep.mota == 0.0
        assert rep.fn == rep.gt_total == 5
        assert rep.ml == 1.0 and rep.mt == 0.0
        assert rep.idf1 == 0.0

    def test_mota_identity_random_scenarios(self, rng):
        for _ in range(30):
            frames = int(rng.integers(1, 8))
            gt = {}
            pred = {}
            for f in range(1, frames + 1):
                gt[f] = [
                    (gid, box(float(rng.integers(0, 200)), float(rng.integers(0, 200))))
                    for gid in range(1, int(rng.integers(1, 5)) + 1)
                ]
                pred[f] = [
                    (pid, box(float(rng.integers(0, 200)), float(rng.integers(0, 200))))
                    for pid in range(1, int(rng.integers(0, 5)) + 1)
                ]
            rep = compute_clear(gt, pred)
            assert rep.mota == pytest.approx(
                1.0 - (rep.fp + rep.fn + rep.idsw) / rep.gt_total, abs=1e-12
            )

    def test_renaming_predictions_is_invariant(self, rng):
        gt = merge(constant_track(1, range(1, 8), 0, 0), constant_track(2, range(1, 8), 40, 0))
        pred = merge(constant_track(3, range(1, 8), 0, 0), constant_track(4, range(2, 8), 40, 0))
        renamed = {
            f: [(pid + 1000, b) for pid, b in boxes] for f, boxes in pred.items()
        }
        a = compute_clear(gt, pred)
        b = compute_clear(gt, renamed)
        assert a == b

    def test_pure_fp_and_dropped_tp_never_raise_mota(self):
        gt = merge(constant_track(1, range(1, 8), 0, 0), constant_track(2, range(1, 8), 40, 0))
        pred = merge(constant_track(3, range(1, 8), 0, 0), constant_track(4, range(1, 8), 40, 0))
        base = compute_clear(gt, pred).mota
        with_fp = merge(pred, {3: [(999, box(300, 300))]})
        assert compute_clear(gt, with_fp).mota <= base
        dropped = {f: [p for p in boxes if not (f == 4 and p[0] == 3)] for f, boxes in pred.items()}
        assert compute_clear(gt, dropped).mota <= base

    def test_mt_ml_boundaries(self):
        # coverage 8/10 counts as mostly tracked, 2/10 as mostly lost
        gt = merge(constant_track(1, range(1, 11), 0, 0), constant_track(2, range(1, 11), 50, 0))
        pred = merge(constant_track(1, range(1, 9), 0, 0), constant_track(2, range(1, 3), 50, 0))
        rep = compute_clear(gt, pred)
        assert rep.mt == pytest.approx(0.5)
        assert rep.ml == pytest.approx(0.5)

    def test_empty_gt_rejected(self):
        with pytest.raises(ValueError):
            compute_clear({}, {1: [(1, box())]})

    @pytest.mark.parametrize("side", ["gt", "pred"])
    def test_duplicate_id_in_frame_rejected(self, side):
        twice = {1: [(1, box(0, 0))], 2: [(1, box(0, 0)), (1, box(50, 0))]}
        once = constant_track(5, range(1, 3))
        gt, pred = (twice, once) if side == "gt" else (once, twice)
        for score in (compute_clear, compute_idf1):
            with pytest.raises(ValueError, match="id 1 appears twice in frame 2"):
                score(gt, pred)

    def test_pred_frames_outside_gt_range_rejected(self):
        gt = constant_track(1, range(1, 5))
        pred = constant_track(1, range(1, 7))
        with pytest.raises(ValueError):
            compute_clear(gt, pred)


    def test_frames_neither_side_holds_are_not_walked(self, monkeypatch):
        calls = []
        match = evaluation._match
        monkeypatch.setattr(evaluation, "_match", lambda *a: calls.append(a) or match(*a))
        # one ground truth seen by prediction 5, then by prediction 6: one switch
        gt = {1: [(1, box())], 100_001: [(1, box(1.0))]}
        pred = {1: [(5, box())], 100_001: [(6, box(1.0)), (7, box(500.0))]}
        far = compute_clear(gt, pred)
        assert len(calls) == 2
        near = compute_clear({1: gt[1], 2: gt[100_001]}, {1: pred[1], 2: pred[100_001]})
        assert far == near
        assert (far.idsw, far.fp, far.fn) == (1, 1, 0)


class TestIDF1:
    def test_perfect(self):
        gt = constant_track(1, range(1, 11))
        pred = constant_track(5, range(1, 11))
        assert compute_idf1(gt, pred) == 1.0

    def test_empty_predictions(self):
        assert compute_idf1(constant_track(1, range(1, 11)), {}) == 0.0

    def test_midpoint_swap_halves_idf1(self):
        gt = merge(constant_track(1, range(1, 11), 0, 0), constant_track(2, range(1, 11), 50, 0))
        # both GT tracks are covered perfectly but switch prediction id at frame 6
        pred = merge(
            constant_track(11, range(1, 6), 0, 0),
            constant_track(12, range(6, 11), 0, 0),
            constant_track(13, range(1, 6), 50, 0),
            constant_track(14, range(6, 11), 50, 0),
        )
        assert compute_idf1(gt, pred) == pytest.approx(0.5)

    def test_matches_brute_force_on_random_instances(self, rng):
        for _ in range(40):
            frames = int(rng.integers(2, 7))
            gt = {}
            pred = {}
            for f in range(1, frames + 1):
                gt[f] = [
                    (gid, box(float(20 * rng.integers(0, 6)), 0.0))
                    for gid in range(1, int(rng.integers(1, 7)) + 1)
                ]
                pred[f] = [
                    (pid, box(float(20 * rng.integers(0, 6)), 0.0))
                    for pid in range(1, int(rng.integers(0, 7)) + 1)
                ]
            assert compute_idf1(gt, pred) == pytest.approx(
                idf1_oracle(gt, pred), abs=1e-12
            )

    @settings(max_examples=200, deadline=None)
    @given(sequences())
    def test_matches_oracle_and_compute_clear(self, gt_pred):
        gt, pred = gt_pred
        idf1 = compute_idf1(gt, pred)
        assert idf1 == pytest.approx(idf1_oracle(gt, pred), abs=1e-12)
        assert compute_clear(gt, pred).idf1 == idf1


SMALL_SCENE = """
[scene]
width = 256
height = 256
frames = 10
min_objects = 5
max_objects = 9
min_size = 14
max_size = 40
min_speed = 0.5
max_speed = 2.5
seed = {seed}

[corruption]
fn_rate = 0.1
fp_rate = 0.5
jitter_sigma = 1.5
seed = {seed}
"""


class TestColumnScoring:
    @pytest.mark.parametrize("matcher", ["greedy", "hungarian"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_table_frames_score_exactly_like_row_pairs(self, tmp_path, matcher, seed):
        cfg = tmp_path / "scene.cfg"
        cfg.write_text(SMALL_SCENE.format(seed=seed))
        gt, pred = tmp_path / "gt.txt", tmp_path / "pred.txt"
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        heads = str(tmp_path / "heads")
        assert main(["track", "--heads", heads, "--matcher", matcher, "--out", str(pred)]) == 0

        columns = (read_mot_frames(gt), read_mot_frames(pred))
        pairs = (rows_to_frames(read_mot_file(gt)), rows_to_frames(read_mot_file(pred)))
        for threshold in (0.3, 0.5, 0.8):
            report = compute_clear(*columns, threshold)
            assert report == compute_clear(*pairs, threshold)
            assert report == compute_clear(columns[0], pairs[1], threshold)
            assert report.idf1 == compute_idf1(*columns, threshold)
