import logging
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from peaktrack import (
    BBox,
    CorruptionConfig,
    FrameAnnotations,
    ObjectAnnotation,
    GridPoint,
    PipelineConfig,
    SceneConfig,
    SparseGrid,
    corrupt,
    decode_detections,
    gen_scene,
    pick_reference_frame,
    synthesize_head_outputs,
)
from peaktrack.geometry import top_of

from .oracles import clamped_top_oracle as clamped_top
from .oracles import gaussian_sigma_oracle as gaussian_sigma
from .oracles import place_objects_oracle as place_objects


def scene_cfg(**overrides):
    base = dict(
        height=256,
        width=256,
        frames=20,
        min_objects=5,
        max_objects=5,
        min_size=12,
        max_size=40,
        min_speed=0.0,
        max_speed=3.0,
        seed=3,
    )
    base.update(overrides)
    return SceneConfig(**base)


class TestGenScene:
    def test_single_frame_exact_count(self):
        frames = gen_scene(scene_cfg(frames=1, min_objects=3, max_objects=3))
        assert len(frames) == 1
        assert len(frames[0].objects) == 3
        assert len({o.track_id for o in frames[0].objects}) == 3

    def test_same_seed_identical(self):
        a = gen_scene(scene_cfg(seed=99, spawn_prob=0.3, despawn_prob=0.1))
        b = gen_scene(scene_cfg(seed=99, spawn_prob=0.3, despawn_prob=0.1))
        assert len(a) == len(b)
        for fa, fb in zip(a, b):
            assert fa == fb

    def test_zero_velocity_freezes_boxes(self):
        frames = gen_scene(scene_cfg(min_speed=0.0, max_speed=0.0))
        first = {o.track_id: o.bbox for o in frames[0].objects}
        for ann in frames[1:]:
            assert {o.track_id: o.bbox for o in ann.objects} == first

    def test_boxes_stay_inside_frame(self):
        frames = gen_scene(scene_cfg(frames=200, max_speed=9.0, seed=5))
        for ann in frames:
            for o in ann.objects:
                assert o.bbox.x1 >= 0 and o.bbox.y1 >= 0
                assert o.bbox.x2 <= 256 and o.bbox.y2 <= 256

    def test_ids_persist_and_never_return(self):
        frames = gen_scene(
            scene_cfg(frames=60, spawn_prob=0.4, despawn_prob=0.15, max_objects=8, seed=21)
        )
        last_seen: dict[int, int] = {}
        for ann in frames:
            for o in ann.objects:
                prev = last_seen.get(o.track_id)
                if prev is not None:
                    assert ann.frame_index - prev == 1, "id returned after a gap"
                last_seen[o.track_id] = ann.frame_index

    def test_any_speed_is_folded_into_the_frame(self):
        # at 1e20 px per frame, 2*hi - pos rounds to -pos, so a bounce-by-bounce
        # fold never ends
        cfg = scene_cfg(frames=4, min_speed=1e20, max_speed=1e20)
        for ann in gen_scene(cfg):
            for obj in ann.objects:
                b = obj.bbox
                assert 0.0 <= b.x1 and b.x2 <= cfg.width
                assert 0.0 <= b.y1 and b.y2 <= cfg.height

    def test_oversized_objects_rejected(self):
        with pytest.raises(ValueError):
            scene_cfg(max_size=300)

    def test_indivisible_dims_rejected(self):
        with pytest.raises(ValueError):
            scene_cfg(height=254)


class TestSynthesize:
    def test_static_object_zero_displacement(self):
        box = BBox(40, 40, 20, 50)
        ann = FrameAnnotations(2, (ObjectAnnotation(1, 0, box),))
        prev = FrameAnnotations(1, (ObjectAnnotation(1, 0, box),))
        head = synthesize_head_outputs(ann, prev, (256, 256), 4)
        x, y = top_of(box.x1, box.y1, box.w, box.h)
        cell = (int(y // 4), int(x // 4))
        assert tuple(np.asarray(head.disp_map)[cell]) == (0.0, 0.0)

    def test_moved_object_displacement(self):
        prev_box = BBox(40, 44, 20, 50)
        cur_box = BBox(48, 40, 20, 50)  # moved by (+8, -4)
        ann = FrameAnnotations(2, (ObjectAnnotation(1, 0, cur_box),))
        prev = FrameAnnotations(1, (ObjectAnnotation(1, 0, prev_box),))
        head = synthesize_head_outputs(ann, prev, (256, 256), 4)
        x, y = top_of(cur_box.x1, cur_box.y1, cur_box.w, cur_box.h)
        cell = (int(y // 4), int(x // 4))
        assert tuple(np.asarray(head.disp_map)[cell]) == (8.0, -4.0)

    def test_new_object_gets_zero_displacement(self):
        ann = FrameAnnotations(2, (ObjectAnnotation(7, 0, BBox(100, 100, 24, 60)),))
        prev = FrameAnnotations(1, ())
        head = synthesize_head_outputs(ann, prev, (256, 256), 4)
        assert float(np.abs(head.disp_map).sum()) == 0.0

    def test_decode_recovers_displacements(self, rng):
        cfg = scene_cfg(seed=33, min_objects=4, max_objects=4, min_speed=1.0, max_speed=2.0)
        frames = gen_scene(cfg)
        head = synthesize_head_outputs(frames[5], frames[4], (256, 256), 4)
        dets = decode_detections(head, PipelineConfig())
        tops_prev, tops_cur = (
            {o.track_id: top_of(o.bbox.x1, o.bbox.y1, o.bbox.w, o.bbox.h) for o in f.objects}
            for f in (frames[4], frames[5])
        )
        want = {
            (round(x, 6), round(y, 6)): (x - tops_prev[tid][0], y - tops_prev[tid][1])
            for tid, (x, y) in tops_cur.items()
        }
        assert len(dets) == 4
        for d in dets:
            dx, dy = want[(round(d.top.x, 6), round(d.top.y, 6))]
            assert d.displacement[0] == pytest.approx(dx, abs=1e-9)
            assert d.displacement[1] == pytest.approx(dy, abs=1e-9)


class TestCorrupt:
    def ann_pair(self):
        objs = tuple(
            ObjectAnnotation(i + 1, 0, BBox(30.0 + 60 * i, 40.0, 24.0, 60.0))
            for i in range(3)
        )
        return FrameAnnotations(2, objs), FrameAnnotations(1, objs)

    def test_zero_config_is_identity(self):
        ann, prev = self.ann_pair()
        clean = synthesize_head_outputs(ann, prev, (256, 256), 4)
        corrupted = corrupt(ann, prev, (256, 256), 4, CorruptionConfig(seed=1))
        np.testing.assert_array_equal(corrupted.heatmap, clean.heatmap)
        np.testing.assert_array_equal(corrupted.size_map, clean.size_map)
        np.testing.assert_array_equal(corrupted.offset_map, clean.offset_map)
        np.testing.assert_array_equal(corrupted.disp_map, clean.disp_map)

    def test_full_fn_rate_empties_heatmap(self):
        ann, prev = self.ann_pair()
        head = corrupt(ann, prev, (256, 256), 4, CorruptionConfig(fn_rate=1.0, seed=2))
        assert np.asarray(head.heatmap).max() == 0.0

    def test_fn_drop_count_matches_binomial(self):
        # 1000 single-object frames at fn_rate 0.3: drops within 3 sigma
        rate = 0.3
        dropped = 0
        rng = np.random.default_rng(77)
        cfg = CorruptionConfig(fn_rate=rate)
        ann = FrameAnnotations(1, (ObjectAnnotation(1, 0, BBox(100, 100, 24, 60)),))
        for _ in range(1000):
            head = corrupt(ann, None, (256, 256), 4, cfg, rng=rng)
            if np.asarray(head.heatmap).max() == 0.0:
                dropped += 1
        sigma = (1000 * rate * (1 - rate)) ** 0.5
        assert abs(dropped - 1000 * rate) <= 3 * sigma

    def test_fp_injection_adds_peaks(self):
        ann, prev = self.ann_pair()
        rng = np.random.default_rng(5)
        total_injected = 0
        for _ in range(20):
            head = corrupt(
                ann, prev, (256, 256), 4, CorruptionConfig(fp_rate=3.0), rng=rng
            )
            extra = (np.asarray(head.heatmap) >= 0.5).sum() - 3
            total_injected += max(int(extra), 0)
        assert total_injected > 0

    def test_fp_count_matches_poisson(self):
        # injected peaks on 1000 empty frames at rate 2: total within 3 sigma
        rate = 2.0
        rng = np.random.default_rng(17)
        empty = FrameAnnotations(1, ())
        total = 0
        for _ in range(1000):
            head = corrupt(empty, None, (256, 256), 4, CorruptionConfig(fp_rate=rate), rng=rng)
            total += int((np.asarray(head.heatmap) >= 0.5).sum())
        sigma = (1000 * rate) ** 0.5
        assert abs(total - 1000 * rate) <= 3 * sigma

    def test_heatmap_noise_clamped_to_unit_range(self):
        ann, prev = self.ann_pair()
        head = corrupt(
            ann, prev, (256, 256), 4, CorruptionConfig(hm_noise_sigma=0.5, seed=9)
        )
        hm = np.asarray(head.heatmap)
        assert hm.min() >= 0.0 and hm.max() <= 1.0
        assert hm[hm > 0].size > 100  # noise floor exists

    def test_deterministic_under_seed(self):
        ann, prev = self.ann_pair()
        cfg = CorruptionConfig(fn_rate=0.2, fp_rate=1.0, jitter_sigma=2.0, hm_noise_sigma=0.05, seed=4)
        a = corrupt(ann, prev, (256, 256), 4, cfg)
        b = corrupt(ann, prev, (256, 256), 4, cfg)
        np.testing.assert_array_equal(a.heatmap, b.heatmap)
        np.testing.assert_array_equal(a.size_map, b.size_map)

    @pytest.mark.parametrize("num_classes", [0, -1])
    def test_num_classes_below_one_rejected(self, num_classes):
        empty = FrameAnnotations(1, ())
        with pytest.raises(ValueError, match=f"num_classes must be >= 1, got {num_classes}"):
            corrupt(empty, None, (64, 64), 4, CorruptionConfig(), num_classes)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("frame", ["current", "reference"])
    def test_out_of_range_class_fails_whatever_fn_rate_draws(self, seed, frame):
        ok = ObjectAnnotation(1, 0, BBox(30.0, 40.0, 24.0, 60.0))
        bad = ObjectAnnotation(2, 3, BBox(120.0, 40.0, 24.0, 60.0))
        ann = FrameAnnotations(2, (ok, bad) if frame == "current" else (ok,))
        prev = FrameAnnotations(1, (ok, bad) if frame == "reference" else (ok,))
        with pytest.raises(ValueError, match="class_id 3 out of range for 1 classes"):
            corrupt(ann, prev, (256, 256), 4, CorruptionConfig(fn_rate=0.5, seed=seed))

    def test_reference_frame_skips_are_not_logged_again(self, caplog):
        # track 2's frame-1 top is beyond the one-cell margin: skipped when
        # frame 1 is rendered, and no reference top for frame 2
        inside = ObjectAnnotation(1, 0, BBox(30.0, 40.0, 24.0, 60.0))
        frames = [
            FrameAnnotations(1, (inside, ObjectAnnotation(2, 0, BBox(-100.0, 40.0, 24.0, 60.0)))),
            FrameAnnotations(2, (inside, ObjectAnnotation(2, 0, BBox(100.0, 40.0, 24.0, 60.0)))),
        ]
        with caplog.at_level(logging.WARNING, logger="peaktrack.heatmap"):
            heads = [
                corrupt(ann, frames[i - 1] if i else None, (256, 256), 4, CorruptionConfig())
                for i, ann in enumerate(frames)
            ]
        assert [r.getMessage() for r in caplog.records] == [
            "frame 1: skipped 1 object(s) with top point beyond the clamp margin"
        ]
        box = frames[1].objects[1].bbox
        x, y = top_of(box.x1, box.y1, box.w, box.h)
        assert np.asarray(heads[1].heatmap)[int(y) // 4, int(x) // 4, 0] == 1.0
        np.testing.assert_array_equal(heads[1].disp_map, 0.0)

    def test_jitter_beyond_float64_fails_loudly(self):
        # seed 3 draws a shift that takes the box's left edge to -inf
        ann = FrameAnnotations(1, (ObjectAnnotation(1, 0, BBox(10, 10, 8, 8)),))
        cfg = CorruptionConfig(jitter_sigma=1e308)
        with pytest.raises(ValueError, match=r"^BBox must be finite, got -inf$"):
            corrupt(ann, None, (64, 64), 4, cfg, rng=np.random.default_rng(3))

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            CorruptionConfig(fn_rate=1.2)
        with pytest.raises(ValueError):
            CorruptionConfig(temporal_jitter_k=4)
        # NaN would otherwise switch jitter and noise off, or fail in numpy
        # with a message that names no field
        for rate in ("fp_rate", "jitter_sigma", "hm_noise_sigma"):
            with pytest.raises(ValueError, match="^corruption rates must be non-negative$"):
                CorruptionConfig(**{rate: math.nan})


class TestSceneConfig:
    def test_wrong_arity_names_the_class(self):
        with pytest.raises(TypeError, match=r"^SceneConfig\.__new__\(\) missing 8 required"):
            SceneConfig(height=64)


def draw_gaussian_reference(channel, cell, sigma, peak=1.0):
    """One bump drawn into a dense channel, window by window; overlaps keep the max."""
    rows, cols = channel.shape
    reach = int(math.ceil(3.0 * sigma))
    r0 = max(cell.row - reach, 0)
    r1 = min(cell.row + reach, rows - 1)
    c0 = max(cell.col - reach, 0)
    c1 = min(cell.col + reach, cols - 1)
    rr = np.arange(r0, r1 + 1, dtype=np.float64) - cell.row
    cc = np.arange(c0, c1 + 1, dtype=np.float64) - cell.col
    d2 = rr[:, None] ** 2 + cc[None, :] ** 2
    bump = peak * np.exp(-d2 / (2.0 * sigma * sigma))
    bump[d2 > (3.0 * sigma) ** 2] = 0.0
    region = channel[r0 : r1 + 1, c0 : c1 + 1]
    np.maximum(region, bump, out=region)


def corrupt_reference(ann_t, ann_prev, image_size, downsample, corruption, num_classes, rng):
    """`corrupt` as it was written on four dense grids, one assignment per entry.

    Also returns the kind ("object" or "fp") of every entry written to a cell
    that an earlier entry of the frame wrote, in order.
    """
    rows, cols = image_size[0] // downsample, image_size[1] // downsample
    prev_objects = ann_prev.objects if ann_prev is not None else ()
    h_px, w_px = image_size
    kept = [obj for obj in ann_t.objects if rng.random() >= corruption.fn_rate]
    if corruption.jitter_sigma > 0:
        jittered = []
        for obj in kept:
            dx, dy = rng.normal(0.0, corruption.jitter_sigma, size=2)
            box = obj.bbox
            moved = BBox(box.x1 + float(dx), box.y1 + float(dy), box.w, box.h)
            jittered.append(ObjectAnnotation(obj.track_id, obj.class_id, moved))
        kept = jittered
    prev_tops = {o.track_id: clamped_top(o.bbox, image_size, downsample) for o in prev_objects}
    kept_ann = FrameAnnotations(ann_t.frame_index, tuple(kept))
    placements = place_objects(kept_ann, image_size, downsample, num_classes)

    heatmap = np.zeros((rows, cols, num_classes))
    size_map = np.zeros((rows, cols, 2))
    offset_map = np.zeros((rows, cols, 2))
    disp_map = np.zeros((rows, cols, 2))
    written, rewrites = set(), []
    for p in placements:
        draw_gaussian_reference(heatmap[:, :, p.annotation.class_id], p.cell, p.sigma)
        r, c = p.cell.row, p.cell.col
        rewrites += ["object"] if (r, c) in written else []
        written.add((r, c))
        size_map[r, c] = (p.annotation.bbox.w, p.annotation.bbox.h)
        offset_map[r, c] = p.offset
        prev = prev_tops.get(p.annotation.track_id)
        disp_map[r, c] = (p.top.x - prev.x, p.top.y - prev.y) if prev else (0.0, 0.0)

    size_pool = [(o.bbox.w, o.bbox.h) for o in ann_t.objects]
    for _ in range(int(rng.poisson(corruption.fp_rate))):
        x = min(float(rng.uniform(0.0, w_px)), w_px - 1e-6)
        y = min(float(rng.uniform(0.0, h_px)), h_px - 1e-6)
        if size_pool:
            base_w, base_h = size_pool[int(rng.integers(len(size_pool)))]
            scale = float(rng.uniform(0.5, 1.5))
            fp_w = min(base_w * scale, float(w_px))
            fp_h = min(base_h * scale, float(h_px))
        else:
            fp_w = float(rng.uniform(w_px / 16.0, w_px / 4.0))
            fp_h = float(rng.uniform(h_px / 16.0, h_px / 4.0))
        cx, cy = x / downsample, y / downsample
        cell = GridPoint(math.floor(cx), math.floor(cy))
        offset = (cx - cell.col, cy - cell.row)
        class_id = int(rng.integers(num_classes))
        peak = float(rng.uniform(0.5, 1.0))
        sigma = gaussian_sigma((fp_w, fp_h), downsample)
        draw_gaussian_reference(heatmap[:, :, class_id], cell, sigma, peak=peak)
        rewrites += ["fp"] if (cell.row, cell.col) in written else []
        written.add((cell.row, cell.col))
        size_map[cell.row, cell.col] = (fp_w, fp_h)
        offset_map[cell.row, cell.col] = offset
        disp_map[cell.row, cell.col] = (0.0, 0.0)

    if corruption.hm_noise_sigma > 0:
        heatmap += rng.normal(0.0, corruption.hm_noise_sigma, size=heatmap.shape)
        np.clip(heatmap, 0.0, 1.0, out=heatmap)
    return (heatmap, size_map, offset_map, disp_map), rewrites


def assert_head_stores(head, dense_grids):
    """Each grid holds exactly the cells of its dense reference whose float64 bits
    are not zero, bit for bit; a dense grid (a heatmap with noise) is its
    reference, bit for bit."""
    grids = (head.heatmap, head.size_map, head.offset_map, head.disp_map)
    for grid, dense in zip(grids, dense_grids):
        assert grid.shape == dense.shape
        if not isinstance(grid, SparseGrid):
            np.testing.assert_array_equal(grid.view(np.uint64), dense.view(np.uint64))
            continue
        expected = SparseGrid.of(dense)
        np.testing.assert_array_equal(grid.index, expected.index)
        np.testing.assert_array_equal(
            np.asarray(grid.values).view(np.uint64), np.asarray(expected.values).view(np.uint64)
        )


@st.composite
def frame_pairs(draw):
    """A small frame and its reference: tops close enough that bumps overlap and
    false positives often land on an object's cell, some beyond the clamp margin."""
    downsample = draw(st.sampled_from([1, 2, 4]))
    height, width = (downsample * draw(st.integers(2, 12)) for _ in range(2))
    num_classes = draw(st.integers(1, 3))

    def box():
        w = draw(st.floats(1.0, 2.0 * width))
        h = draw(st.floats(1.0, 2.0 * height))
        x = draw(st.floats(-w / 2 - 2 * downsample, width))
        y = draw(st.floats(-2.0 * downsample, height))
        return BBox(x, y, w, h)

    ids = draw(st.lists(st.integers(1, 8), unique=True, max_size=8))
    objs = [ObjectAnnotation(i, draw(st.integers(0, num_classes - 1)), box()) for i in ids]
    prev = [o for o in objs if draw(st.booleans())]
    prev = [ObjectAnnotation(o.track_id, o.class_id, box()) for o in prev]
    return (
        FrameAnnotations(2, tuple(objs)),
        FrameAnnotations(1, tuple(prev)) if draw(st.booleans()) else None,
        (height, width),
        downsample,
        num_classes,
    )


CORRUPTIONS = st.builds(
    CorruptionConfig,
    fn_rate=st.sampled_from([0.0, 0.3]),
    fp_rate=st.sampled_from([0.0, 1.0, 4.0]),
    jitter_sigma=st.sampled_from([0.0, 1.5]),
    hm_noise_sigma=st.sampled_from([0.0, 0.05]),
    # `builds` draws every field of a NamedTuple that is not given, defaults included
    temporal_jitter_k=st.just(0),
    seed=st.just(0),
)


class TestCorruptAgainstDenseReference:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(pair=frame_pairs(), corruption=CORRUPTIONS, seed=st.integers(0, 2**32 - 1))
    def test_grids_are_the_dense_reference_stored_cells(self, pair, corruption, seed):
        ann, prev, image_size, downsample, num_classes = pair
        args = (ann, prev, image_size, downsample, corruption, num_classes)
        head = corrupt(*args, rng=np.random.default_rng(seed))
        dense, _ = corrupt_reference(*args, np.random.default_rng(seed))
        assert_head_stores(head, dense)

    @settings(max_examples=200, deadline=None)
    @given(pair=frame_pairs())
    def test_render_is_the_reference_render(self, pair):
        ann, _, image_size, downsample, num_classes = pair
        expected = np.zeros((image_size[0] // downsample, image_size[1] // downsample, num_classes))
        for p in place_objects(ann, image_size, downsample, num_classes):
            draw_gaussian_reference(expected[:, :, p.annotation.class_id], p.cell, p.sigma)
        head = synthesize_head_outputs(ann, None, image_size, downsample, num_classes)
        rendered = head.heatmap.dense()
        np.testing.assert_array_equal(rendered.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("kind", ["object", "fp"])
    def test_last_entry_written_to_a_cell_wins(self, kind):
        # 4x4 cells crowded with objects and false positives; the seeds are
        # searched for a frame where a later entry of this kind rewrites a cell
        boxes = [BBox(2.0 + 3 * i, 1.0 + 2 * i, 4.0 + i, 6.0) for i in range(5)]
        objs = tuple(ObjectAnnotation(i + 1, 0, box) for i, box in enumerate(boxes))
        ann = FrameAnnotations(1, objs)
        cfg = CorruptionConfig(fp_rate=4.0, jitter_sigma=1.0)
        for seed in range(200):
            dense, rewrites = corrupt_reference(
                ann, None, (16, 16), 4, cfg, 1, np.random.default_rng(seed)
            )
            if kind in rewrites:
                break
        else:
            pytest.fail(f"no seed below 200 rewrites a cell with an entry of kind {kind}")
        head = corrupt(ann, None, (16, 16), 4, cfg, 1, rng=np.random.default_rng(seed))
        assert_head_stores(head, dense)

    @pytest.mark.parametrize("jitter_k", [1, 2, 3])
    def test_whole_sequences_with_jittered_references(self, jitter_k):
        # one rng per side runs through pick_reference_frame and corrupt, as
        # `simulate` threads it; ids spawn and despawn, so a reference frame
        # can lack an id of frame t
        cfg = CorruptionConfig(
            fn_rate=0.2, fp_rate=2.0, jitter_sigma=1.5, temporal_jitter_k=jitter_k
        )
        seen = set()
        for seed in range(4):
            scene = scene_cfg(
                frames=12, min_objects=3, max_objects=8, spawn_prob=0.4, despawn_prob=0.15, seed=seed
            )
            frames = gen_scene(scene)
            rngs = np.random.default_rng(seed), np.random.default_rng(seed)
            for ann in frames:
                t = ann.frame_index
                ref, ref_again = (pick_reference_frame(t, len(frames), jitter_k, r) for r in rngs)
                assert ref == ref_again
                prev = frames[ref - 1]
                seen.add("after" if ref > t else "same" if ref == t else "before")
                ids = {o.track_id for o in prev.objects}
                if any(o.track_id not in ids for o in ann.objects):
                    seen.add("missing id")
                args = (ann, prev, scene.image_size, scene.downsample, cfg, 2)
                head = corrupt(*args, rng=rngs[0])
                dense, _ = corrupt_reference(*args, rngs[1])
                assert_head_stores(head, dense)
        assert seen == {"after", "same", "before", "missing id"}


class TestReferenceFrame:
    def test_no_jitter_returns_previous(self, rng):
        assert pick_reference_frame(5, 100, 0, rng) == 4
        assert pick_reference_frame(1, 100, 0, rng) is None

    def test_jitter_stays_in_window_and_sequence(self, rng):
        for t in (1, 2, 50, 100):
            for _ in range(50):
                j = pick_reference_frame(t, 100, 3, rng)
                assert 1 <= j <= 100
                assert abs(j - t) <= 3

