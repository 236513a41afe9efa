import logging

import numpy as np
import pytest

from peaktrack import (
    BBox,
    CorruptionConfig,
    FrameAnnotations,
    ObjectAnnotation,
    PipelineConfig,
    SceneConfig,
    corrupt,
    decode_detections,
    gen_scene,
    pick_reference_frame,
    synthesize_head_outputs,
    top_point_from_bbox,
)


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
        top = top_point_from_bbox(box)
        cell = (int(top.y // 4), int(top.x // 4))
        assert tuple(head.disp_map[cell]) == (0.0, 0.0)

    def test_moved_object_displacement(self):
        prev_box = BBox(40, 44, 20, 50)
        cur_box = BBox(48, 40, 20, 50)  # moved by (+8, -4)
        ann = FrameAnnotations(2, (ObjectAnnotation(1, 0, cur_box),))
        prev = FrameAnnotations(1, (ObjectAnnotation(1, 0, prev_box),))
        head = synthesize_head_outputs(ann, prev, (256, 256), 4)
        top = top_point_from_bbox(cur_box)
        cell = (int(top.y // 4), int(top.x // 4))
        assert tuple(head.disp_map[cell]) == (8.0, -4.0)

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
        tops_prev = {
            o.track_id: top_point_from_bbox(o.bbox) for o in frames[4].objects
        }
        tops_cur = {o.track_id: top_point_from_bbox(o.bbox) for o in frames[5].objects}
        want = {
            (round(t.x, 6), round(t.y, 6)): (
                t.x - tops_prev[tid].x,
                t.y - tops_prev[tid].y,
            )
            for tid, t in tops_cur.items()
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
        assert head.heatmap.max() == 0.0

    def test_fn_drop_count_matches_binomial(self):
        # 1000 single-object frames at fn_rate 0.3: drops within 3 sigma
        rate = 0.3
        dropped = 0
        rng = np.random.default_rng(77)
        cfg = CorruptionConfig(fn_rate=rate)
        ann = FrameAnnotations(1, (ObjectAnnotation(1, 0, BBox(100, 100, 24, 60)),))
        for _ in range(1000):
            head = corrupt(ann, None, (256, 256), 4, cfg, rng=rng)
            if head.heatmap.max() == 0.0:
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
            extra = (head.heatmap >= 0.5).sum() - 3
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
            total += int((head.heatmap >= 0.5).sum())
        sigma = (1000 * rate) ** 0.5
        assert abs(total - 1000 * rate) <= 3 * sigma

    def test_heatmap_noise_clamped_to_unit_range(self):
        ann, prev = self.ann_pair()
        head = corrupt(
            ann, prev, (256, 256), 4, CorruptionConfig(hm_noise_sigma=0.5, seed=9)
        )
        assert head.heatmap.min() >= 0.0 and head.heatmap.max() <= 1.0
        assert head.heatmap[head.heatmap > 0].size > 100  # noise floor exists

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
        top = top_point_from_bbox(frames[1].objects[1].bbox)
        assert heads[1].heatmap[int(top.y) // 4, int(top.x) // 4, 0] == 1.0
        np.testing.assert_array_equal(heads[1].disp_map, 0.0)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            CorruptionConfig(fn_rate=1.2)
        with pytest.raises(ValueError):
            CorruptionConfig(temporal_jitter_k=4)


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

