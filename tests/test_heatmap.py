import math
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from peaktrack import (
    BBox,
    FrameAnnotations,
    GridPoint,
    HeadOutput,
    ObjectAnnotation,
    PipelineConfig,
    decode_detections,
    extract_peaks,
    gaussian_sigma,
    read_head_outputs,
    write_head_outputs,
)
from peaktrack.geometry import top_of
from peaktrack.fileio import SparseGrid
from peaktrack.heatmap import draw_bumps
from peaktrack.simulator import synthesize_head_outputs

from .conftest import separated_annotations
from .oracles import gaussian_sigma_oracle, iou_radius_oracle, peaks_oracle
from .oracles import place_objects_oracle as place_objects

# frozen output of iou_radius_oracle(24, 24) recorded before the main build
RADIUS_24 = 1.9600796815910932
# tiny sizes reach the 2/3 sigma floor, large ones leave it
SIGMA_SIZES = st.floats(1e-6, 8.0) | st.floats(8.0, 4096.0)


class TestGaussianSigma:
    def test_tiny_objects_clamp(self):
        assert gaussian_sigma((1.0, 1.0), 4) == pytest.approx(2.0 / 3.0)
        assert gaussian_sigma((4.0, 4.0), 4) == pytest.approx(2.0 / 3.0)

    def test_mid_size_matches_radius_oracle(self):
        assert iou_radius_oracle(24.0, 24.0) == pytest.approx(RADIUS_24, abs=1e-12)
        expected = (2.0 * RADIUS_24 + 1.0) / 6.0
        assert gaussian_sigma((96.0, 96.0), 4) == pytest.approx(expected, abs=1e-12)

    def test_matches_oracle_on_random_sizes(self, rng):
        for _ in range(200):
            w = float(rng.uniform(20, 400))
            h = float(rng.uniform(20, 400))
            r = iou_radius_oracle(w / 4.0, h / 4.0)
            expected = max((2.0 * r + 1.0) / 6.0, 2.0 / 3.0)
            assert gaussian_sigma((w, h), 4) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_size(self, rng):
        for _ in range(100):
            w = float(rng.uniform(4, 300))
            h = float(rng.uniform(4, 300))
            assert gaussian_sigma((2 * w, 2 * h), 4) >= gaussian_sigma((w, h), 4)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            gaussian_sigma((0.0, 4.0), 4)

    def test_first_nonpositive_array_size_is_named(self):
        w, h = np.array([4.0, 0.0, -1.0]), np.array([4.0, 2.0, 3.0])
        with pytest.raises(ValueError, match=r"^object size must be positive, got \(0\.0, 2\.0\)$"):
            gaussian_sigma((w, h), 4)

    @settings(max_examples=200, deadline=None)
    @given(
        sizes=st.lists(st.tuples(SIGMA_SIZES, SIGMA_SIZES), min_size=1, max_size=30),
        downsample=st.sampled_from([1, 2, 4]),
    )
    @example(sizes=[(1.0, 1.0), (0.25, 3.0)], downsample=4)
    def test_arrays_are_the_scalar_oracle_bit_for_bit(self, sizes, downsample):
        w, h = np.array(sizes).T
        got = gaussian_sigma((w, h), downsample)
        want = np.array([gaussian_sigma_oracle(size, downsample) for size in sizes])
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestRender:
    def test_center_cell_is_one(self):
        ann = FrameAnnotations(1, (ObjectAnnotation(1, 0, BBox(10, 20, 40, 100)),))
        hm = synthesize_head_outputs(ann, None, (256, 256), 4).heatmap.dense()
        x, y = top_of(10, 20, 40, 100)
        assert hm[int(y // 4), int(x // 4), 0] == 1.0

    def test_gaussian_profile_value(self):
        # two cells right of the center with sigma 2: exp(-4 / 8)
        one = np.array([10]), np.array([10]), np.array([0]), np.array([2.0]), np.array([1.0])
        channel = draw_bumps((21, 21, 1), *one).dense()[:, :, 0]
        assert channel[10, 12] == pytest.approx(math.exp(-0.5), abs=1e-12)
        assert channel[10, 10] == 1.0

    def test_same_cell_objects_keep_larger_bump(self):
        small = ObjectAnnotation(1, 0, BBox(118, 112, 20, 80))
        large = ObjectAnnotation(2, 0, BBox(88, 104, 80, 160))
        # same top point (128, 120) by construction
        assert top_of(118, 112, 20, 80) == top_of(88, 104, 80, 160)
        both = synthesize_head_outputs(FrameAnnotations(1, (small, large)), None, (512, 512), 4)
        only_large = synthesize_head_outputs(FrameAnnotations(1, (large,)), None, (512, 512), 4)
        np.testing.assert_array_equal(both.heatmap.dense(), only_large.heatmap.dense())

    def test_order_invariance(self, rng):
        ann = separated_annotations(rng, 1, 12, image_size=(320, 320), min_cell_gap=1)
        shuffled = list(ann.objects)
        rng.shuffle(shuffled)
        a = synthesize_head_outputs(ann, None, (320, 320), 4)
        b = synthesize_head_outputs(FrameAnnotations(1, tuple(shuffled)), None, (320, 320), 4)
        np.testing.assert_array_equal(a.heatmap.dense(), b.heatmap.dense())

    def test_values_in_unit_range(self, rng):
        ann = separated_annotations(rng, 1, 30, image_size=(640, 640), min_cell_gap=1)
        hm = synthesize_head_outputs(ann, None, (640, 640), 4).heatmap.dense()
        assert hm.min() >= 0.0 and hm.max() <= 1.0

    def test_off_frame_top_clamped_or_skipped(self):
        # top at x = -2: inside the one-cell margin, clamped onto the border
        near = ObjectAnnotation(1, 0, BBox(-22.0, 40.0, 40.0, 50.0))
        ann = FrameAnnotations(1, (near,))
        hm = synthesize_head_outputs(ann, None, (256, 256), 4).heatmap.dense()
        assert (hm == 1.0).sum() == 1
        assert hm[:, 0, 0].max() == 1.0
        # top far outside the margin: dropped entirely
        far = ObjectAnnotation(1, 0, BBox(-200.0, 40.0, 40.0, 50.0))
        ann = FrameAnnotations(1, (far,))
        hm = synthesize_head_outputs(ann, None, (256, 256), 4).heatmap.dense()
        assert hm.max() == 0.0

    def test_bad_dims_rejected(self):
        ann = FrameAnnotations(1, ())
        with pytest.raises(ValueError):
            synthesize_head_outputs(ann, None, (254, 256), 4)

    @pytest.mark.parametrize("num_classes", [0, -1])
    def test_num_classes_below_one_rejected(self, num_classes):
        with pytest.raises(ValueError, match=f"num_classes must be >= 1, got {num_classes}"):
            synthesize_head_outputs(FrameAnnotations(1, ()), None, (64, 64), 4, num_classes)

    def test_duplicate_track_ids_rejected(self):
        objs = (
            ObjectAnnotation(1, 0, BBox(0, 0, 10, 10)),
            ObjectAnnotation(1, 0, BBox(50, 50, 10, 10)),
        )
        with pytest.raises(ValueError):
            FrameAnnotations(1, objs)

    def test_objects_from_an_iterator_are_kept_as_a_tuple(self):
        objs = tuple(ObjectAnnotation(i, 0, BBox(10 * i, 0, 5, 5)) for i in range(1, 4))
        assert FrameAnnotations(1, iter(objs)).objects == objs


class TestExtractPeaks:
    def test_isolated_objects_found_exactly(self, rng):
        ann = separated_annotations(rng, 1, 5, image_size=(320, 320))
        hm = synthesize_head_outputs(ann, None, (320, 320), 4).heatmap.dense()
        peaks = extract_peaks(hm, max_peaks=100, score_threshold=0.5)
        assert len(peaks) == 5
        assert all(score == 1.0 for _, _, score in peaks)
        expected_cells = {(p.cell.col, p.cell.row) for p in place_objects(ann, (320, 320), 4)}
        assert {(c.col, c.row) for c, _, _ in peaks} == expected_cells

    def test_uniform_field_truncates_in_tiebreak_order(self):
        hm = np.full((5, 5, 1), 0.6)
        peaks = extract_peaks(hm, max_peaks=7, score_threshold=0.5)
        cells = [(c.row, c.col) for c, _, _ in peaks]
        assert cells == [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (1, 1)]

    def test_threshold_above_peak_gives_nothing(self):
        one = np.array([4]), np.array([4]), np.array([0]), np.array([1.0]), np.array([0.55])
        hm = draw_bumps((9, 9, 1), *one).dense()
        assert extract_peaks(hm, 100, 0.6) == []

    def test_peak_rule_soundness_on_noise(self, rng):
        hm = rng.uniform(0.0, 1.0, size=(24, 24, 2))
        for cell, ch, score in extract_peaks(hm, 1000, 0.1):
            r, c = cell.row, cell.col
            neigh = hm[max(r - 1, 0) : r + 2, max(c - 1, 0) : c + 2, ch]
            assert score >= neigh.max()

    def test_channel_tiebreak(self):
        hm = np.zeros((3, 3, 2))
        hm[1, 1, 0] = 0.7
        hm[1, 1, 1] = 0.7
        peaks = extract_peaks(hm, 10, 0.5)
        assert [ch for _, ch, _ in peaks][:2] == [0, 1]

    @pytest.mark.parametrize("max_peaks, warned", [(7, True), (25, False)])
    def test_truncation_is_reported(self, caplog, max_peaks, warned):
        hm = np.full((5, 5, 1), 0.6)
        with caplog.at_level("WARNING", logger="peaktrack.heatmap"):
            assert len(extract_peaks(hm, max_peaks, score_threshold=0.5)) == max_peaks
        assert ("kept 7 of 25 peaks" in caplog.text) is warned
        assert len(caplog.records) == int(warned)

    # few distinct levels make plateaus and score ties common
    @settings(max_examples=200, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 3)),
            elements=st.one_of(st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.0]), st.floats(0, 1)),
        ),
        st.integers(1, 20),
        st.sampled_from([0.0, 0.3, 0.5]),
    )
    def test_matches_brute_force_scan(self, hm, max_peaks, score_threshold):
        peaks = extract_peaks(hm, max_peaks, score_threshold)
        got = [(cell.row, cell.col, ch, score) for cell, ch, score in peaks]
        assert got == peaks_oracle(hm, max_peaks, score_threshold)

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    @pytest.mark.parametrize("max_peaks", [0, -1])
    def test_max_peaks_below_one_rejected(self, caplog, sparse, max_peaks):
        hm = np.zeros((5, 5, 1))
        hm[0, 0, 0], hm[2, 2, 0], hm[4, 4, 0] = 0.9, 0.8, 0.7
        with pytest.raises(ValueError, match="max_peaks must be >= 1"):
            extract_peaks(stored(hm) if sparse else hm, max_peaks, 0.4)
        assert not caplog.records

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_nan_score_threshold_rejected(self, sparse):
        hm = np.full((5, 5, 1), 0.6)
        with pytest.raises(ValueError, match=r"score_threshold must be in \[0, 1\]"):
            extract_peaks(stored(hm) if sparse else hm, 10, math.nan)


class TestDecode:
    def test_single_object_exact_recovery(self):
        ann = FrameAnnotations(1, (ObjectAnnotation(1, 0, BBox(10, 20, 40, 100)),))
        head = synthesize_head_outputs(ann, None, (256, 256), 4)
        dets = decode_detections(head, PipelineConfig())
        assert len(dets) == 1
        d = dets[0]
        x, y = top_of(10, 20, 40, 100)
        assert abs(d.top.x - x) < 1e-6 and abs(d.top.y - y) < 1e-6
        box = d.bbox()
        assert box.corners() == ann.objects[0].bbox.corners()

    def test_anchor_beyond_float64_is_rejected(self):
        # (cell + offset) * R overflows although every grid value is finite
        shape = (4, 4)
        heatmap = np.zeros(shape + (1,))
        heatmap[1, 1, 0] = 0.9
        offset = np.zeros(shape + (2,))
        offset[1, 1, 0] = 1e308
        head = HeadOutput(heatmap, np.full(shape + (2,), 8.0), offset, np.zeros(shape + (2,)), 4)
        with pytest.raises(ValueError, match=r"^TopPoint must be finite, got inf$"):
            decode_detections(head, PipelineConfig())

    def test_zero_heatmap_decodes_empty(self):
        shape = (32, 32)
        head = HeadOutput(
            np.zeros(shape + (1,)),
            np.zeros(shape + (2,)),
            np.zeros(shape + (2,)),
            np.zeros(shape + (2,)),
            4,
        )
        assert decode_detections(head, PipelineConfig()) == []

    @pytest.mark.parametrize(
        "bad_sizes, warned",
        [([(0.0, 8.0), (-3.0, 8.0)], True), ([], False)],
        ids=["two-dropped", "none-dropped"],
    )
    def test_non_positive_size_drop_is_reported(self, caplog, bad_sizes, warned):
        # three isolated peaks; the first len(bad_sizes) regress a size <= 0
        shape = (16, 16)
        heatmap = np.zeros(shape + (1,))
        size_map = np.full(shape + (2,), 8.0)
        cells = [(2, 2), (8, 8), (13, 13)]
        for (r, c), score in zip(cells, (0.9, 0.8, 0.7)):
            heatmap[r, c, 0] = score
        for (r, c), wh in zip(cells, bad_sizes):
            size_map[r, c] = wh
        head = HeadOutput(heatmap, size_map, np.zeros(shape + (2,)), np.zeros(shape + (2,)), 4)
        with caplog.at_level("WARNING", logger="peaktrack.heatmap"):
            dets = decode_detections(head, PipelineConfig())
        assert len(dets) == 3 - len(bad_sizes)
        assert ("dropped 2 of 3 peaks whose regressed size is not positive" in caplog.text) is warned
        assert len(caplog.records) == int(warned)

    def test_fifty_objects_round_trip(self, rng):
        ann = separated_annotations(rng, 1, 50, image_size=(640, 640))
        head = synthesize_head_outputs(ann, None, (640, 640), 4)
        dets = decode_detections(head, PipelineConfig())
        assert len(dets) == 50
        by_top = {top_of(o.bbox.x1, o.bbox.y1, o.bbox.w, o.bbox.h): o for o in ann.objects}
        for d in dets:
            key = min(by_top, key=lambda t: (t[0] - d.top.x) ** 2 + (t[1] - d.top.y) ** 2)
            assert math.hypot(key[0] - d.top.x, key[1] - d.top.y) < 1e-6
            assert d.bbox().corners() == by_top[key].bbox.corners()

    # Integer corners moved by one sub-pixel multiple of 2^-20 px keep every
    # top, offset and displacement an exact float in memory; the grid files
    # store float32, whose rounding stays below 1e-5 px for tops under 640 px
    # and sizes up to 120 px, while float16 would miss by about 1e-3 px.
    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 30),
        st.integers(1, 2),
        st.tuples(st.integers(0, 2**20 - 1), st.integers(0, 2**20 - 1)),
        st.integers(-8, 8),
        st.integers(-8, 8),
    )
    def test_round_trip_through_grid_files(
        self, seed, n_objects, num_classes, subpixel, dx, dy
    ):
        image_size = (640, 640)
        fx, fy = (k / 2**20 for k in subpixel)
        ann = separated_annotations(
            np.random.default_rng(seed), 2, n_objects, image_size, num_classes=num_classes
        )
        ann = FrameAnnotations(
            2,
            tuple(
                ObjectAnnotation(o.track_id, o.class_id, BBox(o.bbox.x1 + fx, o.bbox.y1 + fy, o.bbox.w, o.bbox.h))
                for o in ann.objects
            ),
        )
        # The previous frame holds each box shifted back by (dx, dy) when its
        # top stays inside the frame; the others are new objects.
        prev_objects = []
        for o in ann.objects:
            box = BBox(o.bbox.x1 - dx, o.bbox.y1 - dy, o.bbox.w, o.bbox.h)
            x, y = top_of(box.x1, box.y1, box.w, box.h)
            if 0 <= x < image_size[1] and 0 <= y < image_size[0]:
                prev_objects.append(ObjectAnnotation(o.track_id, o.class_id, box))
        moved = {o.track_id for o in prev_objects}
        want = {}
        for o in ann.objects:
            top = top_of(o.bbox.x1, o.bbox.y1, o.bbox.w, o.bbox.h)
            disp = (dx, dy) if o.track_id in moved else (0, 0)
            want[GridPoint(math.floor(top[0] / 4), math.floor(top[1] / 4))] = (o, top, disp)

        head = synthesize_head_outputs(
            ann, FrameAnnotations(1, tuple(prev_objects)), image_size, 4, num_classes
        )
        cfg = PipelineConfig(num_classes=num_classes)
        dets = decode_detections(head, cfg)
        assert sorted((d.cell.row, d.cell.col) for d in dets) == sorted(
            (cell.row, cell.col) for cell in want
        )
        for d in dets:
            o, top, disp = want[d.cell]
            assert (d.class_id, d.score) == (o.class_id, 1.0)
            assert d.bbox().corners() == o.bbox.corners()
            assert d.displacement == disp

        with tempfile.TemporaryDirectory() as tmp:
            write_head_outputs(tmp, 2, head)
            from_file = decode_detections(read_head_outputs(tmp, 2, 4), cfg)
        assert [(d.cell, d.class_id, d.score) for d in from_file] == [
            (d.cell, d.class_id, d.score) for d in dets
        ]
        for d in from_file:
            o, top, disp = want[d.cell]
            got = (d.top.x, d.top.y, *d.size, *d.displacement)
            exact = (*top, o.bbox.w, o.bbox.h, *disp)
            assert got == pytest.approx(exact, rel=0, abs=1e-5)

    def test_multiclass_detection_carries_class(self):
        objs = (
            ObjectAnnotation(1, 0, BBox(40, 40, 20, 50)),
            ObjectAnnotation(2, 1, BBox(160, 160, 20, 50)),
        )
        head = synthesize_head_outputs(FrameAnnotations(1, objs), None, (256, 256), 4, num_classes=2)
        dets = decode_detections(head, PipelineConfig(num_classes=2))
        assert sorted(d.class_id for d in dets) == [0, 1]

    def test_inconsistent_grids_rejected(self):
        with pytest.raises(ValueError):
            HeadOutput(
                np.zeros((8, 8, 1)),
                np.zeros((8, 9, 2)),
                np.zeros((8, 8, 2)),
                np.zeros((8, 8, 2)),
                4,
            )
        head = HeadOutput(
            np.zeros((8, 8, 2)),
            np.zeros((8, 8, 2)),
            np.zeros((8, 8, 2)),
            np.zeros((8, 8, 2)),
            4,
        )
        with pytest.raises(ValueError):
            decode_detections(head, PipelineConfig(num_classes=1))

    def test_nonpositive_size_dropped(self):
        hm = np.zeros((16, 16, 1))
        hm[5, 5, 0] = 1.0
        head = HeadOutput(hm, np.zeros((16, 16, 2)), np.zeros((16, 16, 2)), np.zeros((16, 16, 2)), 4)
        assert decode_detections(head, PipelineConfig()) == []

    def test_plateau_cells_are_all_detections(self):
        # equal adjacent cells are not thinned, as with max-pool NMS
        hm = np.zeros((16, 16, 1))
        hm[5, 5, 0] = hm[5, 6, 0] = 0.9
        head = HeadOutput(hm, np.full((16, 16, 2), 20.0), np.zeros((16, 16, 2)), np.zeros((16, 16, 2)), 4)
        dets = decode_detections(head, PipelineConfig())
        assert [(d.cell.row, d.cell.col, d.score) for d in dets] == [(5, 5, 0.9), (5, 6, 0.9)]


class TestHeadOutputRules:
    GRIDS = ("heatmap", "size_map", "offset_map", "disp_map")

    @staticmethod
    def grids(**changes):
        grids = {
            "heatmap": np.zeros((8, 8, 1)),
            "size_map": np.ones((8, 8, 2)),
            "offset_map": np.zeros((8, 8, 2)),
            "disp_map": np.zeros((8, 8, 2)),
        }
        grids.update(changes)
        return grids

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", GRIDS)
    def test_non_finite_value_rejected(self, name, value):
        grids = self.grids()
        grids[name][3, 4, 0] = value
        with pytest.raises(ValueError):
            HeadOutput(**grids, downsample=4)

    @pytest.mark.parametrize("value", [-1e-9, 1.0 + 1e-9, -1.0, 2.0])
    def test_heatmap_outside_unit_interval_rejected(self, value):
        heatmap = np.zeros((8, 8, 1))
        heatmap[3, 4, 0] = value
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            HeadOutput(**self.grids(heatmap=heatmap), downsample=4)

    def test_heatmap_bounds_accepted(self):
        heatmap = np.zeros((8, 8, 1))
        heatmap[3, 4, 0] = 1.0
        assert HeadOutput(**self.grids(heatmap=heatmap), downsample=4).grid_shape == (8, 8)


def stored(grid: np.ndarray) -> SparseGrid:
    """The cells `write_grid` would store (float32 bits not zero), as a `SparseGrid`."""
    values = np.asarray(grid, dtype=np.float32).reshape(-1)
    index = np.flatnonzero(values.view(np.uint32))
    return SparseGrid(grid.shape, index, values[index].astype(np.float64))


# few distinct levels make plateaus and score ties common; -0.0 is a stored zero
LEVELS = st.one_of(st.sampled_from([-0.0, 0.3, 0.4, 0.5, 1.0]), st.floats(0, 1, width=32))
REGRESSED = st.one_of(st.sampled_from([-0.0, 0.0, -1.0, 8.0]), st.floats(-50, 50, width=32))


@st.composite
def painted_grids(draw, shape, elements):
    """A zero grid with rectangles (plateaus) and single cells, mostly on the
    border, of one value each painted on one channel; every value is a
    float32, as grid files hold them."""
    grid = np.zeros(shape, dtype=np.float32)
    rows, cols, channels = shape
    for _ in range(draw(st.integers(0, 4))):
        r0, r1 = sorted(draw(st.lists(st.integers(0, rows - 1), min_size=2, max_size=2)))
        c0, c1 = sorted(draw(st.lists(st.integers(0, cols - 1), min_size=2, max_size=2)))
        grid[r0 : r1 + 1, c0 : c1 + 1, draw(st.integers(0, channels - 1))] = draw(elements)
    # a border cell's flat neighbours in the previous or next row are no neighbours
    for _ in range(draw(st.integers(0, 4))):
        row = draw(st.one_of(st.sampled_from([0, rows - 1]), st.integers(0, rows - 1)))
        col = draw(st.one_of(st.sampled_from([0, cols - 1]), st.integers(0, cols - 1)))
        grid[row, col, draw(st.integers(0, channels - 1))] = draw(elements)
    return grid.astype(np.float64)


@st.composite
def sparse_heads(draw):
    rows, cols, classes = draw(st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 3)))
    heatmap = draw(painted_grids((rows, cols, classes), LEVELS))
    maps = [draw(painted_grids((rows, cols, 2), REGRESSED)) for _ in range(3)]
    return [heatmap, *maps]


def decode_reference(grids, max_peaks, score_threshold, downsample):
    """Decode peak by peak from `peaks_oracle` and dense reads of the grids.

    A peak whose size has w <= 0 or h <= 0 is dropped; the others anchor at
    ((col + ox) * R, (row + oy) * R).  Returns the detections as tuples, the
    number dropped and the number of peaks found.
    """
    heatmap, size_map, offset_map, disp_map = grids
    peaks = peaks_oracle(heatmap, max_peaks, score_threshold)
    detections = []
    for r, c, ch, score in peaks:
        w, h = (float(v) for v in size_map[r, c])
        if w <= 0 or h <= 0:
            continue
        ox, oy = (float(v) for v in offset_map[r, c])
        top = ((c + ox) * downsample, (r + oy) * downsample)
        disp = tuple(float(v) for v in disp_map[r, c])
        detections.append((top, (r, c), (w, h), repr(score), ch, disp))
    return detections, len(peaks) - len(detections), len(peaks)


def wrapped_rows(right: float, left: float) -> list[np.ndarray]:
    """A 2x3 head whose cells (0, 2) and (1, 0) are adjacent in flat order only."""
    heatmap = np.zeros((2, 3, 1))
    heatmap[0, 2, 0], heatmap[1, 0, 0] = right, left
    return [heatmap] + [np.full((2, 3, 2), 8.0)] * 3


class TestStoredCells:
    """A `SparseGrid` decodes as its dense grid does, at any threshold."""

    @settings(max_examples=300, deadline=None)
    @given(sparse_heads(), st.integers(1, 20), st.sampled_from([0.0, 0.4, 1.0]))
    @example(wrapped_rows(0.5, 1.0), 20, 0.4)
    @example(wrapped_rows(1.0, 0.5), 20, 0.4)
    def test_peaks_match_dense_scan_and_oracle(self, grids, max_peaks, score_threshold):
        hm = grids[0]
        sparse = stored(hm)
        found = []
        for grid in (sparse, sparse.dense()):
            peaks = extract_peaks(grid, max_peaks, score_threshold)
            # repr tells -0.0 from 0.0
            found.append([(c.row, c.col, ch, repr(s)) for c, ch, s in peaks])
        assert found[0] == found[1]
        got = [(r, c, ch, float(s)) for r, c, ch, s in found[0]]
        assert got == peaks_oracle(hm, max_peaks, score_threshold)

    @settings(max_examples=200, deadline=None)
    @given(sparse_heads(), st.integers(1, 20), st.sampled_from([0.0, 0.4, 1.0]))
    def test_decode_matches_dense_head(self, grids, max_peaks, score_threshold):
        cfg = PipelineConfig(
            max_peaks=max_peaks, score_threshold=score_threshold, num_classes=grids[0].shape[2]
        )
        sparse = HeadOutput(*map(stored, grids), downsample=4)
        dense = HeadOutput(*(g.dense() for g in map(stored, grids)), downsample=4)
        got, want = decode_detections(sparse, cfg), decode_detections(dense, cfg)
        assert got == want
        assert [repr(d.score) for d in got] == [repr(d.score) for d in want]

    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(sparse_heads(), st.integers(1, 20), st.sampled_from([0.0, 0.4, 1.0]))
    def test_decode_matches_per_peak_reference(self, caplog, grids, max_peaks, score_threshold):
        cfg = PipelineConfig(
            max_peaks=max_peaks, score_threshold=score_threshold, num_classes=grids[0].shape[2]
        )
        caplog.clear()
        with caplog.at_level("WARNING", logger="peaktrack.heatmap"):
            dets = decode_detections(HeadOutput(*map(stored, grids), downsample=4), cfg)
        got = [
            ((d.top.x, d.top.y), (d.cell.row, d.cell.col), d.size, repr(d.score))
            + (d.class_id, d.displacement)
            for d in dets
        ]
        want, dropped, found = decode_reference(grids, max_peaks, score_threshold, 4)
        assert got == want
        warnings = [r.getMessage() for r in caplog.records if "dropped" in r.getMessage()]
        expected = f"dropped {dropped} of {found} peaks whose regressed size is not positive"
        assert warnings == ([expected] if dropped else [])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_columns_keep_the_cells_of_the_dense_grid(self, dtype):
        # 0.0 is not stored; -0.0 and a denormal are, as their bits are not zero
        tiny = np.finfo(dtype).smallest_subnormal
        values = np.array([0.0, -0.0, tiny, 0.25, 0.0, 1.0], dtype=dtype)
        from_columns = SparseGrid.of_columns((2, 3, 1), np.arange(6), values)
        from_dense = SparseGrid.of(values.reshape(2, 3, 1))
        assert list(from_columns.index) == list(from_dense.index) == [1, 2, 3, 5]
        assert list(map(repr, from_columns.values)) == list(map(repr, from_dense.values))

    def test_unstored_cells_are_peaks_at_threshold_zero(self):
        hm = np.zeros((3, 3, 1))
        hm[0, 0, 0] = 0.5
        cells = [(c.row, c.col) for c, _, _ in extract_peaks(stored(hm), 100, 0.0)]
        # every zero cell away from the 0.5 is >= its neighbours
        assert cells == [(0, 0), (0, 2), (1, 2), (2, 0), (2, 1), (2, 2)]

    def test_heatmap_rules_check_stored_values(self):
        grids = [stored(np.zeros((8, 8, c))) for c in (1, 2, 2, 2)]
        heatmap = SparseGrid((8, 8, 1), np.array([5]), np.array([1.5]))
        with pytest.raises(ValueError, match=r"heatmap values must lie in \[0, 1\]"):
            HeadOutput(heatmap, *grids[1:], downsample=4)
        size_map = SparseGrid((8, 8, 3), np.array([], dtype=np.int64), np.array([]))
        with pytest.raises(ValueError, match="size_map must have 2 channels"):
            HeadOutput(grids[0], size_map, *grids[2:], downsample=4)
        disp_map = SparseGrid((8, 8, 2), np.array([3]), np.array([np.nan]))
        with pytest.raises(ValueError, match="disp_map contains non-finite values"):
            HeadOutput(*grids[:3], disp_map, downsample=4)
        offset_map = SparseGrid((8, 9, 2), np.array([], dtype=np.int64), np.array([]))
        with pytest.raises(ValueError, match="head grids disagree on spatial dims"):
            HeadOutput(grids[0], grids[1], offset_map, grids[3], downsample=4)
