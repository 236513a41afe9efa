import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from peaktrack import (
    BBox,
    Detection,
    FrameAnnotations,
    GridPoint,
    ObjectAnnotation,
    PipelineConfig,
    TopPoint,
    synthesize_head_outputs,
)
from peaktrack.geometry import _corners, top_boxes, top_of
from peaktrack.heatmap import _at_cells


class TestTopPointFromBBox:
    def test_reference_box(self):
        assert top_of(10, 20, 40, 100) == (30, 30)

    def test_small_box(self):
        assert top_of(0, 0, 2, 10) == (1, 1)

    def test_fractional_box(self):
        x, y = top_of(5.5, 7, 3, 5)
        assert x == pytest.approx(7.0, abs=1e-12)
        assert y == pytest.approx(7.5, abs=1e-12)

    def test_invalid_box_rejected(self):
        with pytest.raises(ValueError):
            BBox(0, 0, -1, 10)
        with pytest.raises(ValueError):
            BBox(0, 0, 5, 0)
        with pytest.raises(ValueError):
            BBox(0, 0, math.inf, 1)

    @pytest.mark.parametrize("box", [(1e308, 0, 1e308, 10), (0, 1.7e308, 5, 1.7e308)])
    def test_overflowing_edge_rejected(self, box):
        # each field is finite, but x1 + w or y1 + h is not
        with pytest.raises(ValueError, match="BBox edges must be finite"):
            BBox(*box)

    def test_replace_and_make_run_the_box_check(self):
        with pytest.raises(ValueError, match=r"^BBox extent must be positive, got w=-1.0, h=1$"):
            BBox(0, 0, 1, 1)._replace(w=-1.0)
        with pytest.raises(ValueError, match="^BBox must be finite, got nan$"):
            BBox._make([0, 0, math.nan, 1])

    def test_wrong_arity_names_the_class(self):
        with pytest.raises(TypeError, match=r"^BBox\.__new__\(\) missing 1 required positional"):
            BBox(1, 2, 3)


def quantize(x: float, y: float, r: int) -> tuple[tuple[float, float], GridPoint, tuple]:
    """The top point of a (2, 10) box placed to have its top at (x, y), with
    the cell and offset that `synthesize_head_outputs` stores for it: the
    heatmap's peak of 1 and the offset map's entry there."""
    box = BBox(x - 1.0, y - 1.0, 2.0, 10.0)
    top = top_of(box.x1, box.y1, box.w, box.h)
    side = r * (math.floor(max(top) / r) + 2)  # the top lies inside the frame
    ann = FrameAnnotations(1, (ObjectAnnotation(1, 0, box),))
    head = synthesize_head_outputs(ann, None, (side, side), r)
    peak = head.heatmap.index[head.heatmap.values.index(1.0)]
    row, col = divmod(peak, head.heatmap.shape[1])
    (offset,) = _at_cells(head.offset_map, [(row, col)])
    return top, GridPoint(col, row), offset


class TestQuantize:
    """The cell floor(p / R) and offset p / R - cell of a top point p, as stored."""

    def test_half_cell(self):
        _, cell, off = quantize(30, 30, 4)
        assert cell == GridPoint(7, 7)
        assert off == (0.5, 0.5)

    def test_exact_multiple(self):
        _, cell, off = quantize(8, 8, 4)
        assert cell == GridPoint(2, 2)
        assert off == (0.0, 0.0)

    def test_quarter_offsets(self):
        _, cell, off = quantize(9, 11, 4)
        assert cell == GridPoint(2, 2)
        assert off == (0.25, 0.75)

    def test_reconstruction_and_offset_range(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            r = int(rng.integers(1, 9))
            (x, y), cell, (ox, oy) = quantize(
                float(rng.uniform(0, 5000)), float(rng.uniform(0, 5000)), r
            )
            assert 0.0 <= ox < 1.0 and 0.0 <= oy < 1.0
            assert (cell.col + ox) * r == pytest.approx(x, abs=1e-9)
            assert (cell.row + oy) * r == pytest.approx(y, abs=1e-9)

    @given(st.floats(0, 1e7), st.floats(0, 1e7), st.integers(1, 16))
    def test_offset_in_unit_range_and_reconstructs(self, x, y, r):
        (x, y), cell, (ox, oy) = quantize(x, y, r)
        assert 0.0 <= ox < 1.0 and 0.0 <= oy < 1.0
        assert (cell.col + ox) * r == pytest.approx(x, rel=1e-12)
        assert (cell.row + oy) * r == pytest.approx(y, rel=1e-12)


class TestCornersFromTop:
    def test_reference_round_trip(self):
        assert _corners(30, 30, 40, 100) == (10, 20, 50, 120)

    def test_small_round_trip(self):
        assert _corners(1, 1, 2, 10) == (0, 0, 2, 10)

    def test_fractional(self):
        x1, y1, x2, y2 = _corners(7, 7.5, 3, 5)
        assert (x1, y1, x2, y2) == pytest.approx((5.5, 7, 8.5, 12), abs=1e-12)

    def test_box_round_trip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            box = BBox(
                float(rng.uniform(0, 1000)),
                float(rng.uniform(0, 1000)),
                float(rng.uniform(0.1, 300)),
                float(rng.uniform(0.1, 300)),
            )
            x, y = top_of(box.x1, box.y1, box.w, box.h)
            x1, y1, x2, y2 = _corners(x, y, box.w, box.h)
            assert x1 == pytest.approx(box.x1, abs=1e-9)
            assert y1 == pytest.approx(box.y1, abs=1e-9)
            assert x2 == pytest.approx(box.x2, abs=1e-9)
            assert y2 == pytest.approx(box.y2, abs=1e-9)


# sizes from the subnormal floats up to near the largest one, anchors and
# corners in a range whose far edges stay finite
sizes = st.one_of(
    st.floats(5e-324, 1e-300), st.floats(1e-3, 1e4), st.floats(1e307, 1.7e308)
)
places = st.floats(-1e6, 1e6)
quads = st.lists(st.tuples(places, places, sizes, sizes), min_size=1, max_size=8)


class TestTopOf:
    """`top_of` and its inverse give the same floats at every site, bit for bit."""

    @given(quads)
    @example([(0.5, -3.0, 5e-324, 1.7e308)])
    def test_columns_equal_each_box(self, boxes):
        xs, ys = top_of(*np.array(boxes).T)
        want = list(zip(*(top_of(*b) for b in boxes)))
        assert np.array([xs, ys]).tobytes() == np.array(want).tobytes()

    @given(quads)
    @example([(1e6, -1e6, 1.7e308, 5e-324)])
    def test_top_boxes_are_the_corners_as_extents(self, anchors):
        want = []
        for x, y, w, h in anchors:
            x1, y1, x2, y2 = _corners(x, y, w, h)
            want.append((x1, y1, x2 - x1, y2 - y1))
        got = top_boxes(*map(list, zip(*anchors)))
        assert np.array(got).tobytes() == np.array(want).tobytes()


class TestDetectionAndConfig:
    def test_detection_validation(self):
        with pytest.raises(ValueError):
            Detection(TopPoint(1, 1), GridPoint(0, 0), (0, 5), 0.5, 0, (0, 0))
        with pytest.raises(ValueError):
            Detection(TopPoint(1, 1), GridPoint(0, 0), (5, 5), 1.5, 0, (0, 0))

    def test_config_defaults(self):
        cfg = PipelineConfig()
        assert cfg.downsample == 4
        assert cfg.max_peaks == 100
        assert cfg.score_threshold == 0.4
        assert cfg.gate_scale == 1.0
        assert cfg.size_loss_weight == 0.1
        assert (cfg.focal_alpha, cfg.focal_beta) == (2.0, 4.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"downsample": 0},
            {"max_peaks": 0},
            {"score_threshold": 1.5},
            {"num_classes": 0},
            {"gate_scale": 0.0},
            {"size_loss_weight": 0.0},
            # NaN fails every comparison, so a check written as `x <= 0` lets it
            # through and a NaN gate then matches nothing
            {"gate_scale": math.nan},
            {"size_loss_weight": math.nan},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            PipelineConfig(**kwargs)

    def test_replace_runs_the_config_check(self):
        with pytest.raises(ValueError, match="^max_peaks must be >= 1$"):
            PipelineConfig()._replace(max_peaks=0)
