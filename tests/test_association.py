import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peaktrack import (
    BBox,
    CorruptionConfig,
    Detection,
    FrameAnnotations,
    GridPoint,
    HeadOutput,
    ObjectAnnotation,
    PipelineConfig,
    TopPoint,
    TrackerState,
    association,
    corrupt,
    geometry,
    greedy_match,
    hungarian_match,
    simulator,
    step,
)
from peaktrack.assignment import linear_sum_assignment
from peaktrack.association import Track, TrackColumns, _gated_pairs, _predicted, advance
from peaktrack.geometry import Detections
from peaktrack.heatmap import decode_columns

from .conftest import make_detection, make_track, match_cost, random_instance
from .oracles import assignment_oracle, euclid, greedy_oracle


def dense_big_m_matches(tracks, dets, gate_scale):
    """Hungarian matches by one dense solve, the reference for the pair-based matcher.

    Every (track, detection) distance is computed; a pair across classes or
    beyond the gate costs more than all allowed pairs together, so the
    solver first keeps the most allowed pairs, then the least distance.
    Matches are sorted by detection index.
    """
    last = np.array([(t.last_top.x, t.last_top.y) for t in tracks]).reshape(-1, 2)
    prev = np.array(_predicted(Detections.of(dets))).T.reshape(-1, 2)
    dist = np.hypot(last[:, None, 0] - prev[None, :, 0], last[:, None, 1] - prev[None, :, 1])
    gate = gate_scale * np.array([max(d.size) for d in dets], dtype=float)
    same_class = np.array([t.class_id for t in tracks])[:, None] == np.array(
        [d.class_id for d in dets]
    )
    allowed = same_class & (dist <= gate)
    if not allowed.any():
        return []
    big = float(dist[allowed].sum()) + 1.0
    rows, cols = linear_sum_assignment(np.where(allowed, dist, big).tolist())
    matches = [(tracks[ti].id, di) for ti, di in zip(rows, cols) if allowed[ti, di]]
    matches.sort(key=lambda pair: pair[1])
    return matches


def dense_gated_pairs(tracks, dets, gate_scale):
    """(track index, detection index) of the pairs allowed to match, by one
    numpy kernel over every pair: the reference for `_gated_pairs`, which
    measures only the tracks in the square around a detection's gate.  Pairs
    come in np.nonzero's order, ascending (track, detection)."""
    last = np.array([(t.last_top.x, t.last_top.y) for t in tracks]).reshape(-1, 2)
    prev = np.array(_predicted(Detections.of(dets))).T.reshape(-1, 2)
    with np.errstate(over="ignore"):  # 1e308 - -1e308 is inf, as in Python
        dist = np.hypot(last[:, None, 0] - prev[None, :, 0], last[:, None, 1] - prev[None, :, 1])
        gate = gate_scale * np.array([max(d.size) for d in dets], dtype=float)
    same_class = np.array([t.class_id for t in tracks], dtype=int)[:, None] == np.array(
        [d.class_id for d in dets], dtype=int
    )
    ti, di = np.nonzero(same_class & (dist <= gate))
    return list(zip(ti.tolist(), di.tolist())), dist[ti, di].tolist()


# small integers make ties and points exactly on the gate; the extremes make
# differences that overflow to inf
COORDS = st.one_of(
    st.integers(-40, 40).map(float),
    st.sampled_from([-1e308, 1e308, -0.0, 5e-324]),
    st.floats(-1e308, 1e308),
)
SIDES = st.one_of(st.integers(1, 40).map(float), st.floats(5e-324, 1e308))
GATE_SCALES = st.one_of(
    st.sampled_from([5e-324, 1e-310, 0.5, 1.0, 1e300, 1e308]), st.floats(5e-324, 1e308)
)


@st.composite
def gating_instances(draw):
    classes = draw(st.integers(1, 3))
    tracks = [
        Track(i + 1, draw(st.integers(0, classes - 1)), TopPoint(draw(COORDS), draw(COORDS)))
        for i in range(draw(st.integers(0, 6)))
    ]
    dets = []
    for _ in range(draw(st.integers(0, 6))):
        disp = draw(st.one_of(st.just((0.0, 0.0)), st.tuples(*[st.integers(-9, 9).map(float)] * 2)))
        if tracks and draw(st.booleans()):
            # on the gate of gate_scale 1 exactly: (3, 4) * k from a track, 5k the
            # larger side; the last three are on it in y, one inside and two outside
            track = draw(st.sampled_from(tracks))
            k = draw(st.sampled_from([1.0, 2.0, 0.5]))
            offsets = [(3, 4), (-4, 3), (5, 0), (0, -5), (0, 5), (1, -5), (-2, 5)]
            sx, sy = draw(st.sampled_from(offsets))
            x, y = track.last_top.x + sx * k + disp[0], track.last_top.y + sy * k + disp[1]
            size = (5 * k, draw(st.sampled_from([1.0, 5 * k])))
        else:
            x, y, size = draw(COORDS), draw(COORDS), (draw(SIDES), draw(SIDES))
        top = TopPoint(x, y)
        cls = draw(st.integers(0, classes - 1))
        dets.append(Detection(top, GridPoint(0, 0), size, draw(st.floats(0, 1)), cls, disp))
    return tracks, dets, draw(st.one_of(st.just(1.0), GATE_SCALES))


class TestGatedPairs:
    @settings(max_examples=400, deadline=None)
    @given(instance=gating_instances())
    @example(instance=([], [], 1.0))
    @example(
        instance=(
            [Track(1, 0, TopPoint(0.0, 0.0)), Track(2, 0, TopPoint(-1e308, 1e308))],
            [Detection(TopPoint(1e308, -1e308), GridPoint(0, 0), (1e308, 1.0), 1.0, 0, (0.0, 0.0))],
            1e308,
        )
    )
    # the offset 2**-52 - (-1 + 2**-53) rounds to exactly 1.0, the gate, though
    # the track lies beyond px + gate = 2**-53 as computed: once per axis
    @example(
        instance=(
            [Track(1, 0, TopPoint(2.0**-52, 0.0))],
            [Detection(TopPoint(-1 + 2.0**-53, 0.0), GridPoint(0, 0), (1.0, 1.0), 1.0, 0, (0, 0))],
            1.0,
        )
    )
    @example(
        instance=(
            [Track(1, 0, TopPoint(0.0, 2.0**-52))],
            [Detection(TopPoint(0.0, -1 + 2.0**-53), GridPoint(0, 0), (1.0, 1.0), 1.0, 0, (0, 0))],
            1.0,
        )
    )
    def test_same_pairs_in_the_same_order_as_the_dense_kernel(self, instance):
        tracks, dets, gate_scale = instance
        got = _gated_pairs(TrackColumns.of(tracks), Detections.of(dets), gate_scale)
        want, dist = dense_gated_pairs(tracks, dets, gate_scale)
        assert list(got) == want
        # math.hypot and np.hypot may differ in the last bit
        np.testing.assert_allclose(list(got.values()), dist, rtol=1e-15, atol=1e-300)

    def test_points_on_the_gate_are_kept(self):
        tracks = [
            make_track(1, 10.0, 10.0),
            make_track(2, 20.0, 30.0),
            make_track(3, 60.0, 9.0),
            make_track(4, 100.0, 10.0),
            make_track(5, 150.0, 10.0),
        ]
        # 5 (7 for the last two) from one track each, the detections' larger
        # side; the third on the x edge, the second and the fourth on the y
        # edge, and the last on the y edge one pixel beside it, so outside
        dets = [
            make_detection(13.0, 14.0, w=5.0, h=5.0),
            make_detection(20.0, 25.0, w=5.0, h=2.0),
            make_detection(55.0, 9.0, w=1.0, h=5.0),
            make_detection(100.0, 17.0, w=7.0, h=3.0),
            make_detection(151.0, 3.0, w=3.0, h=7.0),
        ]
        columns = TrackColumns.of(tracks), Detections.of(dets)
        assert list(_gated_pairs(*columns, 1.0)) == [(0, 0), (1, 1), (2, 2), (3, 3)]
        assert list(_gated_pairs(*columns, 0.999)) == []


class TestPredictPrev:
    def test_subtracts_displacement(self):
        d = make_detection(11, 11, disp=(1, 1))
        assert _predicted(Detections.of([d])) == ([10], [10])

    def test_zero_displacement(self):
        d = make_detection(33, 44)
        assert _predicted(Detections.of([d])) == ([33], [44])

    def test_preserves_order(self, rng):
        dets = [make_detection(float(i), float(2 * i), disp=(1, -1)) for i in range(7)]
        xs, _ = _predicted(Detections.of(dets))
        assert xs == [float(i) - 1 for i in range(7)]


class TestGreedyMatch:
    def test_exact_hit(self):
        tracks = [make_track(1, 10, 10)]
        dets = [make_detection(10, 10)]
        matches, ut, ud = greedy_match(tracks, dets, 1.0)
        assert matches == [(1, 0)] and ut == [] and ud == []

    def test_gate_blocks_distant_pair(self):
        tracks = [make_track(1, 0, 0)]
        dets = [make_detection(100, 100, w=10, h=10)]  # gate 10, distance ~141
        matches, ut, ud = greedy_match(tracks, dets, 1.0)
        assert matches == [] and ut == [1] and ud == [0]

    def test_score_order_wins_contested_track(self):
        tracks = [make_track(1, 50, 50)]
        dets = [
            make_detection(52, 50, score=0.6),
            make_detection(51, 50, score=0.9),
        ]
        matches, _, ud = greedy_match(tracks, dets, 1.0)
        assert matches == [(1, 1)]
        assert ud == [0]

    def test_class_mismatch_never_matches(self):
        tracks = [make_track(1, 10, 10, class_id=0)]
        dets = [make_detection(10, 10, class_id=1)]
        matches, ut, ud = greedy_match(tracks, dets, 1.0)
        assert matches == []

    def test_matches_quadratic_scan_oracle(self, rng):
        for trial in range(300):
            n, m = int(rng.integers(0, 9)), int(rng.integers(0, 9))
            classes = int(rng.integers(1, 3))
            tracks, dets = random_instance(rng, n, m, classes=classes)
            gate_scale = float(rng.choice([0.5, 1.0, 2.0, 1e9]))
            got = greedy_match(tracks, dets, gate_scale)
            expected = greedy_oracle(tracks, dets, gate_scale)
            assert got == expected

    def test_distance_tie_goes_to_earliest_track(self):
        tracks = [make_track(1, 0, 0), make_track(2, 20, 0)]
        dets = [make_detection(10, 0)]  # 10 px from both, gate 30
        matches, ut, ud = greedy_match(tracks, dets, 1.0)
        assert matches == [(1, 0)] and ut == [2] and ud == []


class TestHungarianMatch:
    def test_two_by_two_optimum(self):
        # distances: [[1, 2], [2, 1]] -> diagonal pairing, total 2
        tracks = [make_track(1, 0, 0), make_track(2, 3, 0)]
        dets = [make_detection(1, 0, w=50, h=50), make_detection(2, 0, w=50, h=50)]
        matches, ut, ud = hungarian_match(tracks, dets, 1.0)
        assert matches == [(1, 0), (2, 1)]
        assert match_cost(tracks, dets, matches) == pytest.approx(2.0)

    def test_all_pairs_gated_out(self):
        tracks = [make_track(1, 0, 0), make_track(2, 10, 0)]
        dets = [make_detection(500, 500, w=5, h=5), make_detection(600, 600, w=5, h=5)]
        matches, ut, ud = hungarian_match(tracks, dets, 1.0)
        assert matches == [] and ut == [1, 2] and ud == [0, 1]

    def test_matches_exhaustive_oracle(self, rng):
        for trial in range(300):
            n, m = int(rng.integers(0, 8)), int(rng.integers(0, 8))
            # with more classes than one the pairs split into per-class components
            classes = int(rng.integers(1, 4))
            tracks, dets = random_instance(rng, n, m, classes=classes)
            gate_scale = float(rng.choice([0.8, 1.5, 1e9]))
            matches, _, _ = hungarian_match(tracks, dets, gate_scale)
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
            assert len(matches) == best_card
            assert match_cost(tracks, dets, matches) == pytest.approx(best_cost, abs=1e-9)

    def test_matches_dense_big_m_reference(self, rng):
        # Solving each component of the gated pairs gives the very pairs of
        # one dense solve where a forbidden pair costs more than all allowed
        # pairs together, not only the same total.
        for trial in range(150):
            n, m = int(rng.integers(0, 41)), int(rng.integers(0, 41))
            classes = int(rng.integers(1, 4))
            tracks, dets = random_instance(rng, n, m, classes=classes)
            gate_scale = float(rng.choice([0.8, 1.5, 1e9]))
            matches, _, _ = hungarian_match(tracks, dets, gate_scale)
            assert matches == dense_big_m_matches(tracks, dets, gate_scale)

    def test_cost_never_above_greedy_when_ungated(self, rng):
        for trial in range(200):
            n = int(rng.integers(1, 8))
            tracks, dets = random_instance(rng, n, n)
            h_matches, _, _ = hungarian_match(tracks, dets, 1e9)
            g_matches, _, _ = greedy_match(tracks, dets, 1e9)
            assert len(h_matches) == len(g_matches) == n
            assert match_cost(tracks, dets, h_matches) <= match_cost(
                tracks, dets, g_matches
            ) + 1e-9

    def test_unbounded_gate_gives_perfect_matching(self, rng):
        n = 6
        tracks, dets = random_instance(rng, n, n)
        for fn in (greedy_match, hungarian_match):
            matches, ut, ud = fn(tracks, dets, 1e12)
            assert len(matches) == n and ut == [] and ud == []
            assert len({t for t, _ in matches}) == n
            assert len({d for _, d in matches}) == n

    def test_injective_and_deterministic(self, rng):
        tracks, dets = random_instance(rng, 7, 5)
        for fn in (greedy_match, hungarian_match):
            first = fn(tracks, dets, 1.5)
            again = fn(tracks, dets, 1.5)
            assert first == again
            matches = first[0]
            assert len({t for t, _ in matches}) == len(matches)
            assert len({d for _, d in matches}) == len(matches)


class TestStep:
    def test_fresh_detections_spawn_ids_in_order(self):
        state = TrackerState()
        dets = [make_detection(10, 10), make_detection(50, 50), make_detection(90, 90)]
        out = step(state, dets, PipelineConfig())
        assert [o.track_id for o in out] == [1, 2, 3]

    def test_repeat_keeps_identities(self):
        state = TrackerState()
        dets = [make_detection(10, 10), make_detection(50, 50), make_detection(90, 90)]
        step(state, dets, PipelineConfig())
        out = step(state, dets, PipelineConfig())
        assert [o.track_id for o in out] == [1, 2, 3]
        assert state.next_id == 4

    def test_missed_track_deleted_and_id_never_reused(self):
        state = TrackerState()
        cfg = PipelineConfig()
        step(state, [make_detection(10, 10)], cfg)
        step(state, [], cfg)  # track 1 unmatched -> deleted
        assert state.active == []
        out = step(state, [make_detection(10, 10)], cfg)
        assert [o.track_id for o in out] == [2]

    def test_history_frames_strictly_increase(self, rng):
        state = TrackerState()
        cfg = PipelineConfig()
        frames_by_id: dict[int, list[int]] = {}
        for frame in range(12):
            dets = [
                make_detection(
                    10.0 + frame + 40 * k, 10.0 + 30 * k, disp=(1.0 if frame else 0.0, 0.0)
                )
                for k in range(3)
                if (frame + k) % 5  # gaps kill tracks and birth new ids
            ]
            for row in step(state, dets, cfg):
                frames_by_id.setdefault(row.track_id, []).append(frame)
        assert len(frames_by_id) > 3
        for frames in frames_by_id.values():
            assert frames == list(range(frames[0], frames[0] + len(frames)))

    def test_no_duplicate_ids_per_frame(self, rng):
        state = TrackerState()
        cfg = PipelineConfig()
        for frame in range(8):
            dets = [
                make_detection(float(rng.uniform(0, 300)), float(rng.uniform(0, 300)))
                for _ in range(int(rng.integers(0, 6)))
            ]
            out = step(state, dets, cfg)
            ids = [o.track_id for o in out]
            assert len(set(ids)) == len(ids)

    def test_point_and_box_rules_hold_for_every_row(self):
        cfg = PipelineConfig()
        # the predicted previous position, x - dx, is beyond float64
        with pytest.raises(ValueError, match=r"^TopPoint must be finite, got inf$"):
            step(TrackerState(), [make_detection(1e308, 10.0, disp=(-1e308, 0.0))], cfg)
        # the box's width, x2 - x1, is beyond float64
        with pytest.raises(ValueError, match=r"^BBox must be finite, got inf$"):
            dets = [make_detection(10.0, 10.0), make_detection(1.5e308, 9.0, w=1e308)]
            step(TrackerState(), dets, cfg)

    def test_unknown_matcher_rejected(self):
        with pytest.raises(ValueError):
            step(TrackerState(), [], PipelineConfig(), matcher="optimal")

    def test_hungarian_matcher_runs(self):
        state = TrackerState()
        cfg = PipelineConfig()
        step(state, [make_detection(10, 10)], cfg, matcher="hungarian")
        out = step(state, [make_detection(11, 10, disp=(1, 0))], cfg, matcher="hungarian")
        assert [o.track_id for o in out] == [1]


def test_column_path_words_its_errors_without_views(monkeypatch):
    """`advance`, `decode_columns` and `corrupt` raise `TopPoint`'s and `BBox`'s
    messages for a broken rule without building a `TopPoint` or a `BBox`."""
    # predicted positions (10, -inf) then (inf, 10): the first pair is reported
    first = make_detection(10.0, -1e308, disp=(0.0, 1e308))
    dets = Detections.of([first, make_detection(1e308, 10.0, disp=(-1e308, 0.0))])
    # anchors (4, -inf) at the 0.9 peak, then (inf, 4) at the 0.8 peak
    shape = (4, 4)
    heatmap, offset = np.zeros(shape + (1,)), np.zeros(shape + (2,))
    heatmap[1, 1, 0], heatmap[1, 3, 0] = 0.9, 0.8
    offset[1, 1, 1], offset[1, 3, 0] = -1e308, 1e308
    head = HeadOutput(heatmap, np.full(shape + (2,), 8.0), offset, np.zeros(shape + (2,)), 4)
    ann = FrameAnnotations(1, (ObjectAnnotation(1, 0, BBox(10, 10, 8, 8)),))

    def no_view(*args):
        raise AssertionError("the column path built a view")

    monkeypatch.setattr(association, "TopPoint", no_view)
    monkeypatch.setattr(geometry, "TopPoint", no_view)
    monkeypatch.setattr(simulator, "BBox", no_view)
    with pytest.raises(ValueError, match=r"^TopPoint must be finite, got -inf$"):
        advance(TrackerState(), dets, PipelineConfig())
    with pytest.raises(ValueError, match=r"^TopPoint must be finite, got -inf$"):
        decode_columns(head, PipelineConfig())
    # seed 3 draws a shift that takes the box's left edge to -inf
    jitter = CorruptionConfig(jitter_sigma=1e308)
    with pytest.raises(ValueError, match=r"^BBox must be finite, got -inf$"):
        corrupt(ann, None, (64, 64), 4, jitter, rng=np.random.default_rng(3))
