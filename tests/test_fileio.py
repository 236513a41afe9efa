import dataclasses
import struct
import typing

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from peaktrack import (
    BBox,
    FileFormatError,
    MotRow,
    MotTable,
    list_head_frames,
    read_grid,
    read_head_outputs,
    read_mot_file,
    read_mot_table,
    read_sparse_grid,
    rows_to_frames,
    write_grid,
    write_head_outputs,
    write_mot_file,
)
from peaktrack.config import ConfigError, ConfigFile
from peaktrack.fileio import GRID_MAGIC, SPARSE_GRID_MAGIC, SparseGrid
from peaktrack.geometry import PipelineConfig
from peaktrack.heatmap import FrameAnnotations, HeadOutput, ObjectAnnotation
from peaktrack.simulator import CorruptionConfig, SceneConfig, corrupt

from .oracles import mot_rows_oracle


class TestGridFile:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        grid = rng.normal(size=(6, 9, 3)).astype(np.float32).astype(np.float64)
        path = tmp_path / "g.grid"
        write_grid(path, grid)
        back = read_grid(path)
        assert back.shape == (6, 9, 3)
        np.testing.assert_array_equal(back, grid)
        # rewriting the read data reproduces the file byte for byte
        write_grid(tmp_path / "g2.grid", back)
        assert (tmp_path / "g2.grid").read_bytes() == path.read_bytes()

    def test_header_layout(self, tmp_path):
        write_grid(tmp_path / "g.grid", np.ones((2, 3, 4)))
        data = (tmp_path / "g.grid").read_bytes()
        assert data[:7] == GRID_MAGIC
        assert np.frombuffer(data[7:19], dtype="<u4").tolist() == [2, 3, 4]
        assert len(data) == 19 + 4 * 2 * 3 * 4

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.grid"
        p.write_bytes(b"NOTGRID" + b"\x00" * 40)
        with pytest.raises(FileFormatError, match="magic"):
            read_grid(p)

    def test_truncated_payload_reports_byte_counts(self, tmp_path):
        p = tmp_path / "g.grid"
        write_grid(p, np.ones((4, 4, 1)))
        data = p.read_bytes()
        p.write_bytes(data[:-8])
        with pytest.raises(FileFormatError, match=r"expected 83 bytes, got 75"):
            read_grid(p)

    def test_zero_dims_rejected(self, tmp_path):
        p = tmp_path / "g.grid"
        import struct

        p.write_bytes(GRID_MAGIC + struct.pack("<III", 0, 3, 1))
        with pytest.raises(FileFormatError, match="dims"):
            read_grid(p)

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_grid(tmp_path / "g.grid", np.full((2, 2, 1), np.nan))

    @pytest.mark.parametrize("fill", [1e39, 0.0], ids=["dense", "sparse"])
    def test_value_beyond_float32_range_rejected(self, tmp_path, fill):
        # finite as float64, infinite once stored as float32
        grid = np.full((4, 4, 1), fill)
        grid[1, 2, 0] = -1e39
        with pytest.raises(ValueError, match="non-finite"):
            write_grid(tmp_path / "g.grid", grid)
        assert not (tmp_path / "g.grid").exists()

    def test_non_finite_in_file_is_format_error(self, tmp_path):
        p = tmp_path / "g.grid"
        write_grid(p, np.ones((2, 2, 1)))
        data = bytearray(p.read_bytes())
        data[-4:] = np.array([np.nan], dtype="<f4").tobytes()
        p.write_bytes(bytes(data))
        with pytest.raises(FileFormatError, match="g.grid: grid contains non-finite"):
            read_grid(p)


# a 2x3x2 grid holding 1.5 at (0, 1, 1) and -2.0 at (1, 2, 0), byte by byte
SPARSE_FIXTURE = (
    b"TTGRID2"
    + bytes.fromhex("02000000" "03000000" "02000000")  # height, width, channels
    + bytes.fromhex("02000000")  # k
    + bytes.fromhex("03000000" "0a000000")  # flat indices 3 and 10
    + bytes.fromhex("0000c03f" "000000c0")  # float32 1.5 and -2.0
)


def sparse_file(shape, index, values):
    """A TTGRID2 file's bytes, built field by field."""
    return (
        SPARSE_GRID_MAGIC
        + struct.pack("<III", *shape)
        + struct.pack("<I", len(index))
        + np.asarray(index, dtype="<u4").tobytes()
        + np.asarray(values, dtype="<f4").tobytes()
    )


class TestSparseGridFile:
    def test_fixture_reads_back(self, tmp_path):
        p = tmp_path / "g.grid"
        p.write_bytes(SPARSE_FIXTURE)
        expected = np.zeros((2, 3, 2))
        expected[0, 1, 1] = 1.5
        expected[1, 2, 0] = -2.0
        back = read_grid(p)
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, expected)

    def test_writer_produces_fixture(self, tmp_path):
        grid = np.zeros((2, 3, 2))
        grid[0, 1, 1] = 1.5
        grid[1, 2, 0] = -2.0
        write_grid(tmp_path / "g.grid", grid)
        assert (tmp_path / "g.grid").read_bytes() == SPARSE_FIXTURE

    def test_size_rule_ties_stay_dense(self, tmp_path):
        # 1 x 3 x 1 with one value: sparse needs 4 + 8 = 12 bytes, dense 12
        write_grid(tmp_path / "g.grid", np.array([[[0.0], [7.0], [0.0]]]))
        data = (tmp_path / "g.grid").read_bytes()
        assert data[:7] == GRID_MAGIC and len(data) == 19 + 12
        # one more zero cell makes sparse the smaller payload
        write_grid(tmp_path / "g.grid", np.array([[[0.0], [7.0], [0.0], [0.0]]]))
        data = (tmp_path / "g.grid").read_bytes()
        assert data[:7] == SPARSE_GRID_MAGIC and len(data) == 19 + 12

    @pytest.mark.parametrize(
        "data, message",
        [
            (SPARSE_FIXTURE[:-4], r"expected 39 bytes for 2 values, got 35"),
            (SPARSE_FIXTURE + b"\0" * 8, r"expected 39 bytes for 2 values, got 47"),
            (SPARSE_FIXTURE[:21], r"truncated header, expected 23 bytes, got 21"),
            (sparse_file((2, 3, 2), [3, 12], [1.0, 2.0]), r"index 12 out of range for 2x3x2"),
            (sparse_file((2, 3, 2), [3, 3], [1.0, 2.0]), r"not strictly ascending"),
            (sparse_file((2, 3, 2), [10, 3], [1.0, 2.0]), r"not strictly ascending"),
            (sparse_file((2, 3, 2), [3, 10], [1.0, np.inf]), r"non-finite"),
            (sparse_file((2, 3, 2), [3, 10], [np.nan, 1.0]), r"non-finite"),
        ],
        ids=["short", "long", "no-count", "index-range", "repeated", "descending", "inf", "nan"],
    )
    def test_malformed_is_format_error_naming_file(self, tmp_path, data, message):
        p = tmp_path / "bad.grid"
        p.write_bytes(data)
        with pytest.raises(FileFormatError, match=rf"bad\.grid: .*{message}"):
            read_grid(p)

    @pytest.mark.parametrize(
        "data",
        [
            GRID_MAGIC + struct.pack("<III", 0, 3, 1) + b"\0" * 8,
            sparse_file((0, 3, 1), [5, 1], [1.0]),
            SPARSE_GRID_MAGIC + struct.pack("<III", 0, 3, 1),
        ],
        ids=["dense-long", "sparse-malformed", "sparse-no-count"],
    )
    def test_zero_dims_are_reported_before_the_payload(self, tmp_path, data):
        p = tmp_path / "bad.grid"
        p.write_bytes(data)
        with pytest.raises(FileFormatError, match=r"bad\.grid: invalid dims 0x3x1$"):
            read_grid(p)

    def test_unallocatable_header_is_format_error_naming_file(self, tmp_path):
        # 23 bytes: k = 0 passes every sparse check, but 65535**3 float64
        # cells are 2 PiB, which numpy refuses without touching memory
        p = tmp_path / "huge.grid"
        p.write_bytes(sparse_file((65535, 65535, 65535), [], []))
        assert p.stat().st_size == 23
        with pytest.raises(
            FileFormatError, match=r"huge\.grid: cannot allocate a 65535x65535x65535 grid"
        ):
            read_grid(p)

    def test_header_beyond_numpy_array_size_is_format_error_naming_file(self, tmp_path):
        # 4294967295**3 cells are more than numpy can index: a ValueError, not
        # a MemoryError, from the allocation probe
        p = tmp_path / "huge.grid"
        p.write_bytes(sparse_file((2**32 - 1,) * 3, [], []))
        assert p.stat().st_size == 23
        dims = "x".join(["4294967295"] * 3)
        with pytest.raises(FileFormatError, match=rf"huge\.grid: cannot allocate a {dims} grid$"):
            read_sparse_grid(p)


class TestSparseGrid:
    @pytest.mark.parametrize(
        "shape, index, values, message",
        [
            # the lookup would miss the 0.9 beside the 0.5, a second peak
            ((4, 4, 1), [9, 5], [0.9, 0.5], "not strictly ascending"),
            ((4, 4, 1), [5, 5], [0.9, 0.5], "not strictly ascending"),
            ((4, 4, 1), [-1, 5], [0.9, 0.5], r"index -1 out of range for 4x4x1 grid"),
            ((4, 4, 1), [5, 20], [0.9, 0.5], r"index 20 out of range for 4x4x1 grid"),
            ((4, 4, 1), [5, 9], [0.9], "2 indices but 1 values"),
            ((4, 4, 1), [5], [0.9, 0.5], "1 indices but 2 values"),
            ((4, 0, 1), [], [], "invalid dims 4x0x1"),
            ((4, 4), [5], [0.9], "invalid dims 4x4"),
            ((4, 4, 1), [[5]], [[0.9]], "1-D integer array"),
            ((4, 4, 1), [5.0], [0.9], "1-D integer array"),
        ],
        ids=[
            "descending", "repeated", "negative", "out-of-range", "short-values",
            "long-values", "zero-dim", "two-dims", "2-d-index", "float-index",
        ],
    )
    def test_bad_structure_fails_at_construction(self, shape, index, values, message):
        with pytest.raises(ValueError, match=message):
            SparseGrid(shape, np.array(index), np.array(values))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_of_keeps_the_cells_whose_bits_are_not_zero(self, dtype):
        tiny = np.finfo(dtype).smallest_subnormal
        grid = np.zeros((2, 3, 2), dtype=dtype)
        grid[0, 1, 1], grid[1, 0, 0], grid[1, 2, 1] = -0.0, tiny, 0.5
        cells = SparseGrid.of(grid)
        assert cells.shape == (2, 3, 2) and cells.values.dtype == np.float64
        np.testing.assert_array_equal(cells.index, [3, 6, 11])
        assert [repr(v) for v in cells.values.tolist()] == [repr(-0.0), repr(float(tiny)), "0.5"]


F32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
TINY = float(np.finfo(np.float32).smallest_subnormal)
SPECIAL = st.sampled_from(
    [0.0, -0.0, TINY, -TINY, 1000 * TINY, float(np.finfo(np.float32).max), 1.0]
)
SHAPES = st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 4))


@st.composite
def sparse_grids(draw, elements=F32):
    """Zero grids with a drawn set of cells, from none to all, holding `elements`."""
    shape = draw(SHAPES)
    size = int(np.prod(shape))
    index = draw(st.lists(st.integers(0, size - 1), unique=True, max_size=size))
    grid = np.zeros(size, dtype=np.float32)
    grid[index] = draw(st.lists(elements, min_size=len(index), max_size=len(index)))
    return grid.reshape(shape)


def bits(grid):
    return np.asarray(grid, dtype=np.float32).view(np.uint32)


def assert_round_trip(path, grid):
    """Bit-exact round trip, in the smaller of the two payloads."""
    write_grid(path, grid)
    back = read_grid(path)
    assert back.dtype == np.float64 and back.shape == grid.shape
    np.testing.assert_array_equal(bits(back), bits(grid))
    k = np.count_nonzero(bits(grid))
    assert path.stat().st_size == 19 + min(4 * grid.size, 4 + 8 * k)


ROUND_TRIP = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestGridRoundTrip:
    @ROUND_TRIP
    @given(grid=st.one_of(arrays(np.float32, SHAPES, elements=F32), sparse_grids()))
    @example(grid=np.zeros((3, 4, 2), dtype=np.float32))
    @example(grid=np.ones((3, 4, 2), dtype=np.float32))
    def test_random_grids(self, tmp_path, grid):
        assert_round_trip(tmp_path / "g.grid", grid)

    @ROUND_TRIP
    @given(grid=st.one_of(arrays(np.float32, SHAPES, elements=SPECIAL), sparse_grids(SPECIAL)))
    def test_negative_zero_and_denormals(self, tmp_path, grid):
        assert_round_trip(tmp_path / "g.grid", grid)

    @ROUND_TRIP
    @given(grid=st.one_of(arrays(np.float32, SHAPES, elements=SPECIAL), sparse_grids(SPECIAL)))
    def test_stored_cells_of_either_payload(self, tmp_path, grid):
        """The parser keeps the cells whose float32 bits are not zero, and `.dense()`
        is the float32 grid, whichever payload holds it."""
        nonzero = np.flatnonzero(bits(grid))
        header = struct.pack("<III", *grid.shape)
        payloads = {
            "written": None,
            "dense": GRID_MAGIC + header + grid.astype("<f4").tobytes(),
            "sparse": SPARSE_GRID_MAGIC
            + header
            + struct.pack("<I", nonzero.size)
            + nonzero.astype("<u4").tobytes()
            + grid.reshape(-1)[nonzero].astype("<f4").tobytes(),
        }
        for name, data in payloads.items():
            path = tmp_path / f"{name}.grid"
            if data is None:
                write_grid(path, grid)
            else:
                path.write_bytes(data)
            cells = read_sparse_grid(path)
            assert cells.shape == grid.shape and cells.index.dtype == np.int64
            np.testing.assert_array_equal(cells.index, nonzero)
            np.testing.assert_array_equal(bits(cells.values), bits(grid).reshape(-1)[nonzero])
            dense = cells.dense()
            assert dense.dtype == np.float64
            np.testing.assert_array_equal(bits(dense), bits(grid))

    @settings(ROUND_TRIP, max_examples=10)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_noisy_heatmap(self, tmp_path, seed):
        ann = FrameAnnotations(1, (ObjectAnnotation(1, 0, BBox(40, 30, 24, 60)),))
        cfg = CorruptionConfig(fp_rate=1.0, hm_noise_sigma=0.05, seed=seed)
        head = corrupt(ann, None, (128, 128), 4, cfg)
        assert_round_trip(tmp_path / "g.grid", np.asarray(head.heatmap))
        assert_round_trip(tmp_path / "s.grid", np.asarray(head.size_map))


# float64 values finite in float32; a float64 denormal becomes 0.0 there
F64 = st.floats(-3.4e38, 3.4e38, allow_nan=False)


@st.composite
def stored_cells(draw, elements=st.one_of(F64, SPECIAL, st.sampled_from([5e-324, -5e-324]))):
    """`SparseGrid`s of a drawn set of cells, from none to all, holding `elements`."""
    shape = draw(SHAPES)
    size = int(np.prod(shape))
    index = draw(st.lists(st.integers(0, size - 1), unique=True, max_size=size))
    values = draw(st.lists(elements, min_size=len(index), max_size=len(index)))
    return SparseGrid(shape, np.array(sorted(index), dtype=np.int64), np.array(values))


class TestWriteSparseGrid:
    """`write_grid` of a `SparseGrid` writes the bytes of `write_grid` of its `.dense()`."""

    @ROUND_TRIP
    @given(grid=stored_cells())
    def test_same_bytes_as_dense(self, tmp_path, grid):
        write_grid(tmp_path / "sparse.grid", grid)
        write_grid(tmp_path / "dense.grid", grid.dense())
        assert (tmp_path / "sparse.grid").read_bytes() == (tmp_path / "dense.grid").read_bytes()

    @pytest.mark.parametrize(
        "value, stored",
        [(-0.0, True), (0.0, False), (5e-324, False), (-5e-324, True)],
        ids=["negative-zero", "zero", "denormal", "negative-denormal"],
    )
    @pytest.mark.parametrize(
        "shape, magic",
        [((8, 8, 2), SPARSE_GRID_MAGIC), ((2, 2, 1), GRID_MAGIC)],
        ids=["sparse", "dense"],
    )
    def test_stored_value_kept_by_its_float32_bits(self, tmp_path, value, stored, shape, magic):
        # a float64 denormal is 0.0 in float32 and is not stored; its negative is -0.0, which is
        grid = SparseGrid(shape, np.arange(4), np.array([value, 0.5, 0.5, 0.5]))
        path = tmp_path / "g.grid"
        write_grid(path, grid)
        write_grid(tmp_path / "dense.grid", grid.dense())
        data = path.read_bytes()
        assert data[:7] == magic and data == (tmp_path / "dense.grid").read_bytes()
        assert (0 in read_sparse_grid(path).index) == stored

    @pytest.mark.parametrize("shape", [(8, 8, 2), (2, 2, 1)], ids=["sparse", "dense"])
    def test_value_beyond_float32_range_rejected(self, tmp_path, shape):
        grid = SparseGrid(shape, np.arange(4), np.array([0.5, 1e39, 0.5, 0.5]))
        with pytest.raises(ValueError, match="non-finite"):
            write_grid(tmp_path / "g.grid", grid)
        assert not (tmp_path / "g.grid").exists()


class TestMotFile:
    def test_reference_row(self, tmp_path):
        p = tmp_path / "rows.txt"
        p.write_text("1,3,10,20,40,100,1,-1,-1\n")
        rows = read_mot_file(p)
        assert rows == [MotRow(1, 3, 10.0, 20.0, 40.0, 100.0, 1.0, -1, -1.0)]
        frames = rows_to_frames(rows)
        assert frames[1] == [(3, BBox(10, 20, 40, 100))]

    def test_round_trip_preserves_order(self, tmp_path):
        rows = [
            MotRow(2, 7, 1.5, 2.25, 10.0, 20.0, 0.875),
            MotRow(1, 3, 5.0, 6.0, 7.0, 8.0, 1.0),
            MotRow(1, 4, 9.0, 1.0, 2.0, 3.0, 0.5),
        ]
        p = tmp_path / "rows.txt"
        write_mot_file(p, rows)
        back = read_mot_file(p)
        assert [(r.frame, r.track_id) for r in back] == [(2, 7), (1, 3), (1, 4)]
        assert back[0].conf == pytest.approx(0.875)

    def test_wrong_column_count(self, tmp_path):
        p = tmp_path / "rows.txt"
        p.write_text("1,3,10,20,40,100,1,-1\n")
        with pytest.raises(FileFormatError, match="rows.txt:1"):
            read_mot_file(p)

    def test_unparsable_field_reports_line(self, tmp_path):
        p = tmp_path / "rows.txt"
        p.write_text("1,3,10,20,40,100,1,-1,-1\n2,x,1,1,1,1,1,-1,-1\n")
        with pytest.raises(FileFormatError, match="rows.txt:2"):
            read_mot_file(p)

    @pytest.mark.parametrize(
        "box", ["nan,20,40,100", "10,inf,40,100", "10,20,0,100", "10,20,40,-5"]
    )
    def test_bad_box_geometry_reports_line(self, tmp_path, box):
        p = tmp_path / "rows.txt"
        p.write_text(f"1,3,10,20,40,100,1,-1,-1\n2,3,{box},1,-1,-1\n")
        with pytest.raises(FileFormatError, match="rows.txt:2"):
            read_mot_file(p)

    def test_frame_zero_rejected(self, tmp_path):
        p = tmp_path / "rows.txt"
        p.write_text("0,3,10,20,40,100,1,-1,-1\n")
        with pytest.raises(FileFormatError, match="frame"):
            read_mot_file(p)

    def test_duplicate_id_in_file_reports_both_lines(self, tmp_path):
        p = tmp_path / "rows.txt"
        p.write_text(
            "1,3,10,20,40,100,1,-1,-1\n1,4,10,20,40,100,1,-1,-1\n"
            "2,3,10,20,40,100,1,-1,-1\n1,3,50,20,40,100,1,-1,-1\n"
        )
        with pytest.raises(
            FileFormatError, match="rows.txt:4: id 3 already appears in frame 1 at line 1"
        ):
            read_mot_file(p)


INT_FIELDS = {"frame": 0, "id": 1, "class": 7}


def mot_line(**fields):
    """A valid row's text with the named fields replaced."""
    parts = "1,3,10,20,40,100,1,-1,-1".split(",")
    for name, text in fields.items():
        parts[INT_FIELDS[name]] = text
    return ",".join(parts)


class TestMotTable:
    def test_columns(self, tmp_path):
        p = tmp_path / "rows.txt"
        p.write_text("2,7,1.5,2.25,10,20,0.875,3,0.5\n1,3,5,6,7,8,1,-1,-1\n")
        table = read_mot_table(p)
        assert isinstance(table, MotTable)
        for name in ("frame", "track_id", "class_id"):
            assert getattr(table, name).dtype == np.int64
        assert table.box.dtype == np.float64 and table.box.shape == (2, 4)
        np.testing.assert_array_equal(table.frame, [2, 1])
        np.testing.assert_array_equal(table.track_id, [7, 3])
        np.testing.assert_array_equal(table.class_id, [3, -1])
        np.testing.assert_array_equal(table.box, [[1.5, 2.25, 10, 20], [5, 6, 7, 8]])
        np.testing.assert_array_equal(table.conf, [0.875, 1.0])
        np.testing.assert_array_equal(table.visibility, [0.5, -1.0])
        assert table.rows() == read_mot_file(p)

    def test_frames_ascend_and_keep_file_order_within_a_frame(self, tmp_path):
        p = tmp_path / "rows.txt"
        p.write_text(
            "3,9,0,0,1,1,1,-1,-1\n1,5,1,0,1,1,1,-1,-1\n3,2,2,0,1,1,1,-1,-1\n"
            "1,4,3,0,1,1,1,-1,-1\n2,1,4,0,1,1,1,-1,-1\n"
        )
        frames = read_mot_table(p).frames()
        assert list(frames) == [1, 2, 3]
        assert [frames[f].ids for f in frames] == [[5, 4], [1], [9, 2]]
        np.testing.assert_array_equal(frames[3].boxes[:, 0], [0.0, 2.0])
        by_rows = rows_to_frames(read_mot_file(p))
        for f, cols in frames.items():
            assert cols.ids == [i for i, _ in by_rows[f]]
            assert cols.boxes.tolist() == [[b.x1, b.y1, b.w, b.h] for _, b in by_rows[f]]

    def test_empty_and_blank_files(self, tmp_path):
        p = tmp_path / "rows.txt"
        p.write_text(" \n\n\x0c\r\n")
        table = read_mot_table(p)
        assert table.box.shape == (0, 4) and table.frame.shape == (0,)
        assert table.rows() == [] and table.frames() == {}

    def test_form_feed_inside_a_line_does_not_split_it(self, tmp_path):
        p = tmp_path / "rows.txt"
        p.write_text("1,3,10,20,40,100,1,-1,-1\n\x0c2,3,10,\x0c20,40,100,1,-1,-1\x0c\n2,x ,0\n")
        with pytest.raises(FileFormatError, match=r"rows\.txt:3: expected 9"):
            read_mot_table(p)

    def test_first_bad_line_wins_over_a_later_one(self, tmp_path):
        p = tmp_path / "rows.txt"
        p.write_text(
            "1,3,10,20,40,100,1,-1,-1\n1,4,10,20,0,100,1,-1,-1\n"
            "1,3,10,20,40,100,1,-1\n2,x,1,1,1,1,1,-1,-1\n"
        )
        with pytest.raises(
            FileFormatError, match=r"rows\.txt:2: BBox extent must be positive, got w=0\.0"
        ):
            read_mot_table(p)


class TestMotIntegerFields:
    @pytest.mark.parametrize("field", list(INT_FIELDS))
    @pytest.mark.parametrize("text", ["inf", "-inf", "nan", "Infinity"])
    def test_non_finite_is_not_integral(self, tmp_path, field, text):
        p = tmp_path / "rows.txt"
        p.write_text(f"{mot_line()}\n{mot_line(**{field: text})}\n")
        with pytest.raises(FileFormatError) as exc:
            read_mot_file(p)
        assert str(exc.value) == f"{p}:2: {field} {text!r} is not integral"

    @pytest.mark.parametrize("field", list(INT_FIELDS))
    @pytest.mark.parametrize("text", ["9223372036854775808", "1e19", "-1e300"])
    def test_beyond_int64_is_out_of_range(self, tmp_path, field, text):
        p = tmp_path / "rows.txt"
        p.write_text(f"{mot_line()}\n{mot_line(**{field: text})}\n")
        with pytest.raises(FileFormatError) as exc:
            read_mot_file(p)
        assert str(exc.value) == f"{p}:2: {field} {text!r} is out of range"

    @pytest.mark.parametrize("field", list(INT_FIELDS))
    def test_int64_edges_are_kept(self, tmp_path, field):
        # 2**63 - 1 is not a float64; the largest float64 below 2**63 is
        big = 2**63 - 1024
        p = tmp_path / "rows.txt"
        p.write_text(f"{mot_line(**{field: str(big)})}\n{mot_line(id=str(-(2**63)))}\n")
        first, second = read_mot_file(p)
        assert dataclasses.astuple(first)[INT_FIELDS[field]] == big
        assert second.track_id == -(2**63)


# Field padding the reader accepts (float() strips it), line padding that
# str.strip removes, and the line ends that universal newlines translate.
FIELD_PAD = st.sampled_from(["", " ", "\t", "\x0c", "\x0b", "\x85", " "])
LINE_PAD = st.sampled_from(["", " ", "\x0c", "\x1c", " "])
BLANK = st.sampled_from(["", " ", "\t", "\x0c", "\x1c \x0c"])
NEWLINE = st.sampled_from(["\n", "\r\n", "\r"])
MUTATIONS = [
    None,
    "drop field",
    "extra field",
    "not a number",
    "fractional int",
    "non-finite int",
    "huge int",
    "bad extent",
    "overflowing edge",
    "frame zero",
    "repeat key",
]
mot_rows = st.lists(
    st.builds(
        MotRow,
        frame=st.integers(1, 4),
        track_id=st.integers(-3, 6),
        x=st.floats(-1e4, 1e4),
        y=st.floats(-1e4, 1e4),
        w=st.floats(0.01, 1e4),
        h=st.floats(0.01, 1e4),
        conf=st.floats(-2.0, 2.0),
        class_id=st.integers(-1, 3),
        visibility=st.floats(-1e7, 1e7),
    ),
    min_size=2,
    max_size=12,
    unique_by=lambda r: (r.frame, r.track_id),
)


def dress(data, fields: list[str]) -> list[str]:
    """A line's fields padded, some numbers in exponent form."""
    out = []
    for text in fields:
        if data.draw(st.booleans()):
            text = f"{float(text):e}"
        out.append(data.draw(FIELD_PAD) + text + data.draw(FIELD_PAD))
    return out


def mutate(data, fields: list[str], others: list[list[str]]) -> list[str]:
    kind = data.draw(st.sampled_from(MUTATIONS))
    fields = list(fields)
    int_field = data.draw(st.sampled_from(list(INT_FIELDS.values())))
    if kind == "drop field":
        del fields[data.draw(st.integers(0, 8))]
    elif kind == "extra field":
        fields.insert(data.draw(st.integers(0, 9)), "0")
    elif kind == "not a number":
        fields[data.draw(st.integers(0, 8))] = data.draw(st.sampled_from(["x", "", "1..2", "0x1"]))
    elif kind == "fractional int":
        fields[int_field] = data.draw(st.sampled_from(["1.5", "-0.25", "2e-1"]))
    elif kind == "non-finite int":
        fields[int_field] = data.draw(st.sampled_from(["inf", "-inf", "nan"]))
    elif kind == "huge int":
        fields[int_field] = data.draw(st.sampled_from(["1e19", "-1e30", "9223372036854775808"]))
    elif kind == "bad extent":
        fields[data.draw(st.sampled_from([4, 5]))] = data.draw(st.sampled_from(["0", "-0", "-3.5"]))
    elif kind == "overflowing edge":
        # x + w or y + h past float64's range, each field finite
        axis = data.draw(st.sampled_from([0, 1]))
        fields[2 + axis] = fields[4 + axis] = data.draw(st.sampled_from(["1e308", "1.7e308"]))
    elif kind == "frame zero":
        fields[0] = data.draw(st.sampled_from(["0", "-2"]))
    elif kind == "repeat key":
        fields[:2] = data.draw(st.sampled_from(others))[:2]
    return fields


class TestMotReaderAgainstOracle:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(rows=mot_rows, data=st.data())
    def test_rows_or_first_error_match_the_per_line_reader(self, tmp_path, rows, data):
        p = tmp_path / "rows.txt"
        write_mot_file(p, rows)
        lines = [dress(data, line.split(",")) for line in p.read_text().splitlines()]
        k = data.draw(st.integers(0, len(lines) - 1))
        lines[k] = mutate(data, lines[k], lines[:k] + lines[k + 1 :])
        text = ""
        for fields in lines:
            for _ in range(data.draw(st.integers(0, 2))):
                text += data.draw(BLANK) + data.draw(NEWLINE)
            line = ",".join(fields)
            text += data.draw(LINE_PAD) + line + data.draw(LINE_PAD) + data.draw(NEWLINE)
        p.write_bytes(text.encode("utf-8"))

        expected = mot_rows_oracle(p)
        if isinstance(expected, str):
            with pytest.raises(FileFormatError) as exc:
                read_mot_file(p)
            assert str(exc.value) == expected
        else:
            assert [dataclasses.astuple(r) for r in read_mot_file(p)] == expected


GOOD_LINE = "1,1,0,0,10,10,1,-1,-1"


class TestMotReaderRuleOrder:
    """Lines that break two rules report the one the per-line reader meets first."""

    @pytest.mark.parametrize(
        "lines, line_no, reason",
        [
            (
                [GOOD_LINE, "1,2,nan,0,10,10,abc,-1,-1"],
                2,
                "could not convert string to float: 'abc'",
            ),
            (
                [GOOD_LINE, "0,1,0,0,10,10,1,-1,-1", "0,1,0,0,10,10,1,-1,-1"],
                2,
                "frame must be >= 1",
            ),
            ([GOOD_LINE, "1,x,0,0,10,10,1,-1"], 2, "expected 9 comma-separated fields, got 8"),
            (
                ["1,1,0,0,0,10,1,-1,-1", GOOD_LINE],
                1,
                "BBox extent must be positive, got w=0.0, h=10.0",
            ),
            (
                [GOOD_LINE, "1,2,inf,0,10,10,1,-1,-1", GOOD_LINE],
                2,
                "BBox must be finite, got inf",
            ),
            (
                [GOOD_LINE, "1,2,1e308,0,1e308,10,1,-1,-1", "1,2,0,0,0,10,1,-1,-1"],
                2,
                "BBox edges must be finite, got x2=inf, y2=10.0",
            ),
        ],
    )
    def test_first_rule_matches_the_per_line_reader(self, tmp_path, lines, line_no, reason):
        p = tmp_path / "rows.txt"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError) as exc:
            read_mot_file(p)
        assert str(exc.value) == mot_rows_oracle(p) == f"{p}:{line_no}: {reason}"

    @pytest.mark.parametrize(
        "text, line_no, reason",
        [
            (b"1,1,0,0,10,10,1,-1,-1\n1,1,0,0,10,\xe910,1,-1\n", 2, "not UTF-8 text (byte 0xe9)"),
            (b"1,1,0,0,10,10,1,-1\n1,1,0,0,10,\xe910,1,-1,-1\n", 1, "expected 9 comma-"),
        ],
    )
    def test_a_byte_that_is_not_utf8_is_the_first_rule_of_its_line(
        self, tmp_path, text, line_no, reason
    ):
        p = tmp_path / "rows.txt"
        p.write_bytes(text)
        with pytest.raises(FileFormatError) as exc:
            read_mot_file(p)
        assert str(exc.value).startswith(f"{p}:{line_no}: {reason}")


class TestHeadDirectory:
    def test_write_read_and_listing(self, tmp_path, rng):
        head = HeadOutput(
            rng.uniform(0, 1, (8, 8, 1)).astype(np.float32).astype(np.float64),
            rng.normal(size=(8, 8, 2)),
            rng.uniform(0, 1, (8, 8, 2)),
            rng.normal(size=(8, 8, 2)),
            4,
        )
        for frame in (3, 1, 2):
            write_head_outputs(tmp_path, frame, head)
        assert list_head_frames(tmp_path) == [1, 2, 3]
        back = read_head_outputs(tmp_path, 2, 4)
        np.testing.assert_array_equal(back.heatmap, head.heatmap)

    def test_listing_takes_every_name_the_writer_writes(self, tmp_path):
        # frame 1000000 takes 7 digits; 0000002 is padded as the writer never pads
        for name in ("000001", "999999", "1000000", "0000002"):
            write_grid(tmp_path / f"{name}.heatmap.grid", np.zeros((4, 4, 1)))
        assert list_head_frames(tmp_path) == [1, 999999, 1000000]

    def test_missing_map_reported(self, tmp_path):
        write_grid(tmp_path / "000001.heatmap.grid", np.zeros((4, 4, 1)))
        with pytest.raises(FileFormatError, match="missing"):
            read_head_outputs(tmp_path, 1, 4)


VALID_CONFIG = """
[pipeline]
downsample = 4
score_threshold = 0.3

[scene]
width = 256
height = 256
frames = 10
min_objects = 2
max_objects = 4
min_size = 10
max_size = 30
min_speed = 0
max_speed = 2
seed = 5

[corruption]
fn_rate = 0.1
seed = 2
"""


class TestConfigFile:
    def write(self, tmp_path, text):
        p = tmp_path / "run.cfg"
        p.write_text(text)
        return p

    def test_valid_config(self, tmp_path):
        cfg = ConfigFile(self.write(tmp_path, VALID_CONFIG))
        pipeline = cfg.pipeline()
        assert pipeline.score_threshold == 0.3
        assert pipeline.max_peaks == 100  # default
        scene = cfg.scene()
        assert scene.width == 256 and scene.seed == 5
        corruption = cfg.corruption()
        assert corruption is not None and corruption.fn_rate == 0.1

    def test_unknown_key_is_error(self, tmp_path):
        text = VALID_CONFIG.replace("score_threshold = 0.3", "scorethreshold = 0.3")
        with pytest.raises(ConfigError, match="scorethreshold"):
            ConfigFile(self.write(tmp_path, text)).pipeline()

    def test_unknown_section_is_error(self, tmp_path):
        with pytest.raises(ConfigError, match="section"):
            ConfigFile(self.write(tmp_path, VALID_CONFIG + "\n[tracker]\nx = 1\n"))

    def test_missing_scene_keys_listed(self, tmp_path):
        cfg = ConfigFile(self.write(tmp_path, "[scene]\nwidth = 128\n"))
        with pytest.raises(ConfigError, match="height"):
            cfg.scene()

    def test_bad_value_type(self, tmp_path):
        text = VALID_CONFIG.replace("frames = 10", "frames = ten")
        with pytest.raises(ConfigError, match="frames"):
            ConfigFile(self.write(tmp_path, text)).scene()

    def test_semantic_validation_propagates(self, tmp_path):
        text = VALID_CONFIG.replace("max_size = 30", "max_size = 3000")
        with pytest.raises(ConfigError, match="frame"):
            ConfigFile(self.write(tmp_path, text)).scene()

    def test_missing_corruption_section_is_identity(self, tmp_path):
        cfg = ConfigFile(self.write(tmp_path, "[scene]\nwidth = 128\n"))
        assert cfg.corruption() == CorruptionConfig()

    @pytest.mark.parametrize(
        "section, key, value", [("pipeline", "gate_scale", "nan"), ("corruption", "jitter_sigma", "inf")]
    )
    def test_non_finite_float_is_invalid(self, tmp_path, section, key, value):
        cfg = ConfigFile(self.write(tmp_path, f"[{section}]\n{key} = {value}\n"))
        with pytest.raises(ConfigError, match=rf"key '{key}' in \[{section}\] has invalid value '{value}'"):
            getattr(cfg, section)()

    def test_inline_comments_are_stripped(self, tmp_path):
        text = VALID_CONFIG.replace("frames = 10", "frames = 10  # short run")
        cfg = ConfigFile(self.write(tmp_path, text))
        assert cfg.scene().frames == 10


# one valid, non-default value for every field; floats are written as
# integers where possible so that parsing to the annotated type shows
EVERY_KEY = {
    "pipeline": (
        PipelineConfig,
        {
            "downsample": "2",
            "max_peaks": "50",
            "score_threshold": "0.25",
            "num_classes": "3",
            "gate_scale": "2",
            "size_loss_weight": "0.2",
            "focal_alpha": "3",
            "focal_beta": "5",
        },
    ),
    "scene": (
        SceneConfig,
        {
            "height": "64",
            "width": "128",
            "frames": "5",
            "min_objects": "1",
            "max_objects": "3",
            "min_size": "8",
            "max_size": "20",
            "min_speed": "0",
            "max_speed": "1.5",
            "downsample": "2",
            "spawn_prob": "0.1",
            "despawn_prob": "0.2",
            "seed": "9",
        },
    ),
    "corruption": (
        CorruptionConfig,
        {
            "fn_rate": "0.1",
            "fp_rate": "1",
            "jitter_sigma": "0.5",
            "hm_noise_sigma": "0.05",
            "temporal_jitter_k": "2",
            "seed": "3",
        },
    ),
}


def write_section(tmp_path, section, raw):
    path = tmp_path / "run.cfg"
    path.write_text(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in raw.items()))
    return path


class TestConfigSchema:
    @pytest.mark.parametrize("section", sorted(EVERY_KEY))
    def test_every_field_is_a_key_of_its_type(self, tmp_path, section):
        cls, raw = EVERY_KEY[section]
        assert set(raw) == {f.name for f in dataclasses.fields(cls)}
        built = getattr(ConfigFile(write_section(tmp_path, section, raw)), section)()
        types = typing.get_type_hints(cls)
        for key, text in raw.items():
            value = getattr(built, key)
            assert type(value) is types[key]
            assert value == types[key](text)

    @pytest.mark.parametrize(
        "section, key",
        [("pipeline", "max_peaks"), ("scene", "frames"), ("corruption", "temporal_jitter_k")],
    )
    def test_int_field_rejects_a_fraction(self, tmp_path, section, key):
        cfg = ConfigFile(write_section(tmp_path, section, {**EVERY_KEY[section][1], key: "10.5"}))
        with pytest.raises(ConfigError, match=rf"key '{key}' in \[{section}\] has invalid value '10.5'"):
            getattr(cfg, section)()
