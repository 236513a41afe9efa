import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from peaktrack import read_grid, read_head_outputs, read_mot_file, write_grid
from peaktrack.cli import main
from peaktrack.config import ConfigFile
from peaktrack.simulator import gen_scene, synthesize_head_outputs

SCENE_CFG = """
[scene]
width = 256
height = 256
frames = 12
min_objects = 6
max_objects = 6
min_size = 14
max_size = 40
min_speed = 0.5
max_speed = 2.0
seed = 14
"""

CORRUPT_CFG = SCENE_CFG + """
[corruption]
fn_rate = 0.1
fp_rate = 0.5
jitter_sigma = 1.0
seed = 7
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


@pytest.fixture(scope="module")
def sim_heads(tmp_path_factory):
    """Heads directory of one SCENE_CFG simulation, shared read-only."""
    tmp = tmp_path_factory.mktemp("sim")
    assert main(["simulate", "--config", write_cfg(tmp, SCENE_CFG), "--out", str(tmp)]) == 0
    return str(tmp / "heads")


class TestPipelineFlow:
    def test_simulate_track_evaluate(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SCENE_CFG)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "gt.txt").exists()
        assert len(list((out / "heads").glob("*.grid"))) == 12 * 4

        results = tmp_path / "results.txt"
        assert main(["track", "--heads", str(out / "heads"), "--out", str(results)]) == 0
        rows = read_mot_file(results)
        assert rows and all(0.0 <= r.conf <= 1.0 for r in rows)

        assert (
            main(["evaluate", "--gt", str(out / "gt.txt"), "--pred", str(results)]) == 0
        )
        text = capsys.readouterr().out
        assert "MOTA" in text and "1.000" in text

    def test_evaluate_csv_output(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_text("1,1,0,0,10,10,1,-1,-1\n")
        assert main(["evaluate", "--gt", str(gt), "--pred", str(gt), "--csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "mota,motp,idf1,mt,ml,fp,fn,idsw,gt_total"
        assert lines[1].startswith("1.000000,1.000000,1.000000,")

    def test_hungarian_matcher_flag(self, tmp_path):
        cfg = write_cfg(tmp_path, SCENE_CFG)
        out = tmp_path / "sim"
        main(["simulate", "--config", cfg, "--out", str(out)])
        res = tmp_path / "res.txt"
        assert (
            main(
                [
                    "track",
                    "--heads",
                    str(out / "heads"),
                    "--matcher",
                    "hungarian",
                    "--out",
                    str(res),
                ]
            )
            == 0
        )
        assert read_mot_file(res)

    def test_track_deterministic(self, tmp_path):
        cfg = write_cfg(tmp_path, CORRUPT_CFG)
        out = tmp_path / "sim"
        main(["simulate", "--config", cfg, "--out", str(out)])
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["track", "--heads", str(out / "heads"), "--out", str(a)])
        main(["track", "--heads", str(out / "heads"), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_no_corruption_section_writes_ideal_heads(self, tmp_path):
        cfg = write_cfg(tmp_path, SCENE_CFG)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        scene = ConfigFile(cfg).scene()
        frames = gen_scene(scene)
        for k, ann in enumerate(frames):
            prev = frames[k - 1] if k else None
            ideal = synthesize_head_outputs(ann, prev, scene.image_size, scene.downsample)
            written = read_head_outputs(out / "heads", ann.frame_index, scene.downsample)
            for name in ("heatmap", "size_map", "offset_map", "disp_map"):
                # grid files store float32
                expected = np.asarray(getattr(ideal, name), dtype=np.float32)
                np.testing.assert_array_equal(getattr(written, name), expected)


class TestExitCodes:
    def test_unknown_flag_is_validation_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--gt", "x", "--pred", "y", "--frobnicate"])
        assert exc.value.code == 1

    def test_missing_file_is_io_error(self, tmp_path):
        gt = tmp_path / "gt.txt"
        gt.write_text("1,1,0,0,10,10,1,-1,-1\n")
        assert main(["evaluate", "--gt", str(gt), "--pred", str(tmp_path / "no.txt")]) == 2

    def test_bad_config_is_validation_error(self, tmp_path):
        cfg = write_cfg(tmp_path, "[scene]\nwidth = 128\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_zero_extent_box_is_format_error(self, tmp_path):
        gt = tmp_path / "gt.txt"
        gt.write_text("1,1,0,0,0,10,1,-1,-1\n")
        assert main(["evaluate", "--gt", str(gt), "--pred", str(gt)]) == 2

    def test_mismatched_downsample_is_validation_error(self, tmp_path):
        cfg = write_cfg(tmp_path, SCENE_CFG + "\n[pipeline]\ndownsample = 2\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert not (tmp_path / "o").exists()

    def test_mismatched_frame_ranges_rejected(self, tmp_path):
        gt = tmp_path / "gt.txt"
        gt.write_text("1,1,0,0,10,10,1,-1,-1\n")
        pred = tmp_path / "pred.txt"
        pred.write_text("1,1,0,0,10,10,1,-1,-1\n5,1,0,0,10,10,1,-1,-1\n")
        assert main(["evaluate", "--gt", str(gt), "--pred", str(pred)]) == 1

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("inf,1,0,0,10,10,1,-1,-1", "frame 'inf' is not integral"),
            ("1,nan,0,0,10,10,1,-1,-1", "id 'nan' is not integral"),
            ("1,2,0,0,10,10,1,1e19,-1", "class '1e19' is out of range"),
        ],
    )
    def test_non_finite_or_huge_integer_field_is_format_error(
        self, tmp_path, capsys, line, reason
    ):
        gt = tmp_path / "gt.txt"
        gt.write_text(f"1,1,0,0,10,10,1,-1,-1\n{line}\n")
        assert main(["evaluate", "--gt", str(gt), "--pred", str(gt)]) == 2
        assert capsys.readouterr().err == f"error: {gt}:2: {reason}\n"

    def test_duplicate_id_in_result_file_is_format_error(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_text("1,1,0,0,10,10,1,-1,-1\n")
        pred = tmp_path / "pred.txt"
        pred.write_text("1,1,0,0,10,10,1,-1,-1\n1,1,5,5,10,10,1,-1,-1\n")
        assert main(["evaluate", "--gt", str(gt), "--pred", str(pred)]) == 2
        assert "pred.txt:2: id 1 already appears in frame 1 at line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "overlay", "render-heatmap"])
    def test_non_utf8_mot_file_is_format_error_naming_the_line(self, tmp_path, capsys, command):
        gt = tmp_path / "gt.txt"
        # "\r\n", a blank line ended by "\r" and "\n" come before line 4
        gt.write_bytes(
            b"1,1,0,0,10,10,1,-1,-1\r\n\r2,1,0,0,10,10,1,-1,-1\n2,2,0,0,10,\xff10,1,-1,-1\n"
        )
        out = tmp_path / "out"
        argv = {
            "evaluate": ["evaluate", "--gt", str(gt), "--pred", str(gt)],
            "overlay": ["overlay", "--gt", str(gt), "--pred", str(gt), "--frame", "1"],
            "render-heatmap": ["render-heatmap", "--gt", str(gt), "--frame", "1"],
        }[command]
        if command != "evaluate":
            argv += ["--out", str(out), "--width", "64", "--height", "64"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {gt}:4: not UTF-8 text (byte 0xff)\n"
        assert not out.exists()

    def test_non_utf8_config_is_validation_error_naming_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"[scene]\n# caf\xe9\nwidth = 128\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg}: ")
        assert not (tmp_path / "o").exists()

    def test_losscheck_prediction_frames_without_ground_truth_are_validation_error(
        self, sim_heads, tmp_path, capsys
    ):
        gt = tmp_path / "gt_heads"
        shutil.copytree(sim_heads, gt)
        for grid in gt.glob("000004.*.grid"):
            grid.unlink()
        assert main(["losscheck", "--pred", sim_heads, "--gt", str(gt)]) == 1
        captured = capsys.readouterr()
        assert f"error: {sim_heads}: prediction frames [4] have no ground truth" in captured.err
        assert captured.out == ""

    def test_frame_gap_in_heads_is_validation_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SCENE_CFG)
        out = tmp_path / "sim"
        main(["simulate", "--config", cfg, "--out", str(out)])
        for grid in out.glob("heads/00000[34].*.grid"):
            grid.unlink()
        res = tmp_path / "res.txt"
        assert main(["track", "--heads", str(out / "heads"), "--out", str(res)]) == 1
        assert "missing for frames [3, 4]" in capsys.readouterr().err
        assert not res.exists()

    def test_non_finite_grid_value_is_format_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SCENE_CFG)
        out = tmp_path / "sim"
        main(["simulate", "--config", cfg, "--out", str(out)])
        grid = out / "heads" / "000002.size.grid"
        data = bytearray(grid.read_bytes())
        data[-4:] = np.array([np.nan], dtype="<f4").tobytes()
        grid.write_bytes(bytes(data))
        assert main(["track", "--heads", str(out / "heads"), "--out", str(tmp_path / "r.txt")]) == 2
        assert "000002.size.grid: grid contains non-finite values" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["nan", "1.5", "0", "-1"])
    def test_iou_threshold_outside_unit_interval_is_validation_error(
        self, tmp_path, capsys, threshold
    ):
        gt = tmp_path / "gt.txt"
        gt.write_text("1,1,0,0,10,10,1,-1,-1\n")
        argv = ["evaluate", "--gt", str(gt), "--pred", str(gt), f"--iou-threshold={threshold}"]
        assert main(argv) == 1
        assert "iou_threshold must be in (0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [
            ["evaluate", "--gt", "{boxes}", "--pred", "{boxes}"],
            ["overlay", "--gt", "{boxes}", "--pred", "{boxes}", "--frame", "1", "--out", "{out}"],
            ["overlay", "--gt", "{boxes}", "--pred", "{boxes}", "--frame", "1", "--out", "{out}",
             "--width", "64", "--height", "64"],
        ],
        ids=["evaluate", "overlay-autosize", "overlay-sized"],
    )
    def test_overflowing_box_edge_is_format_error(self, tmp_path, capsys, command):
        # x and w are finite, x + w is not
        boxes = tmp_path / "boxes.txt"
        boxes.write_text("1,1,1e308,0,1e308,10,1,-1,-1\n")
        out = tmp_path / "frame.ppm"
        assert main([arg.format(boxes=boxes, out=out) for arg in command]) == 2
        assert capsys.readouterr().err == (
            f"error: {boxes}:1: BBox edges must be finite, got x2=inf, y2=10.0\n"
        )
        assert not out.exists()

    def test_stale_head_frames_are_validation_error(self, tmp_path, capsys):
        out = tmp_path / "sim"
        cfg = write_cfg(tmp_path, SCENE_CFG)
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0  # same frames
        short = write_cfg(tmp_path, SCENE_CFG.replace("frames = 12", "frames = 5"), "short.cfg")
        capsys.readouterr()
        assert main(["simulate", "--config", short, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {out / 'heads'}: head frames [6, 7, 8, 9, 10, 11, 12] lie outside "
            "this scene's frames 1..5; remove them or simulate into another --out\n"
        )
        assert {p.name: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_scene_downsample_zero_is_validation_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SCENE_CFG + "downsample = 0\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_bad_tolerance_is_validation_error(self, sim_heads, capsys, tolerance):
        argv = ["losscheck", "--pred", sim_heads, "--gt", sim_heads, f"--tolerance={tolerance}"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "--tolerance must be finite and >= 0" in captured.err
        assert "gradcheck" not in captured.out

    @pytest.mark.parametrize("flag", ["--width", "--height"])
    def test_negative_overlay_size_is_validation_error(self, tmp_path, capsys, flag):
        gt = tmp_path / "gt.txt"
        gt.write_text("1,1,0,0,10,10,1,-1,-1\n")
        out = tmp_path / "frame.ppm"
        argv = ["overlay", "--gt", str(gt), "--pred", str(gt), "--frame", "1", "--out", str(out)]
        assert main(argv + [flag, "-5"]) == 1
        assert "must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section", ["scene", "corruption"])
    def test_negative_seed_is_validation_error_naming_the_key(self, tmp_path, capsys, section):
        seed_line = {"scene": "seed = 14", "corruption": "seed = 7"}[section]
        cfg = write_cfg(tmp_path, CORRUPT_CFG.replace(seed_line, "seed = -1"))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert f"error: {cfg}: [{section}] seed must be >= 0, got -1" in capsys.readouterr().err

    # numpy refuses both sizes (6.51 EiB and 711 PiB) under any overcommit
    # setting; past 2**63 bytes it raises ValueError instead of MemoryError
    def test_unallocatable_overlay_canvas_is_validation_error(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_text("1,1,1.0,5.0,10.0,10.0,1,-1,-1\n")
        pred = tmp_path / "pred.txt"
        pred.write_text("1,1,1e17,5.0,10.0,10.0,0.9,-1,-1\n")
        out = tmp_path / "frame.ppm"
        argv = ["overlay", "--gt", str(gt), "--pred", str(pred), "--frame", "1", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: Unable to allocate ")
        assert not out.exists()

    def test_unallocatable_heatmap_is_validation_error(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_text("1,1,1.0,0.0,2.0,2.0,1,-1,-1\n")
        out = tmp_path / "hm.grid"
        argv = ["render-heatmap", "--gt", str(gt), "--frame", "1", "--out", str(out)]
        assert main(argv + ["--width", "400000000000000000", "--height", "4"]) == 1
        assert capsys.readouterr().err.startswith("error: Unable to allocate ")
        assert not out.exists()

    def test_unordered_sparse_grid_is_format_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SCENE_CFG)
        out = tmp_path / "sim"
        main(["simulate", "--config", cfg, "--out", str(out)])
        grid = out / "heads" / "000002.heatmap.grid"
        data = bytearray(grid.read_bytes())
        assert data[:7] == b"TTGRID2"
        # swap the first two flat indices
        data[23:27], data[27:31] = data[27:31], data[23:27]
        grid.write_bytes(bytes(data))
        assert main(["track", "--heads", str(out / "heads"), "--out", str(tmp_path / "r.txt")]) == 2
        assert "000002.heatmap.grid: indices are not strictly ascending" in capsys.readouterr().err

    def test_unallocatable_grid_header_is_format_error(self, tmp_path, sim_heads, capsys):
        heads = tmp_path / "heads"
        shutil.copytree(sim_heads, heads)
        # 23 bytes whose 65535x65535x65535 header asks numpy for 2 PiB
        (heads / "000002.heatmap.grid").write_bytes(
            b"TTGRID2" + struct.pack("<IIII", 65535, 65535, 65535, 0)
        )
        res = tmp_path / "res.txt"
        assert main(["track", "--heads", str(heads), "--out", str(res)]) == 2
        assert (
            "000002.heatmap.grid: cannot allocate a 65535x65535x65535 grid"
            in capsys.readouterr().err
        )
        assert not res.exists()

    def test_grid_header_beyond_numpy_array_size_is_format_error(
        self, tmp_path, sim_heads, capsys
    ):
        heads = tmp_path / "heads"
        shutil.copytree(sim_heads, heads)
        # 23 bytes whose header asks for more cells than numpy can index
        (heads / "000002.heatmap.grid").write_bytes(
            b"TTGRID2" + struct.pack("<IIII", 2**32 - 1, 2**32 - 1, 2**32 - 1, 0)
        )
        res = tmp_path / "res.txt"
        assert main(["track", "--heads", str(heads), "--out", str(res)]) == 2
        dims = "x".join(["4294967295"] * 3)
        assert f"000002.heatmap.grid: cannot allocate a {dims} grid" in capsys.readouterr().err
        assert not res.exists()

    def test_frame_zero_in_heads_is_format_error(self, tmp_path, sim_heads, capsys):
        # frames 1-3 renamed to 0-2: track would write MOT rows with frame 0
        heads = tmp_path / "heads"
        heads.mkdir()
        for frame in (1, 2, 3):
            for grid in Path(sim_heads).glob(f"{frame:06d}.*.grid"):
                shutil.copy(grid, heads / grid.name.replace(f"{frame:06d}", f"{frame - 1:06d}"))
        res = tmp_path / "res.txt"
        assert main(["track", "--heads", str(heads), "--out", str(res)]) == 2
        assert "000000.heatmap.grid: head frame indices start at 1" in capsys.readouterr().err
        assert not res.exists()

    def test_corrupt_grid_is_io_error(self, tmp_path):
        heads = tmp_path / "heads"
        heads.mkdir()
        (heads / "000001.heatmap.grid").write_bytes(b"garbage")
        assert main(["track", "--heads", str(heads), "--out", str(tmp_path / "r.txt")]) == 2

    def test_grid_shape_change_between_frames_is_format_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SCENE_CFG)
        out = tmp_path / "sim"
        main(["simulate", "--config", cfg, "--out", str(out)])
        for grid in out.glob("heads/000002.*.grid"):
            write_grid(grid, read_grid(grid)[:32, :32])
        res = tmp_path / "res.txt"
        assert main(["track", "--heads", str(out / "heads"), "--out", str(res)]) == 2
        assert (
            "000002.heatmap.grid: grid shape (32, 32) differs from frame 1's (64, 64)"
            in capsys.readouterr().err
        )
        assert not res.exists()

    @pytest.mark.parametrize(
        "frame, name, edit, reason",
        [
            (3, "heatmap", lambda g: g * 1.5, "heatmap values must lie in [0, 1]"),
            (2, "size", lambda g: g[:32], "head grids disagree on spatial dims"),
        ],
    )
    @pytest.mark.parametrize("command", ["track", "losscheck"])
    def test_head_rule_failure_names_the_frame_files(
        self, tmp_path, capsys, frame, name, edit, reason, command
    ):
        cfg = write_cfg(tmp_path, SCENE_CFG)
        out = tmp_path / "sim"
        main(["simulate", "--config", cfg, "--out", str(out)])
        grid = out / "heads" / f"{frame:06d}.{name}.grid"
        write_grid(grid, edit(read_grid(grid)))
        heads = str(out / "heads")
        if command == "track":
            argv = ["track", "--heads", heads, "--out", str(tmp_path / "r.txt")]
        else:
            argv = ["losscheck", "--pred", heads, "--gt", heads]
        assert main(argv) == 2
        assert f"{frame:06d}.*.grid: {reason}" in capsys.readouterr().err


class TestTrack:
    def test_rows_carry_the_head_file_frame_numbers(self, tmp_path):
        cfg = write_cfg(tmp_path, SCENE_CFG)
        out = tmp_path / "sim"
        main(["simulate", "--config", cfg, "--out", str(out)])
        for grid in out.glob("heads/00000[12].*.grid"):
            grid.unlink()
        res = tmp_path / "res.txt"
        assert main(["track", "--heads", str(out / "heads"), "--out", str(res)]) == 0
        assert sorted({r.frame for r in read_mot_file(res)}) == list(range(3, 13))

    def test_dense_head_files_track_like_sparse(self, tmp_path):
        cfg = write_cfg(tmp_path, CORRUPT_CFG)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        # the same heads, stored the way every grid was before TTGRID2
        dense = tmp_path / "dense"
        dense.mkdir()
        for grid in (out / "heads").glob("*.grid"):
            assert grid.read_bytes()[:7] == b"TTGRID2"
            values = read_grid(grid)
            (dense / grid.name).write_bytes(
                b"TTGRID1" + struct.pack("<III", *values.shape) + values.astype("<f4").tobytes()
            )
        a, b = tmp_path / "sparse.txt", tmp_path / "dense.txt"
        assert main(["track", "--heads", str(out / "heads"), "--out", str(a)]) == 0
        assert main(["track", "--heads", str(dense), "--out", str(b)]) == 0
        assert read_mot_file(a) and a.read_bytes() == b.read_bytes()


class TestRenderHeatmap:
    def test_renders_written_grid(self, tmp_path):
        gt = tmp_path / "gt.txt"
        gt.write_text("1,1,100,100,40,100,1,-1,-1\n")
        out = tmp_path / "hm.grid"
        code = main(
            [
                "render-heatmap",
                "--gt",
                str(gt),
                "--frame",
                "1",
                "--out",
                str(out),
                "--width",
                "256",
                "--height",
                "256",
            ]
        )
        assert code == 0
        hm = read_grid(out)
        assert hm.shape == (64, 64, 1)
        assert hm.max() == 1.0

    def test_absent_frame_rejected(self, tmp_path):
        gt = tmp_path / "gt.txt"
        gt.write_text("1,1,100,100,40,100,1,-1,-1\n")
        assert (
            main(
                [
                    "render-heatmap",
                    "--gt",
                    str(gt),
                    "--frame",
                    "9",
                    "--out",
                    str(tmp_path / "x.grid"),
                    "--width",
                    "256",
                    "--height",
                    "256",
                ]
            )
            == 1
        )

    def test_negative_class_renders_on_channel_zero(self, tmp_path):
        gt = tmp_path / "gt.txt"
        gt.write_text("1,1,100,100,40,100,1,-1,-1\n")
        out = tmp_path / "hm.grid"
        argv = ["render-heatmap", "--gt", str(gt), "--frame", "1", "--out", str(out)]
        assert main(argv + ["--width", "256", "--height", "256", "--classes", "2"]) == 0
        hm = read_grid(out)
        assert hm.shape == (64, 64, 2)
        assert hm[:, :, 0].max() == 1.0 and not hm[:, :, 1].any()

    def test_only_the_requested_frame_is_rendered(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_text("1,1,100,100,40,100,1,0,-1\n2,1,100,100,40,100,1,5,-1\n")
        out = tmp_path / "hm.grid"
        argv = ["render-heatmap", "--gt", str(gt), "--out", str(out), "--width", "256"]
        argv += ["--height", "256", "--classes", "1"]
        assert main(argv + ["--frame", "1"]) == 0
        assert read_grid(out).max() == 1.0
        out.unlink()
        assert main(argv + ["--frame", "2"]) == 1
        assert "error: class_id 5 out of range for 1 classes" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize(
        "dims",
        [["--width", "256", "--height", "256", "--downsample", "0"], ["--width", "0", "--height", "256"]],
        ids=["downsample-0", "width-0"],
    )
    def test_bad_grid_resolution_is_validation_error(self, tmp_path, capsys, caplog, dims):
        gt = tmp_path / "gt.txt"
        gt.write_text("1,1,100,100,40,100,1,-1,-1\n")
        out = tmp_path / "hm.grid"
        argv = ["render-heatmap", "--gt", str(gt), "--frame", "1", "--out", str(out)]
        assert main(argv + dims) == 1
        assert "error:" in capsys.readouterr().err
        assert "skipped" not in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("classes", [0, -1])
    def test_classes_below_one_is_validation_error(self, tmp_path, capsys, classes):
        gt = tmp_path / "gt.txt"
        gt.write_text("1,1,100,100,40,100,1,-1,-1\n")
        out = tmp_path / "hm.grid"
        argv = ["render-heatmap", "--gt", str(gt), "--frame", "1", "--out", str(out)]
        dims = ["--width", "64", "--height", "64", "--classes", str(classes)]
        assert main(argv + dims) == 1
        assert f"error: --classes must be >= 1, got {classes}" in capsys.readouterr().err
        assert not out.exists()


class TestLosscheck:
    def test_ideal_outputs_pass(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SCENE_CFG)
        out = tmp_path / "sim"
        main(["simulate", "--config", cfg, "--out", str(out)])
        code = main(
            ["losscheck", "--pred", str(out / "heads"), "--gt", str(out / "heads")]
        )
        text = capsys.readouterr().out
        assert code == 0
        assert "l_size=0.000000" in text
        assert "gradcheck focal" in text and "ok" in text

    def test_impossible_tolerance_fails_with_check_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SCENE_CFG)
        out = tmp_path / "sim"
        main(["simulate", "--config", cfg, "--out", str(out)])
        code = main(
            [
                "losscheck",
                "--pred",
                str(out / "heads"),
                "--gt",
                str(out / "heads"),
                "--tolerance",
                "0",
            ]
        )
        assert code == 3
        assert "FAIL" in capsys.readouterr().out


class TestOverlay:
    def test_writes_ppm(self, tmp_path):
        gt = tmp_path / "gt.txt"
        gt.write_text("1,1,10,10,50,80,1,-1,-1\n")
        pred = tmp_path / "pred.txt"
        pred.write_text("1,1,12,11,50,80,0.9,-1,-1\n")
        out = tmp_path / "frame.ppm"
        code = main(
            [
                "overlay",
                "--gt",
                str(gt),
                "--pred",
                str(pred),
                "--frame",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        data = out.read_bytes()
        assert data.startswith(b"P6\n")
        # green GT outline and red prediction outline both present
        w, h = (int(v) for v in data.split(b"\n")[1].split())
        img = np.frombuffer(data.split(b"\n255\n", 1)[1], dtype=np.uint8).reshape(h, w, 3)
        assert (img == np.array([0, 200, 0])).all(axis=2).any()
        assert (img == np.array([230, 60, 60])).all(axis=2).any()

    @pytest.mark.parametrize(
        "size, want", [(("500", "0"), "500x210"), (("0", "300"), "150x300"), (("0", "0"), "150x210")]
    )
    def test_autosizes_only_the_side_given_as_zero(self, tmp_path, capsys, size, want):
        gt = tmp_path / "gt.txt"
        gt.write_text("1,1,100,100,40,100,1,-1,-1\n")
        out = tmp_path / "frame.ppm"
        argv = ["overlay", "--gt", str(gt), "--pred", str(gt), "--frame", "1", "--out", str(out)]
        assert main(argv + ["--width", size[0], "--height", size[1]]) == 0
        assert f"wrote {want} overlay" in capsys.readouterr().out
        w, h = want.split("x")
        assert out.read_bytes().startswith(f"P6\n{w} {h}\n".encode())

    @pytest.mark.parametrize("x", ["-20.0", "-200.0"])
    def test_autosize_keeps_the_margin_for_boxes_left_of_the_canvas(self, tmp_path, capsys, x):
        gt = tmp_path / "gt.txt"
        gt.write_text(f"1,1,{x},5.0,10.0,10.0,1,-1,-1\n")
        out = tmp_path / "frame.ppm"
        argv = ["overlay", "--gt", str(gt), "--pred", str(gt), "--frame", "1", "--out", str(out)]
        assert main(argv) == 0
        assert "wrote 10x25 overlay" in capsys.readouterr().out
        assert out.read_bytes() == b"P6\n10 25\n255\n" + bytes(10 * 25 * 3)

    def test_autosize_counts_other_frames_and_prediction_only_boxes(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_text("1,1,0.0,0.0,10.0,10.0,1,-1,-1\n2,1,0.0,0.0,100.0,10.0,1,-1,-1\n")
        pred = tmp_path / "pred.txt"
        pred.write_text("1,1,0.0,0.0,10.0,200.0,0.9,-1,-1\n")
        out = tmp_path / "frame.ppm"
        argv = ["overlay", "--gt", str(gt), "--pred", str(pred), "--frame", "1", "--out", str(out)]
        assert main(argv) == 0
        assert "wrote 110x210 overlay" in capsys.readouterr().out

    def test_absent_frame_is_validation_error(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_text("1,1,100,100,40,100,1,-1,-1\n2,1,101,100,40,100,1,-1,-1\n")
        out = tmp_path / "frame.ppm"
        argv = ["overlay", "--gt", str(gt), "--pred", str(gt), "--frame", "99", "--out", str(out)]
        assert main(argv) == 1
        assert "frame 99 not present" in capsys.readouterr().err
        assert not out.exists()


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, tmp_path):
        gt = tmp_path / "gt.txt"
        gt.write_text("1,1,0,0,10,10,1,-1,-1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "peaktrack", "evaluate", "--gt", str(gt), "--pred", str(gt)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "MOTA" in proc.stdout

    def test_cli_import_loads_no_scipy(self):
        code = (
            "import sys, peaktrack.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
