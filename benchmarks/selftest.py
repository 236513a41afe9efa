"""Self-test of the benchmark itself, in a few seconds.

    python3 benchmarks/selftest.py

1. The benchmark's IDF1 reference agrees with the brute-force
   `tests/oracles.py::idf1_oracle` on small random sequences.
2. Each output check rejects a result file with the fault it looks for.
3. A tiny scene runs through the harness, timed and traced.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from typing import NamedTuple

import numpy as np

import run
from checks import CheckFailed, check_clean, check_lifecycle, check_report, idf1_reference

sys.path.insert(0, str(run.ROOT))
from tests.oracles import idf1_oracle  # noqa: E402


class Box(NamedTuple):
    x1: float
    y1: float
    w: float
    h: float


def random_sequence(rng: np.random.Generator, frames: int, max_ids: int) -> np.ndarray:
    """Rows (frame, id, x, y, w, h) of ids drifting near a few anchors."""
    rows = []
    for frame in range(1, frames + 1):
        for obj in range(1, max_ids + 1):
            if rng.random() < 0.7:
                anchor = 10.0 * (obj % 3)
                x, y = anchor + rng.normal(0, 3, 2)
                rows.append((frame, obj, x, y, 10 + rng.random(), 10 + rng.random()))
    return np.array(rows, dtype=float).reshape(-1, 6)


def as_frames(rows: np.ndarray) -> dict[int, list[tuple[int, Box]]]:
    out: dict[int, list[tuple[int, Box]]] = {}
    for f, i, x, y, w, h in rows.tolist():
        out.setdefault(int(f), []).append((int(i), Box(x, y, w, h)))
    return out


def check_idf1_reference(cases: int = 200) -> None:
    rng = np.random.default_rng(2024)
    for case in range(cases):
        gt = random_sequence(rng, frames=4, max_ids=3)
        pred = random_sequence(rng, frames=4, max_ids=4)
        if len(gt) == 0:
            continue
        ref, oracle = idf1_reference(gt, pred), idf1_oracle(as_frames(gt), as_frames(pred))
        if abs(ref - oracle) > 1e-12:
            raise AssertionError(f"case {case}: reference IDF1 {ref} != oracle {oracle}")


def expect_failure(check, *args) -> None:
    try:
        check(*args)
    except CheckFailed:
        return
    raise AssertionError(f"{check.__name__} accepted a faulty input")


def check_checks() -> None:
    box = [10.0, 10.0, 8.0, 20.0]
    gt = np.array([[1, 1, *box], [2, 1, *box], [3, 1, *box]])
    good = gt.copy()
    check_lifecycle(good, 1)
    check_clean(gt, good, 4)
    report = {"fp": 0, "fn": 0, "idsw": 0, "gt_total": 3, "mota": 1.0, "idf1": 1.0}
    check_report(report, gt, good)

    expect_failure(check_lifecycle, np.array([[1, 1, *box], [1, 1, *box]]), 1)  # twice in a frame
    expect_failure(check_lifecycle, np.array([[1, 1, *box], [3, 1, *box]]), 1)  # comeback
    expect_failure(check_lifecycle, np.array([[1, 2, *box], [2, 1, *box]]), 2)  # ids out of order
    expect_failure(check_lifecycle, good, 2)  # identity count off
    shifted = good.copy()
    shifted[1, 2] += 0.01
    expect_failure(check_clean, gt, shifted, 4)
    expect_failure(check_clean, gt, good[:2], 4)  # a frame without its row
    expect_failure(check_report, {**report, "idf1": 0.99}, gt, good)
    expect_failure(check_report, {**report, "mota": 0.9}, gt, good)
    expect_failure(check_report, {**report, "gt_total": 4}, gt, good)
    far = good.copy()
    far[:, 2] += 100.0
    expect_failure(check_report, report, gt, far)  # more TP than any matching allows


def check_harness() -> None:
    for trace in ("0", "1"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0", "--trace", trace])
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        units = run.LAYER_UNITS if trace == "1" else run.E2E_UNITS
        if code != 0 or not result["correct"] or set(result["metrics"]) != set(units):
            raise AssertionError(f"tiny scene, trace {trace}: exit {code}, {result}")


def main() -> int:
    check_idf1_reference()
    print("IDF1 reference agrees with idf1_oracle")
    check_checks()
    print("every output check rejects its fault")
    check_harness()
    print("tiny scene runs through the harness, timed and traced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
