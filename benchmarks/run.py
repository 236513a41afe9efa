"""Benchmark: peaktrack simulate -> track -> evaluate, end to end and by layer.

    python3 benchmarks/run.py --workload crowd-greedy --seed 1 --seconds 20 --trace 0

Run from anywhere; it uses the `src/` tree next to this directory.  With
`--trace 0` it times whole rounds of the three CLI commands, each as its
own process, for `--seconds` seconds and reports the end-to-end metrics
as medians over the rounds.  With `--trace 1` it runs one round of the
CLI and then the same calls in this process under spans (see traced.py),
and reports the per-layer metrics.  Either way the outputs are checked
against references computed apart from the program (see checks.py), and
the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from checks import CheckFailed, check_clean, check_lifecycle, check_report, read_rows, require
from workloads import DOWNSAMPLE, TINY, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
DEADLINE_S = 170.0  # the whole invocation must end within 180 s
SETUP_REPEATS = 5
MIN_ROUNDS = 2  # two rounds are needed to compare their outputs byte for byte
MIB = 1024.0 * 1024.0

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@dataclass
class Process:
    seconds: float
    rss_mb: float
    stdout: str
    stderr: str


class Harness:
    """Runs child processes one at a time under a shared deadline."""

    def __init__(self, run_dir: Path, deadline: float):
        self.run_dir = run_dir
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}

    def run(self, argv: list[str], label: str) -> Process:
        """Run one process to its end; wall time and its own peak RSS."""
        out_path = self.run_dir / f"{label}.out"
        err_path = self.run_dir / f"{label}.err"
        self.attempted += 1
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.run_dir)
            killer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text()
        stderr = err_path.read_text()
        self.failed += proc.returncode != 0
        require(
            proc.returncode == 0,
            f"{label} exited {proc.returncode}: {' '.join(argv)}\n{stderr.strip()}",
        )
        return Process(seconds, usage.ru_maxrss / 1024.0, stdout, stderr)

    def import_seconds(self) -> float:
        return self.run([sys.executable, "-c", "import peaktrack"], "import").seconds

    def cli(self, args: list[str], label: str, python_flags: tuple[str, ...] = ()) -> Process:
        argv = [sys.executable, *python_flags, "-m", "peaktrack", *map(str, args)]
        return self.run(argv, label)


@dataclass
class Round:
    times: dict[str, float]
    identities: int
    report: dict[str, float]
    gt: Path
    result: Path
    track_stderr: str


def run_round(
    h: Harness, w: Workload, config: Path, out: Path, python_flags: tuple[str, ...] = ()
) -> Round:
    """One simulate -> track -> evaluate round, each command its own process."""
    heads, gt, result = out / "heads", out / "gt.txt", out / "result.txt"
    start = time.perf_counter()
    sim = h.cli(["simulate", "--config", config, "--out", out], "simulate", python_flags)
    trk = h.cli(
        ["track", "--heads", heads, "--config", config, "--matcher", w.matcher, "--out", result],
        "track",
        python_flags,
    )
    ev = h.cli(["evaluate", "--gt", gt, "--pred", result, "--csv"], "evaluate", python_flags)
    pipeline = time.perf_counter() - start

    heads_mb = sum(p.stat().st_size for p in heads.iterdir()) / MIB
    shutil.rmtree(heads)
    found = re.search(r"(\d+) identities", trk.stdout)
    require(found is not None, f"track printed no identity count: {trk.stdout!r}")
    header, values = ev.stdout.strip().splitlines()[-2:]
    report = {k: float(v) for k, v in zip(header.split(","), values.split(","))}
    times = {
        "simulate_s": sim.seconds,
        "track_s": trk.seconds,
        "evaluate_s": ev.seconds,
        "pipeline_s": pipeline,
        "simulate_rss_mb": sim.rss_mb,
        "track_rss_mb": trk.rss_mb,
        "evaluate_rss_mb": ev.rss_mb,
        "heads_mb": heads_mb,
    }
    return Round(times, int(found.group(1)), report, gt, result, trk.stderr)


def check_round(w: Workload, r: Round) -> None:
    """Every output check that reads one round's files."""
    gt, pred = read_rows(r.gt), read_rows(r.result)
    ids = len(set(pred[:, 1].tolist()))
    require(ids == r.identities, f"track printed {r.identities} identities, result has {ids} ids")
    check_lifecycle(pred, r.identities)
    check_report(r.report, gt, pred)
    if not w.corruption:
        check_clean(gt, pred, DOWNSAMPLE)


def same_bytes(a: Path, b: Path) -> bool:
    return a.read_bytes() == b.read_bytes()


def describe(r: Round) -> str:
    rep = r.report
    return (
        f"MOTA {rep['mota']:.6f} MOTP {rep['motp']:.6f} IDF1 {rep['idf1']:.6f} "
        f"FP {int(rep['fp'])} FN {int(rep['fn'])} IDSW {int(rep['idsw'])} "
        f"identities {r.identities}"
    )


def measure(h: Harness, w: Workload, config: Path, seconds: float) -> dict[str, float]:
    """Timed rounds with tracing off; end-to-end metrics as medians."""
    h.import_seconds()  # compiles the bytecode caches, as an installed package has them
    setup: list[float] = []
    rounds: list[Round] = []
    start = time.monotonic()
    longest = 0.0
    # Whole rounds only, each started while it can end within `seconds`.  One
    # set-up sample precedes each round, so they span the run like the rounds.
    while len(rounds) < MIN_ROUNDS or time.monotonic() - start + longest <= seconds:
        began = time.monotonic()
        setup.append(h.import_seconds())
        r = run_round(h, w, config, h.run_dir / f"round-{len(rounds) + 1}")
        longest = max(longest, time.monotonic() - began)
        rounds.append(r)
        print(
            f"round {len(rounds)}: "
            + " ".join(f"{k}={v:.4f}" for k, v in r.times.items() if k.endswith("_s")),
            flush=True,
        )
    while len(setup) < SETUP_REPEATS:
        setup.append(h.import_seconds())
    first = rounds[0]
    check_round(w, first)
    for r in rounds[1:]:
        require(same_bytes(r.gt, first.gt), "gt.txt differs between two rounds")
        require(same_bytes(r.result, first.result), "result file differs between two rounds")
    print(f"{len(rounds)} rounds; {describe(first)}")
    metrics = {k: statistics.median(r.times[k] for r in rounds) for k in first.times}
    metrics["setup_s"] = statistics.median(setup)
    return metrics


def scipy_import_seconds(importtime: str) -> float:
    """Cumulative time of the outermost scipy imports in `-X importtime` output."""
    entries = []
    for line in importtime.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2][1:]
        depth = len(name) - len(name.lstrip(" "))
        entries.append((depth, name.strip(), int(parts[1])))
    total = 0
    ancestors: list[tuple[int, str]] = []  # parents precede children when reversed
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a[1] == "scipy" or a[1].startswith("scipy.") for a in ancestors):
            total += cumulative
        ancestors.append((depth, name))
    return total / 1e6


def trace(h: Harness, w: Workload, config: Path, seconds: float) -> dict[str, float]:
    """One CLI round, then traced and untraced in-process runs of the same calls."""
    sys.path.insert(0, str(SRC))
    import traced  # imports peaktrack from SRC

    h.import_seconds()
    imports = [h.import_seconds() for _ in range(3)]
    cli_dir = h.run_dir / "cli"
    cli = run_round(h, w, config, cli_dir, python_flags=("-X", "importtime"))
    check_round(w, cli)
    print(f"cli: {describe(cli)}")

    runs: list[dict[str, float]] = []
    overheads: list[float] = []
    start = time.monotonic()
    longest = 0.0
    while not runs or time.monotonic() - start + longest <= seconds:
        began = time.monotonic()
        tracer = traced.Tracer(enabled=True)
        out = h.run_dir / "traced"
        t0 = time.perf_counter()
        report = traced.run_pipeline(config, out, w.matcher, tracer)
        traced_s = time.perf_counter() - t0
        shutil.rmtree(out / "heads")
        require(same_bytes(out / "gt.txt", cli.gt), "traced gt.txt differs from the CLI's")
        require(same_bytes(out / "result.txt", cli.result), "traced result rows differ from the CLI's")
        tracer.write(RUNS / f"{w.name}.trace.jsonl", workload=w.name)

        plain = h.run_dir / "plain"
        t0 = time.perf_counter()
        traced.run_pipeline(config, plain, w.matcher, traced.Tracer(enabled=False))
        plain_s = time.perf_counter() - t0
        shutil.rmtree(plain)
        overheads.append(traced_s - plain_s)

        metrics = traced.layer_metrics(tracer)
        counts = {k: v for k, v in metrics.items() if not k.endswith("_s")}
        if runs:
            require(
                counts == {k: runs[0][k] for k in counts},
                "per-layer counts differ between two traced runs",
            )
        runs.append(metrics)
        longest = max(longest, time.monotonic() - began)
        print(
            f"traced run {len(runs)}: {traced_s:.4f} s, untraced {plain_s:.4f} s, "
            f"{len(tracer.spans)} spans; identities {report['identities']}",
            flush=True,
        )
    print(f"tracing overhead: median {statistics.median(overheads):.4f} s over {len(runs)} pair(s)")

    # Times are medians; counts and ratios are the same in every run.
    metrics = {k: statistics.median(r[k] for r in runs) if k.endswith("_s") else v
               for k, v in runs[0].items()}
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["cli.import_scipy_s"] = scipy_import_seconds(cli.track_stderr)
    return metrics


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, TINY.name])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    deadline = time.monotonic() + DEADLINE_S
    args = parse_args(argv)
    if not (SRC / "peaktrack" / "__init__.py").is_file():
        print(f"error: no peaktrack package under {SRC}", file=sys.stderr)
        return 2
    w = TINY if args.workload == TINY.name else WORKLOADS[args.workload]
    run_dir = RUNS / f"{w.name}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    config = run_dir / "scene.cfg"
    config.write_text(w.config_text(args.seed))
    h = Harness(run_dir, deadline)
    try:
        if args.trace:
            values = trace(h, w, config, args.seconds)
            units = LAYER_UNITS
        else:
            values = measure(h, w, config, args.seconds)
            units = E2E_UNITS
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        result = {"correct": False, "attempted": h.attempted, "failed": h.failed, "metrics": {}}
        print(json.dumps(result))
        return 1
    finally:
        shutil.rmtree(run_dir)  # head directories run to hundreds of MB
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": True, "attempted": h.attempted, "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
