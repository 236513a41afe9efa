"""Fingerprints and alternating timing pairs for a `BENCH_<label>.json` record.

    python3 tools/bench_record.py --check
    python3 tools/bench_record.py --baseline ../parent --time crowd-greedy:4 \\
        --pairs 10 --seconds 40 --label pr33 --out BENCH_pr33.json

A fingerprint is what one (workload, seed) gives when its commands run
apart, each as its own process in a fresh directory: `simulate --out .`,
`track` with the workload's matcher into `result.txt`, and `evaluate
--csv`.  It holds the exit codes, the sha256 of the head files (each file's
name, a NUL byte and its bytes, in name order), of `gt.txt` and of the
result file, `track`'s stdout, the `evaluate --csv` row, and the sha256 of
every other stdout and stderr.  The configs are `benchmarks/workloads.py`'s.
By default the fingerprints cover the three workloads at seeds 1-3;
`--workload` and `--seed` narrow them.

`--check` compares each fingerprint with the one in the newest `BENCH_*.json`
next to this directory that holds the same (workload, seed) (newest by the
number in its name), field by field where both have the field, and exits 1
when one differs.

`--baseline SRC_DIR` takes a checkout of the parent commit (a clone or a
worktree) and runs `benchmarks/run.py --trace 0` of each tree in turn, so
each side's `run.py` times its own `src/`.  For each `--time WORKLOAD:SEED`
it runs `--pairs` pairs of `--seconds` runs, swapping which tree goes first
from one pair to the next.  It writes to `--out` the machine, each run's
metrics, each metric's medians, Q1-Q3 (inclusive quartiles) and the pairs
the change won (by `BENCHMARK.json`'s "better"), and both trees'
fingerprints.  Nothing under `benchmarks/` is changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"]}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def heads_sha256(heads: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(heads.iterdir(), key=lambda p: p.name):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def fingerprint(tree: Path, workload: str, seed: int) -> dict:
    """Run simulate, track and evaluate --csv of `tree`'s `src/` in a fresh directory."""
    w = WORKLOADS[workload]
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    with tempfile.TemporaryDirectory(prefix="bench-record-") as tmp:
        run_dir = Path(tmp)
        (run_dir / "scene.cfg").write_text(w.config_text(seed))
        commands = {
            "simulate": ["simulate", "--config", "scene.cfg", "--out", "."],
            "track": [
                "track", "--heads", "heads", "--config", "scene.cfg",
                "--matcher", w.matcher, "--out", "result.txt",
            ],
            "evaluate": ["evaluate", "--gt", "gt.txt", "--pred", "result.txt", "--csv"],
        }
        procs = {
            name: subprocess.run(
                [sys.executable, "-m", "peaktrack", *args],
                cwd=run_dir,
                env=env,
                capture_output=True,
            )
            for name, args in commands.items()
        }
        gt, result, heads = (run_dir / name for name in ("gt.txt", "result.txt", "heads"))
        return {
            "exit_codes": [p.returncode for p in procs.values()],
            "heads_sha256": heads_sha256(heads) if heads.is_dir() else None,
            "gt_sha256": sha256(gt.read_bytes()) if gt.exists() else None,
            "result_sha256": sha256(result.read_bytes()) if result.exists() else None,
            "simulate_stdout_sha256": sha256(procs["simulate"].stdout),
            "simulate_stderr_sha256": sha256(procs["simulate"].stderr),
            "track_stdout": procs["track"].stdout.decode().strip(),
            "track_stderr_sha256": sha256(procs["track"].stderr),
            "evaluate_csv_row": procs["evaluate"].stdout.decode().strip().rpartition("\n")[2],
            "evaluate_stdout_sha256": sha256(procs["evaluate"].stdout),
            "evaluate_stderr_sha256": sha256(procs["evaluate"].stderr),
        }


def bench_files() -> list[Path]:
    """The `BENCH_*.json` files next to this directory, newest (highest number) first."""
    def number(path: Path) -> int:
        digits = re.findall(r"\d+", path.stem)
        return int(digits[-1]) if digits else -1

    return sorted(ROOT.glob("BENCH_*.json"), key=number, reverse=True)


def recorded(key: str) -> tuple[Path, dict] | None:
    """The newest record's fingerprint of `key` ("workload/seedN"), with its file."""
    for path in bench_files():
        prints = json.loads(path.read_text()).get("fingerprints", {}).get("workloads", {})
        if key in prints:
            return path, prints[key]
    return None


def check(keys: list[tuple[str, int]]) -> int:
    """Exit status 1 when a fingerprint differs from its newest record, else 0."""
    status = 0
    for workload, seed in keys:
        key = f"{workload}/seed{seed}"
        found = recorded(key)
        if found is None:
            print(f"{key}: no BENCH file records it")
            continue
        path, want = found
        got = fingerprint(ROOT, workload, seed)
        differ = sorted(k for k in got.keys() & want.keys() if got[k] != want[k])
        if differ:
            status = 1
            for k in differ:
                print(f"{key}: {k} is {got[k]!r}, {path.name} records {want[k]!r}")
        else:
            print(f"{key}: matches {path.name} ({len(got.keys() & want.keys())} fields)")
    return status


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `benchmarks/run.py --trace 0` of `tree`, as its last stdout line gives it."""
    argv = [
        sys.executable, str(tree / "benchmarks" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, capture_output=True, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{' '.join(argv)} failed:\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> list[float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 4), round(q3, 4)]


def summarize(pairs: list[dict]) -> dict:
    """Per metric: both medians, both Q1-Q3 and the pairs the change won."""
    summary: dict = {"pairs": len(pairs)}
    for name, better in BETTER.items():
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
        summary[name] = {
            "parent_median": round(statistics.median(parent), 4),
            "change_median": round(statistics.median(change), 4),
            "parent_q1_q3": quartiles(parent),
            "change_q1_q3": quartiles(change),
            "change_wins": wins,
        }
    return summary


def numpy_import_seconds(repeats: int = 5) -> float:
    """Median wall time of a fresh `python -c "import numpy"`, to scale across machines."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], check=True)
        times.append(time.perf_counter() - start)
    return round(statistics.median(times), 4)


def git_head(tree: Path) -> str | None:
    proc = subprocess.run(
        ["git", "-C", str(tree), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def record(args: argparse.Namespace, keys: list[tuple[str, int]]) -> int:
    import numpy as np

    baseline = Path(args.baseline).resolve()
    trees = {"parent": baseline, "change": ROOT}
    timed = {}
    for spec in args.time:
        workload, seed = spec.split(":")
        pairs = []
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_bench(trees[side], workload, int(seed), args.seconds)
            parent, change = pair["parent"]["track_s"], pair["change"]["track_s"]
            line = f"{workload}/seed{seed} pair {i + 1}: track_s {parent:.4f} -> {change:.4f}"
            print(line, flush=True)
            pairs.append(pair)
        timed[f"{workload}/seed{seed}"] = {"summary": summarize(pairs), "runs": pairs}

    prints = {}
    for workload, seed in keys:
        key = f"{workload}/seed{seed}"
        parent, change = (fingerprint(trees[side], workload, seed) for side in trees)
        prints[key] = {"identical": parent == change, **change}
    out = {
        "label": args.label,
        "change": args.change,
        "command": (
            f"python3 benchmarks/run.py --workload W --seed S --seconds {args.seconds:g} "
            "--trace 0, parent and change in turn"
        ),
        "order": "the first tree swaps from one pair to the next",
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "dont_write_bytecode": sys.dont_write_bytecode,
            "numpy_import_s": numpy_import_seconds(),
        },
        "parent_commit": git_head(baseline),
        "end_to_end": timed,
        "fingerprints": {"workloads": prints},
        "fingerprints_note": (
            "simulate, track (the workload's matcher) and evaluate --csv run apart in a fresh "
            "directory; 'identical' compares every field of the parent's and the change's"
        ),
    }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0 if all(p["identical"] for p in prints.values()) else 1


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=list(WORKLOADS))
    p.add_argument("--seed", action="append", type=int)
    p.add_argument("--check", action="store_true", help="compare with the newest BENCH file")
    p.add_argument("--baseline", help="checkout of the parent commit to time against")
    p.add_argument("--time", action="append", default=[], help="WORKLOAD:SEED to time in pairs")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--label", default="")
    p.add_argument("--change", default="", help="one line on what the change does")
    p.add_argument("--out", help="record file to write (with --baseline)")
    args = p.parse_args(argv)
    if args.baseline and not (args.out and args.time):
        p.error("--baseline needs --out and at least one --time")
    if not (args.check or args.baseline):
        p.error("give --check, --baseline or both")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    keys = [(w, s) for w in args.workload or list(WORKLOADS) for s in args.seed or (1, 2, 3)]
    status = check(keys) if args.check else 0
    if args.baseline:
        status = record(args, keys) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
