"""Regenerate the reference figures in README.md: spreads, medians, layers.

    python3 benchmarks/reference.py

For each workload in BENCHMARK.json it runs the benchmark once per seed
1-10 with tracing off, then once traced (seed 1), each as its own process
exactly as BENCHMARK.json describes, and prints markdown tables: per
end-to-end metric the median over seeds and the quartile spread
(Q3 - Q1) / median beside the metric's bound, then the per-layer metrics.
It exits 1 if a run fails or a spread other than `setup_s` exceeds its
bound.  Nothing gates on the figures themselves.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    argv = [*SPEC["command"], "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(argv)} reported incorrect output")
    return result, lines[:-1]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    steady = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = []
        for seed in SEEDS:
            result, _ = run_once(workload, seed, 0)
            runs.append(result)
            times = " ".join(f"{k}={v['value']:.3f}" for k, v in result["metrics"].items()
                             if k.endswith("_s"))
            print(f"<!-- {workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']}; {times} -->", flush=True)
        print(f"\n### {workload}\n\n| metric | unit | median | spread | bound |\n|---|---|---|---|---|")
        for m in SPEC["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            s = spread(values)
            if m["name"] != "setup_s" and s > m["bound"]:
                steady = False
            print(f"| `{m['name']}` | {m['unit']} | {statistics.median(values):.4g} "
                  f"| {s:.3f} | {m['bound']} |")
        traced, log = run_once(workload, 1, 1)
        print("\n" + "\n".join(f"    {line}" for line in log if not line.startswith("traced run")))
        print("\n| per-layer metric | value | unit |\n|---|---|---|")
        for name, metric in traced["metrics"].items():
            value = metric["value"]
            shown = str(value) if isinstance(value, int) else f"{value:.4g}"
            print(f"| `{name}` | {shown} | {metric['unit']} |")
        sys.stdout.flush()
    if not steady:
        print("\nsome spread exceeds its bound", file=sys.stderr)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
