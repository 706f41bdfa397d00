"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/suite.py --seeds 1-10 [--workloads census,jones] [--trace 1]
                               [--out perfbench/results/NAME.json]

Each run is ``perfbench/run.py`` in a fresh interpreter, one at a time, with
``run_seconds`` from BENCHMARK.json.  For every end-to-end metric the summary
gives the median over seeds, the quartiles (``statistics.quantiles(n=4)``)
and the spread (q3 - q1) / median next to the metric's bound.  With
``--trace 1`` it gives the medians of the per-layer metrics instead.
``--out`` keeps every run's result and detail line with the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    child = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - start
    if child.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {child.returncode}:\n{child.stderr}")
    lines = child.stdout.splitlines()
    detail = json.loads(lines[-2].removeprefix("detail "))
    return {"workload": workload, "seed": seed, "trace": trace, "elapsed_s": elapsed,
            "result": json.loads(lines[-1]), "detail": detail}


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        rows = {}
        for metric in metrics:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in mine]
            median = statistics.median(values)
            row = {"median": median, "unit": metric["unit"], "runs": len(values)}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                row.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
            if "bound" in metric:
                row["bound"] = metric["bound"]
            rows[metric["name"]] = row
        summary[workload] = {
            "correct": all(r["result"]["correct"] for r in mine),
            "attempted": sum(r["result"]["attempted"] for r in mine),
            "failed": sum(r["result"]["failed"] for r in mine),
            "metrics": rows,
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    runs = []
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            run = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append(run)
            result = run["result"]
            print(f"{workload} seed={seed}: correct={result['correct']} attempted={result['attempted']}"
                  f" failed={result['failed']} ({run['elapsed_s']:.1f} s)", flush=True)
    summary = summarise(runs, metrics)

    for workload, block in summary.items():
        print(f"\n{workload}: correct={block['correct']} attempted={block['attempted']} failed={block['failed']}")
        for name, row in block["metrics"].items():
            if args.trace and not row["median"]:
                continue
            line = f"  {name:<36} {row['median']:<12.6g} {row['unit']:<8}"
            if row.get("spread") is not None:
                line += f" q1 {row['q1']:<10.5g} q3 {row['q3']:<10.5g} spread {row['spread']:.4f}"
            if "bound" in row:
                line += f" bound {row['bound']}"
            print(line)
    if args.out:
        write_results(args.out, summary, runs)
    return 0


def write_results(path: Path, summary: dict, runs: list[dict]) -> None:
    """The summary indented, then one run per line, so the file diffs by run."""
    lines = [json.dumps(run, separators=(",", ":")) for run in runs]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        '{"summary": ' + json.dumps(summary, indent=1) + ',\n"runs": [\n' + ",\n".join(lines) + "\n]}\n"
    )


if __name__ == "__main__":
    sys.exit(main())
