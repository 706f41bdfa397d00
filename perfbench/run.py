"""Run one lorenzlinks benchmark workload and print its metrics.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The run first times SETUP_REPEATS fresh interpreters that import the package
and prepare the workload's inputs (``setup_s`` is their median), then
repeats timed passes over the seeded inputs, one caller and one thread,
until ``--seconds`` have passed and at least MIN_UNITS units were measured.
Every pass's outputs are checked.

Times are reported at the reference host speed.  On a shared host the speed
this process gets drifts by tens of percent over minutes, so a fixed
calibration job (``workloads.calibration_s``) is timed right before each
set-up probe and before and after each pass, and that probe's or pass's
times are multiplied by CALIBRATION_REF_S / calibration time.  The raw
times are printed and kept in the detail record as ``raw_*``, with the
median ``host_speed``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
listed in BENCHMARK.json.  With ``--trace 1`` untraced and traced passes
alternate; the line carries the per-layer metrics, taken from the traced
passes and given per pass, and ``trace.overhead_frac`` compares the two
kinds.  The line before it, ``detail {...}``, has the provenance, input
statistics and every computed figure; the same record is written to
``perfbench/_work/``, with the spans of the last traced pass.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / "_work"
SETUP_REPEATS = 5
MIN_UNITS = 100  # so at least ten latency samples lie beyond p90
# one thread: keep numpy's BLAS from starting a pool at import
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
COUNTS = (
    "words.words_enumerated", "braid.strands", "cli.records_verified", "jones.crossings",
    "jones.refused", "modular.dedekind_k", "flow.rk4_steps",
)
# calibration_s() on an uncontended host (2.1 GHz Xeon VM, Python 3.11)
CALIBRATION_REF_S = 0.020
clock = time.perf_counter


def source_init() -> Path:
    init = ROOT / "src" / "lorenzlinks" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init.relative_to(ROOT)} not found; run from the root of a checkout")
    return init


def load_program():
    """Import lorenzlinks from this checkout's sources, never from elsewhere."""
    init = source_init()
    os.environ.update(SINGLE_THREAD)
    sys.path.insert(0, str(ROOT / "src"))
    import lorenzlinks

    if Path(lorenzlinks.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: lorenzlinks was imported from {lorenzlinks.__file__}")
    return lorenzlinks


def probe_setup(workload: str, seed: int) -> None:
    """Child side of a set-up measurement: import, prepare, report."""
    start = clock()
    load_program()
    imported = clock()
    from workloads import WORKLOADS

    WORKLOADS[workload](seed, WORK / "probe" / workload)
    print(json.dumps({"import_s": imported - start, "prep_s": clock() - imported}))


def measure_setup(workload: str, seed: int) -> list[dict]:
    """Time SETUP_REPEATS fresh interpreters from spawn to exit, each after
    a calibration run that gives the host speed."""
    from workloads import calibration_s

    env = {**os.environ, **SINGLE_THREAD}
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
            "--workload", workload, "--seed", str(seed)]
    probes = []
    for _ in range(SETUP_REPEATS):
        speed = CALIBRATION_REF_S / calibration_s()
        start = clock()
        child = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        wall = clock() - start
        if child.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{child.stderr}")
        probes.append({"wall_s": wall, "speed": speed, **json.loads(child.stdout.splitlines()[-1])})
    return probes


def git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lorenzlinks").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "source_sha256": digest.hexdigest(),
    }


def timings(passes, prefix: str, scale) -> dict:
    """Median pass time, throughput and unit-latency percentiles, with each
    pass's times multiplied by ``scale(pass)``."""
    latencies = [x * scale(p) for p in passes for x in p.latencies]
    cuts = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        f"{prefix}wall_s": statistics.median(p.wall_s * scale(p) for p in passes),
        f"{prefix}throughput_per_s": statistics.median(len(p.latencies) / (p.unit_s * scale(p)) for p in passes),
        f"{prefix}latency_p50_ms": cuts[4] * 1e3,
        f"{prefix}latency_p90_ms": cuts[8] * 1e3,
    }


def end_to_end(passes, probes, workload) -> dict:
    """Times at the reference host speed, their raw values as raw_*."""
    metrics = {
        "setup_s": statistics.median(p["wall_s"] * p["speed"] for p in probes),
        **timings(passes, "", lambda p: p.speed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "raw_setup_s": statistics.median(p["wall_s"] for p in probes),
        **timings(passes, "raw_", lambda p: 1.0),
        "host_speed": statistics.median(p.speed for p in passes),
    }
    if workload.name == "census":
        metrics["query_records_per_s"] = statistics.median(
            p.extra["query_records"] * p.speed / p.extra["query_s"] for p in passes
        )
    return metrics


def per_layer(tracer, self_s, traced, untraced, probes) -> dict:
    """Per traced pass: calls and self time of each traced name, and counts."""
    n = len(traced)
    metrics = {}
    for i, name in enumerate(tracer.names):
        metrics[f"{name}.calls"] = tracer.calls[i] / n
        metrics[f"{name}.self_s"] = float(self_s[i]) / n
    for key in COUNTS:
        metrics[key] = tracer.counts.get(key, 0) / n
    for code in ("0", "2", "3", "4", "uncaught"):
        metrics[f"cli.exit_code.{code}"] = tracer.counts.get(f"cli.exit_code.{code}", 0) / n
    attempts = tracer.counts.get("jones.attempts", 0)
    # a pass that attempts no Jones polynomial wastes none
    metrics["jones.useful_ratio"] = tracer.counts.get("jones.polynomials", 0) / attempts if attempts else 1.0
    metrics["setup.import_s"] = statistics.median(p["import_s"] * p["speed"] for p in probes)
    metrics["trace.overhead_frac"] = (
        statistics.median(p.wall_s * p.speed for p in traced)
        / statistics.median(p.wall_s * p.speed for p in untraced) - 1
    )
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    source_init()
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    seconds = args.seconds or spec["run_seconds"]
    package = load_program()
    probes = measure_setup(args.workload, args.seed)
    from tracer import Tracer
    from workloads import WORKLOADS, calibration_s

    workload = WORKLOADS[args.workload](args.seed, WORK / args.workload)
    tracer = Tracer(package) if args.trace else None
    untraced, traced, wrong = [], [], {}
    self_s, spans = 0.0, None
    deadline = clock() + seconds
    while True:
        tracing = tracer is not None and len(traced) < len(untraced)
        gc.collect()
        before = calibration_s()
        if tracing:
            tracer.install()
        try:
            done = workload.run_pass()
        finally:
            if tracing:
                tracer.uninstall()
        done.speed = 2 * CALIBRATION_REF_S / (before + calibration_s())
        if tracing:
            self_s = self_s + tracer.self_times() * done.speed
            spans = tracer.take_spans()
            traced.append(done)
        else:
            untraced.append(done)
        wrong.update(dict.fromkeys(workload.check(done)))
        done.outputs = None  # keep peak_rss_mb independent of the number of passes
        if (clock() >= deadline and sum(len(p.latencies) for p in untraced) >= MIN_UNITS
                and (tracer is None or traced)):
            break

    everything = untraced + traced
    attempted = sum(p.attempted for p in everything)
    failed = sum(p.failed for p in everything)
    computed = end_to_end(untraced, probes, workload)
    computed["failed_frac"] = failed / attempted
    if tracer is not None:
        computed.update(per_layer(tracer, self_s, traced, untraced, probes))
    failures = sum((p.extra.get("failures", Counter()) for p in everything), Counter())

    kind = "per_layer" if args.trace else "end_to_end"
    # a traced name that the program no longer defines was not called: 0
    reported = {m["name"]: {"value": computed.get(m["name"], 0.0), "unit": m["unit"]} for m in spec[kind]}
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": seconds, "trace": args.trace,
        "unit": workload.unit, "provenance": provenance(), "inputs": workload.stats(),
        "passes": len(untraced), "traced_passes": len(traced),
        "pass_wall_s": [p.wall_s for p in untraced], "traced_pass_wall_s": [p.wall_s for p in traced],
        "units_per_pass": len(untraced[0].latencies), "attempted": attempted, "failed": failed,
        "failures": dict(failures), "wrong": list(wrong)[:50],
        "setup_probes": probes, "metrics": computed,
        "atlas_sha256": sorted({p.extra["atlas_sha256"] for p in everything if "atlas_sha256" in p.extra}),
    }
    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / f"result-{args.workload}-trace{args.trace}.json", "w") as handle:
        json.dump(detail, handle, indent=1)
    if spans is not None:
        import numpy

        numpy.savez(WORK / f"spans-{args.workload}.npz",
                    spans=numpy.frombuffer(spans, dtype=numpy.float64).reshape(-1, 4),
                    names=numpy.array(tracer.names))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {len(untraced)} passes"
          f" + {len(traced)} traced, {attempted} attempted, {failed} failed")
    for message in list(wrong)[:20]:
        print(f"  wrong: {message}")
    for reason, count in failures.most_common():
        print(f"  failed x{count}: {reason}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(failed_frac="fraction", query_records_per_s="1/s", host_speed="ratio",
                 raw_setup_s="s", raw_wall_s="s", raw_throughput_per_s="1/s",
                 raw_latency_p50_ms="ms", raw_latency_p90_ms="ms")
    for name, value in computed.items():
        print(f"  {name:<36} {value:.6g} {units.get(name, '')}")
    print("detail " + json.dumps(detail, separators=(",", ":")))
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
