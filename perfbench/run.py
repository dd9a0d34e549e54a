"""isozeta benchmark: seeded job workloads run as a closed loop from one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root.  One job runs at a time in this single
process; the loop takes whole cycles of jobs (see ``workloads.py``) until
``--seconds`` have passed.  Every job is checked by the correctness gate.
The last line of stdout is one JSON object: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
replay of the same jobs.  ``correct`` is true when the gate counted both
of its known-bad inputs as failures and every metric's name and unit are
well formed and as declared in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
# set-up runs at least SETUP_MIN times and until SETUP_SPAN_S have passed
SETUP_MIN, SETUP_MAX, SETUP_SPAN_S = 3, 25, 1.0
TAIL_BEYOND = 10
END_TO_END = (
    ("job_s.median", "s"),
    ("job_s.tail", "s"),
    ("jobs_per_min", "1/min"),
    ("failed_share", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
GATE_KINDS = ("traceback", "exit", "mismatch")


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest nearest-rank percentile with at
    least TAIL_BEYOND samples above it.  Below 10 * TAIL_BEYOND samples that
    percentile would sit under p90, so the maximum is used instead."""
    s = sorted(times)
    n = len(s)
    if n < 10 * TAIL_BEYOND:
        return s[-1], 100.0
    k = n - TAIL_BEYOND
    return s[k - 1], 100.0 * k / n


def run_jobs(wl, seconds: float) -> tuple[list, list, float]:
    """Closed loop over whole cycles until `seconds` have passed."""
    from workloads import execute

    jobs, outcomes = [], []
    start = perf_counter()
    index = 0
    while True:
        for job in wl.cycle(index):
            jobs.append(job)
            outcomes.append(execute(job))
        index += 1
        if perf_counter() - start >= seconds:
            break
    return jobs, outcomes, perf_counter() - start


def gate_counts(outcomes) -> dict[str, int]:
    counts = {kind: 0 for kind in GATE_KINDS}
    for o in outcomes:
        if o.failure is not None:
            counts[o.failure.kind] += 1
    return counts


def end_to_end(outcomes, wall: float, setup_s: float) -> dict[str, tuple[float, str]]:
    times = [o.seconds for o in outcomes]
    failed = sum(o.failure is not None for o in outcomes)
    tail_s, pct = tail(times)
    print(f"job_s.tail is p{pct:.2f} of {len(times)} jobs")
    values = {
        "job_s.median": statistics.median(times),
        "job_s.tail": tail_s,
        "jobs_per_min": 60.0 * len(times) / wall,
        "failed_share": failed / len(times),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}


def traced_replay(jobs, outcomes, workload: str, seed: int) -> dict[str, tuple[float, str]]:
    """Run the same jobs again with spans on; per-layer metrics from them."""
    from tracing import LAYERS, Tracer
    from workloads import execute

    tracer = Tracer()
    tracer.install()
    try:
        traced = [execute(job, tracer, i) for i, job in enumerate(jobs)]
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}-{seed}.jsonl")
    traced_s = sum(o.seconds for o in traced)
    untraced_s = sum(o.seconds for o in outcomes)
    metrics = tracer.layer_metrics(traced_s)
    metrics["trace.untraced_job_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    for kind, count in gate_counts(traced).items():
        metrics[f"gate.failed.{kind}"] = (count, "count")
    series = sum(o.failure is not None and o.failure.what == "series" for o in traced)
    metrics["zeta.check.mismatch"] = (series, "count")
    attributed = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
    print(
        f"traced job time {traced_s:.4f} s = layer self times {attributed:.4f} s "
        f"+ unattributed {metrics['trace.unattributed_s'][0]:.4f} s; "
        f"tracing overhead {traced_s - untraced_s:.4f} s over {untraced_s:.4f} s untraced"
    )
    return metrics


def metrics_as_declared(metrics: dict[str, tuple[float, str]], group: str) -> bool:
    """Names and units well formed, and exactly the metrics BENCHMARK.json
    declares in `group` ("end_to_end" or "per_layer"), with its units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec[group]}
    emitted = {n: u for n, (_, u) in metrics.items()}
    well_formed = all(NAME_RE.fullmatch(n) and UNIT_RE.fullmatch(u) for n, u in emitted.items())
    return well_formed and emitted == declared


def add_sources() -> None:
    """Put src/ and this directory on the import path."""
    src = ROOT / "src"
    if not (src / "isozeta" / "__init__.py").is_file():
        raise ImportError(f"no isozeta sources under {src}")
    sys.path.insert(0, str(src))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import isozeta

    if Path(isozeta.__file__).resolve().parent != (src / "isozeta").resolve():
        raise ImportError(f"isozeta imported from {isozeta.__file__}, not from {src}")


def set_up(workload: str, seed: int, workdir: Path):
    """Import the package and prepare the workload's inputs several times,
    each time from a fresh import.  Returns the last prepared workload and
    the median set-up time."""
    times = []
    while len(times) < SETUP_MIN or (sum(times) < SETUP_SPAN_S and len(times) < SETUP_MAX):
        for name in [m for m in sys.modules if m.split(".")[0] in ("isozeta", "workloads")]:
            del sys.modules[name]
        wl = None
        gc.collect()  # free the previous copy before the next one is made
        start = perf_counter()
        import workloads

        wl = workloads.WORKLOADS[workload](seed, workdir)
        wl.setup()
        times.append(perf_counter() - start)
    return wl, statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        add_sources()
    except ImportError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        # each workload in a fresh process of its own, one after the other
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
            ).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")

    workdir = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl, setup_s = set_up(args.workload, args.seed, workdir)
        from workloads import gate_selfcheck

        gate = gate_selfcheck(workdir)
        for name, flagged in gate.items():
            print(f"gate counts {name} as a failure: {'yes' if flagged else 'NO'}")

        seconds = args.seconds / 2 if args.trace else args.seconds
        jobs, outcomes, wall = run_jobs(wl, seconds)
        counts = gate_counts(outcomes)
        print(f"{args.workload} seed {args.seed}: {len(outcomes)} jobs in {wall:.3f} s, failed by kind {counts}")
        failing = sorted({f"{o.label}: {o.failure.kind} ({o.failure.what})" for o in outcomes if o.failure})
        for line in failing[:5]:
            print("  failed:", line)
        if args.trace:
            metrics = traced_replay(jobs, outcomes, args.workload, args.seed)
        else:
            metrics = end_to_end(outcomes, wall, setup_s)
        declared = metrics_as_declared(metrics, "per_layer" if args.trace else "end_to_end")
        print(f"metrics well formed and as declared in BENCHMARK.json: {'yes' if declared else 'NO'}")
        for name, (value, unit) in metrics.items():
            print(f"{name:32s} {value:.6g} {unit}")
        result = {
            "correct": all(gate.values()) and declared,
            "attempted": len(outcomes),
            "failed": sum(counts.values()),
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
