"""xray3d benchmark: one workload per run, one JSON result line at the end.

    python3 perfbench/run.py --workload sweep_suite --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
With --trace 0 the run sets up, then repeats the workload body with
tracing off while the next repetition still ends within --seconds of the
process start (at least once), and reports the end-to-end metrics
(medians over the repetitions). With --trace 1 it runs the body once
untraced and once traced, whatever --seconds says, and reports the
per-layer metrics of the traced pass.
Scratch files, and a JSON record of each run (environment, seeds,
fixture sizes, work digest and, when traced, every span), go to
`.perfbench_work/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("sweep_suite", "views_dataset", "cli_roundtrip")
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "chamfer": "dist", "ok_frac": "ratio"}
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import xray3d; "
    "print(time.perf_counter() - t)"
)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as statistics.quantiles
    gives them; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> dict:
    """Cap BLAS pools at nproc and drop the sweep's pool-size variable;
    both must be set before numpy is imported."""
    caps = {var: str(nproc()) for var in BLAS_VARS}
    os.environ.update(caps)
    os.environ.pop("XRAY_THREADS", None)
    return caps


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_iteration(workload, checks, timed: bool):
    """One body under a recorder; returns (body seconds, chamfer, recorder)."""
    from layers import install
    from spans import Recorder

    with Recorder(timed=timed) as rec:
        install(rec)
        t0 = time.perf_counter()
        try:
            outputs = workload.body()
        except Exception as exc:  # counted as a failed check; the run goes on
            outputs = None
            checks.check(False, f"body raised {type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t0
    chamfer = float("nan") if outputs is None else workload.check(outputs, checks)
    workload.clean()
    return wall, chamfer, rec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "xray3d" / "__init__.py").is_file():
        print(f"error: no xray3d package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    caps = cap_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        result, record = measure(args, caps, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (records / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record["summary"]))
    print(json.dumps(result))
    return 0


def measure(args, caps: dict, run_dir: Path) -> tuple[dict, dict]:
    # More import probes follow each body of a --trace 0 run, so that
    # setup_s samples the host's speed over the whole run, as wall_s does.
    import_times = [import_seconds() for _ in range(SETUP_REPEATS)]
    import numpy
    import scipy

    from layers import digest, layer_metrics
    from workloads import SWEEP_WORKERS, WORKLOADS, Checks

    setup_times = []
    for i in range(SETUP_REPEATS):
        workdir = run_dir / f"setup{i}"
        workdir.mkdir()
        t0 = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        setup_times.append(time.perf_counter() - t0)

    checks = Checks()
    walls, chamfers, digests = [], [], []
    spans = []

    def note_digest(rec) -> None:
        # Every iteration of one seed must do the same work.
        digests.append(digest(rec))
        checks.check(digests[-1] == digests[0],
                     f"work digest {digests[-1]} differs from the first {digests[0]}")

    if args.trace:
        untraced_wall, chamfer, rec = run_iteration(workload, checks, timed=False)
        note_digest(rec)
        wall, chamfer, rec = run_iteration(workload, checks, timed=True)
        note_digest(rec)
        walls, chamfers = [untraced_wall, wall], [chamfer]
        values = layer_metrics(rec, threading.get_ident(), wall, untraced_wall, SWEEP_WORKERS)
        spans = [
            {"name": s.name, "thread": s.thread, "start": s.start, "end": s.end,
             "parent": s.parent, "counts": s.counts}
            for s in rec.spans
        ]
    else:
        iteration_times = []
        while True:
            t0 = time.perf_counter()
            wall, chamfer, rec = run_iteration(workload, checks, timed=False)
            walls.append(wall)
            chamfers.append(chamfer)
            note_digest(rec)
            import_times.append(import_seconds())
            iteration_times.append(time.perf_counter() - t0)
            if len(walls) == 1:
                # Peak memory of set-up and one body, as a user running the
                # workload once would see it; later bodies do not add to it.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            # Set-up and checks count against --seconds too.
            elapsed = time.perf_counter() - START
            if elapsed + statistics.median(iteration_times) > args.seconds:
                break
        measured = {
            "setup_s": statistics.median(import_times) + statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": peak_rss_mb,
            "chamfer": statistics.median(chamfers),
            "ok_frac": checks.ok_frac,
        }
        values = {name: (measured[name], unit) for name, unit in END_TO_END.items()}

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    summary = {
        "workload": args.workload,
        "work": workload.units_of_work,
        "seed": args.seed,
        "trace": args.trace,
        "iterations": len(walls) if not args.trace else 1,
        "walls_s": walls,
        "failed_frac": checks.failed / checks.attempted if checks.attempted else 0.0,
        "digest": digests[0],
    }
    record = {
        "result": result,
        "summary": summary,
        "seeds": workload.seeds,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_thread_caps": caps,
        "sweep_workers": SWEEP_WORKERS,
        "fixture_faces": workload.fixture_faces(),
        "setup": {"import_s": import_times, "fixtures_s": setup_times},
        "chamfers": chamfers,
        "failures": checks.messages,
        "spans": spans,
    }
    return result, record


if __name__ == "__main__":
    sys.exit(main())
