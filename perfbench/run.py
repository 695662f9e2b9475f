"""asnkit benchmark: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload analyze-zipf --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; asnkit is imported from ``src/``.
With ``--trace 0`` the last line of standard output carries the end-to-end
metrics ``wall_s``, ``setup_s`` and ``peak_rss_mb``; with ``--trace 1`` it
carries the ``per_layer`` metrics of ``BENCHMARK.json`` and the span file is
left in ``.perfbench/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER  # noqa: E402

WORKLOADS = ("analyze-zipf", "fit-bootstrap", "ingest-large")

#: Set-up is measured this many times per run and reported as the median,
#: because interpreter start and imports alone jitter by more than 10%.
SETUP_PROBES = 3

#: Every child is killed once the run has taken this long.
DEADLINE_S = 170.0

#: The worker forks one process per round; a single-threaded BLAS keeps it
#: free of threads when it forks.
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


class BenchmarkError(Exception):
    pass


def _worker(args, work: Path, phase: str, *extra: str) -> list[str]:
    return [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--work", str(work), "--phase", phase, *extra,
    ]


def _kill(proc: subprocess.Popen) -> None:
    """Kill a child and the round processes it forked, then reap it."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.wait()


def _run_child(cmd: list[str], deadline: float, wait_ready: bool) -> float | None:
    """Run a child to completion; returns its set-up time.

    That is the time from spawn to the ``ready`` line, less the speed
    samples the child reports on that line, at calibration speed.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=CHILD_ENV, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE if wait_ready else subprocess.DEVNULL, text=True,
        start_new_session=True,
    )
    watchdog = threading.Timer(max(0.0, deadline - start), _kill, (proc,))
    watchdog.start()
    ready = None
    try:
        if wait_ready:
            for line in proc.stdout:
                if line.startswith("ready "):
                    elapsed = time.perf_counter() - start
                    spent, factor = map(float, line.split()[1:])
                    ready = (elapsed - spent) / factor
                    break
            proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        _kill(proc)
    if code != 0 or (wait_ready and ready is None):
        raise BenchmarkError(f"child exited with {code}: {' '.join(cmd)}")
    return ready


def measure(args) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        probes = SETUP_PROBES if not args.trace else 1
        setups = [
            _run_child(_worker(args, work, "setup"), deadline, wait_ready=True)
            for _ in range(probes)
        ]
        result_file = work / "result.json"
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--result", str(result_file)]
        if args.trace:
            trace_file = out_dir / f"trace-{args.workload}-{args.seed}.json"
            extra += ["--trace-file", str(trace_file)]
        _run_child(_worker(args, work, "run", *extra), deadline, wait_ready=False)
        report = json.loads(result_file.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = {
            name: {"value": report["layers"][name], "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        metrics = {
            "wall_s": {"value": report["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still reaches the ``finally`` blocks that kill its
    # children and remove its scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "asnkit" / "__init__.py").is_file():
        print(f"error: no asnkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
