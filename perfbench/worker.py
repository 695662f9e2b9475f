"""One benchmark process: set-up, then optionally the timed phase and checks.

``--phase setup`` generates the inputs and warms up under a speed sampler,
then prints ``ready`` with the time its samples took and the speed factor;
the parent times it from process start.  ``--phase run`` reads those inputs
and warms up, then repeats whole rounds for ``--seconds``.  Every round runs
in a process forked from the warmed-up worker, so each round has its own
peak RSS and a rare memory-hungry round moves the median, not every later
reading.  Untraced rounds run under a speed sampler (see ``speed.py``).
Every round's outputs are checked only after the timed phase.
With ``--trace 1`` untraced and traced rounds alternate, so the tracer's own
cost is the difference of the two medians.
The result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import speed  # noqa: E402
import tracing  # noqa: E402


def _load(name: str, seed: int, work: Path):
    # Imported here, so that the set-up phase's sampler covers asnkit's import.
    import workloads

    return workloads.WORKLOADS[name](seed, work)


def _round(workload, index: int, out: Path, mode: str) -> dict:
    """One round; ``mode`` is ``sampled``, ``plain`` or ``traced``."""
    tracer = None
    if mode == "traced":
        tracer = tracing.Tracer()
        tracer.install()
        root = tracer.begin("round")
    sampler = speed.Sampler() if mode == "sampled" else contextlib.nullcontext()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    with sampler:
        try:
            result = workload.run_round(index, out)
        except Exception:
            # Every operation of a round that raised counts as failed.
            traceback.print_exc()
            result = None
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if tracer is not None:
        tracer.end(root)
    report = {
        "result": result, "wall": wall, "cpu": cpu,
        # ru_maxrss is in KiB on Linux.
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": tracer.export() if tracer is not None else None,
    }
    if mode == "sampled":
        report.update(seconds=sampler.seconds(), factor=sampler.factor())
    return report


def forked_round(workload, index: int, out: Path, mode: str) -> dict:
    """Run one round in a child process; returns its JSON report."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            with os.fdopen(write_end, "w") as pipe:
                json.dump(_round(workload, index, out, mode), pipe)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end) as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"round {index} failed with wait status {status}")
    return json.loads(payload)


def timed_rounds(workload, seconds: float, modes: tuple[str, ...]) -> dict[str, list[dict]]:
    """Whole rounds until ``seconds`` have passed; at least two per mode.

    Each step runs round ``i`` once in every mode, one after another, on the
    same inputs and seeds and into its own output directory.
    """
    rounds: dict[str, list[dict]] = {mode: [] for mode in modes}
    start = time.perf_counter()
    index = 0
    while index < 2 or time.perf_counter() - start < seconds:
        for mode in modes:
            out = workload.work / f"{mode}{index}"
            rounds[mode].append(forked_round(workload, index, out, mode))
        index += 1
    return rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--phase", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", type=Path)
    parser.add_argument("--result", type=Path)
    args = parser.parse_args(argv)

    if args.phase == "setup":
        with speed.Sampler() as sampler:
            workload = _load(args.workload, args.seed, args.work)
            workload.make_inputs()
            workload.warm_up()
        # The parent times this process from its start to this line.
        print(f"ready {sampler.spent!r} {sampler.factor()!r}", flush=True)
        return 0

    workload = _load(args.workload, args.seed, args.work)
    workload.warm_up()
    report: dict = {}
    if args.trace:
        both = timed_rounds(workload, args.seconds, ("plain", "traced"))
        plain, traced = both["plain"], both["traced"]
        rounds = plain + traced
        layers = tracing.layer_metrics([r["trace"] for r in traced])
        layers["cli.bytes_written"] = statistics.mean(
            workload.cli_bytes(r["result"]) for r in traced
        )
        layers["process.cpu_s"] = statistics.median(r["cpu"] for r in plain)
        layers["trace.overhead_s"] = (
            statistics.median(r["wall"] for r in traced)
            - statistics.median(r["wall"] for r in plain)
        )
        report["layers"] = layers
        if args.trace_file:
            args.trace_file.write_text(json.dumps({
                "fields": ["id", "parent", "label", "start_s", "end_s"],
                "rounds": [r["trace"] for r in traced],
            }), encoding="utf-8")
    else:
        rounds = timed_rounds(workload, args.seconds, ("sampled",))["sampled"]
        print(json.dumps({key: [r[key] for r in rounds] for key in ("wall", "seconds", "factor")}),
              file=sys.stderr)
        report["wall_s"] = statistics.median(r["seconds"] for r in rounds)
        report["peak_rss_mb"] = statistics.median(r["rss_mb"] for r in rounds)

    verdicts = workload.check([r["result"] for r in rounds])
    report.update(attempted=len(verdicts), failed=verdicts.count(False))
    args.result.write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
