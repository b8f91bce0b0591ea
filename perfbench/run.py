"""Benchmark of qtorb end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fuzz-n4 --seed 1 --seconds 30 --trace 0

One process, one thread, closed loop: each operation starts when the
previous one has ended.  The run sets up several times and reports the
median set-up time, then repeats whole rounds of operations for at least
``--seconds`` seconds, checks every output against independent facts and
prints a run record and, as its last line, one JSON object with the
metrics.  ``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the
per-layer metrics from spans around the calls into each layer.

Times are reported at a reference machine speed.  On a shared two-core
virtual machine the speed drifts by a quarter for minutes at a time: a
fixed loop ran between 42 and 70 times a second over 90 seconds, and one
``qtorb betti`` call took from 157 to 276 ms.  So a fixed pure-Python
calibration loop runs between pieces of timed work, and each piece's
wall-clock time is scaled by the loop's reference time over its mean time
on the two sides of the piece.  The run record keeps the raw wall-clock
figures.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
MIN_ROUNDS = 3
# Time of calibration_loop at the reference speed.
CALIBRATION_REFERENCE_S = 0.002

sys.path.insert(0, str(HERE))

from reference import CheckFailure  # noqa: E402
from workloads import WORKLOADS, Program  # noqa: E402


def import_program() -> Program:
    """Import qtorb afresh, as every command-line invocation does."""
    for name in [m for m in sys.modules if m == "qtorb" or m.startswith("qtorb.")]:
        del sys.modules[name]
    return Program(
        pkg=importlib.import_module("qtorb"),
        cli=importlib.import_module("qtorb.cli"),
        kernels=importlib.import_module("qtorb.kernels"),
    )


def calibration_loop() -> Fraction:
    """Fixed work of the kind qtorb does: Fraction arithmetic, tuples, a dict."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 600):
        acc += Fraction(i % 7, 13 + i % 5)
        table[i % 17, i % 3] = (i, 2 * i)
    return acc


def calibrate() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        calibration_loop()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class ReferenceClock:
    """Calibrations between pieces of timed work, to rescale their wall-clock
    times to the reference machine speed."""

    def __init__(self):
        self.samples = [calibrate()]

    def mark(self) -> None:
        """Call right after each piece of timed work."""
        self.samples.append(calibrate())

    def scales(self) -> list[float]:
        """Per piece of work, in order: the reference calibration time over
        the mean of the calibrations just before and just after it."""
        return [
            CALIBRATION_REFERENCE_S * 2 / (before + after)
            for before, after in zip(self.samples, self.samples[1:])
        ]


def git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def measure(workload, seconds: float, tracer, clock: ReferenceClock):
    """Whole rounds until ``seconds`` have passed and ``MIN_ROUNDS`` are done.
    Returns the wall-clock latency of every operation, round by round, the
    number of operations that failed and the number whose output failed a
    check (those fail too)."""
    rounds: list[list[float]] = []
    failed = wrong = 0
    start = perf_counter()
    for ops in workload.rounds():
        latencies = []
        for op in ops:
            if tracer:
                tracer.active = True
            t0 = perf_counter()
            try:
                result = op.run()
                error = None
            except (Exception, SystemExit):
                error = traceback.format_exc(limit=3)
            latencies.append(perf_counter() - t0)
            if tracer:
                tracer.end()
            clock.mark()
            if error is None:
                try:
                    op.check(result)
                except (CheckFailure, KeyError, TypeError, ValueError) as exc:
                    error = f"check failed: {exc!r}"
                    wrong += 1
            if error is not None:
                failed += 1
                print(f"FAILED {op.label}: {error}", file=sys.stderr)
        rounds.append(latencies)
        if perf_counter() - start >= seconds and len(rounds) >= MIN_ROUNDS:
            return rounds, failed, wrong


def end_to_end(latencies: list[float], setups: list[float]) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics from times at reference speed."""
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "op/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "qtorb" / "__init__.py").is_file():
        print(f"error: no qtorb sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"

    setup_clock = ReferenceClock()
    try:
        setups_wall = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            program = import_program()
            workload = WORKLOADS[args.workload](program, args.seed, workdir, ROOT)
            workload.setup()
            setups_wall.append(perf_counter() - t0)
            setup_clock.mark()

        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        clock = ReferenceClock()
        rounds, failed, wrong = measure(workload, args.seconds, tracer, clock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wall = [t for latencies in rounds for t in latencies]
    scales = clock.scales()
    attempted = len(wall)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": git_commit(ROOT),
        "source_sha256": source_digest(src),
        "python": platform.python_version(),
        "backend": program.kernels.backend_name(),
        "nproc": len(os.sched_getaffinity(0)),
        "attempted": attempted,
        "failed": failed,
        "rounds": len(rounds),
        "wall_timed_s": sum(wall),
        "wall_ops_per_s": attempted / sum(wall),
        "wall_setup_s": setups_wall,
        "calibration_median_s": statistics.median(clock.samples),
        "speed_vs_reference": CALIBRATION_REFERENCE_S / statistics.median(clock.samples),
    }
    print(json.dumps({"run": record}))

    if tracer:
        tracer.write(HERE / ".work" / f"spans-{args.workload}.jsonl")
        metrics = tracer.metrics(scales)
    else:
        setups = [t * k for t, k in zip(setups_wall, setup_clock.scales())]
        metrics = end_to_end([t * k for t, k in zip(wall, scales)], setups)
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
