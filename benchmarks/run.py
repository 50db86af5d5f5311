"""Benchmark for beatcover: end-to-end metrics, or per-layer metrics when traced.

Usage, from the repository root:

    python3 benchmarks/run.py --workload dataset_eval --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1          # every workload

One run makes the workload's inputs from ``--seed``, times their set-up,
runs whole rounds of the workload's operations until ``--seconds`` have
passed, and then checks the outputs.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics and the tracing overhead.  Latency and throughput are
reported in units of a fixed calibration timed around every operation
(see ``Calibration``); their wall-clock values are printed on ``(wall)``
lines but are not part of the result.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The exit code is 0 only when every check passed.

The package is imported from ``src/`` of the checkout this file sits in,
and ``tests/oracles.py`` from its ``tests/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("dataset_eval", "long_track", "activation_tracking")
SETUP_REPEATS = 5  # set-ups before the first round; one more follows every round


def _setup(workload, tracer, setups: list) -> None:
    if tracer is not None:
        tracer.op = ("setup", len(setups))
    t0 = time.perf_counter()
    workload.setup()
    setups.append(time.perf_counter() - t0)


class Calibration:
    """Times a fixed mix of interpreter and array work; about 22 ms here.

    It runs before every operation and once after the last.  This machine's
    speed drifts by tens of percent over minutes, since other tenants share
    its cores; the time of an operation divided by the calibration time
    measured around it stays much steadier through such drifts, while a
    change to the program still moves it one for one.  The array work
    streams over 4.4 MB of buffers allocated once, before the first round,
    so that calibration adds a constant to the workload's peak RSS.
    """

    LOOP = 150_000  # interpreter iterations
    SIDE = 700  # side of the float matrix
    REPEATS = 8  # matrix passes

    def __init__(self):
        self._x = np.arange(self.SIDE, dtype=np.float64)
        self._buf = np.empty((self.SIDE, self.SIDE))
        self._mask = np.empty((self.SIDE, self.SIDE), dtype=bool)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(self.LOOP):
            acc += i * i
        for _ in range(self.REPEATS):
            np.subtract.outer(self._x, self._x, out=self._buf)
            np.abs(self._buf, out=self._buf)
            np.less_equal(self._buf, 0.5 * self.SIDE, out=self._mask)
            np.count_nonzero(self._mask)
        return time.perf_counter() - t0


def _run_round(ops, tracer, first_index: int, calibrate: Calibration):
    """One round; a record is ``(kind, ok, beats, seconds, calibration before)``."""
    records, outputs = [], []
    for k, (kind, fn) in enumerate(ops):
        cal = calibrate()
        if tracer is not None:
            tracer.op = (kind, first_index + k)
        t0 = time.perf_counter()
        try:
            ok, beats, out = fn()
        except Exception:  # an operation that raises counts as failed; the run goes on
            traceback.print_exc()
            ok, beats, out = False, 0, None
        records.append((kind, ok, beats, time.perf_counter() - t0, cal))
        outputs.append(out)
    return records, outputs


def _measure(workload, seconds: float, tracer=None):
    """Set up, then run whole rounds until ``seconds`` have passed.

    The inputs are made again after every round (identically), so that
    set-up times are sampled across the whole run, as operation times are.
    With a tracer, rounds alternate untraced and traced, after a warm-up
    round.  Returns the set-up times, per-op records ``(kind, ok, beats,
    seconds, calibration seconds, traced)`` grouped by round, where the
    calibration time is the mean of the calibrations just before and just
    after the operation, and the outputs of the first and last rounds.
    """
    setups = []
    with tracer or contextlib.nullcontext():
        for _ in range(SETUP_REPEATS):
            _setup(workload, tracer, setups)
    ops = workload.round_ops()
    calibrate = Calibration()
    if tracer is not None:
        # One unrecorded round first, so that the coldest round does not
        # land on the untraced side of the overhead comparison.
        _run_round(ops, None, 0, calibrate)
    rounds, first, last = [], None, None
    start = time.perf_counter()
    while True:
        active = tracer if tracer is not None and len(rounds) % 2 == 1 else None
        with active or contextlib.nullcontext():
            recs, outputs = _run_round(ops, active, len(ops) * len(rounds), calibrate)
            _setup(workload, active, setups)
        rounds.append([r + (active is not None,) for r in recs])
        first = outputs if first is None else first
        last = outputs
        if time.perf_counter() - start >= seconds and (tracer is None or len(rounds) >= 2):
            break
    after = iter([r[4] for rnd in rounds for r in rnd][1:] + [calibrate()])
    rounds = [[r[:4] + (0.5 * (r[4] + next(after)), r[5]) for r in rnd] for rnd in rounds]
    return setups, rounds, first, last


def _end_to_end(workload, seconds: float):
    setups, rounds, first, last = _measure(workload, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    main = [r for rnd in rounds for r in rnd if r[0] == "main" and r[1]]
    beats = [sum(r[2] for r in rnd) for rnd in rounds]
    wall = [sum(r[3] for r in rnd) for rnd in rounds]
    cal_units = [sum(r[3] / r[4] for r in rnd) for rnd in rounds]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ref_beats_per_cal": (statistics.median(b / t for b, t in zip(beats, cal_units)), "beats/cal"),
        "op_cal_p50": (statistics.median(r[3] / r[4] for r in main) if main else float("nan"), "cal"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    # Wall-clock figures of the same run: what a user of this machine saw.
    info = {
        "op_ms_p50": (1000.0 * statistics.median(r[3] for r in main) if main else float("nan"), "ms"),
        "ref_beats_per_s": (statistics.median(b / t for b, t in zip(beats, wall)), "beats/s"),
        "cal_ms": (1000.0 * statistics.median(r[4] for rnd in rounds for r in rnd), "ms"),
    }
    return metrics, info, rounds, first, last


def _per_layer(workload, seconds: float):
    import tracing

    tracer = tracing.SpanTracer()
    _, rounds, first, last = _measure(workload, seconds, tracer)
    with tracing.PeakTracer() as peaks:
        _run_round(workload.round_ops(), None, 0, Calibration())
    metrics = tracing.per_layer(tracer, peaks)
    for traced, name in ((False, "untraced"), (True, "traced")):
        side = [rnd for rnd in rounds if rnd[0][5] == traced]
        metrics[f"trace.{name}_round_s"] = (statistics.median(sum(r[3] for r in rnd) for rnd in side), "s")
        metrics[f"trace.{name}_round_cal"] = (statistics.median(sum(r[3] / r[4] for r in rnd) for rnd in side), "cal")
    plain, traced = metrics.pop("trace.untraced_round_cal")[0], metrics.pop("trace.traced_round_cal")[0]
    metrics["trace.overhead_pct"] = (100.0 * (traced / plain - 1.0), "%")
    return metrics, {}, rounds, first, last


def _environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _run_one(args) -> int:
    import workloads

    print("env: " + json.dumps(_environment(args)), flush=True)
    workdir = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        measure = _per_layer if args.trace else _end_to_end
        metrics, info, rounds, first, last = measure(workload, args.seconds)
        try:
            errors = workload.check(first, last)
        except Exception:  # a check that cannot run is a failed check
            traceback.print_exc()
            errors = ["a check raised; see the traceback above"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(len(rnd) for rnd in rounds)
    failed = sum(1 for rnd in rounds for r in rnd if not r[1])
    for message in errors:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:20s} {name:34s} {value:16.6f} {unit}")
    for name, (value, unit) in info.items():
        print(f"{args.workload:20s} {'(wall) ' + name:34s} {value:16.6f} {unit}")
    print(f"{args.workload:20s} {'attempted':34s} {attempted:16d}")
    print(f"{args.workload:20s} {'failed':34s} {failed:16d}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not errors else 1


def _run_all(args) -> int:
    """Each workload in its own process, so peak RSS is that workload's alone."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            status = status or 1
    if len(results) != len(WORKLOAD_NAMES):
        return status or 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "beatcover").is_dir() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: no beatcover source tree (src/beatcover, tests/oracles.py) under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    return _run_all(args) if args.workload == "all" else _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
