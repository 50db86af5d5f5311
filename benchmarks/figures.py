"""Reference figures for the benchmark README; figures only, not metrics.

Usage, from the repository root:

    python3 benchmarks/figures.py

Prints two markdown tables:

* per-layer and ``evaluate_track`` times at 1, 5 and 10 minutes, on the
  input of the ROADMAP baseline table (120 BPM reference; the estimate is
  on the beat with 10 ms jitter for the first half and at double tempo for
  the second half), best of three ``perf_counter`` runs, plus the
  ``tracemalloc`` peak of ``amlt``;
* ``beatcover eval --workers 1`` against ``--workers 2`` on the
  ``dataset_eval`` dataset of seed 0, best of three.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from beatcover import (  # noqa: E402
    Condition,
    Scenario,
    Segment,
    amlt,
    cmlt,
    coverage_matrix,
    dp_track,
    evaluate_track,
    f1_score,
    gen_activation,
    gen_estimate,
    gen_reference,
    l_correct_fmeasure,
    mlsr,
    sppk,
)

import workloads  # noqa: E402

MINUTES = (1, 5, 10)


def best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def track(minutes: int):
    duration = 60.0 * minutes
    ref = gen_reference(120.0, duration)
    scenario = Scenario(
        tempo_curve=120.0,
        duration=duration,
        segments=(Segment(0, Condition.ONBEAT, 0.010), Segment(len(ref) // 2, Condition.HARMONIC_DOUBLE)),
    )
    return ref, gen_estimate(ref, scenario, seed=0)


def layer_table() -> None:
    rows = {}
    sizes = []
    for minutes in MINUTES:
        ref, est = track(minutes)
        sizes.append(f"{minutes} min ({len(ref)} ref / {len(est)} est)")
        cm = coverage_matrix(ref, est)
        act = gen_activation(ref, fps=100.0, noise_std=0.05, seed=0)
        timings = {
            "coverage_matrix": lambda: coverage_matrix(ref, est),
            "l_correct_fmeasure": lambda: l_correct_fmeasure(ref, est),
            "amlt": lambda: amlt(ref, est),
            "cmlt": lambda: cmlt(ref, est),
            "mlsr": lambda: mlsr(cm),
            "f1_score": lambda: f1_score(ref, est),
            "**evaluate_track total**": lambda: evaluate_track("t", ref, est),
            "gen_activation (100 fps)": lambda: gen_activation(ref, fps=100.0),
            "dp_track (100 fps)": lambda: dp_track(act, 120.0),
            "sppk (noise 0.05)": lambda: sppk(act),
        }
        for name, fn in timings.items():
            rows.setdefault(name, []).append(f"{1000.0 * best_of(fn):.1f}")
        tracemalloc.start()
        amlt(ref, est)
        rows.setdefault("amlt peak (MB, tracemalloc)", []).append(f"{tracemalloc.get_traced_memory()[1] / 2**20:.1f}")
        tracemalloc.stop()
    print("| layer (ms) | " + " | ".join(sizes) + " |")
    print("| --- |" + " ---: |" * len(sizes))
    for name, cells in rows.items():
        print(f"| {name} | " + " | ".join(cells) + " |")


def workers_table() -> None:
    workdir = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        dataset = workloads.DatasetEval(0, workdir)
        dataset.setup()
        print("\n| `beatcover eval` on dataset_eval, seed 0 | seconds |")
        print("| --- | ---: |")
        for workers in (1, 2):
            argv = ["eval", "--ref", str(dataset.ref_dir), "--est", str(dataset.est_dir),
                    "--out", str(dataset.out), "--workers", str(workers)]
            print(f"| `--workers {workers}` | {best_of(lambda: workloads.run_cli(argv)):.2f} |")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    layer_table()
    workers_table()
