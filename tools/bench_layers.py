"""Time each layer of beatcover on tracks of several lengths, and write ``BENCH_<n>.json``.

For each length, one recipe builds the inputs: a 120 BPM reference from
``gen_reference``, and an estimate that taps on the beat for the first
half of the reference beats and at double tempo for the rest, with 10 ms
of Gaussian jitter (``default_rng(7)``), its absolute value taken so that
no tap falls before 0 s.  The activation is ``gen_activation`` of the
reference at 100 fps with 0.1 noise (seed 1); ``sppk`` and ``dp_track``
track it, and the figure is the coverage of the ``dp_track`` beats with
the activation panel.  The activation and the estimate are parsed from
files written to a temporary directory, and the report that
``serialize_report`` writes is ``evaluate_dataset``'s of that one pair.
The dataset is fixed: 24 tracks, track k at a constant 90 + 60 * (7k mod
24) / 23 BPM for 30 + 45k / 23 s, its estimate in the k-th condition (in
``Condition`` order, mod 10) for the first half of the beats and in the
next one after, with 5 ms of jitter (``gen_estimate`` seed k).

Each layer is one public call.  Its time is the best of ``--repeats``
``perf_counter`` runs, and its peak is the ``tracemalloc`` peak of one
more run (in MB of 10**6 bytes).  Coverage, L-correct and continuity run
inside the passes of ``evaluate_track``; ``coverage_matrix``,
``l_correct_detection``, ``cmlt`` and ``amlt`` time the one-track calls,
which make a whole pass each.  ``mlsr`` reads the coverage of the
recipe's pair.  The dataset's layers are ``evaluate_dataset`` and
``cli.main(["eval", ...])``, in process, whose printed line is dropped.

Usage::

    python3 tools/bench_layers.py                       # 1, 5, 10 and 60 minutes
    python3 tools/bench_layers.py --minutes 1 --repeats 1 --out /tmp/bench.json

Without ``--out`` the record goes to the first ``BENCH_<n>.json`` at the
repository root that does not exist yet.  The package is imported from
``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import beatcover as bc  # noqa: E402
from beatcover import cli  # noqa: E402

MINUTES = (1, 5, 10, 60)
LAYERS = (
    "gen_activation",
    "sppk",
    "dp_track",
    "render_coverage_svg",
    "parse_activation_file",
    "parse_beats_file",
    "coverage_matrix",
    "l_correct_detection",
    "cmlt",
    "amlt",
    "mlsr",
    "f1_score",
    "evaluate_track",
    "serialize_report",
)
DATASET_TRACKS = 24
DATASET_LAYERS = ("evaluate_dataset", "cli_eval")


def recipe(minutes: int) -> tuple[bc.BeatSequence, bc.BeatSequence]:
    """The reference and the estimate of one length."""
    ref = bc.gen_reference(120.0, 60.0 * minutes)
    half = len(ref) // 2
    taps = np.concatenate(
        [ref.times[:half], bc.condition_taps(ref.times[half:], bc.Condition.HARMONIC_DOUBLE)]
    )
    jitter = np.random.default_rng(7).normal(0.0, 0.01, len(taps))
    return ref, bc.BeatSequence(np.sort(np.abs(taps + jitter)))


def measure(call, repeats: int) -> dict:
    """Best wall time of ``repeats`` runs of ``call``, and the peak of one more."""
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"best_ms": round(best * 1e3, 4), "peak_mb": round(peak / 1e6, 4)}


def write_pair(ref: bc.BeatSequence, est: bc.BeatSequence, root: Path, stem: str) -> tuple[Path, Path]:
    """Write one pair as ``root/ref/<stem>.beats`` and ``root/est/<stem>.beats``."""
    dirs = root / "ref", root / "est"
    for d, beats in zip(dirs, (ref, est)):
        d.mkdir(parents=True, exist_ok=True)
        bc.write_beats_file(beats, d / f"{stem}.beats")
    return dirs


def layers(minutes: int, repeats: int, workdir: Path) -> dict:
    """The record of one length: its input sizes and each layer's time and peak."""
    ref, est = recipe(minutes)
    act = bc.gen_activation(ref, fps=100.0, noise_std=0.1, seed=1)
    tempo = bc.global_tempo_from_reference(ref)
    tracked = bc.dp_track(act, tempo)
    cm = bc.coverage_matrix(ref, tracked)
    scored = bc.coverage_matrix(ref, est)
    act_path = workdir / f"{minutes}.act"
    bc.write_activation_file(act, act_path)
    ref_dir, est_dir = write_pair(ref, est, workdir / str(minutes), "track")
    report = bc.evaluate_dataset(ref_dir, est_dir)
    calls = {
        "gen_activation": lambda: bc.gen_activation(ref, fps=100.0, noise_std=0.1, seed=1),
        "sppk": lambda: bc.sppk(act),
        "dp_track": lambda: bc.dp_track(act, tempo),
        "render_coverage_svg": lambda: bc.render_coverage_svg(cm, ref, act=act, est=tracked),
        "parse_activation_file": lambda: bc.parse_activation_file(act_path),
        "parse_beats_file": lambda: bc.parse_beats_file(est_dir / "track.beats"),
        "coverage_matrix": lambda: bc.coverage_matrix(ref, est),
        "l_correct_detection": lambda: bc.l_correct_detection(ref, est),
        "cmlt": lambda: bc.cmlt(ref, est),
        "amlt": lambda: bc.amlt(ref, est),
        "mlsr": lambda: bc.mlsr(scored),
        "f1_score": lambda: bc.f1_score(ref, est),
        "evaluate_track": lambda: bc.evaluate_track("track", ref, est),
        "serialize_report": lambda: bc.serialize_report(report),
    }
    return {
        "minutes": minutes,
        "ref_beats": len(ref),
        "est_beats": len(est),
        "frames": len(act),
        "layers": {name: measure(calls[name], repeats) for name in LAYERS},
    }


def dataset(repeats: int, workdir: Path) -> dict:
    """The record of the fixed dataset: its sizes and each layer's time and peak."""
    conditions = list(bc.Condition)
    ref_beats = est_beats = 0
    for k in range(DATASET_TRACKS):
        bpm = 90.0 + 60.0 * ((7 * k) % DATASET_TRACKS) / (DATASET_TRACKS - 1)
        duration = 30.0 + 45.0 * k / (DATASET_TRACKS - 1)
        ref = bc.gen_reference(bpm, duration)
        segments = (
            bc.Segment(0, conditions[k % len(conditions)], 0.005),
            bc.Segment(len(ref) // 2, conditions[(k + 1) % len(conditions)], 0.005),
        )
        est = bc.gen_estimate(ref, bc.Scenario(bpm, duration, segments), seed=k)
        ref_dir, est_dir = write_pair(ref, est, workdir / "dataset", f"track{k:02d}")
        ref_beats, est_beats = ref_beats + len(ref), est_beats + len(est)
    argv = ["eval", "--ref", str(ref_dir), "--est", str(est_dir), "--out", str(workdir / "report.json")]

    def cli_eval():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code:
            raise RuntimeError(f"beatcover eval exited {code}")

    calls = {"evaluate_dataset": lambda: bc.evaluate_dataset(ref_dir, est_dir), "cli_eval": cli_eval}
    return {
        "tracks": DATASET_TRACKS,
        "ref_beats": ref_beats,
        "est_beats": est_beats,
        "layers": {name: measure(calls[name], repeats) for name in DATASET_LAYERS},
    }


def simd_found() -> list:
    """The SIMD extensions that numpy dispatches to and this CPU has, as ``np.show_runtime`` lists them."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [feature for feature in __cpu_dispatch__ if __cpu_features__[feature]]


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "simd_found": simd_found(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def next_record() -> Path:
    """The first ``BENCH_<n>.json`` at the repository root that does not exist."""
    n = 1
    while (ROOT / f"BENCH_{n}.json").exists():
        n += 1
    return ROOT / f"BENCH_{n}.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--minutes", type=int, nargs="+", default=MINUTES, help="track lengths")
    parser.add_argument("--repeats", type=int, default=5, help="timed runs per layer; the best counts")
    parser.add_argument("--out", type=Path, help="where to write the record")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    out = args.out or next_record()
    with tempfile.TemporaryDirectory() as tmp:
        lengths = [layers(m, args.repeats, Path(tmp)) for m in args.minutes]
        fixed = dataset(args.repeats, Path(tmp))
    recipe_text, method_text = (" ".join(part.split()) for part in __doc__.split("\n\n")[1:3])
    record = {
        "recipe": recipe_text,
        "method": method_text,
        "repeats": args.repeats,
        "environment": environment(),
        "lengths": lengths,
        "dataset": fixed,
    }
    text = json.dumps(record, indent=2) + "\n"
    out.write_text(text)
    print(text, end="")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
