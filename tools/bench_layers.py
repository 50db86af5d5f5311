"""Time each layer of beatcover on tracks of several lengths, and write ``BENCH_<n>.json``.

For each length, one recipe builds the inputs: a 120 BPM reference from
``gen_reference``, and an estimate that taps on the beat for the first
half of the reference beats and at double tempo for the rest, with 10 ms
of Gaussian jitter (``default_rng(7)``), its absolute value taken so that
no tap falls before 0 s.  The activation is ``gen_activation`` of the
reference at 100 fps with 0.1 noise (seed 1); ``sppk`` and ``dp_track``
track it, and the figure is the coverage of the ``dp_track`` beats with
the activation panel.  The activation is parsed from a file that
``write_activation_file`` writes to a temporary directory.

Each layer is one public call.  Its time is the best of ``--repeats``
``perf_counter`` runs, and its peak is the ``tracemalloc`` peak of one
more run (in MB of 10**6 bytes).  Coverage and continuity run inside the
passes of ``evaluate_track``; ``coverage_matrix`` and ``amlt`` time the
one-track calls, which make a whole pass each.

Usage::

    python3 tools/bench_layers.py                       # 1, 5, 10 and 60 minutes
    python3 tools/bench_layers.py --minutes 1 --repeats 1 --out /tmp/bench.json

Without ``--out`` the record goes to the first ``BENCH_<n>.json`` at the
repository root that does not exist yet.  The package is imported from
``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
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

MINUTES = (1, 5, 10, 60)
LAYERS = (
    "gen_activation",
    "sppk",
    "dp_track",
    "render_coverage_svg",
    "parse_activation_file",
    "coverage_matrix",
    "amlt",
    "f1_score",
    "evaluate_track",
)


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


def layers(minutes: int, repeats: int, workdir: Path) -> dict:
    """The record of one length: its input sizes and each layer's time and peak."""
    ref, est = recipe(minutes)
    act = bc.gen_activation(ref, fps=100.0, noise_std=0.1, seed=1)
    tempo = bc.global_tempo_from_reference(ref)
    tracked = bc.dp_track(act, tempo)
    cm = bc.coverage_matrix(ref, tracked)
    act_path = workdir / f"{minutes}.act"
    bc.write_activation_file(act, act_path)
    calls = {
        "gen_activation": lambda: bc.gen_activation(ref, fps=100.0, noise_std=0.1, seed=1),
        "sppk": lambda: bc.sppk(act),
        "dp_track": lambda: bc.dp_track(act, tempo),
        "render_coverage_svg": lambda: bc.render_coverage_svg(cm, ref, act=act, est=tracked),
        "parse_activation_file": lambda: bc.parse_activation_file(act_path),
        "coverage_matrix": lambda: bc.coverage_matrix(ref, est),
        "amlt": lambda: bc.amlt(ref, est),
        "f1_score": lambda: bc.f1_score(ref, est),
        "evaluate_track": lambda: bc.evaluate_track("track", ref, est),
    }
    return {
        "minutes": minutes,
        "ref_beats": len(ref),
        "est_beats": len(est),
        "frames": len(act),
        "layers": {name: measure(calls[name], repeats) for name in LAYERS},
    }


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
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
    recipe_text, method_text = (" ".join(part.split()) for part in __doc__.split("\n\n")[1:3])
    record = {
        "recipe": recipe_text,
        "method": method_text,
        "repeats": args.repeats,
        "environment": environment(),
        "lengths": lengths,
    }
    text = json.dumps(record, indent=2) + "\n"
    out.write_text(text)
    print(text, end="")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
