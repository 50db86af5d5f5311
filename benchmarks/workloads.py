"""The three benchmark workloads: seeded inputs, one round of operations, checks.

Every workload keeps the amount of work nearly independent of the seed:
track lengths and mean tempi are fixed by track index, and the seed only
moves tempo-ramp depth and direction, level-switch positions, jitter and
activation noise.  That keeps run-to-run spread down to what the machine
adds, while each seed still gives different inputs.

A workload object has three parts used by ``run.py``:

* ``setup()`` makes the synthetic inputs (timed, repeated, deterministic);
* ``round_ops()`` lists one round of ``(kind, fn)`` operations, where
  ``kind`` is ``"main"`` or ``"edge"`` and ``fn()`` returns
  ``(ok, ref_beats_scored, output)``;
* ``check(first, last)`` takes the outputs of the first and last measured
  rounds and returns a list of failure messages (empty when correct).

The program receives only generated inputs; every check is an independent
computation (``tests/oracles.py`` or code here) or a property of the method.
"""

from __future__ import annotations

import contextlib
import io
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

import oracles
from beatcover import cli, matching, metrics, report, synth, trackers, viz
from beatcover.core import BeatSequence, Condition, ToleranceParams
from beatcover.fileio import write_beats_file

PARAMS = ToleranceParams()
CONDITIONS = list(Condition)


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _ramp(mean_bpm: float, depth: float, rising: bool, duration: float):
    """Linear tempo ramp whose time average is exactly ``mean_bpm``."""
    sign = 1.0 if rising else -1.0
    return [(0.0, mean_bpm - sign * depth), (duration, mean_bpm + sign * depth)]


def _read_beats(path) -> list[float]:
    """Beat times of a file this benchmark wrote, without the package parser."""
    out = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            out.append(float(line.split()[0]))
    return out


def _r6(x: float) -> float:
    return round(float(x), 6)


def _prf(matched: int, n_ref: int, n_est: int) -> tuple[float, float, float]:
    precision = matched / n_est if n_est else 0.0
    recall = matched / n_ref if n_ref else 0.0
    f = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f


def _acr_bounds(name: str, acr: dict, acr_any: float) -> list[str]:
    bad = [c for c, v in acr.items() if not 0.0 <= v <= acr_any]
    if bad or not 0.0 <= acr_any <= 1.0:
        return [f"{name}: ACR bounds violated (acr_any={acr_any}, bad={bad})"]
    return []


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``beatcover`` in process, with its console output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


class DatasetEval:
    """``beatcover eval`` with default flags over a seeded on-disk dataset.

    24 tracks of 30 to 75 s.  Track ``k`` starts at condition ``k mod 10``
    and switches mid-track to another one, so all ten conditions appear;
    tempi ramp around a per-index mean between 90 and 150 BPM; every tap
    is jittered.  Each round also runs one edge operation: a reference
    with an estimate file that holds only a comment.
    """

    N_TRACKS = 24
    SAMPLE = 2  # tracks checked against the quadratic oracles per run

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.root = Path(workdir) / "dataset_eval"
        self.out = self.root / "report.json"
        self.edge_out = self.root / "edge_report.json"
        self.setups = 0
        self._use_copy(0)

    def _use_copy(self, k: int) -> None:
        copy = self.root / f"inputs{k}"
        self.ref_dir, self.est_dir = copy / "ref", copy / "est"
        self.edge_ref, self.edge_est = copy / "edge_ref", copy / "edge_est"

    def setup(self) -> None:
        # Every set-up writes a fresh copy and the operations read the
        # first: rewriting files in place is slower and far more variable
        # here (ext4 truncation), which would swamp the set-up time.
        self._use_copy(self.setups)
        self.setups += 1
        rng = _rng(self.seed, 1)
        for d in (self.ref_dir, self.est_dir, self.edge_ref, self.edge_est):
            d.mkdir(parents=True)
        total = 0
        for k in range(self.N_TRACKS):
            duration = 30.0 + 45.0 * k / (self.N_TRACKS - 1)
            mean_bpm = 90.0 + 60.0 * ((7 * k) % self.N_TRACKS) / (self.N_TRACKS - 1)
            curve = _ramp(mean_bpm, rng.uniform(0.0, 10.0), rng.random() < 0.5, duration)
            ref = synth.gen_reference(curve, duration)
            first = CONDITIONS[k % 10]
            second = CONDITIONS[(k + 1 + k // 10) % 10]
            switch = int(rng.integers(int(0.4 * len(ref)), int(0.6 * len(ref))))
            scenario = synth.Scenario(
                tempo_curve=curve,
                duration=duration,
                segments=(
                    synth.Segment(0, first, float(rng.uniform(0.001, 0.006))),
                    synth.Segment(switch, second, float(rng.uniform(0.001, 0.006))),
                ),
            )
            est = synth.gen_estimate(ref, scenario, seed=int(rng.integers(2**31)))
            write_beats_file(ref, self.ref_dir / f"track{k:02d}.beats")
            write_beats_file(est, self.est_dir / f"track{k:02d}.beats")
            total += len(ref)
        self.ref_beats = total
        # The edge pair does not depend on the seed: a tracker that found nothing.
        edge = synth.gen_reference(120.0, 8.0)
        write_beats_file(edge, self.edge_ref / "silent.beats")
        (self.edge_est / "silent.beats").write_text("# tracker found nothing\n", encoding="utf-8")
        self.edge_ref_beats = len(edge)
        self._use_copy(0)

    def round_ops(self):
        main_argv = ["eval", "--ref", str(self.ref_dir), "--est", str(self.est_dir), "--out", str(self.out)]
        edge_argv = ["eval", "--ref", str(self.edge_ref), "--est", str(self.edge_est), "--out", str(self.edge_out)]

        def main():
            rc, err = run_cli(main_argv)
            ok = rc == 0
            return ok, self.ref_beats if ok else 0, (rc, self.out.read_text(encoding="utf-8") if ok else err)

        def edge():
            self.edge_out.unlink(missing_ok=True)
            rc, err = run_cli(edge_argv)
            ok = rc == 0
            return ok, self.edge_ref_beats if ok else 0, (rc, self.edge_out.read_text(encoding="utf-8") if ok else err)

        return [("main", main), ("edge", edge)]

    def check(self, first, last) -> list[str]:
        errors = []
        (rc, text), (rc_last, text_last) = first[0], last[0]
        if rc != 0 or rc_last != 0:
            return [f"dataset_eval: eval exited {rc}/{rc_last}: {text.strip()[-300:]}"]
        if text != text_last:
            errors.append("dataset_eval: report differs between the first and last round")
        rep = report.parse_report(text)
        if report.serialize_report(rep) != text:
            errors.append("dataset_eval: parse_report/serialize_report does not round-trip")
        ids = [t.track_id for t in rep.tracks]
        if ids != [f"track{k:02d}" for k in range(self.N_TRACKS)]:
            errors.append(f"dataset_eval: unexpected track ids {ids}")
            return errors
        # A stored mean is the 6-decimal rounding of the exact track mean.
        for key, stored in rep.means.items():
            if key.startswith("acr_") and key not in ("acr_any", "acr_offbeat"):
                values = [t.acr[Condition(key[4:])] for t in rep.tracks]
            else:
                values = [getattr(t, key) for t in rep.tracks]
            if abs(stored - math.fsum(values) / len(values)) > 5e-7 + 1e-12:
                errors.append(f"dataset_eval: mean {key}={stored} is not the rounded track mean")
        for t in rep.tracks:
            errors += _acr_bounds(f"dataset_eval {t.track_id}", t.acr, t.acr_any)
        sample = _rng(self.seed, 2).choice(self.N_TRACKS, size=self.SAMPLE, replace=False)
        for k in sorted(int(i) for i in sample):
            errors += self._check_track(rep.tracks[k])
        edge_rc, edge_out = last[1]
        if edge_rc == 0:  # the empty estimate scored: one track, nothing matched
            edge_rep = report.parse_report(edge_out)
            if len(edge_rep.tracks) != 1 or edge_rep.tracks[0].f1 != 0.0:
                errors.append("dataset_eval: empty estimate did not score zero F1")
        return errors

    def _check_track(self, track) -> list[str]:
        name = f"dataset_eval {track.track_id}"
        ref = _read_beats(self.ref_dir / f"{track.track_id}.beats")
        est = _read_beats(self.est_dir / f"{track.track_id}.beats")
        errors = []
        matched = oracles.oracle_f1_matched(ref, est, PARAMS.cap)
        p, r, f = _prf(matched, len(ref), len(est))
        if (track.precision, track.recall, track.f1) != (_r6(p), _r6(r), _r6(f)):
            errors.append(f"{name}: F1 disagrees with oracle_f1_matched ({matched} matched)")
        rows = oracles.oracle_coverage(ref, est, PARAMS.context, PARAMS.cap, PARAMS.gamma)
        cm = matching.coverage_matrix(BeatSequence(ref), BeatSequence(est), PARAMS)
        for c in Condition:
            if cm.covered[c].tolist() != rows[c.value]:
                errors.append(f"{name}: coverage row {c.value} disagrees with oracle_coverage")
            if track.acr[c] != _r6(sum(rows[c.value]) / len(ref)):
                errors.append(f"{name}: ACR {c.value} disagrees with oracle_coverage")
        correct = sum(oracles.oracle_continuity(ref, est, PARAMS.gamma))
        if track.cmlt != _r6(correct / max(len(ref), len(est))):
            errors.append(f"{name}: CMLt disagrees with oracle_continuity")
        return errors


class LongTrack:
    """``evaluate_track`` on three 15-minute tracks.

    Tempo ramps around 120 BPM; each estimate is on the beat, jittered, for
    the first half of the reference beats and at double time for the second
    half.  The dense continuity matrices grow with |est| x |ref| here.
    The tracks have one length so that every operation is a sample of the
    same latency.
    """

    N_TRACKS = 3
    MINUTES = 15

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.tracks = []

    def setup(self) -> None:
        rng = _rng(self.seed, 3)
        tracks = []
        for k in range(self.N_TRACKS):
            duration = 60.0 * self.MINUTES
            curve = _ramp(120.0, rng.uniform(0.0, 8.0), rng.random() < 0.5, duration)
            ref = synth.gen_reference(curve, duration)
            switch = len(ref) // 2
            scenario = synth.Scenario(
                tempo_curve=curve,
                duration=duration,
                segments=(
                    synth.Segment(0, Condition.ONBEAT, float(rng.uniform(0.004, 0.010))),
                    synth.Segment(switch, Condition.HARMONIC_DOUBLE, float(rng.uniform(0.002, 0.006))),
                ),
            )
            est = synth.gen_estimate(ref, scenario, seed=int(rng.integers(2**31)))
            tracks.append((f"long{k}", ref, est, switch))
        self.tracks = tracks

    def round_ops(self):
        def op(track_id, ref, est):
            return lambda: (True, len(ref), metrics.evaluate_track(track_id, ref, est))

        return [("main", op(tid, ref, est)) for tid, ref, est, _ in self.tracks]

    def check(self, first, last) -> list[str]:
        errors = []
        for (track_id, ref, est, switch), rep in zip(self.tracks, first):
            name = f"long_track {track_id}"
            n, margin = len(ref), PARAMS.context
            if rep.acr[Condition.ONBEAT] < (switch - margin) / n:
                errors.append(f"{name}: onbeat ACR {rep.acr[Condition.ONBEAT]} misses the first half")
            if rep.acr[Condition.HARMONIC_DOUBLE] < (n - switch - margin) / n:
                errors.append(f"{name}: double ACR {rep.acr[Condition.HARMONIC_DOUBLE]} misses the second half")
            if rep.acr_any != 1.0:
                errors.append(f"{name}: acr_any={rep.acr_any}, expected 1")
            if rep.mlsr > 1.0 / (rep.acr_any * n):
                errors.append(f"{name}: mlsr={rep.mlsr} exceeds one switch")
            errors += _acr_bounds(name, rep.acr, rep.acr_any)
            matched = self._matched(ref.times, est.times, PARAMS.cap)
            if matched is None:
                errors.append(f"{name}: F1 pairing is ambiguous at this jitter")
            elif rep.f1 != _r6(_prf(matched, n, len(est))[2]):
                errors.append(f"{name}: F1={rep.f1} disagrees with {matched} matched beats")
        if [r.f1 for r in first] != [r.f1 for r in last]:
            errors.append("long_track: F1 differs between the first and last round")
        return errors

    @staticmethod
    def _matched(r: np.ndarray, e: np.ndarray, window: float) -> int | None:
        """Matched count when every beat has at most one partner in the window.

        Then the one-to-one matching is forced and its size is the number
        of reference beats with a partner; otherwise return None.
        """
        lo = np.searchsorted(e, r - window, side="left")
        hi = np.searchsorted(e, r + window, side="right")
        per_ref = hi - lo
        per_est = np.searchsorted(r, e + window, side="right") - np.searchsorted(r, e - window, side="left")
        if per_ref.max(initial=0) > 1 or per_est.max(initial=0) > 1:
            return None
        return int(np.count_nonzero(per_ref))


class ActivationTracking:
    """Activation to beats to scores to figure, on one 5-minute reference.

    Constant tempo near 120 BPM, first beat at 0 s.  One operation
    synthesizes a noisy activation, runs both trackers, evaluates each
    tracker's output and renders the coverage figure with its activation
    panel.
    """

    MINUTES = 5
    FPS = 100.0
    NOISE = 0.1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.ref = None

    def setup(self) -> None:
        rng = _rng(self.seed, 4)
        self.ref = synth.gen_reference(rng.uniform(119.0, 121.0), 60.0 * self.MINUTES)
        self.noise_seed = int(rng.integers(2**31))

    def round_ops(self):
        ref = self.ref

        def op():
            act = synth.gen_activation(ref, fps=self.FPS, noise_std=self.NOISE, seed=self.noise_seed)
            picked = trackers.sppk(act)
            tracked = trackers.dp_track(act, trackers.global_tempo_from_reference(ref))
            scores = (metrics.evaluate_track("sppk", ref, picked), metrics.evaluate_track("dp", ref, tracked))
            cm = matching.coverage_matrix(ref, tracked, PARAMS)
            svg = viz.render_coverage_svg(cm, ref, act=act, est=tracked)
            return True, 2 * len(ref), (act, picked, scores, svg)

        return [("main", op)]

    def check(self, first, last) -> list[str]:
        act, picked, scores, svg = first[0]
        errors = []
        expected = oracles.oracle_suppression(act.values.tolist(), act.fps, 0.3, 0.15)
        if picked.times.tolist() != [f / act.fps for f in expected]:
            errors.append("activation_tracking: sppk disagrees with oracle_suppression")
        clean = synth.gen_activation(self.ref, fps=self.FPS)
        found = trackers.dp_track(clean, trackers.global_tempo_from_reference(self.ref)).times
        idx = np.clip(np.searchsorted(found, self.ref.times), 1, len(found) - 1)
        miss = np.minimum(np.abs(found[idx] - self.ref.times), np.abs(found[idx - 1] - self.ref.times))
        if miss.max() > 1.0 / self.FPS + 1e-9:
            errors.append(f"activation_tracking: dp_track misses a clean beat by {miss.max():.4f} s")
        for rep in scores:
            errors += _acr_bounds(f"activation_tracking {rep.track_id}", rep.acr, rep.acr_any)
        root = ET.fromstring(svg)
        rows = [g.get("id") for g in root.iter("{http://www.w3.org/2000/svg}g") if g.get("id", "").startswith("row-")]
        want = [f"row-{c.value}" for c in Condition] + ["row-offbeat_union", "row-any"]
        if rows != want:
            errors.append(f"activation_tracking: SVG rows {rows} != {want}")
        if root.find("{http://www.w3.org/2000/svg}g[@id='beats-panel']/{http://www.w3.org/2000/svg}polyline") is None:
            errors.append("activation_tracking: SVG has no activation panel")
        if svg != last[0][3]:
            errors.append("activation_tracking: SVG differs between the first and last round")
        return errors


WORKLOADS = {
    "dataset_eval": DatasetEval,
    "long_track": LongTrack,
    "activation_tracking": ActivationTracking,
}
