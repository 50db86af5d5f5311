#!/usr/bin/env python3
"""Evaluate a directory of estimates against a directory of references.

Builds a throwaway four-track dataset under demos/out/, runs the batch
evaluator, and shows the JSON report round trip. Each synthetic track
gets a different scripted tracker personality so the dataset means
have something to average.
"""

from pathlib import Path

from beatcover import (
    Condition,
    Scenario,
    Segment,
    evaluate_dataset,
    gen_estimate,
    gen_reference,
    read_report,
    serialize_report,
    write_beats_file,
    write_report,
)

HERE = Path(__file__).resolve().parent
OUT = HERE / "out" / "mini_dataset"
REF_DIR = OUT / "reference"
EST_DIR = OUT / "estimates"
for d in (REF_DIR, EST_DIR):
    d.mkdir(parents=True, exist_ok=True)

# four tracks, four tracker personalities
PERSONALITIES = {
    "steady": (118.0, 12.0, Condition.ONBEAT, 0.004),
    "eager": (96.0, 14.0, Condition.HARMONIC_DOUBLE, 0.004),
    "lazy": (150.0, 11.0, Condition.SUBHARMONIC_HALF, 0.004),
    "offset": (128.0, 12.0, Condition.OFFBEAT_HALF, 0.004),
}
for stem, (bpm, duration, condition, jitter) in PERSONALITIES.items():
    ref = gen_reference(bpm, duration)
    scenario = Scenario(
        tempo_curve=bpm,
        duration=duration,
        segments=(Segment(0, condition, jitter_std=jitter),),
    )
    est = gen_estimate(ref, scenario, seed=7)
    write_beats_file(ref, REF_DIR / f"{stem}.beats")
    write_beats_file(est, EST_DIR / f"{stem}.beats")
print(f"wrote {len(PERSONALITIES)} track pairs under {OUT}")

report = evaluate_dataset(REF_DIR, EST_DIR)
print()
print(f"{'track':<8} {'f1':>6} {'amlt':>6} {'acr_any':>8} {'mlsr':>6}")
for track in report.tracks:
    print(f"{track.track_id:<8} {track.f1:>6.3f} {track.amlt:>6.3f} "
          f"{track.acr_any:>8.3f} {track.mlsr:>6.3f}")
print(f"{'mean':<8} {report.means['f1']:>6.3f} {report.means['amlt']:>6.3f} "
      f"{report.means['acr_any']:>8.3f} {report.means['mlsr']:>6.3f}")

stats = report.dataset_stats
print()
print(f"dataset: {stats.n_tracks} tracks, {stats.total_duration:.1f} s annotated, "
      f"mean tempo {stats.mean_track_tempo:.1f} BPM, "
      f"{stats.percent_stable_tempi:.0f}% stable tempi")

# the full report serializes to JSON and parses back equal
path = OUT / "report.json"
write_report(report, path)
again = read_report(path)
assert again == report
print()
print(f"report written to {path} and re-read identically")

# a metric filter trims the per-track payload for lighter reports
slim = serialize_report(report, metrics=["f1", "acr"])
print()
print("first lines with metrics=['f1', 'acr']:")
for line in slim.splitlines()[:8]:
    print(f"  {line}")
