#!/usr/bin/env python3
"""Spot the exact beat where a tracker changes metrical level.

Continuity metrics collapse to near zero the moment a tracker switches
level mid-piece, even though both halves are individually coherent.
The switch ratio instead counts how often adjacent covered beats stop
sharing a condition, so a level change costs at most one switch, not
the whole track, and none when a beat that both levels cover bridges
it, as at this scenario's handover from double to quadruple time.

Outputs land in demos/out/.
"""

from pathlib import Path

import numpy as np

from beatcover import (
    BeatSequence,
    Condition,
    coverage_matrix,
    evaluate_track,
    gen_estimate,
    gen_reference,
    mlsr,
    parse_scenario_file,
    render_coverage_svg,
)

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
OUT.mkdir(exist_ok=True)

scenario = parse_scenario_file(HERE / "scenarios" / "double_to_quadruple.scenario")
ref = gen_reference(scenario.tempo_curve, scenario.duration)
est = gen_estimate(ref, scenario)
print(f"reference {len(ref)} beats, scripted estimate {len(est)} beats")

report = evaluate_track("switch", ref, est)
print()
print(f"f1       {report.f1:.3f}")
print(f"cmlt     {report.cmlt:.3f}   (continuity dies at the switch)")
print(f"amlt     {report.amlt:.3f}   (best single level only explains one half)")
print(f"acr any  {report.acr_any:.3f}   (both halves are coherent locally)")
print(f"mlsr     {report.mlsr:.3f}   (clean handover, a shared level bridges beat 16)")

# at exactly 2x and 4x the handover is seamless: around the boundary the
# estimate is consistent with double time on both sides, so no switch is
# charged. A dropped tap at the boundary breaks that bridge.
hiccup = BeatSequence(np.delete(est.times, 31))
damaged = evaluate_track("switch-hiccup", ref, hiccup)
print()
print("after deleting one estimated tap near the boundary:")
print(f"mlsr     {damaged.mlsr:.4f}")

cm = coverage_matrix(ref, hiccup)
covered = np.flatnonzero(cm.any_row)
print(f"covered beats: {len(covered)} of {len(ref)}")
print(f"switch ratio by hand: 1 switch / {len(covered)} covered beats "
      f"= {1 / len(covered):.4f}")
print(f"mlsr() agrees: {mlsr(cm):.4f}")

# walk the covered beats and print where adjacent pairs share no level
rows = {c: cm.covered[c] for c in Condition}
for a, b in zip(covered, covered[1:]):
    shared = [c.value for c in Condition if rows[c][a] and rows[c][b]]
    if not shared:
        print(f"switch between reference beats {a} and {b} "
              f"(times {ref.times[a]:.2f} s and {ref.times[b]:.2f} s)")

svg_path = OUT / "level_switch.svg"
render_coverage_svg(cm, ref, est=hiccup, path=svg_path)
print()
print(f"coverage picture written to {svg_path}")
