#!/usr/bin/env python3
"""Walk through the coverage analysis on a single synthetic track.

A tracker that taps at half the annotated tempo scores terribly on
plain F1, yet it is perfectly consistent with the piece. This script
builds exactly that situation and shows how the per-condition coverage
matrix separates "wrong" from "listening at another metrical level".
"""

import numpy as np

from beatcover import (
    BeatSequence,
    Condition,
    ToleranceParams,
    acr_scores,
    coverage_matrix,
    evaluate_track,
    gen_reference,
    variant_window,
    window_table,
)

# 12 seconds of 120 BPM gives 24 annotated beats, half a second apart
ref = gen_reference(120.0, 12.0)
print(f"reference: {len(ref)} beats, first five {ref.times[:5]}")

# the tracker only taps every other beat
est = BeatSequence(ref.times[0::2])
print(f"estimate:  {len(est)} beats, first five {est.times[:5]}")

report = evaluate_track("halved", ref, est)
print()
print(f"f1        {report.f1:.3f}   (looks like a broken tracker)")
print(f"cmlt      {report.cmlt:.3f}")
print(f"amlt      {report.amlt:.3f}   (allowed-level continuity already forgives this)")

# the coverage matrix tells us which beats each condition explains
cm = coverage_matrix(ref, est)
print()
print("coverage rows (. = uncovered, # = covered):")
for condition in Condition:
    row = "".join("#" if c else "." for c in cm.covered[condition])
    print(f"  {condition.value:<20} {row}")
print(f"  {'any':<20} {''.join('#' if c else '.' for c in cm.any_row)}")

acr = acr_scores(cm)
print()
print(f"acr onbeat          {acr.per_condition[Condition.ONBEAT]:.3f}")
print(f"acr subharmonic_half {acr.per_condition[Condition.SUBHARMONIC_HALF]:.3f}")
print(f"acr any             {acr.acr_any:.3f}")
print("every beat the tracker tapped is explained by the half level;")
print("the in-between beats stay uncovered because nothing was tapped there")

# peek under the hood: one window per condition instance, each with
# its own tolerance derived from the local inter-beat intervals
win = variant_window(ref, 0, Condition.SUBHARMONIC_HALF)
print()
print(f"first subharmonic_half window: times {win.times}")
print(f"  covers reference indices {sorted(win.cover_set)}")
print(f"  tolerance {win.epsilon:.4f} s (1.0 s strides, so the 0.070 s cap rules)")

# the adaptive part takes over once the compared beats sit closer
fast = gen_reference(240.0, 4.0)
tight = variant_window(fast, 0, Condition.ONBEAT)
print(f"onbeat window at 240 BPM: tolerance {tight.epsilon:.4f} s")
# a single window is one row of the condition's whole table
_, eps, _ = window_table(fast.times, Condition.ONBEAT, ToleranceParams(context=2))
print(f"direct check: {eps[0]:.4f} s")
print(f"subharmonic step 2 there still spans 0.5 s gaps: "
      f"{variant_window(fast, 0, Condition.SUBHARMONIC_HALF).epsilon:.4f} s")
