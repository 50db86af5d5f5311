"""Synthetic scenario generation.

Scenarios script a fictional tracker: a tempo curve fixes where the
true beats fall, and an ordered list of segments says which metric
level the tracker taps at from a given beat index on.  Everything is
deterministic for a fixed seed, which makes scenarios usable as test
oracles and as CLI fixtures.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import OFFBEAT_CONDITIONS, ActivationFunction, BeatSequence, Condition
from .variants import condition_taps

__all__ = ["Segment", "Scenario", "gen_reference", "gen_estimate", "gen_activation"]

# Upper limit on duration * highest BPM / 60, the most beats a curve can
# place; it stops a huge duration or tempo before the beat list grows.
_MAX_BEATS = 1_000_000


@dataclass(frozen=True)
class Segment:
    """One stretch of tracker behavior, starting at a reference beat index."""

    start: int
    condition: Condition
    jitter_std: float = 0.0

    def __post_init__(self):
        if self.start < 0:
            raise ValueError(f"segment start must be >= 0, got {self.start}")
        if not 0 <= self.jitter_std < np.inf:
            raise ValueError(f"jitter_std must be finite and >= 0, got {self.jitter_std}")


@dataclass(frozen=True)
class Scenario:
    """A tempo curve plus the scripted per-segment tap behavior.

    tempo_curve: a single BPM value for constant tempo, or a sequence
        of (time, bpm) knots interpolated linearly in between.
    duration: seconds of material to generate beats for; duration times
        the curve's highest BPM over [0, duration], divided by 60, may
        not exceed one million beats.
    segments: ordered, first one starting at beat 0; each runs until
        the next segment's start index (the last until the final beat).
    """

    tempo_curve: tuple[tuple[float, float], ...]
    duration: float
    segments: tuple[Segment, ...]

    def __post_init__(self):
        object.__setattr__(self, "tempo_curve", _normalize_curve(self.tempo_curve))
        _curve_on_span(self.tempo_curve, self.duration)  # checks duration and beat count
        segments = tuple(self.segments)
        if not segments:
            raise ValueError("scenario needs at least one segment")
        if segments[0].start != 0:
            raise ValueError("first segment must start at beat 0")
        starts = [s.start for s in segments]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("segment starts must be strictly increasing")
        object.__setattr__(self, "segments", segments)


def _normalize_curve(tempo_curve) -> tuple[tuple[float, float], ...]:
    """Turn a bare BPM or a (time, bpm) sequence into validated knots."""
    if np.isscalar(tempo_curve):
        points = ((0.0, float(tempo_curve)),)
    else:
        points = tuple((float(t), float(b)) for t, b in tempo_curve)
    if not points:
        raise ValueError("tempo curve needs at least one point")
    if not np.isfinite(points).all():
        raise ValueError(f"tempo curve times and BPM values must be finite, got {points}")
    times = [t for t, _ in points]
    if any(t < 0 for t in times):
        raise ValueError("tempo curve times must be >= 0")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("tempo curve times must be strictly increasing")
    if any(bpm <= 0 for _, bpm in points):
        raise ValueError("tempo curve BPM values must be > 0")
    return points


def _curve_on_span(points, duration):
    """Clip/extend tempo knots so they cover exactly [0, duration].

    Raises ValueError for a duration that is not finite and positive,
    and for a span that could hold more than ``_MAX_BEATS`` beats.
    """
    if not 0 < duration < np.inf:
        raise ValueError(f"duration must be finite and > 0, got {duration}")
    times = np.asarray([t for t, _ in points])
    bpms = np.asarray([b for _, b in points])
    knot_t = [0.0]
    knot_b = [float(np.interp(0.0, times, bpms))]
    for t, b in zip(times, bpms):
        if 0.0 < t < duration:
            knot_t.append(float(t))
            knot_b.append(float(b))
    knot_t.append(float(duration))
    knot_b.append(float(np.interp(duration, times, bpms)))
    if duration * max(knot_b) / 60.0 > _MAX_BEATS:
        raise ValueError(
            f"duration {duration} s at up to {max(knot_b)} BPM could give more than {_MAX_BEATS} beats"
        )
    return knot_t, knot_b


def gen_reference(tempo_curve, duration: float) -> BeatSequence:
    """Place beats in [0, duration) by integrating the tempo curve.

    The first beat falls at time 0.  Within a segment between two knots
    the rate (beats per second) is linear, so the accumulated beat
    count is quadratic in time and each beat time solves a quadratic;
    for constant tempo the intervals are exactly 60/bpm.

    Raises ValueError for a duration that is not finite and positive,
    or one that at the curve's highest BPM gives over a million beats.
    """
    knot_t, knot_b = _curve_on_span(_normalize_curve(tempo_curve), duration)
    beats: list[float] = []
    phase = 0.0
    next_beat = 0
    for t0, t1, b0, b1 in zip(knot_t[:-1], knot_t[1:], knot_b[:-1], knot_b[1:]):
        r0 = b0 / 60.0
        r1 = b1 / 60.0
        dt = t1 - t0
        slope = (r1 - r0) / dt
        segment_phase = 0.5 * (r0 + r1) * dt
        while next_beat < phase + segment_phase:
            target = next_beat - phase
            if slope == 0.0:
                x = target / r0
            else:
                x = (np.sqrt(r0 * r0 + 2.0 * slope * target) - r0) / slope
            beats.append(t0 + x)
            next_beat += 1
        phase += segment_phase
    return BeatSequence(np.asarray(beats))


def _emit_segment(r: np.ndarray, start: int, end: int, condition: Condition) -> np.ndarray:
    """Taps for one segment of reference beats r[start:end].

    An offbeat tap needs the interval after its beat, so offbeats also
    read beat ``end``.  Harmonics interpolate only intervals fully
    inside the segment: the interval crossing into the next segment
    belongs to neither behavior.
    """
    if condition in OFFBEAT_CONDITIONS:
        end += 1
    return condition_taps(r[start:end], condition)


def gen_estimate(ref: BeatSequence, scenario: Scenario, seed: int = 0) -> BeatSequence:
    """Simulate the scripted tracker over the reference beats.

    Deterministic for a fixed seed.  Jitter is truncated at three
    standard deviations; if a jittered sequence still comes out
    non-monotonic it is re-sorted with a warning, and exact duplicate
    times are collapsed.
    """
    n = len(ref)
    if scenario.segments[-1].start >= n:
        raise ValueError(
            f"segment start {scenario.segments[-1].start} beyond {n} reference beats"
        )
    rng = np.random.default_rng(seed)
    bounds = [seg.start for seg in scenario.segments] + [n]
    parts = []
    for seg, start, end in zip(scenario.segments, bounds[:-1], bounds[1:]):
        times = _emit_segment(ref.times, start, end, seg.condition)
        if seg.jitter_std > 0 and len(times):
            sigma = seg.jitter_std
            noise = np.clip(rng.normal(0.0, sigma, len(times)), -3.0 * sigma, 3.0 * sigma)
            times = np.maximum(times + noise, 0.0)
        parts.append(times)
    out = np.concatenate(parts) if parts else np.zeros(0)
    if len(out) > 1 and np.any(np.diff(out) < 0):
        warnings.warn("jitter broke monotonicity; estimate re-sorted", stacklevel=2)
        out = np.sort(out)
    if len(out) > 1:
        out = out[np.concatenate(([True], np.diff(out) != 0.0))]
    return BeatSequence(out)


def gen_activation(
    beats: BeatSequence,
    fps: float = 100.0,
    peak_width: float = 0.05,
    noise_std: float = 0.0,
    seed: int = 0,
) -> ActivationFunction:
    """Activation curve with a Gaussian bump on every beat.

    The curve runs from 0 to one second past the last beat (a bare
    second if there are no beats), is clipped to [0, 1], and gets
    seeded Gaussian noise when noise_std > 0.
    """
    if not 0 < fps < np.inf:
        raise ValueError(f"fps must be finite and > 0, got {fps}")
    if not 0 < peak_width < np.inf:
        raise ValueError(f"peak_width must be finite and > 0, got {peak_width}")
    if not 0 <= noise_std < np.inf:
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")
    last = beats.times[-1] if len(beats) else 0.0
    n_frames = int(round((last + 1.0) * fps)) + 1
    t = np.arange(n_frames) / fps
    values = np.zeros(n_frames)
    for b in beats.times:
        values += np.exp(-0.5 * ((t - b) / peak_width) ** 2)
    values = np.clip(values, 0.0, 1.0)
    if noise_std > 0:
        noise = np.random.default_rng(seed).normal(0.0, noise_std, n_frames)
        values = np.clip(values + noise, 0.0, 1.0)
    return ActivationFunction(fps=fps, values=values)
