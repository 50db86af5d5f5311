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
from .core import _finite_positive, _index, _non_negative
from .variants import condition_taps

__all__ = ["Segment", "Scenario", "gen_reference", "gen_estimate", "gen_activation"]

# Upper limit on duration * highest BPM / 60, the most beats a curve can
# place; it stops a huge duration or tempo before the beat list grows.
_MAX_BEATS = 1_000_000

# Upper limit on (last beat + 1 s) * fps, about the frames of an
# activation curve; it stops a huge fps before the frame arrays are built.
_MAX_FRAMES = 10_000_000

# Most (beat, frame) cells of one gen_activation block; a block has fewer
# beats when the bumps are wide, so memory stays linear.
_BLOCK_CELLS = 1 << 14

# Lowest accepted BPM.  Below about 1e-152 the squared beat rate in
# gen_reference underflows and constant-tempo beats leave the 60 / bpm
# grid; the floor keeps a wide margin above that.
_MIN_BPM = 1e-100


@dataclass(frozen=True)
class Segment:
    """One stretch of tracker behavior, starting at a reference beat index.

    start is stored as ``int``, so a numpy integer is accepted.
    """

    start: int
    condition: Condition
    jitter_std: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "start", _index("segment start", self.start, 0))
        _non_negative("jitter_std", self.jitter_std)


@dataclass(frozen=True)
class Scenario:
    """A tempo curve plus the scripted per-segment tap behavior.

    tempo_curve: a single BPM value for constant tempo, or a sequence
        of (time, bpm) knots interpolated linearly in between; every
        BPM is at least 1e-100.
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
    if any(bpm < _MIN_BPM for _, bpm in points):
        raise ValueError(f"tempo curve BPM values must be >= {_MIN_BPM:g}")
    return points


def _curve_on_span(points, duration):
    """Clip/extend tempo knots so they cover exactly [0, duration].

    Raises ValueError for a duration that is not finite and positive,
    and for a span that could hold more than ``_MAX_BEATS`` beats.
    """
    _finite_positive("duration", duration)
    times, bpms = np.asarray(points).T
    knot_t = np.concatenate(([0.0], times[(times > 0.0) & (times < duration)], [duration]))
    knot_b = np.interp(knot_t, times, bpms)
    if duration * knot_b.max() / 60.0 > _MAX_BEATS:
        raise ValueError(
            f"duration {duration} s at up to {knot_b.max()} BPM could give more than {_MAX_BEATS} beats"
        )
    return knot_t.tolist(), knot_b.tolist()


def gen_reference(tempo_curve, duration: float) -> BeatSequence:
    """Place beats in [0, duration) by integrating the tempo curve.

    The first beat falls at time 0.  Within a segment between two knots
    the rate (beats per second) is linear, so the accumulated beat
    count is quadratic in time and each beat time solves a quadratic;
    for constant tempo the intervals are exactly 60/bpm.

    Raises ValueError for a BPM below 1e-100, for a duration that is
    not finite and positive, or one that at the curve's highest BPM
    gives over a million beats.
    """
    knot_t, knot_b = _curve_on_span(_normalize_curve(tempo_curve), duration)
    beats = []
    phase = 0.0
    for t0, t1, b0, b1 in zip(knot_t[:-1], knot_t[1:], knot_b[:-1], knot_b[1:]):
        r0 = b0 / 60.0
        r1 = b1 / 60.0
        dt = t1 - t0
        slope = (r1 - r0) / dt
        segment_phase = 0.5 * (r0 + r1) * dt
        # beat k falls where the accumulated phase reaches k; the beats
        # not yet placed start at ceil(phase), and arange yields exactly
        # the integers below phase + segment_phase
        target = np.arange(np.ceil(phase), phase + segment_phase) - phase
        # the quadratic's root in the form that needs no division by the
        # slope, so a near-flat ramp keeps its precision; at slope 0 it
        # is exactly target / r0, because sqrt(r0 * r0) == r0
        beats.append(t0 + 2.0 * target / (r0 + np.sqrt(r0 * r0 + 2.0 * slope * target)))
        phase += segment_phase
    return BeatSequence(np.concatenate(beats))


def gen_estimate(ref: BeatSequence, scenario: Scenario, seed: int = 0) -> BeatSequence:
    """Simulate the scripted tracker over the reference beats.

    Deterministic for a fixed seed.  Jitter is truncated at three
    standard deviations; if a jittered sequence still comes out
    non-monotonic it is re-sorted with a warning, and exact duplicate
    times are collapsed.

    Raises ValueError for a seed that is not an integer >= 0, and for a
    segment that starts past the last reference beat.
    """
    n = len(ref)
    if scenario.segments[-1].start >= n:
        raise ValueError(
            f"segment start {scenario.segments[-1].start} beyond {n} reference beats"
        )
    rng = np.random.default_rng(_index("seed", seed, 0))
    bounds = [seg.start for seg in scenario.segments] + [n]
    parts = []
    for seg, start, end in zip(scenario.segments, bounds[:-1], bounds[1:]):
        # A segment taps over reference beats [start, end).  An offbeat
        # tap needs the interval after its beat, so offbeats also read
        # beat ``end``.  Harmonics interpolate only intervals fully inside
        # the segment: the interval crossing into the next segment belongs
        # to neither behavior.
        if seg.condition in OFFBEAT_CONDITIONS:
            end += 1
        times = condition_taps(ref.times[start:end], seg.condition)
        if seg.jitter_std > 0:
            sigma = seg.jitter_std
            noise = np.clip(rng.normal(0.0, sigma, len(times)), -3.0 * sigma, 3.0 * sigma)
            times = np.maximum(times + noise, 0.0)
        parts.append(times)
    out = np.concatenate(parts)
    if np.any(np.diff(out) < 0):
        warnings.warn("jitter broke monotonicity; estimate re-sorted", stacklevel=2)
        out = np.sort(out)
    return BeatSequence(out[np.diff(out, prepend=-np.inf) != 0.0])


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
    seeded Gaussian noise when noise_std > 0.  Each frame sums its bumps
    in beat order, and each bump covers only the frames within 40 widths
    of its beat, past which it is exactly 0.  Beats are summed in
    blocks of a bounded number of (beat, frame) cells, so time and
    memory grow with the frames and the beats, not with their product.

    Raises ValueError for an fps or peak_width that is not finite and
    positive, a noise_std that is not finite and >= 0, a seed that is not
    an integer >= 0, and a curve whose (last beat + 1 s) * fps exceeds ten
    million frames.
    """
    # Python floats, so a product past the float range is inf, not a warning
    fps = _finite_positive("fps", fps)
    _finite_positive("peak_width", peak_width)
    _non_negative("noise_std", noise_std)
    seed = _index("seed", seed, 0)
    last = float(beats.times.max(initial=0.0))
    if (last + 1.0) * fps > _MAX_FRAMES:
        raise ValueError(f"{last + 1.0} s at fps {fps} would need more than {_MAX_FRAMES} activation frames")
    n_frames = int(round((last + 1.0) * fps)) + 1
    values = np.clip(_bump_sum(beats.times, n_frames, fps, peak_width), 0.0, 1.0)
    if noise_std > 0:
        noise = np.random.default_rng(seed).normal(0.0, noise_std, n_frames)
        values = np.clip(values + noise, 0.0, 1.0)
    return ActivationFunction(fps=fps, values=values)


def _bump_sum(times: np.ndarray, n_frames: int, fps: float, peak_width: float) -> np.ndarray:
    """The sum of one Gaussian bump per beat over frames ``0 .. n_frames - 1``.

    Frame ``f`` is at ``t = f / fps``, and the beat at ``b`` adds
    ``exp(-0.5 * ((t - b) / peak_width) ** 2)`` to it, in beat order,
    starting from 0.0.  A block of beats holds at most ``_BLOCK_CELLS``
    (beat, frame) cells, or one beat.
    """
    t = np.arange(n_frames) / fps
    values = np.zeros(n_frames)
    # exp(-0.5 * z**2) is exactly 0.0 once |z| passes about 38.6, so a
    # bump only changes the frames [start, start + count) within 40 widths
    # of its beat
    reach = 40.0 * peak_width
    starts = np.searchsorted(t, times - reach)
    counts = np.searchsorted(t, times + reach, side="right") - starts
    block = max(1, _BLOCK_CELLS // max(int(counts.max(initial=0)), 1))
    for i in range(0, len(times), block):
        width = counts[i : i + block]
        # each beat's frames in turn, beat after beat
        ends = np.cumsum(width)
        frames = np.repeat(starts[i : i + block] - (ends - width), width)
        frames += np.arange(ends[-1])
        z = t[frames]
        z -= np.repeat(times[i : i + block], width)
        z /= peak_width
        z **= 2
        z *= -0.5
        # unbuffered and in index order: each frame gets its bumps in beat
        # order, the sums that one += per beat would make
        np.add.at(values, frames, np.exp(z, out=z))
    return values
