"""Reference post-processing trackers.

Both turn an activation curve into beat times.  They exist so the
evaluation pipeline can be demonstrated end to end and so synthetic
activations have something realistic to flow through; neither aims to
be competitive.
"""

from __future__ import annotations

import numpy as np

from .core import ActivationFunction, BeatcoverError, BeatSequence, EmptySequenceError
from .metrics import mean_track_tempo

__all__ = [
    "DegenerateTempoError",
    "sppk",
    "dp_track",
    "global_tempo_from_reference",
]


class DegenerateTempoError(BeatcoverError):
    """The target period is under two frames; tracking is meaningless."""


def sppk(
    act: ActivationFunction, threshold: float = 0.3, min_gap: float = 0.15
) -> BeatSequence:
    """Simple peak picking: thresholded local maxima with gap suppression.

    A frame is a candidate when it strictly exceeds its left neighbor,
    is at least its right neighbor (so a plateau yields its first
    frame), and reaches ``threshold``.  Candidates are accepted in
    order of descending value (ties broken toward the earlier frame);
    a candidate closer than ``min_gap`` seconds to an already accepted
    peak is suppressed.  May return an empty sequence.
    """
    if not min_gap >= 0:
        raise ValueError(f"min_gap must be >= 0, got {min_gap}")
    v = act.values
    if len(v) < 3:
        return BeatSequence(np.zeros(0))
    interior = np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] >= v[2:])) + 1
    candidates = interior[v[interior] >= threshold]
    order = sorted(candidates.tolist(), key=lambda f: (-v[f], f))
    accepted: list[int] = []
    for frame in order:
        if all(abs(frame - a) / act.fps >= min_gap for a in accepted):
            accepted.append(frame)
    accepted.sort()
    return BeatSequence(np.asarray(accepted, dtype=np.float64) / act.fps)


def dp_track(
    act: ActivationFunction, global_tempo: float, tightness: float = 100.0
) -> BeatSequence:
    """Dynamic-programming beat tracking toward a single global tempo.

    With target period ``tau = fps * 60 / global_tempo`` frames, each
    frame's score is its activation plus the best predecessor score
    from the window [n - 2*tau, n - tau/2], discounted by
    ``tightness * (log(n - p) - log(tau))**2``.  A frame whose best
    discounted predecessor score is not positive links to none and
    starts a path, so a first beat later than half a period is found
    where it is instead of being pulled toward 0 s.  The beat sequence
    is the backtrace from the best-scoring frame, so output intervals
    stay within a factor of two of the target period.

    Raises:
        EmptySequenceError: the activation has no frames.
        DegenerateTempoError: tau comes out below 2 frames.
    """
    if not global_tempo > 0:
        raise ValueError(f"global_tempo must be > 0, got {global_tempo}")
    if len(act) == 0:
        raise EmptySequenceError("activation has no frames")
    tau = act.fps * 60.0 / global_tempo
    if tau < 2.0:
        raise DegenerateTempoError(
            f"target period {tau:.3f} frames is below 2; raise fps or lower tempo"
        )
    v = act.values
    n_frames = len(v)
    cumscore = v.astype(np.float64).copy()
    backlink = np.full(n_frames, -1, dtype=np.int64)
    log_tau = np.log(tau)
    for n in range(n_frames):
        lo = max(int(np.ceil(n - 2.0 * tau)), 0)
        hi = min(int(np.floor(n - tau / 2.0)), n - 1)
        if lo > hi:
            continue
        gaps = n - np.arange(lo, hi + 1)
        scores = cumscore[lo : hi + 1] - tightness * (np.log(gaps) - log_tau) ** 2
        best = int(np.argmax(scores))
        if scores[best] > 0.0:
            cumscore[n] = v[n] + scores[best]
            backlink[n] = lo + best
    path = [int(np.argmax(cumscore))]
    while backlink[path[-1]] >= 0:
        path.append(int(backlink[path[-1]]))
    frames = np.asarray(path[::-1], dtype=np.float64)
    return BeatSequence(frames / act.fps)


# The global tempo a reference gives ``dp_track`` is its mean track tempo.
global_tempo_from_reference = mean_track_tempo
