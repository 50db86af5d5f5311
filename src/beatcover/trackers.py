"""Reference post-processing trackers.

Both turn an activation curve into beat times.  They exist so the
evaluation pipeline can be demonstrated end to end and so synthetic
activations have something realistic to flow through; neither aims to
be competitive.
"""

from __future__ import annotations

import bisect
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import ActivationFunction, BeatcoverError, BeatSequence, EmptySequenceError
from .core import _finite, _finite_positive, _non_negative
from .metrics import mean_track_tempo

__all__ = [
    "DegenerateTempoError",
    "sppk",
    "dp_track",
    "global_tempo_from_reference",
]


# Most cells of one dp_track block's (frames x window) score array; a
# block has fewer frames when the window is wide, so memory stays linear.
_BLOCK_CELLS = 1 << 16


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

    Closeness is tested once, in whole frames: ``gap`` is the least
    ``d >= 1`` with ``d / fps >= min_gap``, and two peaks conflict when
    they are fewer than ``gap`` frames apart.  Most candidates are
    settled in one array pass: one that ranks first among the candidates
    closer than ``gap`` to it is accepted, and those are suppressed.  Only
    the candidates near no such sure peak go through the greedy loop,
    which tests the same ``gap``, so it makes the same decisions in a few
    steps.
    """
    min_gap = _non_negative("min_gap", min_gap)
    _finite("threshold", threshold)
    v, fps = act.values, act.fps
    interior = np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] >= v[2:])) + 1
    frames = interior[v[interior] >= threshold]
    # rank of each candidate in the greedy order
    order = np.lexsort((frames, -v[frames]))
    rank = np.empty(len(frames) + 1, dtype=np.intp)
    rank[order] = np.arange(len(frames))
    rank[-1] = len(frames)  # lets reduceat end a slice at the last candidate
    # Two peaks conflict when fewer than gap frames apart: gap is the
    # least d >= 1 with d / fps >= min_gap, since d / fps grows with d.
    # Past the last frame every two candidates conflict, so gap stops there.
    gap = len(v) if not min_gap * fps < len(v) else max(1, math.ceil(min_gap * fps))
    while gap > 1 and (gap - 1) / fps >= min_gap:
        gap -= 1
    while gap < len(v) and gap / fps < min_gap:
        gap += 1
    # the candidates [lo, hi) within gap - 1 frames of each one
    lo = np.searchsorted(frames, frames - (gap - 1))
    hi = np.searchsorted(frames, frames + (gap - 1), side="right")
    # A candidate that ranks first among its neighbours is accepted:
    # each peak accepted before it ranks higher, so lies at least gap
    # away.  Its neighbours are then suppressed, and no other candidate
    # is near it, so the loop below, seeded with these sure peaks,
    # decides the rest as the greedy loop over every candidate would.
    sure = np.minimum.reduceat(rank, np.stack([lo, hi], axis=1).ravel())[::2] == rank[:-1]
    near = np.concatenate(([0], np.cumsum(sure)))
    rest = (near[hi] == near[lo])[order]  # in no sure peak's reach, in greedy order
    # accepted stays sorted; the nearest accepted peak on each side
    # decides the gap test, the same integer rule as the pass above
    accepted: list[int] = frames[sure].tolist()
    for frame in frames[order[rest]].tolist():
        i = bisect.bisect(accepted, frame)
        if (i == 0 or frame - accepted[i - 1] >= gap) and (i == len(accepted) or accepted[i] - frame >= gap):
            accepted.insert(i, frame)
    return BeatSequence(np.asarray(accepted, dtype=np.float64) / fps)


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

    Frames are scored about ``tau/2`` at a time, so time grows with the
    number of frames times the window width (``1.5 * tau``) and memory
    with the number of frames.

    Any finite tightness is accepted.  At 0 every gap in the window
    scores alike, and below 0 a gap further from ``tau`` scores higher,
    so both can give beats far from the target tempo.

    Raises:
        EmptySequenceError: the activation has no frames.
        ValueError: global_tempo is not finite and > 0, tightness is not
            finite, or tau is not finite.
        DegenerateTempoError: tau comes out below 2 frames.
    """
    _finite_positive("global_tempo", global_tempo)
    _finite("tightness", tightness)
    if len(act) == 0:
        raise EmptySequenceError("activation has no frames")
    tau = act.fps * 60.0 / global_tempo
    if not np.isfinite(tau):
        raise ValueError(f"target period {tau} frames is not finite; raise global_tempo")
    if tau < 2.0:
        raise DegenerateTempoError(
            f"target period {tau:.3f} frames is below 2; raise fps or lower tempo"
        )
    # a tightness near -/+1e308 overflows discounts and scores to -/+inf,
    # which the recurrence orders like any score; no invalid value arises
    with np.errstate(over="ignore"):
        cumscore, backlink = _link_frames(act.values, tau, tightness)
    path = [int(np.argmax(cumscore))]
    while backlink[path[-1]] >= 0:
        path.append(int(backlink[path[-1]]))
    frames = np.asarray(path[::-1], dtype=np.float64)
    return BeatSequence(frames / act.fps)


def _window_offsets(frames: np.ndarray, tau: float):
    """``(lo - n, hi - n)`` of each frame n's predecessor window.

    ``lo = max(ceil(n - 2*tau), 0)`` and ``hi = min(floor(n - tau/2), n - 1)``,
    evaluated in place over float frame numbers; ``lo > hi`` means the
    frame has no predecessor.
    """
    lo = frames - 2.0 * tau
    np.ceil(lo, out=lo)
    np.maximum(lo, 0.0, out=lo)
    lo -= frames
    hi = frames - tau / 2.0
    np.floor(hi, out=hi)
    hi -= frames
    np.minimum(hi, -1.0, out=hi)
    return lo, hi


def _link_frames(v: np.ndarray, tau: float, tightness: float):
    """Cumulative scores and backlinks of the ``dp_track`` recurrence.

    Every frame's window bounds come from the same float expressions
    (``_window_offsets``).  Frames are scored a block at a time, as one
    (frames x window) array: a block is no longer than the shortest gap
    n - p of any window, so it reads only scores of earlier blocks.  Each
    block does only what the next one reads: it subtracts the discounts,
    keeps each frame's best column (the first maximum wins) and its
    score, and adds that score, where positive, to the frame's
    activation.  The backlinks are built from the kept columns and
    scores after the last block.  A frame that links to none keeps its
    activation, except that from the first block on -0.0 becomes +0.0,
    which compares equal.
    """
    n_frames = len(v)
    lo, hi = _window_offsets(np.arange(n_frames, dtype=np.float64), tau)
    linkable = lo <= hi
    if not linkable.any():
        return v.astype(np.float64), np.full(n_frames, -1, dtype=np.int64)
    # every window's gaps n - p lie in [g_lo, g_hi], and g_hi < n_frames
    g_lo = int(-hi.max(initial=-np.inf, where=linkable))
    g_hi = int(-lo.min(initial=np.inf, where=linkable))
    width = g_hi - g_lo + 1
    # row n reads no frame after n - g_lo, so g_lo rows depend only on
    # earlier blocks
    block = max(1, min(g_lo, _BLOCK_CELLS // width))
    starts = range(int(linkable.argmax()), n_frames, block)
    # only blocks with a window narrower than [g_lo, g_hi] need a mask
    narrow = np.logical_or.reduceat((lo > -g_hi) | (hi < -g_lo), starts)
    del lo, hi, linkable
    # one block of slack past the last frame makes every block full; the
    # slack frames read and write only slack and are never returned
    padded = np.zeros(g_hi + n_frames + block)
    padded[g_hi : g_hi + n_frames] = v
    # frame n's predecessor window is row n of windows, cumscore[n - g_hi : n - g_lo + 1];
    # the zeros standing in for frames before 0 are always masked
    windows = sliding_window_view(padded, width)
    best = np.zeros(n_frames + block, dtype=np.intp)  # column of each frame's best predecessor
    top = np.zeros(n_frames + block)  # its discounted score; 0 links to none
    # one view per block of each array, so the loop slices nothing
    span = slice(starts.start, starts.start + len(starts) * block)
    blocks = zip(
        windows[span].reshape(len(starts), block, width),
        padded[g_hi:][span].reshape(len(starts), block),
        best[span].reshape(len(starts), block),
        top[span].reshape(len(starts), block),
        starts,
        narrow.tolist(),
    )
    penalty = np.empty((block, width))
    penalty[:] = tightness * (np.log(np.arange(g_hi, g_lo - 1, -1)) - np.log(tau)) ** 2
    columns = np.arange(-g_hi, -g_lo + 1)  # p - n of each column
    scores = np.empty((block, width))
    flat = scores.ravel()
    cells = np.arange(block) * width  # flat index of each row's column 0
    cell = np.empty(block, dtype=np.intp)
    zero, lift = np.zeros(block), np.empty(block)  # an array, as numpy converts a scalar 0.0 on every call
    for window, cumscore, column, score, start, masked in blocks:
        np.subtract(window, penalty, out=scores)
        if masked:
            lo, hi = _window_offsets(np.arange(start, start + block, dtype=np.float64), tau)
            scores[(columns < lo[:, None]) | (columns > hi[:, None])] = -np.inf
        scores.argmax(axis=1, out=column)
        flat.take(np.add(cells, column, out=cell), out=score)
        cumscore += np.maximum(score, zero, out=lift)
    # frame n links to p = n - g_hi + best[n] when its best score is positive
    backlink = best[:n_frames]
    backlink += np.arange(-g_hi, n_frames - g_hi)
    backlink[~(top[:n_frames] > 0.0)] = -1
    return padded[g_hi : g_hi + n_frames], backlink


# The global tempo a reference gives ``dp_track`` is its mean track tempo.
global_tempo_from_reference = mean_track_tempo
