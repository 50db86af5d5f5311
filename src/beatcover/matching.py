"""Locating variant windows inside an estimated beat sequence.

A window matches when some run of consecutive estimated beats lands
within the window tolerance of every expected tap.  Requiring the run
to be consecutive is the point: isolated coincidences do not count as
following a pulse.

Matching works on whole window tables (see
:func:`beatcover.variants.window_table`): one private matcher finds,
for every row at once, the first estimated beat where the row matches.
Coverage, L-correct detection and the single-window
:func:`window_match` all go through it.  Coverage and L-correct match
the windows of several tracks in one pass: the pass concatenates their
references and cuts each condition's table once from them, and each
track's rows search only that track's estimate.  Coverage also stacks
the tables of the conditions whose windows have the same span, so a
pass costs one matcher call per stack, not one per condition and
track.  :func:`coverage_matrix` and :func:`l_correct_detection` are the
one-track case of that pass.  The matcher is one use of a band search,
:func:`_first_in_band`, that finds for every row the first candidate in
a sorted band that passes a check; the continuity metrics
(:func:`beatcover.metrics.continuity_correct` and AMLt, which checks all
of its variants in one search) are the other.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .core import BeatSequence, Condition, CoverageMatrix, ToleranceParams
from .variants import VariantWindow, window_table

__all__ = ["window_match", "coverage_matrix", "l_correct_detection"]


def _slack(tol: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Slack that widens the band ``t -/+ tol`` to hold every ``x`` with ``|t - x| <= tol``.

    The band edges ``t - tol`` and ``t + tol`` round, and so, when ``t``
    is under ``2 * tol``, may ``|t - x|`` in the check, in the other
    direction; a few ulps of slack keep every ``x`` that passes the
    check inside the band.
    """
    return 4.0 * (np.spacing(tol) + np.spacing(np.abs(t)))


# Most rows that coverage and AMLt stack into one band search, and most
# reference beats in one pass of several tracks.  Stacking the rows of
# several conditions, variants or tracks saves per-call overhead on
# short tracks; on long tracks, where one table already has thousands of
# rows, bigger stacks save nothing and only hold more memory.
_BLOCK_ROWS = 4096


def _first_in_band(lo: np.ndarray, hi: np.ndarray, passes) -> np.ndarray:
    """Smallest ``k`` in ``[lo[r], hi[r])`` per row ``r`` with a pass, or -1.

    ``passes(rows, k)`` checks candidate ``k[n]`` of row ``rows[n]`` and
    returns a Boolean array.  Each round tries the next candidate of the
    rows that have neither passed nor run out of band, and drops the rest.
    """
    first = np.full(len(lo), -1, dtype=np.intp)
    rows = np.flatnonzero(lo < hi)
    k = lo[rows]
    while len(rows):
        ok = passes(rows, k)
        first[rows[ok]] = k[ok]
        k = k + 1
        left = ~ok & (k < hi[rows])
        rows, k = rows[left], k[left]
    return first


def _first_match(windows: np.ndarray, eps: np.ndarray, est: np.ndarray, runs) -> np.ndarray:
    """Smallest matching index of ``est`` per window row, or -1.

    ``runs`` holds ``(a, b, s, t)``: rows ``a`` to ``b - 1`` belong to
    the track whose estimate is ``est[s:t]``, and only that slice holds
    their candidates.  A row in no run has none.
    """
    span = windows.shape[1]
    # Any match must align the first expected tap, so only candidates
    # within epsilon of the row's first tap need the full check.  A run
    # may start no later than ``t - span``, so an estimate shorter than
    # a window has no candidates.
    w0 = windows[:, 0]
    band = eps + _slack(eps, w0)
    below, above = w0 - band, w0 + band
    lo = np.zeros(len(windows), dtype=np.intp)
    hi = np.zeros(len(windows), dtype=np.intp)
    for a, b, s, t in runs:
        track = est[s:t]
        np.add(np.searchsorted(track, below[a:b], side="left"), s, out=lo[a:b])
        np.add(np.minimum(np.searchsorted(track, above[a:b], side="right"), t - s - span + 1), s, out=hi[a:b])

    def aligned(rows, j):
        taps = est[j[:, None] + np.arange(span)]
        return np.all(np.abs(windows[rows] - taps) <= eps[rows, None], axis=1)

    return _first_in_band(lo, hi, aligned)


def _mark(flags: np.ndarray, starts: np.ndarray, stride: int, count: int) -> None:
    flags[starts[:, None] + stride * np.arange(count)] = True


def _concat(pairs):
    """The references and the estimates of ``pairs``, joined, and each track's slices.

    Returns ``(r, e, bounds)``; ``bounds`` holds ``(a, b, s, t)`` per
    track, whose reference is ``r[a:b]`` and whose estimate is ``e[s:t]``.
    One track's arrays are used as they are.
    """
    refs = [ref.times for ref, _ in pairs]
    ests = [est.times for _, est in pairs]
    ref_ends = list(accumulate(map(len, refs), initial=0))
    est_ends = list(accumulate(map(len, ests), initial=0))
    bounds = list(zip(ref_ends, ref_ends[1:], est_ends, est_ends[1:]))
    if len(pairs) == 1:
        return refs[0], ests[0], bounds
    return np.concatenate(refs), np.concatenate(ests), bounds


def _runs(bounds, rows: int, offset: int = 0) -> list:
    """The matcher runs of a table with ``rows`` rows cut from the joined references.

    The table has a row for each anchor whose window reads no beat past
    the last joined one, so the row anchored at beat ``g`` reads beats
    ``g`` to ``g + reach``, where ``reach`` is the number of beats less
    the number of rows.  A row that reads past its own track's last beat
    exists only in the joined table and is in no run; each other row
    holds the same taps and tolerance as in its track's own table.  The
    table starts at row ``offset`` of its stack.
    """
    reach = bounds[-1][1] - rows
    return [(offset + a, offset + b - reach, s, t) for a, b, s, t in bounds if b - reach > a]


def _coverage_pass(pairs, params: ToleranceParams) -> list[CoverageMatrix]:
    """The coverage of each (reference, estimate) pair, matched in one pass."""
    r, e, bounds = _concat(pairs)
    length = params.context
    flags = np.zeros((len(Condition), len(r)), dtype=bool)
    stack = []  # tables to match together: (windows, eps, flag row, stride)

    def match():
        if len(stack) == 1:
            windows, eps = stack[0][:2]
        else:
            windows = np.concatenate([t[0] for t in stack])
            eps = np.concatenate([t[1] for t in stack])
        offsets = list(accumulate((len(table) for table, *_ in stack), initial=0))
        runs = [run for (table, *_), at in zip(stack, offsets) for run in _runs(bounds, len(table), at)]
        first = _first_match(windows, eps, e, runs)
        for (table, _, c, stride), at in zip(stack, offsets):
            # row g covers beats g + stride * arange(length) of flag row c
            hit = np.flatnonzero(first[at : at + len(table)] >= 0)
            _mark(flags[c], hit, stride, length)
        stack.clear()

    # Consecutive tables are matched together while they share a span and
    # fit in one block.  ``Condition`` lists the seven conditions of span
    # ``length`` (onbeat, offbeats, subharmonics) before the three
    # harmonics, whose spans differ, so a short pass takes one matcher
    # call per span.  A table with no row needs no call.
    for c, condition in enumerate(Condition):
        windows, eps, stride = window_table(r, condition, length, params)
        if not len(windows):
            continue
        rows = len(windows) + sum(len(table[0]) for table in stack)
        if stack and (windows.shape[1] != stack[0][0].shape[1] or rows > _BLOCK_ROWS):
            match()
        stack.append((windows, eps, c, stride))
    if stack:
        match()
    return [CoverageMatrix(flags[:, a:b]) for a, b, _, _ in bounds]


def _l_correct_pass(pairs, params: ToleranceParams) -> list[tuple[np.ndarray, np.ndarray]]:
    """The L-correct flags of each (reference, estimate) pair, matched in one pass."""
    r, e, bounds = _concat(pairs)
    ref_flags = np.zeros(len(r), dtype=bool)
    est_flags = np.zeros(len(e), dtype=bool)
    for condition in (Condition.ONBEAT, Condition.OFFBEAT_HALF):
        windows, _, stride = window_table(r, condition, params.context, params)
        if not len(windows):
            continue
        eps = np.full(len(windows), params.cap)
        first = _first_match(windows, eps, e, _runs(bounds, len(windows)))
        hit = np.flatnonzero(first >= 0)
        _mark(ref_flags, hit, stride, params.context)
        _mark(est_flags, first[hit], 1, windows.shape[1])
    return [(ref_flags[a:b], est_flags[s:t]) for a, b, s, t in bounds]


def window_match(window: VariantWindow, est: BeatSequence) -> int | None:
    """Smallest index ``j`` where ``window`` matches ``est``, or None.

    A match at ``j`` means ``|window.times[t] - est.times[j + t]| <=
    window.epsilon`` for every position ``t`` of the window (closed
    comparison, so a distance of exactly epsilon still matches).
    """
    runs = [(0, 1, 0, len(est))]
    j = int(_first_match(window.times[None, :], np.array([window.epsilon]), est.times, runs)[0])
    return None if j < 0 else j


def coverage_matrix(
    ref: BeatSequence, est: BeatSequence, params: ToleranceParams = ToleranceParams()
) -> CoverageMatrix:
    """Which reference beats are covered, per condition.

    A reference beat is covered under a condition when it lies in the
    cover set of at least one fully matched window of that condition.
    """
    return _coverage_pass([(ref, est)], params)[0]


def l_correct_detection(
    ref: BeatSequence, est: BeatSequence, params: ToleranceParams = ToleranceParams()
) -> tuple[np.ndarray, np.ndarray]:
    """Window-verified detection flags under a fixed tolerance.

    Reproduces the stricter detection rule used as a baseline: only
    onbeat and half-offbeat windows count, and the tolerance is the
    fixed cap rather than the tempo-adaptive value.  Returns Boolean
    flags over the reference beats and over the estimated beats; an
    estimated beat is flagged when it takes part in any matched window.
    """
    return _l_correct_pass([(ref, est)], params)[0]
