"""Locating variant windows inside an estimated beat sequence.

A window matches when some run of consecutive estimated beats lands
within the window tolerance of every expected tap.  Requiring the run
to be consecutive is the point: isolated coincidences do not count as
following a pulse.

Matching works on whole window tables (see
:func:`beatcover.variants.window_table`): one private matcher finds,
for every row at once, the first estimated beat where the row matches.
Coverage, L-correct detection and the single-window
:func:`window_match` all go through it.  Coverage and L-correct are one
pass over the windows of several tracks: the pass concatenates their
references, cuts each condition's table once from them, and matches
each table in one matcher call, in which each track's rows search only
that track's estimate.  L-correct matches the onbeat and half-offbeat
tables a second time, with the fixed tolerance cap.
:func:`coverage_matrix` and :func:`l_correct_detection` are the
one-track case of that pass.  The matcher is a band search,
:func:`_first_in_band`, that finds for every row the first candidate in
a sorted band that passes a check.  The continuity metrics search bands
too (see :func:`beatcover.metrics.continuity_correct`): each reference
tap checks every estimated beat in its phase band, widened by the same
:func:`_slack`.
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


# Most reference beats in one pass of several tracks, and most taps that
# the continuity search checks in one block.  Joining several tracks
# saves per-call overhead on short tracks; on long tracks, where one
# table already has thousands of rows, bigger blocks save nothing and
# only hold more memory.
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


def _runs(bounds, rows: int) -> list:
    """The matcher runs of a table with ``rows`` rows cut from the joined references.

    The table has a row for each anchor whose window reads no beat past
    the last joined one, so the row anchored at beat ``g`` reads beats
    ``g`` to ``g + reach``, where ``reach`` is the number of beats less
    the number of rows.  A row that reads past its own track's last beat
    exists only in the joined table and is in no run; each other row
    holds the same taps and tolerance as in its track's own table.
    """
    reach = bounds[-1][1] - rows
    return [(a, b - reach, s, t) for a, b, s, t in bounds if b - reach > a]


def _pass(
    pairs, params: ToleranceParams, conditions=tuple(Condition), l_correct: bool = True
) -> list[tuple[CoverageMatrix, np.ndarray, np.ndarray]]:
    """The coverage and the L-correct flags of each (reference, estimate) pair, in one pass.

    Each pair gets ``(coverage, ref_flags, est_flags)``: what
    :func:`coverage_matrix` and :func:`l_correct_detection` return.
    Only the tables of ``conditions`` are matched for coverage, and
    L-correct only with ``l_correct``; what is not matched stays False.
    """
    r, e, bounds = _concat(pairs)
    length = params.context
    # a row per condition, then L-correct's reference flags
    flags = np.zeros((len(Condition) + 1, len(r)), dtype=bool)
    est_flags = np.zeros(len(e), dtype=bool)
    for c, condition in enumerate(Condition):
        cover = condition in conditions
        # L-correct matches the onbeat and half-offbeat tables a second time
        check = l_correct and condition in (Condition.ONBEAT, Condition.OFFBEAT_HALF)
        if not (cover or check):
            continue
        windows, eps, stride = window_table(r, condition, length, params)
        if not len(windows):
            continue
        runs = _runs(bounds, len(windows))
        if cover:
            # row g covers beats g + stride * arange(length) of flag row c
            first = _first_match(windows, eps, e, runs)
            _mark(flags[c], np.flatnonzero(first >= 0), stride, length)
        if check:
            # L-correct: the same rows and runs under the fixed tolerance
            first = _first_match(windows, np.full(len(windows), params.cap), e, runs)
            hit = np.flatnonzero(first >= 0)
            _mark(flags[-1], hit, stride, length)
            _mark(est_flags, first[hit], 1, windows.shape[1])
    return [(CoverageMatrix(flags[:-1, a:b]), flags[-1, a:b], est_flags[s:t]) for a, b, s, t in bounds]


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
    return _pass([(ref, est)], params, l_correct=False)[0][0]


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
    return _pass([(ref, est)], params, conditions=())[0][1:]
