"""Locating variant windows inside an estimated beat sequence.

A window matches when some run of consecutive estimated beats lands
within the window tolerance of every expected tap.  Requiring the run
to be consecutive is the point: isolated coincidences do not count as
following a pulse.

Matching works on whole window tables (see
:func:`beatcover.variants.window_table`): one private matcher finds,
for every row at once, the first estimated beat where the row matches.
Coverage, L-correct detection and the single-window
:func:`window_match` all go through it.  Coverage stacks the tables of
the conditions whose windows have the same span, so a short track costs
one matcher call per span (four at the default context), not one per
condition.  The matcher is one use of a band search,
:func:`_first_in_band`, that finds for every row the first candidate in
a sorted band that passes a check; the continuity metrics
(:func:`beatcover.metrics.continuity_correct` and AMLt, which checks all
of its variants in one search) are the other.
"""

from __future__ import annotations

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


# Most rows that coverage and AMLt stack into one band search.  Stacking
# the rows of several conditions or variants saves per-call overhead on
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


def _first_match(windows: np.ndarray, eps: np.ndarray, est: np.ndarray) -> np.ndarray:
    """Smallest matching estimate index per window row, or -1."""
    span = windows.shape[1]
    # Any match must align the first expected tap, so only candidates
    # within epsilon of the row's first tap need the full check.  A run
    # may start no later than ``len(est) - span``, so an estimate shorter
    # than a window (or no window) has no candidates.
    w0 = windows[:, 0]
    band = eps + _slack(eps, w0)
    lo = np.searchsorted(est, w0 - band, side="left")
    hi = np.minimum(np.searchsorted(est, w0 + band, side="right"), len(est) - span + 1)

    def aligned(rows, j):
        taps = est[j[:, None] + np.arange(span)]
        return np.all(np.abs(windows[rows] - taps) <= eps[rows, None], axis=1)

    return _first_in_band(lo, hi, aligned)


def _mark(flags: np.ndarray, starts: np.ndarray, stride: int | np.ndarray, count: int) -> None:
    if len(starts):  # with no row to mark, a huge ``count`` builds nothing
        flags[starts[:, None] + stride * np.arange(count)] = True


def window_match(window: VariantWindow, est: BeatSequence) -> int | None:
    """Smallest index ``j`` where ``window`` matches ``est``, or None.

    A match at ``j`` means ``|window.times[t] - est.times[j + t]| <=
    window.epsilon`` for every position ``t`` of the window (closed
    comparison, so a distance of exactly epsilon still matches).
    """
    j = int(_first_match(window.times[None, :], np.array([window.epsilon]), est.times)[0])
    return None if j < 0 else j


def coverage_matrix(
    ref: BeatSequence, est: BeatSequence, params: ToleranceParams = ToleranceParams()
) -> CoverageMatrix:
    """Which reference beats are covered, per condition.

    A reference beat is covered under a condition when it lies in the
    cover set of at least one fully matched window of that condition.
    """
    n, length = len(ref), params.context
    flags = np.zeros(len(Condition) * n, dtype=bool)
    stack = []  # tables to match together: (windows, eps, first flag, stride) per row

    def match():
        windows, eps, starts, strides = (np.concatenate(part) for part in zip(*stack))
        hit = _first_match(windows, eps, est.times) >= 0
        _mark(flags, starts[hit], strides[hit, None], length)
        stack.clear()

    # Consecutive tables are matched together while they share a span and
    # fit in one block.  ``Condition`` lists the seven conditions of span
    # ``length`` (onbeat, offbeats, subharmonics) before the three
    # harmonics, whose spans differ, so a short track takes one matcher
    # call per span.
    for c, condition in enumerate(Condition):
        windows, eps, stride = window_table(ref.times, condition, length, params)
        rows = len(windows) + sum(len(table[0]) for table in stack)
        if stack and (windows.shape[1] != stack[0][0].shape[1] or rows > _BLOCK_ROWS):
            match()
        # row i covers beats i + stride * arange(length) of flag row c
        stack.append((windows, eps, np.arange(c * n, c * n + len(windows)), np.full(len(windows), stride)))
    match()
    return CoverageMatrix(flags.reshape(len(Condition), n))


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
    ref_flags = np.zeros(len(ref), dtype=bool)
    est_flags = np.zeros(len(est), dtype=bool)
    for condition in (Condition.ONBEAT, Condition.OFFBEAT_HALF):
        windows, _, stride = window_table(ref.times, condition, params.context, params)
        first = _first_match(windows, np.full(len(windows), params.cap), est.times)
        hit = np.flatnonzero(first >= 0)
        _mark(ref_flags, hit, stride, params.context)
        _mark(est_flags, first[hit], 1, windows.shape[1])
    return ref_flags, est_flags
