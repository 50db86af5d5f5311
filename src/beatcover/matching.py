"""Locating variant windows inside an estimated beat sequence.

A window matches when some run of consecutive estimated beats lands
within the window tolerance of every expected tap.  Requiring the run
to be consecutive is the point: isolated coincidences do not count as
following a pulse.

Matching works on whole window tables (see
:func:`beatcover.variants.window_table`): one private matcher finds,
for every row at once, the first estimated beat where the row matches.
Coverage, L-correct detection and the single-window
:func:`window_match` all go through it.
"""

from __future__ import annotations

import numpy as np

from .core import BeatSequence, Condition, CoverageMatrix, ToleranceParams
from .variants import VariantWindow, window_table

__all__ = ["window_match", "coverage_matrix", "l_correct_detection"]


def _first_match(windows: np.ndarray, eps: np.ndarray, est: np.ndarray) -> np.ndarray:
    """Smallest matching estimate index per window row, or -1."""
    n_win, span = windows.shape
    first = np.full(n_win, -1, dtype=np.intp)
    n_start = len(est) - span + 1
    if n_start <= 0 or n_win == 0:
        return first
    # Any match must align the first expected tap, so only candidates
    # within epsilon of the row's first tap need the full check.  The
    # band edges ``w0 - eps`` and ``w0 + eps`` round, and so, when ``w0``
    # is under ``2 * eps``, may ``|w0 - e|`` in the check, in the other
    # direction; a few ulps of slack keep every beat that passes the
    # check inside the band.
    w0 = windows[:, 0]
    band = eps + 4.0 * (np.spacing(eps) + np.spacing(np.abs(w0)))
    lo = np.searchsorted(est, w0 - band, side="left")
    hi = np.minimum(np.searchsorted(est, w0 + band, side="right"), n_start)
    for offset in range(int(np.max(hi - lo, initial=0))):
        j = lo + offset
        rows = np.flatnonzero((first < 0) & (j < hi))
        taps = est[j[rows, None] + np.arange(span)]
        ok = np.all(np.abs(windows[rows] - taps) <= eps[rows, None], axis=1)
        first[rows[ok]] = j[rows[ok]]
    return first


def _mark(flags: np.ndarray, starts: np.ndarray, stride: int, count: int) -> None:
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
    rows = np.zeros((len(Condition), len(ref)), dtype=bool)
    for condition, row in zip(Condition, rows):
        windows, eps, stride = window_table(ref.times, condition, params.context, params)
        _mark(row, np.flatnonzero(_first_match(windows, eps, est.times) >= 0), stride, params.context)
    return CoverageMatrix(rows)


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
