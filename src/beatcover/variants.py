"""Construction of modified reference windows.

A tracker that taps twice as fast, or on the offbeat, is still locked
to the annotation in a useful way.  Each metric-level condition turns a
run of consecutive reference beats into a short "variant window" of
expected tap times; the matcher then looks for that window inside the
estimate.

:func:`condition_taps` is the one place where a condition's tap times
are defined: where a tracker locked to that condition taps over a
whole sequence.  The scenario synthesizer and AMLt's allowed variants
use it directly.  :func:`window_table` cuts those taps into every
window of a sequence at once, one row per anchor beat, and gives each
row its tolerance, the one adaptive tolerance formula.  Windows near
the end of the sequence that would need beats beyond the last
annotation do not exist and get no row.  :func:`variant_window` is
the one single-window view: one row of that table as a
:class:`VariantWindow`, or None where the table has no row, built from
the table of only the few beats the window reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CONDITION_FACTORS,
    CONDITION_FRACTIONS,
    CONDITION_STEPS,
    BeatSequence,
    Condition,
    ToleranceParams,
    WindowTooShortError,
    _frozen_array,
    _index,
)

__all__ = [
    "VariantWindow",
    "condition_taps",
    "window_table",
    "variant_window",
]

@dataclass(frozen=True, eq=False)
class VariantWindow:
    """Expected tap times for one condition anchored at one beat.

    times: strictly increasing expected tap times in seconds.
    epsilon: per-window matching tolerance in seconds.
    cover_set: indices of the reference beats this window accounts for.
    """

    condition: Condition
    instance: int
    times: np.ndarray
    epsilon: float
    cover_set: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "times", _frozen_array(self.times))
        if len(self.times) < 2:
            raise WindowTooShortError("a variant window needs at least two times")

    def __len__(self) -> int:
        return int(self.times.size)


def condition_taps(times, condition: Condition) -> np.ndarray:
    """Where a tracker locked to ``condition`` taps over the whole of ``times``.

    - Subharmonics (and onbeat) tap every ``step``-th beat, starting
      with the first.
    - Offbeats tap ``fraction`` of the way into each interval, so the
      last beat, which has no interval after it, gets no tap.
    - Harmonics tap each beat and ``factor - 1`` points evenly spaced
      inside the interval after it, then the last beat.
    """
    # contiguous, so that window_table can view the taps as rows
    r = np.ascontiguousarray(times, dtype=np.float64).reshape(-1)
    if condition in CONDITION_STEPS:
        return r[:: CONDITION_STEPS[condition]]
    if condition in CONDITION_FRACTIONS:
        return r[:-1] + CONDITION_FRACTIONS[condition] * (r[1:] - r[:-1])
    factor = CONDITION_FACTORS[condition]
    grid = r[:-1, None] + (r[1:] - r[:-1])[:, None] * np.arange(factor) / factor
    return np.concatenate([grid.reshape(-1), r[-1:]])


def window_table(
    times, condition: Condition, params: ToleranceParams = ToleranceParams()
) -> tuple[np.ndarray, np.ndarray, int]:
    """Every window of one condition over ``times``, one row per anchor.

    Returns ``(windows, eps, stride)``.  The window length is
    ``length = params.context``.  Row ``i`` of ``windows`` holds the
    expected tap times of the window anchored at beat ``i`` and covers
    beats ``i + stride * arange(length)``; ``eps[i]`` is its tolerance,
    min(cap, gamma * the mean of the row's gaps, summed in order).

    A row is a run of :func:`condition_taps`: ``length`` taps for
    onbeat and offbeats, every ``step``-th onbeat tap for subharmonics,
    and ``length + (factor - 1) * (length - 1)`` taps for harmonics,
    whose interpolated taps verify the faster pulse but cover nothing.
    An offbeat row needs beat ``i + length`` for its last interval.

    The table has one column per tap of a row.  It is a read-only view
    of the condition's taps, so each column is one strided run of them
    (for onbeat and subharmonics, of ``times`` itself).  A table with no
    row has at most one column more than the taps it is cut from, since
    no longer row fits, and so a huge ``length`` allocates nothing in
    proportion to it.
    """
    length = params.context
    stride = CONDITION_STEPS.get(condition, 1)
    factor = CONDITION_FACTORS.get(condition, 1)
    taps = condition_taps(times, Condition.ONBEAT if stride > 1 else condition)
    span = factor * (length - 1) + 1
    n_win = max((taps.size - 1 - stride * (span - 1)) // factor + 1, 0)
    if not n_win:
        return np.empty((0, min(span, taps.size + 1))), np.empty(0), stride
    windows = _rows(taps, n_win, span, factor, stride)
    # each row's gaps summed in order, as an explicit loop, since numpy
    # sums a long row pairwise
    gaps = _rows(taps[stride:] - taps[:-stride], n_win, span - 1, factor, stride)
    total = np.zeros(n_win)
    for k in range(span - 1):
        total += gaps[:, k]
    eps = np.minimum(params.cap, params.gamma * (total / (span - 1)))
    return windows, eps, stride


def _rows(a: np.ndarray, rows: int, span: int, factor: int, stride: int) -> np.ndarray:
    """The read-only view of the contiguous ``a`` whose row ``i``, column ``k`` is ``a[factor * i + stride * k]``."""
    view = np.ndarray((rows, span), buffer=a, strides=(factor * a.itemsize, stride * a.itemsize))
    view.flags.writeable = False
    return view


def variant_window(
    beats: BeatSequence,
    instance: int,
    condition: Condition,
    params: ToleranceParams = ToleranceParams(),
) -> VariantWindow | None:
    """The window of one condition anchored at beat ``instance``, or None.

    The window is row ``instance`` of :func:`window_table`, or None
    where the table has no such row.

    Raises:
        ValueError: ``instance`` is not the index of a beat.
    """
    instance = _index("instance", instance)
    if not 0 <= instance < len(beats):
        raise ValueError(f"instance {instance} out of range for {len(beats)} beats")
    # The window reads beats ``instance`` to ``end - 1``, and an offbeat
    # window also beat ``end``; the table of just those beats has it as
    # row 0, so one window costs O(context), not a whole-sequence table.
    stride = CONDITION_STEPS.get(condition, 1)
    end = instance + stride * (params.context - 1) + 1
    windows, eps, _ = window_table(beats.times[instance : end + 1], condition, params)
    if not len(windows):
        return None
    return VariantWindow(
        condition=condition,
        instance=instance,
        times=windows[0],
        epsilon=float(eps[0]),
        cover_set=frozenset(range(instance, end, stride)),
    )
