"""Locating variant windows inside an estimated beat sequence.

A window matches when some run of consecutive estimated beats lands
within the window tolerance of every expected tap.  Requiring the run
to be consecutive is the point: isolated coincidences do not count as
following a pulse.

Matching works on whole window tables (see
:func:`beatcover.variants.window_table`): one private matcher finds,
for every row of a few tables at once, the first estimated beat where
the row matches.  Coverage, L-correct detection and the single-window
:func:`window_match` all go through it.  Coverage and L-correct are one
pass over the windows of several tracks, joined once by :func:`_join`:
the pass cuts each condition's table once from the joined references,
and each track's rows search only that track's estimate, to its end.
Tables whose rows start on the same tap share one matcher call, so a
pass makes four band searches: one for onbeat, the subharmonics, the
harmonics and L-correct's onbeat table, which start on the reference
beat, and one for each offbeat fraction, where L-correct's half-offbeat
table joins coverage's.  L-correct matches its two tables under the
fixed tolerance cap.  The pass has nothing to switch off:
:func:`coverage_matrix` and :func:`l_correct_detection` each make the
whole one-track pass and return their part of it.

The matcher, the continuity metrics (see
:func:`beatcover.metrics.continuity_correct`) and F1 (see
:func:`beatcover.metrics.f1_score`) share one band search,
:func:`_bands`, and one join per pass.  A join holds the joined
references and estimates, the bounds of each track in them, and one
set of keys (:func:`_keys`) by which the joined estimate is searched,
built once per pass.  Only window matching also needs to know, for
each reference beat, where its track lies (:func:`_beat_tracks`), so
:func:`_pass` and :func:`window_match` build that themselves.  Each band,
the estimated beats within a tolerance of a centre, lies in one track
of the joined estimate; every band is widened by the same
:func:`_slack`, and gives its candidates one per round, in order.  The
matcher keeps, in each table, each row's first candidate that aligns
every tap within that table's tolerance; the continuity search flags
each candidate that passes its phase and interval checks; F1 takes
two rounds, a reference beat's partner and whether it has another.
"""

from __future__ import annotations

import contextlib
import math
from itertools import accumulate

import numpy as np

from .core import CONDITION_FRACTIONS, BeatSequence, Condition, CoverageMatrix, ToleranceParams
from .variants import VariantWindow, window_table

__all__ = ["window_match", "coverage_matrix", "l_correct_detection"]


def _slack(tol: float, t: float) -> float:
    """Slack that widens the band ``t -/+ tol`` to hold every ``x`` with ``|t - x| <= tol``.

    The band edges ``t - tol`` and ``t + tol`` round, and so, when ``t``
    is under ``2 * tol``, may ``|t - x|`` in the check, in the other
    direction; a few ulps of slack keep every ``x`` that passes the
    check inside the band.
    """
    return 4.0 * (math.ulp(tol) + math.ulp(abs(t)))


def _keys(e: np.ndarray, s: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, float]:
    """The search keys of the joined estimate ``e``, whose tracks are the slices ``e[s:t]``.

    Returns ``(keys, scale)``.  The joined estimate is sorted within each
    track only, so a band is searched by keys ``v * scale + s``, where
    ``s`` is where the track starts in ``e`` and ``scale`` a power of two
    no greater than 1: ``v * scale`` lies in [0, 1) for every estimated
    beat, so the keys rise across tracks, and the map is monotone, so a
    key band holds every beat of the time band.  Within its track, it is
    that track's band, plus any beats that round onto its edges.  The
    slices tile ``e`` in order.  A last key of infinity ends the last
    track's bands.
    """
    scale = math.ldexp(1.0, -max(math.frexp(e.max(initial=0.0))[1], 0))
    return np.append(np.repeat(s, t - s) + e * scale, np.inf), scale


def _bands(key, x: np.ndarray, tol: np.ndarray, s: np.ndarray, stop: np.ndarray):
    """Every candidate of each band ``x -/+ tol`` in its own track, in rounds.

    ``key`` is the :func:`_keys` map of the joined estimate, and band
    ``n`` searches only its track's beats ``s[n]`` to ``stop[n] - 1``.
    Yields ``(n, j)`` per round: the bands that have a candidate left,
    and the next candidate of each, in increasing order per band.  All
    bands are widened by one :func:`_slack`, the one that the largest
    centre and tolerance need: slack grows with both, and centres are at
    or after 0 s, so it is wide enough for every band.  A band's first
    candidate is the track's first beat at or above its lower key edge;
    its candidates go on while their keys are no greater than its upper
    edge's.  An edge past the float range is inf, which still bounds its
    band; only when the widest upper edge is inf does numpy compute
    under ``errstate``, so that it does not warn.
    """
    keys, scale = key
    wide, far = float(tol.max(initial=0.0)), float(x.max(initial=0.0))
    slack = _slack(wide, far)
    with np.errstate(over="ignore") if far + (wide + slack) == math.inf else contextlib.nullcontext():
        tol = tol + slack
        lo, up = x - tol, np.add(x, tol, out=tol)
        for edge in (lo, up):
            edge *= scale
            edge += s
    j = np.maximum(np.searchsorted(keys, lo, side="left"), s)
    n = ((j < stop) & (keys[j] <= up)).nonzero()[0]
    j, up, stop = j[n], up[n], stop[n]
    while len(n):
        yield n, j
        j = j + 1
        live = ((j < stop) & (keys[j] <= up)).nonzero()[0]
        n, j, up, stop = n[live], j[live], up[live], stop[live]


def _beat_tracks(bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the track of each joined reference beat lies: ``(s, t, left)`` per beat.

    ``bounds`` holds ``(a, b, s, t)`` per track (see :func:`_join`).
    The track of beat ``g`` has the estimate ``e[s[g]:t[g]]``, and
    ``left[g]`` of its beats are at or after ``g``.
    """
    a, b, s, t = bounds.T
    return np.repeat(s, b - a), np.repeat(t, b - a), np.repeat(b, b - a) - np.arange(b[-1])


def _first_match(tables, e: np.ndarray, key, tracks) -> list[np.ndarray]:
    """Smallest matching index of ``e`` per row of each ``(windows, eps)`` table, or -1.

    ``key`` is the :func:`_keys` map of ``e``, and ``tracks`` the
    :func:`_beat_tracks` ``(s, t, left)`` of the joined references that
    the rows are cut from.  A table has a row for each anchor whose
    window reads no beat past the last joined one, so its row ``g``
    reads beats ``g`` to ``g + len(left) - len(windows)``.  The row is in
    its own track only when ``left[g]`` is greater than that reach, and
    then it holds the same taps and tolerance as in its track's own
    table.  Its match at ``j`` must fit in its track's estimate:
    ``t[g] - j`` is at least the table's span, so an estimate shorter
    than a window gives the row no match.  The tables' first columns are
    prefixes of one column, so row ``g`` of every table has the same
    first tap, and the tables share one band per row: it is as wide as
    the largest ``eps`` and runs to the track's end ``t[g]``, so its one
    :func:`_slack` covers each table's own band.  Each round gathers the
    estimate taps of its candidates, their room ``t - j`` and their
    rows' ``left`` once, tap-major, and each table checks them against
    its own tolerance, span and reach; candidates come in increasing
    order, so each row keeps its smallest matching index.
    """
    s, t, left = tracks
    rows = max(len(eps) for _, eps in tables)
    tol = np.zeros(rows)
    for _, eps in tables:
        np.maximum(tol[: len(eps)], eps, out=tol[: len(eps)])
    x = next(windows[:, 0] for windows, _ in tables if len(windows) == rows)
    span = max(windows.shape[1] for windows, _ in tables)
    firsts = [np.full(len(windows), -1, dtype=np.intp) for windows, _ in tables]
    # column j holds e[j:j + span]; past the joined estimate, inf, which
    # only a candidate without room for its table's span reads
    padded = np.full(len(e) + span, np.inf)
    padded[: len(e)] = e
    ahead = np.ndarray((span, len(e) + 1), buffer=padded, strides=padded.strides * 2)
    # Any match must align the first expected tap, so only candidates
    # within epsilon of the row's first tap need the full check.
    for n, j in _bands(key, x, tol, s[:rows], t[:rows]):
        taps = np.take(ahead, j, axis=1)
        room, rest = t[n] - j, left[n]
        for (windows, eps), first in zip(tables, firsts):
            k = np.searchsorted(n, len(first))  # the candidates of rows in this table
            m, i = n[:k], j[:k]
            off = np.take(windows.T, m, axis=1)
            off -= taps[: len(off), :k]
            ok = (np.abs(off, out=off) <= eps[m]).all(axis=0) & (first[m] < 0)
            ok &= (room[:k] >= len(off)) & (rest[:k] > len(left) - len(first))
            first[m[ok]] = i[ok]
    return firsts


def _mark(flags: np.ndarray, starts: np.ndarray, stride: int, count: int) -> None:
    flags[starts[:, None] + stride * np.arange(count)] = True


def _join(pairs):
    """The references and the estimates of ``pairs``, joined, with the key map of the estimates.

    Returns ``(r, e, bounds, key)``: ``bounds`` is an array that holds
    ``(a, b, s, t)`` per track, whose reference is ``r[a:b]`` and whose
    estimate is ``e[s:t]``, and ``key`` is the :func:`_keys` map of
    ``e``.  Only the ``times`` of each side are read: a window may stand
    in for a reference, whose table of the window's span then has one
    row, the window itself.
    """
    refs = [ref.times for ref, _ in pairs]
    ests = [est.times for _, est in pairs]
    ref_ends = list(accumulate(map(len, refs), initial=0))
    est_ends = list(accumulate(map(len, ests), initial=0))
    bounds = np.array(list(zip(ref_ends, ref_ends[1:], est_ends, est_ends[1:])))
    r, e = np.concatenate(refs), np.concatenate(ests)
    return r, e, bounds, _keys(e, *bounds[:, 2:].T)


def _pass(joined, params: ToleranceParams) -> list[tuple[CoverageMatrix, np.ndarray, np.ndarray]]:
    """The coverage and the L-correct flags of each track of ``joined``, in one pass.

    ``joined`` is a :func:`_join` of the tracks.  Each track gets
    ``(coverage, ref_flags, est_flags)``: what :func:`coverage_matrix`
    and :func:`l_correct_detection` return.  The onbeat and half-offbeat
    groups match L-correct's table, the condition's rows under the fixed
    tolerance ``params.cap``, in the band search that they make for
    coverage.
    """
    r, e, bounds, key = joined
    tracks = _beat_tracks(bounds)
    length = params.context
    # a row per condition, then L-correct's reference flags
    flags = np.zeros((len(Condition) + 1, len(r)), dtype=bool)
    est_flags = np.zeros(len(e), dtype=bool)
    # the conditions whose rows start on the same tap, the reference beat
    # or one offbeat fraction of the interval after it, share one search
    groups = {}
    for c, condition in enumerate(Condition):
        groups.setdefault(CONDITION_FRACTIONS.get(condition), []).append((c, condition))
    for group in groups.values():
        tables = []  # (flag row, stride, windows, eps)
        for c, condition in group:
            windows, eps, stride = window_table(r, condition, params)
            if not len(windows):
                continue
            tables.append((c, stride, windows, eps))
            # L-correct matches the onbeat and half-offbeat rows under the fixed tolerance
            if condition in (Condition.ONBEAT, Condition.OFFBEAT_HALF):
                tables.append((-1, stride, windows, np.broadcast_to(params.cap, len(windows))))
        if not tables:
            continue
        for (c, stride, _, _), first in zip(tables, _first_match([t[2:] for t in tables], e, key, tracks)):
            # row g covers beats g + stride * arange(length) of flag row c
            hit = np.flatnonzero(first >= 0)
            _mark(flags[c], hit, stride, length)
            if c < 0:
                # an L-correct row, onbeat or half-offbeat, has length taps
                _mark(est_flags, first[hit], 1, length)
    return [(CoverageMatrix(flags[:-1, a:b]), flags[-1, a:b], est_flags[s:t]) for a, b, s, t in bounds.tolist()]


def window_match(window: VariantWindow, est: BeatSequence) -> int | None:
    """Smallest index ``j`` where ``window`` matches ``est``, or None.

    A match at ``j`` means ``|window.times[t] - est.times[j + t]| <=
    window.epsilon`` for every position ``t`` of the window (closed
    comparison, so a distance of exactly epsilon still matches).
    """
    _, e, bounds, key = _join([(window, est)])
    table = (window.times[None, :], np.array([window.epsilon]))
    j = int(_first_match([table], e, key, _beat_tracks(bounds))[0][0])
    return None if j < 0 else j


def coverage_matrix(
    ref: BeatSequence, est: BeatSequence, params: ToleranceParams = ToleranceParams()
) -> CoverageMatrix:
    """Which reference beats are covered, per condition.

    A reference beat is covered under a condition when it lies in the
    cover set of at least one fully matched window of that condition.
    """
    return _pass(_join([(ref, est)]), params)[0][0]


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
    return _pass(_join([(ref, est)]), params)[0][1:]
