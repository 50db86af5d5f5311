"""Scalar evaluation metrics.

Three families live here.  The classic pairwise F-measure and the
continuity scores (CMLt, AMLt) are reimplementations of the standard
definitions and act as baselines.  The window-verified F-measure and
the coverage-based scores (per-condition coverage ratios, their unions,
and the level-switch ratio) are the quantities this package exists to
compute.  Dataset tempo statistics round out the set.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .core import (
    CONDITION_FACTORS,
    CONDITION_STEPS,
    BeatSequence,
    Condition,
    CoverageMatrix,
    TooFewBeatsError,
    ToleranceParams,
    _finite_positive,
)
from .matching import _bands, _join, _pass, l_correct_detection
from .variants import condition_taps

__all__ = [
    "f1_score",
    "continuity_correct",
    "cmlt",
    "amlt",
    "l_correct_fmeasure",
    "AcrScores",
    "acr_scores",
    "mlsr",
    "stable_intervals",
    "stable_tempi_percentage",
    "mean_track_tempo",
    "TrackReport",
    "evaluate_track",
]

# Most reference beats in one pass of several tracks, and most taps that
# the continuity search checks in one block.  Joining several tracks
# saves per-call overhead on short tracks; on long tracks, where one
# table already has thousands of rows, bigger blocks save nothing and
# only hold more memory.
_BLOCK_ROWS = 4096


def _prf(ref_hits: int, n_ref: int, est_hits: int, n_est: int) -> tuple[float, float, float]:
    """Precision, recall and their harmonic mean; an empty side scores 0."""
    p = float(est_hits) / (n_est or 1)
    r = float(ref_hits) / (n_ref or 1)
    return p, r, 2.0 * p * r / (p + r) if p + r else 0.0


def _f1_pass(joined, window: float) -> list[int]:
    """F1's matched count of each track of ``joined``, in one band search.

    ``joined`` is a :func:`beatcover.matching._join` of the tracks.  Each
    reference beat searches its band ``r -/+ window`` in its own track's
    estimate, for two rounds: its first candidate is its partner when
    within ``window``.  A track where no beat has a second candidate and
    no two beats share a partner has a forced pairing, so its count is
    the number of its beats with a partner; only the other, crowded,
    tracks run the greedy loop.
    """
    r, e, bounds, key = joined
    a, b, s, t = bounds.T
    owner = np.repeat(np.arange(len(bounds)), b - a)
    rounds = _bands(key, r, np.full(len(r), window), s[owner], t[owner])
    empty = np.zeros(0, dtype=np.intp)
    n, j = next(rounds, (empty, empty))
    second, _ = next(rounds, (empty, empty))
    hit = np.abs(r[n] - e[j]) <= window
    n, j = n[hit], j[hit]
    # partners rise with the beats, so beats that share one are neighbours
    crowded = np.concatenate([second, n[1:][j[1:] == j[:-1]]])
    counts = np.bincount(owner[n], minlength=len(bounds))
    for q in np.flatnonzero(np.bincount(owner[crowded], minlength=len(bounds))).tolist():
        # Python floats are the same doubles, and far cheaper to index one by one.
        ref, est = r[a[q] : b[q]].tolist(), e[s[q] : t[q]].tolist()
        matched = i = k = 0
        while i < len(ref) and k < len(est):
            if abs(ref[i] - est[k]) <= window:
                matched += 1
                i += 1
                k += 1
            elif est[k] < ref[i]:
                k += 1
            else:
                i += 1
        counts[q] = matched
    return counts.tolist()


def f1_score(
    ref: BeatSequence, est: BeatSequence, window: float = ToleranceParams.cap
) -> tuple[float, float, float]:
    """Pairwise precision, recall, F1 with a fixed tolerance window.

    Beats are matched one-to-one, greedily in time order; for sorted
    sequences and a single symmetric window the greedy pairing is a
    maximum matching.  Each reference beat finds its partners by the
    band search that window matching uses; where no beat's band holds a
    second estimated beat and no two beats share a partner, the pairing
    is forced and is counted without the greedy loop.  This is the
    one-track case of the pass that scores F1 for every track of an
    evaluation.  An empty side scores (0, 0, 0) by convention.

    Raises:
        ValueError: ``window`` not finite and > 0.
    """
    _finite_positive("window", window)
    matched = _f1_pass(_join([(ref, est)]), window)[0]
    return _prf(matched, len(ref), matched, len(est))


def _continuity(taps: np.ndarray, runs: np.ndarray, e: np.ndarray, key, gamma: float) -> np.ndarray:
    """Continuity flags of each run's estimate, joined in run order.

    A run ``(a, b, s, t)`` checks the taps ``taps[a:b]``, strictly
    increasing and at least two, against the estimate ``e[s:t]``, and
    gets one flag per estimated beat of that slice.  Runs are sorted by
    ``a`` and do not overlap.  ``key`` is the key map of ``e`` from
    :func:`beatcover.matching._join`; each run's estimate slice is one of
    its tracks, and several runs may share one.

    Each tap's tolerance is computed once, for all taps, in one array:
    ``tol[k]`` is ``gamma`` times the interval ``taps[k] - taps[k - 1]``,
    and a run's first tap borrows the tolerance of the tap after it.  The
    band search, the phase check and the predecessor's phase check read
    ``tol``; the interval check, which only a tap past its run's first
    makes, compares with that tap's own interval.  The taps are searched
    in blocks of at most ``_BLOCK_ROWS``, which bounds the memory of a
    search; a tap reads its predecessor and that tap's tolerance from the
    whole arrays, so a run may cross a block edge.
    """
    a, b, s, t = runs.T
    flags = np.zeros(int(np.sum(t - s)), dtype=bool)
    if not len(flags):
        return flags
    # estimate j of run q has flag ``base[q] + j``
    base = np.cumsum(t - s) - t
    tol = np.diff(taps, prepend=taps[:1])
    tol[a] = tol[a + 1]
    tol *= gamma
    for start in range(0, len(taps), _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, len(taps))
        # each tap of the block searches its phase band in its run's
        # estimate; a tap in no run searches the empty slice [0, 0)
        i = np.arange(start, stop)
        q = np.searchsorted(a, i, side="right") - 1
        inside = (a[q] <= i) & (i < b[q])
        for n, j in _bands(key, taps[start:stop], tol[start:stop], s[q] * inside, t[q] * inside):
            k, q_k = i[n], q[n]
            now, before, prev = e[j], e[j - 1], taps[k - 1]
            # past its track's first estimate, estimate j - 1 must be in
            # phase with tap k - 1, and the two intervals must agree; a
            # run's first tap has no predecessor
            ok = (np.abs(now - taps[k]) <= tol[k]) & (
                (j == s[q_k])
                | (
                    (k > a[q_k])
                    & (np.abs(before - prev) <= tol[k - 1])
                    & (np.abs((now - before) - (taps[k] - prev)) <= tol[k])
                )
            )
            flags[base[q_k[ok]] + j[ok]] = True
    return flags


def continuity_correct(
    ref: BeatSequence, est: BeatSequence, gamma: float = ToleranceParams.gamma
) -> np.ndarray:
    """Which estimated beats satisfy the continuity criterion.

    Estimated beat j is correct when some reference beat i exists with
    the phase error within gamma of the local reference interval, the
    previous estimated beat in phase with reference beat i-1, and the
    two inter-beat intervals within gamma of each other (relative to the
    reference interval).  The first estimated beat has no predecessor
    and is judged on phase alone.

    Each reference beat checks only the estimated beats in its phase
    band, so memory grows linearly with the number of beats.  The bands
    come from the one band search that window matching uses too: each
    band is cut from the estimate by sorted keys, widened by a few ulps
    so that rounding drops no beat, and gives its beats one per round.
    This is the one-run case of the search that scores AMLt.

    Raises:
        ValueError: ``gamma`` outside (0, 1).
        TooFewBeatsError: fewer than two reference beats.
    """
    ToleranceParams(gamma=gamma)  # the band needs 0 < gamma < 1
    if len(ref) < 2:
        raise TooFewBeatsError("continuity needs at least two reference beats")
    r, e, bounds, key = _join([(ref, est)])
    return _continuity(r, bounds, e, key, gamma)


def cmlt(ref: BeatSequence, est: BeatSequence, gamma: float = ToleranceParams.gamma) -> float:
    """Fraction of beats continuity-correct at the annotated level.

    The denominator max(|ref|, |est|) penalizes both over- and
    under-generation.

    Raises:
        ValueError: ``gamma`` outside (0, 1).
        TooFewBeatsError: fewer than two reference beats.
    """
    correct = continuity_correct(ref, est, gamma)
    return float(np.count_nonzero(correct)) / max(len(ref), len(est))


def _variant_taps(r: np.ndarray, a: np.ndarray, b: np.ndarray):
    """The taps of AMLt's variants of every track whose reference is ``r[a:b]``.

    Returns ``(taps, u, w)``: a list of nine tap arrays, and per array
    the slice ``[u, w)`` of each track, where the onbeat array comes
    first.  Each array holds one variant of each track, with the same
    doubles as :func:`beatcover.variants.condition_taps` of the track's
    own reference: the onbeat taps, the half offbeats, each phase of
    half and third tempo, and double and triple tempo.  A subharmonic
    array taps every ``step``-th joined beat from beat ``q``, so it holds
    the track's variant at phase ``(q - a) % step``; a harmonic track
    ends on the first tap of the next interval, its own last beat.
    """
    taps = [condition_taps(r, Condition.ONBEAT), condition_taps(r, Condition.OFFBEAT_HALF)]
    u, w = [a, a], [b, b - 1]
    for condition in (Condition.SUBHARMONIC_HALF, Condition.SUBHARMONIC_THIRD):
        step = CONDITION_STEPS[condition]
        for q in range(step):
            taps.append(condition_taps(r[q:], condition))
            u.append((a - q + step - 1) // step)
            w.append((b - q + step - 1) // step)
    for condition in (Condition.HARMONIC_DOUBLE, Condition.HARMONIC_TRIPLE):
        factor = CONDITION_FACTORS[condition]
        taps.append(condition_taps(r, condition))
        u.append(factor * a)
        w.append(factor * (b - 1) + 1)
    return taps, np.array(u), np.array(w)


def _continuity_pass(joined, gamma: float) -> list[tuple[float, float]]:
    """CMLt and AMLt of each track of ``joined``, in one continuity search.

    ``joined`` is a :func:`beatcover.matching._join` of the tracks.
    Every variant of every track is a run of one :func:`_continuity`
    search over the joined estimates.  Variants with fewer than two
    taps are dropped, as are degenerate ones whose taps collapse onto
    each other (sub-ulp reference gaps).  CMLt is the count of the
    onbeat variant, the reference itself, over the same denominator.
    """
    r, e, bounds, key = joined
    a, b, s, t = bounds.T
    taps, u, w = _variant_taps(r, a, b)
    offsets = np.cumsum([0] + [len(x) for x in taps[:-1]])[:, None]
    taps = np.concatenate(taps)
    u, w = u + offsets, w + offsets
    # a variant is kept when it has two taps, each above the one before
    collapsed = np.flatnonzero(taps[1:] <= taps[:-1])
    kept = (w - u >= 2) & (np.searchsorted(collapsed, u) == np.searchsorted(collapsed, w - 1))
    runs = np.stack([u, w, np.broadcast_to(s, u.shape), np.broadcast_to(t, u.shape)], axis=-1)[kept]
    hits = np.flatnonzero(_continuity(taps, runs, e, key, gamma))
    counts = np.zeros(u.shape, dtype=np.intp)
    counts[kept] = np.diff(np.searchsorted(hits, np.cumsum(runs[:, 3] - runs[:, 2])), prepend=0)
    scores = counts / np.maximum(np.maximum(w - u, t - s), 1)
    return list(zip(scores[0].tolist(), scores.max(axis=0).tolist()))


def amlt(ref: BeatSequence, est: BeatSequence, gamma: float = ToleranceParams.gamma) -> float:
    """Best cmlt-style score over the allowed whole-track variants.

    The variants are the taps of onbeat, half offbeat, half and third
    tempo (each at every phase), double and triple tempo.  Variants
    with fewer than two beats are dropped, as are degenerate ones whose
    taps collapse onto each other (sub-ulp reference gaps); a reference
    with fewer than two beats therefore scores 0.  Each variant is
    scored as :func:`cmlt` would score it; all of them are checked in
    one search, in which each tap checks the estimated beats in its
    phase band, in blocks of at most 4096 taps.

    One variant is chosen for the entire piece; a tracker that switches
    level mid-track cannot score well here, which is exactly the blind
    spot the coverage analysis addresses.

    Raises:
        ValueError: ``gamma`` outside (0, 1).
    """
    ToleranceParams(gamma=gamma)  # checked even if no variant gets scored
    return _continuity_pass(_join([(ref, est)]), gamma)[0][1]


def l_correct_fmeasure(
    ref: BeatSequence, est: BeatSequence, params: ToleranceParams = ToleranceParams()
) -> tuple[float, float, float]:
    """Window-verified recall, precision, and F-measure.

    Counts reference and estimated beats flagged by
    :func:`beatcover.matching.l_correct_detection`.
    """
    _check_context(ref, params)
    return _l_correct_scores(*l_correct_detection(ref, est, params))


def _check_context(ref: BeatSequence, params: ToleranceParams) -> None:
    if len(ref) < params.context:
        raise TooFewBeatsError(f"need at least {params.context} reference beats, got {len(ref)}")


def _l_correct_scores(ref_flags: np.ndarray, est_flags: np.ndarray) -> tuple[float, float, float]:
    """Recall, precision and F-measure of L-correct flags."""
    p, r, f = _prf(np.count_nonzero(ref_flags), len(ref_flags), np.count_nonzero(est_flags), len(est_flags))
    return r, p, f


@dataclass(frozen=True)
class AcrScores:
    """Coverage ratios: one per condition plus the two unions."""

    per_condition: dict[Condition, float]
    acr_any: float
    acr_offbeat: float


def acr_scores(cm: CoverageMatrix) -> AcrScores:
    """Fraction of reference beats covered, per condition and unioned.

    The any-union can never exceed 1 and always dominates each single
    condition and the offbeat union.
    """
    n = cm.n_beats or 1
    return AcrScores(
        per_condition=dict(zip(Condition, (np.count_nonzero(cm.rows, axis=1) / n).tolist())),
        acr_any=float(np.count_nonzero(cm.any_row)) / n,
        acr_offbeat=float(np.count_nonzero(cm.offbeat_row)) / n,
    )


def mlsr(cm: CoverageMatrix) -> float:
    """Fraction of covered beats at which the metric level switches.

    Walking the covered beats in order, a beat switches when it shares
    no condition with the previously covered beat.  Uncovered beats are
    skipped entirely; an empty coverage scores 0.
    """
    covered_idx = np.flatnonzero(cm.any_row)
    rows = cm.rows[:, covered_idx]
    switched = ~np.any(rows[:, :-1] & rows[:, 1:], axis=0)
    return int(np.count_nonzero(switched)) / (covered_idx.size or 1)


def mean_track_tempo(beats: BeatSequence) -> float:
    """Track tempo in BPM from the mean inter-beat interval.

    Raises:
        TooFewBeatsError: fewer than two beats, so no interval exists.
    """
    if len(beats) < 2:
        raise TooFewBeatsError("tempo needs at least two beats")
    return 60.0 / float(np.mean(beats.ibis))


def stable_intervals(beats: BeatSequence) -> np.ndarray:
    """Boolean flag per inter-beat interval: is its tempo stable?

    Each interval's instantaneous tempo (60 / interval) is normalized
    by the track tempo; intervals with a normalized tempo in
    [0.96, 1.04] count as stable.

    Raises:
        TooFewBeatsError: fewer than two beats.
    """
    normalized = (60.0 / beats.ibis) / mean_track_tempo(beats)
    return (normalized >= 0.96) & (normalized <= 1.04)


def stable_tempi_percentage(beats: BeatSequence) -> float:
    """Fraction of intervals whose tempo stays within 4% of the track mean.

    See :func:`stable_intervals` for the rule.

    Raises:
        TooFewBeatsError: fewer than two beats.
    """
    stable = stable_intervals(beats)
    return float(np.count_nonzero(stable)) / len(stable)


def _r6(x) -> float:
    return round(float(x), 6)


@dataclass(frozen=True)
class TrackReport:
    """All per-track scores, rounded to six decimals.

    Rounding happens in ``__post_init__``, with :func:`_r6`, so it holds
    for every report built, by :func:`evaluate_track` from raw scores or
    by :func:`beatcover.report.parse_report` from JSON.  Rounding a
    rounded value changes nothing, so a report survives JSON
    serialization byte-exactly and dataset means recomputed from parsed
    reports agree with the stored ones.
    """

    track_id: str
    f1: float
    precision: float
    recall: float
    cmlt: float
    amlt: float
    l_correct_f: float
    l_correct_p: float
    l_correct_r: float
    acr: dict[Condition, float]
    acr_any: float
    acr_offbeat: float
    mlsr: float

    def __post_init__(self) -> None:
        # frozen, so each rounded value is set past the dataclass's __setattr__
        for f in fields(self)[1:]:  # every field but track_id
            value = getattr(self, f.name)
            rounded = {c: _r6(v) for c, v in value.items()} if f.name == "acr" else _r6(value)
            object.__setattr__(self, f.name, rounded)


def evaluate_track(
    track_id: str,
    ref: BeatSequence,
    est: BeatSequence,
    params: ToleranceParams = ToleranceParams(),
) -> TrackReport:
    """Run every metric on one (reference, estimate) pair."""
    _check_context(ref, params)
    return _evaluate_tracks([(track_id, ref, est)], params)[0]


def _passes(items):
    """The ``(track_id, ref, est)`` items in passes of up to ``_BLOCK_ROWS`` reference beats.

    Yields lists of items; a track with more beats than that is a pass
    of its own.  ``items`` is not empty.
    """
    batch, beats = [], 0
    for track_id, ref, est in items:
        if batch and beats + len(ref) > _BLOCK_ROWS:
            yield batch
            batch, beats = [], 0
        batch.append((track_id, ref, est))
        beats += len(ref)
    yield batch


def _evaluate_tracks(items, params: ToleranceParams) -> list[TrackReport]:
    """Run every metric on each ``(track_id, ref, est)`` item, in order.

    ``items`` is not empty, and the caller has run :func:`_check_context`
    on each reference; past that check no metric raises (F1's window is
    ``params.cap``, which :class:`ToleranceParams` has checked).  Each
    pass of tracks (see :func:`_passes`) is joined and keyed once,
    by :func:`beatcover.matching._join`: coverage and L-correct match
    its windows in one :func:`beatcover.matching._pass`, CMLt and AMLt
    come from one :func:`_continuity_pass`, and F1 from one
    :func:`_f1_pass`.
    """
    reports = []
    for batch in _passes(items):
        joined = _join([(ref, est) for _, ref, est in batch])
        matched = _pass(joined, params)
        continuity = _continuity_pass(joined, params.gamma)
        f1_matched = _f1_pass(joined, params.cap)
        for (track_id, ref, est), (cm, *flags), (cmlt_score, amlt_score), hits in zip(
            batch, matched, continuity, f1_matched
        ):
            precision, recall, f1 = _prf(hits, len(ref), hits, len(est))
            lr, lp, lf = _l_correct_scores(*flags)
            acr = acr_scores(cm)
            # in field order; the report rounds what it is given
            reports.append(
                TrackReport(
                    track_id, f1, precision, recall, cmlt_score, amlt_score, lf, lp, lr,
                    acr.per_condition, acr.acr_any, acr.acr_offbeat, mlsr(cm),
                )
            )
    return reports
