"""Scalar evaluation metrics.

Three families live here.  The classic pairwise F-measure and the
continuity scores (CMLt, AMLt) are reimplementations of the standard
definitions and act as baselines.  The window-verified F-measure and
the coverage-based scores (per-condition coverage ratios, their unions,
and the level-switch ratio) are the quantities this package exists to
compute.  Dataset tempo statistics round out the set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CONDITION_STEPS,
    BeatSequence,
    Condition,
    CoverageMatrix,
    TooFewBeatsError,
    ToleranceParams,
    _finite_positive,
)
from .matching import (
    _BLOCK_ROWS,
    _first_in_band,
    _pass,
    _slack,
    l_correct_detection,
)
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


def _prf(ref_hits: int, n_ref: int, est_hits: int, n_est: int) -> tuple[float, float, float]:
    """Precision, recall and their harmonic mean; an empty side scores 0."""
    p = float(est_hits) / n_est if n_est else 0.0
    r = float(ref_hits) / n_ref if n_ref else 0.0
    return p, r, 2.0 * p * r / (p + r) if p + r else 0.0


def f1_score(
    ref: BeatSequence, est: BeatSequence, window: float = ToleranceParams.cap
) -> tuple[float, float, float]:
    """Pairwise precision, recall, F1 with a fixed tolerance window.

    Beats are matched one-to-one, greedily in time order; for sorted
    sequences and a single symmetric window the greedy pairing is a
    maximum matching.  An empty estimate scores (0, 0, 0) by convention.

    Raises:
        ValueError: ``window`` not finite and > 0.
    """
    _finite_positive("window", window)
    # Python floats are the same doubles, and far cheaper to index one by one.
    r, e = ref.times.tolist(), est.times.tolist()
    matched = 0
    i = j = 0
    while i < len(r) and j < len(e):
        if abs(r[i] - e[j]) <= window:
            matched += 1
            i += 1
            j += 1
        elif e[j] < r[i]:
            j += 1
        else:
            i += 1
    return _prf(matched, len(r), matched, len(e))


_NAN = np.array([np.nan])


def _continuity(refs, e: np.ndarray, gamma: float) -> np.ndarray:
    """Continuity flags of ``e`` against each of ``refs``, one row per reference.

    Each reference is a strictly increasing array of at least two beats;
    all of them are checked in one band search.
    """
    m = len(e)
    # A NaN before each reference makes its first beat the start of a
    # sequence: r[i - 1] and tol[i - 1] there fail every comparison.
    r = np.concatenate([x for ref in refs for x in (_NAN, ref)])
    sizes = np.array([len(ref) for ref in refs])
    starts = np.cumsum(sizes + 1) - sizes
    local = np.concatenate([_NAN, np.diff(r)])  # r[i] - r[i - 1]
    local[starts] = local[starts + 1]  # the first beat borrows the following interval
    tol = gamma * local
    # Only reference beats whose phase edges r_i -/+ tol_i bracket e_j
    # can pass, so each estimate gets a band [lo_j, hi_j) of candidates.
    # The lower edges rise with i because gamma < 1; the upper edges
    # fall where an interval shrinks by more than (1 + gamma) / gamma,
    # so they are replaced by their running maximum (and the lower ones,
    # against rounding, by their running minimum from the right), one
    # reference at a time.
    slack = _slack(tol, r)
    upper, lower = r + tol + slack, r - tol - slack
    lo, hi = [], []
    for s, t in zip(starts, starts + sizes):
        lo.append(s + np.searchsorted(np.maximum.accumulate(upper[s:t]), e, side="left"))
        hi.append(s + np.searchsorted(np.minimum.accumulate(lower[s:t][::-1])[::-1], e, side="right"))

    def in_phase(rows, i):
        j = rows % m
        ok = np.abs(e[j] - r[i]) <= tol[i]
        # past the first estimate, estimate j - 1 must be in phase with
        # reference beat i - 1, and the two intervals must agree
        later = j > 0
        jl, il = j[later], i[later]
        ok[later] &= (np.abs(e[jl - 1] - r[il - 1]) <= tol[il - 1]) & (
            np.abs((e[jl] - e[jl - 1]) - local[il]) <= tol[il]
        )
        return ok

    found = _first_in_band(np.concatenate(lo), np.concatenate(hi), in_phase)
    return (found >= 0).reshape(len(refs), m)


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

    Only the few reference beats near each estimate are checked, so
    memory grows linearly with the number of beats.

    Raises:
        ValueError: ``gamma`` outside (0, 1).
        TooFewBeatsError: fewer than two reference beats.
    """
    ToleranceParams(gamma=gamma)  # the band needs 0 < gamma < 1
    if len(ref) < 2:
        raise TooFewBeatsError("continuity needs at least two reference beats")
    return _continuity([ref.times], est.times, gamma)[0]


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


# The whole-track levels AMLt allows (Davies, Degara & Plumbley 2009),
# each at every phase.
_AMLT_VARIANTS = tuple(
    (condition, phase)
    for condition in (
        Condition.ONBEAT,
        Condition.OFFBEAT_HALF,
        Condition.SUBHARMONIC_HALF,
        Condition.SUBHARMONIC_THIRD,
        Condition.HARMONIC_DOUBLE,
        Condition.HARMONIC_TRIPLE,
    )
    for phase in range(CONDITION_STEPS.get(condition, 1))
)


def amlt(ref: BeatSequence, est: BeatSequence, gamma: float = ToleranceParams.gamma) -> float:
    """Best cmlt-style score over the allowed whole-track variants.

    The variants are the taps of onbeat, half offbeat, half and third
    tempo (each at every phase), double and triple tempo.  Variants
    with fewer than two beats are dropped, as are degenerate ones whose
    taps collapse onto each other (sub-ulp reference gaps); a reference
    with fewer than two beats therefore scores 0.  Each variant is
    scored as :func:`cmlt` would score it; all of them are checked in
    one band search, or on long tracks in a few blocks of rows.

    One variant is chosen for the entire piece; a tracker that switches
    level mid-track cannot score well here, which is exactly the blind
    spot the coverage analysis addresses.

    Raises:
        ValueError: ``gamma`` outside (0, 1).
    """
    ToleranceParams(gamma=gamma)  # checked even if no variant gets scored
    taps = (condition_taps(ref.times[phase:], condition) for condition, phase in _AMLT_VARIANTS)
    variants = [t for t in taps if len(t) >= 2 and bool(np.all(np.diff(t) > 0.0))]
    if not variants:
        return 0.0
    per_search = max(1, _BLOCK_ROWS // max(len(est), 1))  # variants, one row per estimate each
    blocks = [variants[k : k + per_search] for k in range(0, len(variants), per_search)]
    correct = np.concatenate([np.count_nonzero(_continuity(b, est.times, gamma), axis=1) for b in blocks])
    return float(np.max(correct / np.maximum([len(t) for t in variants], len(est))))


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
    n = cm.n_beats
    if n == 0:
        return AcrScores({c: 0.0 for c in Condition}, 0.0, 0.0)
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
    if covered_idx.size == 0:
        return 0.0
    rows = cm.rows[:, covered_idx]
    switched = ~np.any(rows[:, :-1] & rows[:, 1:], axis=0)
    return int(np.count_nonzero(switched)) / covered_idx.size


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

    Rounding happens once, at construction time via
    :func:`evaluate_track`, so a report survives JSON serialization
    byte-exactly and dataset means recomputed from parsed reports agree
    with the stored ones.
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
    params: ToleranceParams


def evaluate_track(
    track_id: str,
    ref: BeatSequence,
    est: BeatSequence,
    params: ToleranceParams = ToleranceParams(),
) -> TrackReport:
    """Run every metric on one (reference, estimate) pair."""
    return _evaluate_tracks([(track_id, ref, est)], params)[0]


def _passes(items, params: ToleranceParams):
    """The ``(track_id, ref, est)`` items in passes of up to ``_BLOCK_ROWS`` reference beats.

    Yields lists of ``(track_id, ref, est, F1 scores)``; a track with
    more beats than that is a pass of its own.  F1 and the window-length
    check run on each item as it is taken from ``items``, so the first
    bad item raises, as it would one track at a time; past the check no
    metric raises.
    """
    batch, beats = [], 0
    for track_id, ref, est in items:
        scores = f1_score(ref, est, window=params.cap)
        _check_context(ref, params)
        if batch and beats + len(ref) > _BLOCK_ROWS:
            yield batch
            batch, beats = [], 0
        batch.append((track_id, ref, est, scores))
        beats += len(ref)
    if batch:
        yield batch


def _evaluate_tracks(items, params: ToleranceParams) -> list[TrackReport]:
    """Run every metric on each ``(track_id, ref, est)`` item, in order.

    Coverage and L-correct match the windows of each pass of tracks (see
    :func:`_passes`) in one :func:`beatcover.matching._pass`; CMLt and
    AMLt then run per track.
    """
    reports = []
    for batch in _passes(items, params):
        pairs = [(ref, est) for _, ref, est, _ in batch]
        for track, (cm, *flags) in zip(batch, _pass(pairs, params)):
            track_id, ref, est, (precision, recall, f1) = track
            lr, lp, lf = _l_correct_scores(*flags)
            acr = acr_scores(cm)
            reports.append(
                TrackReport(
                    track_id=track_id,
                    f1=_r6(f1),
                    precision=_r6(precision),
                    recall=_r6(recall),
                    cmlt=_r6(cmlt(ref, est, params.gamma)),
                    amlt=_r6(amlt(ref, est, params.gamma)),
                    l_correct_f=_r6(lf),
                    l_correct_p=_r6(lp),
                    l_correct_r=_r6(lr),
                    acr={c: _r6(v) for c, v in acr.per_condition.items()},
                    acr_any=_r6(acr.acr_any),
                    acr_offbeat=_r6(acr.acr_offbeat),
                    mlsr=_r6(mlsr(cm)),
                    params=params,
                )
            )
    return reports
