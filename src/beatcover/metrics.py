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
    BeatSequence,
    Condition,
    CoverageMatrix,
    TooFewBeatsError,
    ToleranceParams,
)
from .matching import coverage_matrix, l_correct_detection
from .variants import CONDITION_STEPS, condition_taps

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


def f1_score(
    ref: BeatSequence, est: BeatSequence, window: float = ToleranceParams.cap
) -> tuple[float, float, float]:
    """Pairwise precision, recall, F1 with a fixed tolerance window.

    Beats are matched one-to-one, greedily in time order; for sorted
    sequences and a single symmetric window the greedy pairing is a
    maximum matching.  An empty estimate scores (0, 0, 0) by convention.
    """
    r, e = ref.times, est.times
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
    precision = matched / len(e) if len(e) else 0.0
    recall = matched / len(r) if len(r) else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


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

    Raises:
        TooFewBeatsError: fewer than two reference beats.
    """
    r, e = ref.times, est.times
    if len(r) < 2:
        raise TooFewBeatsError("continuity needs at least two reference beats")
    if len(e) == 0:
        return np.zeros(0, dtype=bool)
    local = np.empty(len(r))
    local[1:] = np.diff(r)
    local[0] = local[1]  # first beat borrows the following interval
    # phase[j, i]: estimate j is in phase with reference i
    phase = np.abs(e[:, None] - r[None, :]) <= gamma * local[None, :]
    correct = np.zeros(len(e), dtype=bool)
    correct[0] = bool(phase[0].any())
    if len(e) > 1:
        ibi_r = np.diff(r)
        ibi_e = np.diff(e)
        ibi_ok = np.abs(ibi_e[:, None] - ibi_r[None, :]) <= gamma * ibi_r[None, :]
        pair_ok = phase[1:, 1:] & phase[:-1, :-1] & ibi_ok
        correct[1:] = pair_ok.any(axis=1)
    return correct


def _continuity_score(ref: BeatSequence, est: BeatSequence, gamma: float) -> float:
    correct = continuity_correct(ref, est, gamma)
    denom = max(len(ref), len(est))
    return float(np.count_nonzero(correct)) / denom if denom else 0.0


def cmlt(ref: BeatSequence, est: BeatSequence, gamma: float = ToleranceParams.gamma) -> float:
    """Fraction of beats continuity-correct at the annotated level.

    The denominator max(|ref|, |est|) penalizes both over- and
    under-generation.
    """
    return _continuity_score(ref, est, gamma)


# The whole-track levels AMLt allows (Davies, Degara & Plumbley 2009).
_AMLT_CONDITIONS = (
    Condition.ONBEAT,
    Condition.OFFBEAT_HALF,
    Condition.SUBHARMONIC_HALF,
    Condition.SUBHARMONIC_THIRD,
    Condition.HARMONIC_DOUBLE,
    Condition.HARMONIC_TRIPLE,
)


def amlt(ref: BeatSequence, est: BeatSequence, gamma: float = ToleranceParams.gamma) -> float:
    """Best cmlt-style score over the allowed whole-track variants.

    The variants are the taps of onbeat, half offbeat, half and third
    tempo (each at every phase), double and triple tempo.  Variants
    with fewer than two beats are dropped, as are degenerate ones whose
    taps collapse onto each other (sub-ulp reference gaps); a reference
    with fewer than two beats therefore scores 0.

    One variant is chosen for the entire piece; a tracker that switches
    level mid-track cannot score well here, which is exactly the blind
    spot the coverage analysis addresses.
    """
    best = 0.0
    for condition in _AMLT_CONDITIONS:
        for phase in range(CONDITION_STEPS.get(condition, 1)):
            taps = condition_taps(ref.times[phase:], condition)
            if len(taps) >= 2 and bool(np.all(np.diff(taps) > 0.0)):
                best = max(best, _continuity_score(BeatSequence(taps), est, gamma))
    return best


def l_correct_fmeasure(
    ref: BeatSequence, est: BeatSequence, params: ToleranceParams = ToleranceParams()
) -> tuple[float, float, float]:
    """Window-verified recall, precision, and F-measure.

    Counts reference and estimated beats flagged by
    :func:`beatcover.matching.l_correct_detection`.
    """
    if len(ref) < params.context:
        raise TooFewBeatsError(
            f"need at least {params.context} reference beats, got {len(ref)}"
        )
    ref_flags, est_flags = l_correct_detection(ref, est, params)
    recall = float(np.count_nonzero(ref_flags)) / len(ref)
    precision = float(np.count_nonzero(est_flags)) / len(est) if len(est) else 0.0
    f = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return recall, precision, f


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
    precision, recall, f1 = f1_score(ref, est, window=params.cap)
    lr, lp, lf = l_correct_fmeasure(ref, est, params)
    cm = coverage_matrix(ref, est, params)
    acr = acr_scores(cm)
    r6 = lambda x: round(float(x), 6)
    return TrackReport(
        track_id=track_id,
        f1=r6(f1),
        precision=r6(precision),
        recall=r6(recall),
        cmlt=r6(cmlt(ref, est, params.gamma)),
        amlt=r6(amlt(ref, est, params.gamma)),
        l_correct_f=r6(lf),
        l_correct_p=r6(lp),
        l_correct_r=r6(lr),
        acr={c: r6(v) for c, v in acr.per_condition.items()},
        acr_any=r6(acr.acr_any),
        acr_offbeat=r6(acr.acr_offbeat),
        mlsr=r6(mlsr(cm)),
        params=params,
    )
