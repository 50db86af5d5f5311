import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given
from hypothesis import strategies as st

import oracles
from beatcover import (
    BeatSequence,
    Condition,
    CoverageMatrix,
    OFFBEAT_CONDITIONS,
    Scenario,
    Segment,
    TooFewBeatsError,
    ToleranceParams,
    acr_scores,
    amlt,
    cmlt,
    continuity_correct,
    coverage_matrix,
    dp_track,
    evaluate_track,
    f1_score,
    gen_activation,
    gen_estimate,
    gen_reference,
    l_correct_detection,
    l_correct_fmeasure,
    mean_track_tempo,
    mlsr,
    stable_tempi_percentage,
)
from beatcover import TrackReport, matching, metrics
from beatcover.matching import _join
from beatcover.metrics import _BLOCK_ROWS, _continuity_pass, _evaluate_tracks, _f1_pass, _r6
from beatcover.variants import condition_taps
from conftest import constant_beats, nudge, random_times


def ref_est_strategy():
    times = st.lists(
        st.floats(min_value=0.0, max_value=12.0, allow_nan=False),
        min_size=2,
        max_size=20,
        unique=True,
    ).map(sorted)
    return st.tuples(times, times)


@st.composite
def f1_passes(draw):
    """1 to 3 tracks for one F1 pass, and its window.

    Times lie on a grid of a quarter window, so a reference beat may
    have several partners, or share one with the next beat (a crowded
    track), or not (a forced pairing).  An estimated beat may instead sit
    at a reference beat -/+ the window, moved by one ulp or not.  Each
    reference starts within 50 ms of 0 s or past 10^4 s; a reference or
    an estimate may be empty.
    """
    window = draw(st.sampled_from([0.02, 0.07, 0.5]))
    grid = window / 4
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.one_of(st.floats(0.0, 0.05), st.floats(1e4, 2e4)))
        steps = draw(st.lists(st.integers(1, 16), max_size=12))
        ref = (start + grid * np.cumsum([0, *steps]))[: draw(st.integers(0, 13))]
        est = set()
        for r in ref.tolist():
            for _ in range(draw(st.integers(0, 2))):
                if draw(st.booleans()):
                    e = r + grid * draw(st.integers(-6, 6))
                else:
                    e = nudge(r + draw(st.sampled_from([-window, window])), draw(st.integers(-1, 1)))
                if e >= 0.0:
                    est.add(e)
        pairs.append((BeatSequence(ref), BeatSequence(sorted(est))))
    return pairs, window


def partners(ref, est, window):
    """The estimated beats within ``window`` of each reference beat, by a scan."""
    return [[j for j, e in enumerate(est) if abs(r - e) <= window] for r in ref]


class TestF1Score:
    def test_identity(self):
        ref = constant_beats(120, 16)
        assert f1_score(ref, ref) == (1.0, 1.0, 1.0)

    def test_offset_within_window_still_perfect(self):
        ref = constant_beats(120, 16)
        est = BeatSequence(ref.times + 0.05)
        assert f1_score(ref, est) == (1.0, 1.0, 1.0)

    def test_double_tempo_estimate(self):
        # every reference beat is found but half the estimates are spurious
        ref = constant_beats(120, 12)
        est = constant_beats(240, 23)
        precision, recall, f1 = f1_score(ref, est)
        assert recall == pytest.approx(1.0)
        assert precision == pytest.approx(12 / 23)
        assert f1 == pytest.approx(24 / 35)

    def test_empty_estimate(self):
        ref = constant_beats(120, 8)
        assert f1_score(ref, BeatSequence([])) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("est", [[], [1.0, 1.5]], ids=["both_empty", "estimate_only"])
    def test_empty_reference(self, est):
        scores = f1_score(BeatSequence([]), BeatSequence(est))
        assert scores == (0.0, 0.0, 0.0)
        assert all(type(s) is float for s in scores)

    def test_matching_is_one_to_one(self):
        # two estimates near one reference beat: only one can match
        ref = BeatSequence([1.0, 5.0])
        est = BeatSequence([0.97, 1.03])
        precision, recall, f1 = f1_score(ref, est)
        assert precision == pytest.approx(0.5)
        assert recall == pytest.approx(0.5)

    @pytest.mark.parametrize("window", [float("nan"), -1.0, 0.0, float("inf")])
    def test_rejects_bad_window(self, window):
        ref = constant_beats(120, 8)
        with pytest.raises(ValueError, match="window"):
            f1_score(ref, ref, window=window)

    @given(ref_est_strategy())
    def test_greedy_count_is_maximum_matching(self, pair):
        ref_raw, est_raw = pair
        ref, est = BeatSequence(ref_raw), BeatSequence(est_raw)
        precision, recall, _ = f1_score(ref, est)
        best = oracles.oracle_f1_matched(ref_raw, est_raw)
        assert precision * len(est) == pytest.approx(best)
        assert recall * len(ref) == pytest.approx(best)

    @given(f1_passes())
    def test_pass_counts_are_the_oracles(self, case):
        pairs, window = case
        expected = []
        for ref, est in pairs:
            r, e = ref.times.tolist(), est.times.tolist()
            found = partners(r, e, window)
            shared = [j for p in found for j in p]
            event("crowded" if max(map(len, found), default=0) > 1 or len(set(shared)) < len(shared) else "forced")
            expected.append(oracles.oracle_f1_matched(r, e, window))
        assert _f1_pass(_join(pairs), window) == expected

    def test_pass_counts_at_the_window_edge(self, rng):
        # every estimated beat at a reference beat -/+ the window, moved
        # by up to one ulp; references that start within 50 ms of 0 s or
        # past 10^4 s, with gaps of half a window and more, and empty
        # estimates
        for _ in range(300):
            window = float(rng.choice([0.02, 0.07, 0.5, rng.uniform(0.01, 1.0)]))
            pairs = []
            for _ in range(int(rng.integers(1, 4))):
                start = rng.uniform(0.0, 0.05) if rng.random() < 0.5 else rng.uniform(1e4, 2e4)
                gaps = rng.uniform(0.5, 3.0, int(rng.integers(0, 6))) * window
                ref = start + np.cumsum(np.concatenate([[0.0], gaps]))
                est = set()
                for r in ref.tolist() if rng.random() < 0.8 else []:
                    e = nudge(r + rng.choice([-window, window]), int(rng.integers(-1, 2)))
                    if e >= 0.0 and rng.random() < 0.8:
                        est.add(e)
                pairs.append((BeatSequence(ref), BeatSequence(sorted(est))))
            expected = [oracles.oracle_f1_matched(r.times.tolist(), e.times.tolist(), window) for r, e in pairs]
            assert _f1_pass(_join(pairs), window) == expected, (pairs, window)

    def test_a_huge_window_takes_two_band_rounds(self, monkeypatch):
        # every beat is every estimate's partner; the pass still looks at
        # two candidates per beat, and the greedy loop pairs them
        rounds = []

        def counted(*args):
            for n, j in matching._bands(*args):
                rounds.append(len(n))
                yield n, j

        monkeypatch.setattr(metrics, "_bands", counted)
        ref, est = constant_beats(120, 10_000), constant_beats(180, 15_000)
        assert f1_score(ref, est, window=1e6)[:2] == (10_000 / 15_000, 1.0)
        assert rounds == [10_000, 10_000]

    @pytest.mark.parametrize("window", [1e308, np.finfo(float).max])
    def test_band_edges_past_the_float_range_do_not_warn(self, window):
        # 1.5e308 + 1e308 and the slack of the largest float are inf, which
        # still bounds every band; the suite turns numpy's warning into an error
        ref, est = BeatSequence([1e308, 1.5e308]), BeatSequence([1.2e308])
        assert f1_score(ref, est, window=window) == (1.0, 0.5, 2.0 / 3.0)
        ref, est = constant_beats(120, 40), constant_beats(180, 50)
        assert f1_score(ref, est, window=window) == (0.8, 1.0, 2.0 * 0.8 / 1.8)
        assert l_correct_detection(ref, est, ToleranceParams(cap=window))[0].all()


CONTINUITY_GAMMAS = (0.05, 0.175, 0.6, 0.9)


def continuity_case(rng, case):
    """(ref, est, gamma) for the seeded continuity equality test.

    Every third reference drops from 1.0 s to 0.02 s intervals, steeper
    than (1 + gamma) / gamma, so the upper phase edges r_i + gamma *
    local_i fall there; every second one starts under 0.14 s.  Most
    estimates sit on a phase edge, then move by -2 to +2 ulps.
    """
    gamma = CONTINUITY_GAMMAS[case % len(CONTINUITY_GAMMAS)]
    n = int(rng.integers(2, 30))
    if case % 3 == 0:
        ibis = np.where(np.arange(n - 1) < rng.integers(1, n), 1.0, 0.02)
    else:
        ibis = rng.uniform(0.02, 1.2, size=n - 1)
    start = rng.uniform(0.0, 0.14) if case % 2 else rng.uniform(0.0, 3.0)
    ref = start + np.concatenate([[0.0], np.cumsum(ibis)])
    local = np.concatenate([ibis[:1], ibis])
    edge = rng.choice([-1.0, 0.0, 1.0], size=n)
    jitter = rng.choice([0.0, 0.01, 0.05])
    est = ref + edge * gamma * local + jitter * rng.standard_normal(n)
    ulps = rng.integers(-2, 3, size=n)
    for step in range(2):
        est = np.where(ulps > step, np.nextafter(est, np.inf), est)
        est = np.where(ulps < -step, np.nextafter(est, -np.inf), est)
    extra = rng.uniform(0.0, ref[-1] + 1.0, size=int(rng.integers(0, 5)))
    est = np.unique(np.concatenate([est[rng.random(n) < 0.85], extra]))
    return BeatSequence(ref), BeatSequence(est[est >= 0.0]), gamma


# AMLt's variants as (condition, phase): the levels that Davies, Degara &
# Plumbley (2009) allow, each at every phase
AMLT_VARIANTS = [
    (Condition.ONBEAT, 0),
    (Condition.OFFBEAT_HALF, 0),
    (Condition.SUBHARMONIC_HALF, 0),
    (Condition.SUBHARMONIC_HALF, 1),
    (Condition.SUBHARMONIC_THIRD, 0),
    (Condition.SUBHARMONIC_THIRD, 1),
    (Condition.SUBHARMONIC_THIRD, 2),
    (Condition.HARMONIC_DOUBLE, 0),
    (Condition.HARMONIC_TRIPLE, 0),
]


class TestContinuity:
    def test_identity_all_correct(self):
        ref = constant_beats(120, 10)
        assert continuity_correct(ref, ref).all()

    def test_large_phase_error_fails(self):
        ref = constant_beats(120, 10)
        est = BeatSequence(ref.times + 0.2)  # 0.2 > 0.175 * 0.5
        assert not continuity_correct(ref, est).any()

    def test_first_estimate_judged_on_phase_alone(self):
        ref = constant_beats(120, 10)
        est = BeatSequence([ref[3]])
        assert continuity_correct(ref, est).tolist() == [True]

    def test_needs_two_reference_beats(self):
        with pytest.raises(TooFewBeatsError):
            continuity_correct(BeatSequence([1.0]), constant_beats(120, 4))

    def test_empty_estimate(self):
        assert continuity_correct(constant_beats(120, 4), BeatSequence([])).size == 0

    @given(ref_est_strategy())
    def test_matches_oracle(self, pair):
        ref_raw, est_raw = pair
        got = continuity_correct(BeatSequence(ref_raw), BeatSequence(est_raw))
        assert got.tolist() == oracles.oracle_continuity(ref_raw, est_raw)

    def test_estimate_near_zero_at_a_phase_edge(self):
        # |r_0 - e_0| rounds below gamma * local_0 while the edge
        # r_0 - gamma * local_0 rounds above e_0: the candidate band needs
        # its few ulps of slack to keep the estimate
        ref = [0.08670662258862817, 1.3721487323497337]
        est = [0.022434517100572895]
        assert oracles.oracle_continuity(ref, est, 0.05) == [True]
        assert continuity_correct(BeatSequence(ref), BeatSequence(est), 0.05).tolist() == [True]
        assert cmlt(BeatSequence(ref), BeatSequence(est), 0.05) == 0.5

    def test_later_candidate_in_band_passes(self):
        # gamma = 0.6 on 1 s intervals: estimate 2.5 s is in phase with
        # reference beats 2 and 3, so both are in its band.  Beat 2 fails
        # (the previous estimate, 1.8 s, is 0.8 s from beat 1); beat 3
        # passes (1.8 s is in phase with beat 2, and 0.7 s is near 1 s).
        ref, est = [0.0, 1.0, 2.0, 3.0, 4.0], [1.8, 2.5]
        assert all(abs(est[1] - ref[i]) <= 0.6 for i in (2, 3))
        assert oracles.oracle_continuity(ref, est, 0.6) == [True, True]
        # moved out of phase, beat 3 leaves only the failing candidate
        assert oracles.oracle_continuity(ref[:3] + [3.7], est, 0.6) == [True, False]
        assert continuity_correct(BeatSequence(ref), BeatSequence(est), 0.6).tolist() == [True, True]

    def test_matches_oracle_on_seeded_edge_cases(self, rng):
        """Tempo drops, first beats near 0 s, estimates within 2 ulps of a phase edge."""
        for case in range(2000):
            ref, est, gamma = continuity_case(rng, case)
            expected = oracles.oracle_continuity(ref.times.tolist(), est.times.tolist(), gamma)
            assert continuity_correct(ref, est, gamma).tolist() == expected, case
            if case % 10 == 0:
                expected = oracles.oracle_amlt(ref.times.tolist(), est.times.tolist(), gamma)
                assert amlt(ref, est, gamma) == expected, case

    @pytest.mark.parametrize("gamma", [float("nan"), 0.0, -0.1, 1.0, 1.5, float("inf")])
    @pytest.mark.parametrize("score", [continuity_correct, cmlt, amlt])
    def test_rejects_gamma_outside_unit_interval(self, score, gamma):
        ref = constant_beats(120, 10)
        with pytest.raises(ValueError, match="gamma"):
            score(ref, ref, gamma)

    def test_amlt_checks_gamma_before_short_reference(self):
        with pytest.raises(ValueError, match="gamma"):
            amlt(BeatSequence([1.0]), constant_beats(120, 4), 1.0)


class TestCmltAmlt:
    def test_identity(self):
        ref = constant_beats(120, 16)
        assert cmlt(ref, ref) == 1.0
        assert amlt(ref, ref) == 1.0

    def test_double_tempo_kills_cmlt_not_amlt(self):
        ref = constant_beats(120, 12)
        est = constant_beats(240, 23)
        # only the first estimate (phase-only rule) survives at the
        # annotated level; the double-tempo variant matches everything
        assert cmlt(ref, est) == pytest.approx(1 / 23)
        assert amlt(ref, est) == pytest.approx(1.0)

    def test_half_tempo_estimate(self):
        ref = constant_beats(120, 12)
        est = BeatSequence(ref.times[0::2])
        assert cmlt(ref, est) == pytest.approx(1 / 12)
        assert amlt(ref, est) == pytest.approx(1.0)

    def test_offbeat_estimate(self):
        ref = constant_beats(120, 12)
        est = BeatSequence(ref.times[:-1] + 0.25)
        # no estimate is ever in phase at the annotated level
        assert cmlt(ref, est) == 0.0
        assert amlt(ref, est) == pytest.approx(1.0)

    def test_overgeneration_penalized(self):
        ref = constant_beats(120, 10)
        extra = np.sort(np.concatenate([ref.times, ref.times[:-1] + 0.13]))
        est = BeatSequence(extra)
        assert cmlt(ref, est) <= 10 / 19

    @pytest.mark.parametrize(
        "est, expected_cmlt, expected_amlt",
        [
            ([1.0, 1.5], 1.0, 1.0),
            ([], 0.0, 0.0),
            ([1.0], 0.5, 0.5),
            ([1.0, 1.25, 1.5], 1 / 3, 1.0),  # double tempo
            # the offbeat variant has one tap and is dropped; the
            # double-tempo variant scores the lone offbeat estimate
            ([1.25], 0.0, 1 / 3),
        ],
    )
    def test_two_beat_reference(self, est, expected_cmlt, expected_amlt):
        ref = BeatSequence([1.0, 1.5])
        est = BeatSequence(est)
        assert cmlt(ref, est) == expected_cmlt
        assert amlt(ref, est) == expected_amlt
        assert amlt(ref, est) == oracles.oracle_amlt(ref.times.tolist(), est.times.tolist())

    @pytest.mark.parametrize("ref", [[], [1.0]])
    @pytest.mark.parametrize("est", [[], [1.0, 1.5]])
    def test_cmlt_needs_two_reference_beats(self, ref, est):
        # so max(|ref|, |est|) is never 0
        with pytest.raises(TooFewBeatsError):
            cmlt(BeatSequence(ref), BeatSequence(est))

    @pytest.mark.parametrize("score", [continuity_correct, cmlt, amlt])
    def test_gamma_error_text(self, score):
        ref = BeatSequence([1.0, 1.5])
        with pytest.raises(ValueError, match=r"^gamma must be in \(0, 1\), got 1.5$"):
            score(ref, ref, 1.5)

    @pytest.mark.parametrize("ref", [[], [1.0]])
    @pytest.mark.parametrize("est", [[], [0.5, 1.0, 1.5]])
    def test_amlt_without_an_interval_scores_zero(self, ref, est):
        assert amlt(BeatSequence(ref), BeatSequence(est)) == 0.0

    def test_amlt_matches_oracle(self, rng):
        """Tempo ramps and level switches, scripted and at random."""
        for case in range(40):
            bpm0, bpm1 = rng.uniform(60.0, 200.0, size=2)
            ref = gen_reference([(0.0, bpm0), (8.0, bpm1)], float(rng.uniform(1.0, 16.0)))
            if case % 2:
                est = BeatSequence(random_times(rng, int(rng.integers(0, 40)), span=16.0))
            else:
                conditions = list(Condition)
                starts = sorted({0, *rng.integers(0, len(ref), size=2).tolist()})
                segments = tuple(
                    Segment(int(s), conditions[int(rng.integers(len(conditions)))], 0.004)
                    for s in starts
                )
                est = gen_estimate(ref, Scenario(120, 1.0, segments), seed=case)
            gamma = float(rng.choice([0.1, 0.175, 0.4]))
            expected = oracles.oracle_amlt(ref.times.tolist(), est.times.tolist(), gamma)
            assert amlt(ref, est, gamma) == expected

    def test_variant_start_has_no_predecessor(self):
        # Half tempo from the first beat taps [0.72, 2.01], and from the
        # second beat [1.68, 2.73].  Estimate 1.86 is in phase with 1.68; if
        # 1.68 had 2.01 as its predecessor, 1.52 would be in phase with it
        # and the interval 0.34 s near enough to 1.05 s (gamma = 0.7), so
        # that variant would score 2 / 2.  A variant's first tap has no
        # predecessor: the best is 2 / 3, from the half offbeats.
        ref, est = [0.72, 1.68, 2.01, 2.73], [1.52, 1.86]
        assert abs(est[0] - 2.01) <= 0.7 * (2.01 - 0.72)
        assert abs(est[1] - 1.68) <= 0.7 * 1.05 and abs((est[1] - est[0]) - 1.05) <= 0.7 * 1.05
        assert oracles.oracle_continuity([1.68, 2.73], est, 0.7) == [True, False]
        assert oracles.oracle_amlt(ref, est, 0.7) == 2 / 3
        assert amlt(BeatSequence(ref), BeatSequence(est), 0.7) == 2 / 3

    @pytest.mark.parametrize("est", [[], [1.0], [1.0, 1.5, 2.0], [1.2, 1.7, 2.5, 3.1]])
    def test_amlt_skips_degenerate_variants(self, est):
        # A sub-ulp gap collapses the double- and triple-tempo taps and
        # leaves one-tap variants; they sit between the kept ones.
        ref = [1.0, float(np.nextafter(1.0, 2.0)), 2.0, 3.0]
        expected = oracles.oracle_amlt(ref, est)
        assert amlt(BeatSequence(ref), BeatSequence(est)) == expected
        assert amlt(BeatSequence(ref[1:3]), BeatSequence(est)) == oracles.oracle_amlt(ref[1:3], est)

    def test_amlt_over_several_blocks_is_best_cmlt(self):
        """A track whose variants fill several band searches.

        AMLt searches the taps of all of a track's variants in chunks of
        at most ``_BLOCK_ROWS`` taps.  Here they fill two, and the first
        chunk ends inside a variant, so a variant's score must not depend
        on where its taps are cut.
        """
        duration = 240.0
        curve = [(0.0, 140.0), (duration, 110.0)]
        ref = gen_reference(curve, duration)
        segments = (
            Segment(0, Condition.HARMONIC_TRIPLE, 0.003),
            Segment(len(ref) // 3, Condition.HARMONIC_DOUBLE, 0.003),
            Segment(2 * len(ref) // 3, Condition.OFFBEAT_HALF, 0.003),
        )
        est = gen_estimate(ref, Scenario(curve, duration, segments), seed=5)
        variants = [condition_taps(ref.times[phase:], c) for c, phase in AMLT_VARIANTS]
        assert len(variants) * len(est) > 2 * _BLOCK_ROWS
        assert sum(map(len, variants)) > _BLOCK_ROWS
        for gamma in (0.1, 0.175, 0.6):
            expected = max(cmlt(BeatSequence(taps), est, gamma) for taps in variants)
            assert amlt(ref, est, gamma) == expected
            assert cmlt(ref, est, gamma) < expected

    @given(ref_est_strategy())
    def test_amlt_dominates_cmlt(self, pair):
        ref_raw, est_raw = pair
        ref, est = BeatSequence(ref_raw), BeatSequence(est_raw)
        assert amlt(ref, est) >= cmlt(ref, est) - 1e-12


def continuity_pass_case(rng, case):
    """(pairs, gamma) for one seeded pass of one to four tracks.

    A track is a :func:`continuity_case`, whose beats may start near 0 s
    and whose estimates sit within 2 ulps of a phase edge; or a reference
    that starts anywhere from 0 to 40 s, with a gap of one ulp, which
    collapses its double- and triple-tempo taps, under a condition's
    taps.  So an estimate may end before its neighbour's starts or start
    after it ends.  One estimate in five is empty.
    """
    gamma = CONTINUITY_GAMMAS[case % len(CONTINUITY_GAMMAS)]
    pairs = []
    for _ in range(int(rng.integers(1, 5))):
        if rng.random() < 0.5:
            ref, est, _ = continuity_case(rng, int(rng.integers(0, 12)))
            r, e = ref.times, est.times
        else:
            n = int(rng.integers(3, 16))
            r = rng.uniform(0.0, 40.0) + np.cumsum(rng.uniform(0.2, 0.9, n))
            gap = int(rng.integers(1, n))
            r[gap] = np.nextafter(r[gap - 1], np.inf)
            taps = condition_taps(r, list(Condition)[int(rng.integers(len(Condition)))])
            e = np.unique(taps + rng.choice([0.0, 0.01]) * rng.standard_normal(len(taps)))
        if rng.random() < 0.2:
            e = e[:0]
        pairs.append((BeatSequence(r), BeatSequence(e[e >= 0.0])))
    return pairs, gamma


def assert_continuity_pass_matches_oracles(pairs, gamma):
    """Every track's CMLt and AMLt of one continuity pass against the oracles."""
    for k, ((ref, est), (cmlt_score, amlt_score)) in enumerate(zip(pairs, _continuity_pass(_join(pairs), gamma))):
        r, e = ref.times.tolist(), est.times.tolist()
        assert cmlt_score == sum(oracles.oracle_continuity(r, e, gamma)) / max(len(r), len(e)), (k, r, e)
        assert amlt_score == oracles.oracle_amlt(r, e, gamma), (k, r, e)


class TestContinuityPass:
    """CMLt and AMLt of several tracks from one continuity search."""

    def test_every_track_agrees_with_the_oracles(self, rng):
        collapsed = 0
        for case in range(300):
            pairs, gamma = continuity_pass_case(rng, case)
            assert_continuity_pass_matches_oracles(pairs, gamma)
            for ref, _ in pairs:
                double = condition_taps(ref.times, Condition.HARMONIC_DOUBLE)
                collapsed += bool(np.any(np.diff(double) <= 0.0))
        assert collapsed > 50  # degenerate variants were dropped in many passes

    @given(
        st.lists(
            st.tuples(
                st.lists(st.floats(0.0, 12.0), min_size=2, max_size=12, unique=True).map(sorted),
                st.lists(st.floats(0.0, 12.0), max_size=12, unique=True).map(sorted),
            ),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from(CONTINUITY_GAMMAS),
    )
    def test_agrees_with_the_oracles(self, tracks, gamma):
        assert_continuity_pass_matches_oracles([(BeatSequence(r), BeatSequence(e)) for r, e in tracks], gamma)

    def test_a_tap_takes_no_beat_of_the_next_track(self):
        # Joined, the first two estimates read as one on-beat sequence
        # that continues the first track.  Searching the joined estimate
        # would give the first track's taps at 1.5 to 3 s the second
        # track's beats, and so flags that are not the second track's.
        ref = BeatSequence([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
        far = BeatSequence([30.0, 30.5, 31.0])
        pairs = [(ref, BeatSequence([0.5, 1.0])), (far, BeatSequence([1.5, 2.0, 2.5, 3.0]))]
        assert [c for c, _ in _continuity_pass(_join(pairs), 0.175)] == [2 / 6, 0.0]
        assert_continuity_pass_matches_oracles(pairs, 0.175)
        # Every estimated beat is under 4 s, so the keys scale times by a
        # quarter and the second track's start at index 1 shifts its keys
        # by 1, to where the first track's tap at 6 s searches.  With
        # gamma = 0.9 that tap's band reaches 0.6 s, so a key band left
        # unclipped would let it pass the second track's beat at 2 s.
        pairs = [(BeatSequence([0.0, 6.0]), BeatSequence([3.5])), (far, BeatSequence([1.0, 2.0, 3.0]))]
        assert [c for c, _ in _continuity_pass(_join(pairs), 0.9)] == [1 / 2, 0.0]
        assert_continuity_pass_matches_oracles(pairs, 0.9)

    def test_a_block_of_dropped_taps_searches_nothing(self):
        # A gap of one ulp collapses the double- and triple-tempo taps of
        # a 2000-beat reference, so both variants are dropped.  The
        # triple-tempo taps come last, after 6n - 2 others, and fill a
        # whole block of _BLOCK_ROWS taps on their own.
        r = 0.5 * np.arange(1, 2001)
        r[1000] = np.nextafter(r[999], np.inf)
        first = 6 * len(r) - 2
        assert -(-first // _BLOCK_ROWS) * _BLOCK_ROWS + _BLOCK_ROWS <= first + 3 * len(r) - 2
        ref, est = BeatSequence(r), BeatSequence(r[::2] + 0.01)
        assert amlt(ref, est) == 1.0
        expected = max(cmlt(BeatSequence(taps), est) for taps in (r[::2], r[1::2], r, r[::3]))
        assert _continuity_pass(_join([(ref, est)]), 0.175) == [(cmlt(ref, est), expected)]

    def test_cmlt_of_the_evaluation_is_cmlt(self, rng):
        # CMLt comes from the onbeat variant of AMLt's search, over the
        # same denominator: bit for bit what cmlt gives
        for case in range(60):
            pairs, gamma = continuity_pass_case(rng, case)
            params = ToleranceParams(gamma=gamma)
            items = [(f"t{k}", ref, est) for k, (ref, est) in enumerate(pairs)]
            for report, (ref, est) in zip(_evaluate_tracks(items, params), pairs):
                assert report.cmlt == round(cmlt(ref, est, gamma), 6)
            for (ref, est), (cmlt_score, amlt_score) in zip(pairs, _continuity_pass(_join(pairs), gamma)):
                assert cmlt_score == cmlt(ref, est, gamma)
                assert amlt_score == amlt(ref, est, gamma)


class TestContinuityBlockEdges:
    """Runs of one ``metrics._continuity`` search that cross a block edge.

    The taps are searched in blocks of ``_BLOCK_ROWS``, while each tap's
    interval, and its predecessor's, are read from the whole search.
    """

    @staticmethod
    def search(spans, rng, gamma=0.175):
        """Each run's flags from one search, and from a search of its own.

        ``spans`` holds each run's ``(a, b)`` in 3 * ``_BLOCK_ROWS``
        taps of 0.3 to 0.7 s intervals; the interval just before each
        run is 0.05 s, so a first tap that did not borrow the interval
        after it would get a tenth of its tolerance.  Each estimate keeps
        its first three beats and drops about a fifth of the others.
        """
        ibis = rng.uniform(0.3, 0.7, size=3 * _BLOCK_ROWS)
        ibis[[a for a, _ in spans]] = 0.05
        taps = np.cumsum(ibis)
        pairs = []
        for a, b in spans:
            est = taps[a:b] + rng.normal(0.0, 0.03, size=b - a)
            est[0] = taps[a] + 0.03  # within 0.175 of 0.3 s, not of 0.05 s
            keep = rng.random(b - a) < 0.8
            keep[:3] = True
            pairs.append((BeatSequence(taps[a:b]), BeatSequence(est[keep])))
        _, e, bounds, key = _join(pairs)
        runs = np.column_stack([np.array(spans), bounds[:, 2:]])
        flags = metrics._continuity(taps, runs, e, key, gamma)
        alone = [continuity_correct(ref, est, gamma) for ref, est in pairs]
        for (ref, est), own in zip(pairs, alone):
            assert own.tolist() == oracles.oracle_continuity(ref.times.tolist(), est.times.tolist(), gamma)
        return np.split(flags, np.cumsum(bounds[:-1, 3] - bounds[:-1, 2])), alone

    def test_a_first_tap_borrows_its_interval_from_the_next_block(self, rng):
        # the run's first tap is the last tap of block 0, and the
        # interval it borrows, up to its second tap, lies in block 1
        edge = _BLOCK_ROWS
        for case in range(20):
            (got,), (own,) = self.search([(edge - 1, edge + 11)], rng)
            assert got.tolist() == own.tolist(), case
            assert own[0]

    def test_a_tap_reads_its_predecessor_from_the_previous_block(self, rng):
        # the first run's second tap opens block 1, and the second run's
        # third tap opens block 2: each reads its predecessor, and that
        # tap's interval, from the block before
        spans = [(_BLOCK_ROWS - 1, _BLOCK_ROWS + 11), (2 * _BLOCK_ROWS - 2, 2 * _BLOCK_ROWS + 10)]
        flagged, missed = 0, 0
        for case in range(20):
            got, alone = self.search(spans, rng)
            assert [f.tolist() for f in got] == [f.tolist() for f in alone], case
            flagged += int(alone[0][1]) + int(alone[1][2])
            missed += sum(int(np.count_nonzero(~f)) for f in alone)
        assert flagged > 20 and missed > 20  # flags go both ways, at the edges too


class TestLCorrectFMeasure:
    def test_identity(self):
        ref = constant_beats(120, 10)
        assert l_correct_fmeasure(ref, ref) == (1.0, 1.0, 1.0)

    def test_half_offbeat_misses_only_last_beat(self):
        # the tapped track is verified through offbeat windows, whose
        # cover sets can never include the final reference beat
        ref = constant_beats(120, 10)
        est = BeatSequence(ref.times[:-1] + 0.25)
        recall, precision, f = l_correct_fmeasure(ref, est)
        assert recall == pytest.approx(9 / 10)
        assert precision == pytest.approx(1.0)
        assert f == pytest.approx(2 * 0.9 / 1.9)

    def test_scattered_estimate_scores_zero(self):
        ref = constant_beats(120, 10)
        est = BeatSequence(ref.times[: 1])
        recall, precision, f = l_correct_fmeasure(ref, est)
        assert (recall, precision, f) == (0.0, 0.0, 0.0)

    def test_needs_context_beats(self):
        with pytest.raises(TooFewBeatsError):
            l_correct_fmeasure(BeatSequence([0.0]), constant_beats(120, 4))


def scripted(*segments):
    """The report of a scripted estimate over ``gen_reference(120.0, 60.0)``:
    each ``(start, condition)`` segment with 5 ms jitter, seed 1."""
    ref = gen_reference(120.0, 60.0)
    scenario = Scenario(120.0, 60.0, tuple(Segment(start, Condition.parse(c), 0.005) for start, c in segments))
    return evaluate_track("scripted", ref, gen_estimate(ref, scenario, seed=1))


def matrix_from(rows):
    """The coverage of the named rows; every other condition's row is all False."""
    n = len(next(iter(rows.values())))
    return CoverageMatrix([rows.get(c.value, [False] * n) for c in Condition])


class TestAcrScores:
    def test_fractions(self):
        cm = matrix_from(
            {
                "onbeat": [True, True, False, False],
                "offbeat_half": [False, True, True, False],
            }
        )
        scores = acr_scores(cm)
        assert scores.per_condition[Condition.ONBEAT] == pytest.approx(0.5)
        assert scores.per_condition[Condition.OFFBEAT_HALF] == pytest.approx(0.5)
        assert scores.per_condition[Condition.HARMONIC_DOUBLE] == 0.0
        assert scores.acr_any == pytest.approx(0.75)
        assert scores.acr_offbeat == pytest.approx(0.5)

    def test_any_union_dominates(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 12))
            scores = acr_scores(CoverageMatrix(rng.random((len(Condition), n)) < 0.4))
            for c in Condition:
                assert scores.acr_any >= scores.per_condition[c]
            assert scores.acr_any >= scores.acr_offbeat
            assert 0.0 <= scores.acr_any <= 1.0

    @pytest.mark.parametrize("condition", OFFBEAT_CONDITIONS)
    def test_offbeat_taps_cover_all_but_the_last_beat(self, rng, condition):
        # the last beat starts no interval, so no offbeat window covers it
        for _ in range(100):
            n = int(rng.integers(5, 40))
            ref = BeatSequence(np.cumsum(rng.uniform(0.3, 0.8, n)))
            est = BeatSequence(condition_taps(ref.times, condition))
            for length in (2, 3, 4):
                cm = coverage_matrix(ref, est, ToleranceParams(context=length))
                assert cm.covered[condition][:-1].all() and not cm.covered[condition][-1]
                assert acr_scores(cm).per_condition[condition] == (n - 1) / n

    def test_acr_any_can_rise_with_window_length(self):
        # the window's mean interval, and so its tolerance, grows with L: at
        # L = 2 the window at beat 0 has mean 0.3 s and eps 0.0525 s, which
        # the 0.06 s miss fails; at L = 3 it has mean 0.4 s and eps 0.07 s
        ref, est = BeatSequence([1.0, 1.3, 1.8]), BeatSequence([1.0, 1.36, 1.8])
        cm = coverage_matrix(ref, est, ToleranceParams(context=2))
        assert cm.any_row.tolist() == [False, True, True]
        assert acr_scores(cm).acr_any == 2 / 3
        assert acr_scores(coverage_matrix(ref, est, ToleranceParams(context=3))).acr_any == 1.0

    @pytest.mark.parametrize("seed", range(4))
    def test_acr_any_hardly_sees_spurious_taps_at_two_beats(self, seed):
        # README's table: a jittered on-beat estimate plus a tap 100 ms
        # before every k-th beat; at L = 2 every beat keeps a window of
        # two consecutive taps that avoids the extra ones, at L = 3 with
        # k = 2 no window does
        ref = gen_reference(120.0, 60.0)
        jittered = np.clip(ref.times + np.random.default_rng(seed).normal(0, 0.005, len(ref)), 0, None)
        for k, taps, f1, precision, cmlt_score, acr_any_at_3 in (
            (8, 134, 0.944882, 0.895522, 0.791045, 1.0),
            (2, 179, 0.802676, 0.670391, 0.340782, 0.0),
        ):
            est = BeatSequence(np.sort(np.concatenate([jittered, ref.times[k::k] - 0.1])))
            report = evaluate_track("spurious", ref, est)
            assert len(est) == taps
            assert (report.f1, report.precision, report.cmlt) == (f1, precision, cmlt_score)
            assert report.acr_any == 1.0 and report.mlsr == 0.0
            assert evaluate_track("spurious", ref, est, ToleranceParams(context=3)).acr_any == acr_any_at_3

    @pytest.mark.parametrize(
        "condition, acr_any, amlt_score",
        [
            ("subharmonic_half", 0.5, 1.0),
            ("subharmonic_third", 0.333333, 1.0),
            ("subharmonic_quarter", 0.25, 0.025),
        ],
    )
    def test_a_subharmonic_window_covers_only_the_beats_it_taps(self, condition, acr_any, amlt_score):
        # README's table: a held subharmonic level covers every step-th
        # beat, while AMLt scores it against its whole-track variant
        report = scripted((0, condition))
        assert (report.acr_any, report.acr[Condition.parse(condition)]) == (acr_any, acr_any)
        assert (report.amlt, report.mlsr) == (amlt_score, 0.0)

    def test_no_beats_scores_zero(self):
        scores = acr_scores(CoverageMatrix(np.zeros((len(Condition), 0), dtype=bool)))
        assert set(scores.per_condition.values()) == {0.0}
        assert scores.acr_any == scores.acr_offbeat == 0.0


class TestMlsr:
    def test_single_level_no_switch(self):
        cm = matrix_from({"onbeat": [True] * 6})
        assert mlsr(cm) == 0.0

    def test_disjoint_adjacent_levels_switch(self):
        cm = matrix_from(
            {
                "onbeat": [True, True, False, False],
                "harmonic_double": [False, False, True, True],
            }
        )
        # one switch between beats 1 and 2, four covered beats
        assert mlsr(cm) == pytest.approx(0.25)

    def test_shared_condition_bridges(self):
        cm = matrix_from(
            {
                "onbeat": [True, True, True, True],
                "harmonic_double": [False, False, True, True],
            }
        )
        assert mlsr(cm) == 0.0

    def test_beat_covered_by_both_levels_counts_no_switch(self):
        # dp_track at 90 BPM taps on the beat until the step to 180 BPM at
        # 30 s and at half tempo after it; beat 45, at the step, is covered
        # by both levels, so it bridges them
        ref = gen_reference([(0, 90), (29.99, 90), (30, 180), (60, 180)], 60)
        est = dp_track(gen_activation(ref, noise_std=0.05, seed=1), 90)
        cm = coverage_matrix(ref, est)
        onbeat, half = cm.covered[Condition.ONBEAT], cm.covered[Condition.SUBHARMONIC_HALF]
        assert onbeat[45] and half[45]
        assert not onbeat[46:].any() and not half[:45].any()
        assert mlsr(cm) == 0.0

    def test_a_level_change_costs_a_switch_only_when_no_beat_bridges_it(self):
        # README's MLSR values: beats 40 and 80 are covered by onbeat and
        # subharmonic_half alike, so neither change is counted; no beat is
        # covered by both onbeat and offbeat_half, so that change is one
        # switch over the 119 covered beats (the last beat is uncovered)
        assert scripted((0, "onbeat"), (40, "subharmonic_half"), (80, "onbeat")).mlsr == 0.0
        report = scripted((0, "onbeat"), (60, "offbeat_half"))
        assert (report.mlsr, report.acr_any) == (0.008403, 0.991667) == (_r6(1 / 119), _r6(119 / 120))

    def test_uncovered_beats_are_skipped(self):
        cm = matrix_from(
            {
                "onbeat": [True, True, False, False, False],
                "harmonic_triple": [False, False, False, True, True],
            }
        )
        # the gap at beat 2 does not count; the (1, 3) pair is a switch
        assert mlsr(cm) == pytest.approx(0.25)

    def test_empty_coverage(self):
        cm = matrix_from({"onbeat": [False, False, False]})
        assert mlsr(cm) == 0.0

    def test_matches_oracle_on_random_coverage(self, rng):
        for _ in range(200):
            n = int(rng.integers(0, 30))
            density = rng.uniform(0.0, 0.6)
            rows = {c.value: (rng.random(n) < density).tolist() for c in Condition}
            assert mlsr(matrix_from(rows)) == oracles.oracle_mlsr(rows)


class TestTempoStats:
    def test_mean_track_tempo(self):
        assert mean_track_tempo(constant_beats(120, 9)) == pytest.approx(120.0)
        assert mean_track_tempo(BeatSequence([0.0, 0.5, 1.5])) == pytest.approx(80.0)

    def test_constant_curve_fully_stable(self):
        assert stable_tempi_percentage(constant_beats(97, 40)) == 1.0

    def test_alternating_intervals_fully_unstable(self):
        times = np.cumsum([0.0] + [0.5, 0.6] * 10)
        assert stable_tempi_percentage(BeatSequence(times)) == 0.0

    def test_single_beat_raises(self):
        with pytest.raises(TooFewBeatsError):
            mean_track_tempo(BeatSequence([1.0]))


class TestTrackReport:
    def test_a_report_rounds_what_it_is_given(self):
        acr = {c: 1 / (k + 3) for k, c in enumerate(Condition)}
        scores = 2 / 3, 1 / 3, 1 / 7, np.float64(0.1234565), 0.5, 1e-7, 4e-7, 1.0
        report = TrackReport("t", *scores, acr, 0.9999996, 0.0, 1 / 119)
        assert (report.f1, report.precision, report.recall) == (0.666667, 0.333333, 0.142857)
        assert (report.cmlt, report.amlt, report.l_correct_f, report.l_correct_p, report.l_correct_r) == (
            _r6(0.1234565), 0.5, 0.0, 0.0, 1.0
        )
        assert (report.acr_any, report.acr_offbeat, report.mlsr) == (1.0, 0.0, 0.008403)
        assert type(report.cmlt) is float
        assert report.acr == {c: _r6(v) for c, v in acr.items()} and report.acr[Condition.ONBEAT] == 0.333333
        assert report.acr is not acr and acr[Condition.ONBEAT] == 1 / 3

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_rounding_twice_is_rounding_once(self, x):
        assert _r6(_r6(x)) == _r6(x)


class TestEvaluateTrack:
    def test_identity_scores_perfectly(self):
        ref = constant_beats(120, 20)
        report = evaluate_track("demo", ref, ref)
        assert report.f1 == report.precision == report.recall == 1.0
        assert report.cmlt == report.amlt == 1.0
        assert report.l_correct_f == 1.0
        assert report.acr[Condition.ONBEAT] == 1.0
        assert report.acr_any == 1.0
        assert report.mlsr == 0.0

    def test_values_come_out_rounded(self, rng):
        ref = BeatSequence(random_times(rng, 14))
        est = BeatSequence(random_times(rng, 18))
        report = evaluate_track("t", ref, est, ToleranceParams(context=3))
        scalars = [
            report.f1, report.precision, report.recall, report.cmlt,
            report.amlt, report.l_correct_f, report.l_correct_p,
            report.l_correct_r, report.acr_any, report.acr_offbeat, report.mlsr,
        ]
        for value in scalars + list(report.acr.values()):
            assert value == round(value, 6)

    def test_memory_grows_linearly(self):
        # 10 minutes at 120 BPM, the estimate on the beat with 10 ms
        # jitter, then at double tempo; a dense |est| x |ref| continuity
        # matrix would need over 100 MB here
        ref = 0.25 + 0.5 * np.arange(1200)
        on_beat = ref[:600] + np.random.default_rng(0).normal(0.0, 0.01, 600)
        est = np.concatenate([on_beat, np.arange(ref[600], ref[-1], 0.25)])
        ref, est = BeatSequence(ref), BeatSequence(est)
        tracemalloc.start()
        try:
            evaluate_track("long", ref, est)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_each_pass_builds_one_key_map(self, monkeypatch):
        # a short track, then one over _BLOCK_ROWS beats: two passes, and
        # each pass's one key map serves coverage, L-correct, CMLt and AMLt
        calls = []
        keys = matching._keys

        def counted(*args):
            calls.append(len(args[0]))
            return keys(*args)

        for module in (matching, metrics):
            if getattr(module, "_keys", None) is keys:
                monkeypatch.setattr(module, "_keys", counted)
        short, long = constant_beats(120, 20), constant_beats(120, _BLOCK_ROWS + 1)
        reports = _evaluate_tracks([("short", short, short), ("long", long, long)], ToleranceParams())
        assert calls == [20, _BLOCK_ROWS + 1]
        assert [r.cmlt for r in reports] == [1.0, 1.0] and [r.acr_any for r in reports] == [1.0, 1.0]

    def test_only_window_matching_builds_per_beat_track_slices(self, monkeypatch):
        # continuity reads only the join's key map; a pass's coverage and
        # L-correct build the slices once, whatever the number of tracks
        calls = []
        beat_tracks = matching._beat_tracks

        def counted(bounds):
            calls.append(len(bounds))
            return beat_tracks(bounds)

        monkeypatch.setattr(matching, "_beat_tracks", counted)
        ref, est = constant_beats(120, 20), constant_beats(240, 39)
        # at double tempo only the first estimated beat, judged on phase
        # alone, is continuity-correct at the annotated level
        assert (amlt(ref, est), cmlt(ref, est), continuity_correct(ref, est).sum()) == (1.0, 1 / 39, 1)
        assert calls == []
        assert evaluate_track("t", ref, est).amlt == 1.0
        assert calls == [1]
        calls.clear()
        short, long = constant_beats(120, 20), constant_beats(120, _BLOCK_ROWS + 1)
        items = [("a", short, short), ("b", short, est), ("long", long, long)]
        assert [r.acr_any for r in _evaluate_tracks(items, ToleranceParams())] == [1.0, 1.0, 1.0]
        assert calls == [2, 1]

    def test_coverage_and_report_agree(self):
        ref = constant_beats(120, 12)
        est = constant_beats(240, 23)
        report = evaluate_track("dbl", ref, est)
        cm = coverage_matrix(ref, est)
        scores = acr_scores(cm)
        assert report.acr_any == round(scores.acr_any, 6)
        assert report.acr[Condition.HARMONIC_DOUBLE] == 1.0
        assert report.acr[Condition.ONBEAT] == 0.0


def scale_case(rng, case):
    """(ref, est, params) for the scale-by-two test.

    References start at 0 s, within 0.1 s of it, or later, and hold
    2 to 40 beats at a steady or drifting tempo.  Estimates are random,
    jittered, offbeat or quantized to a 10 ms grid, the last so that
    many residuals land on a tolerance boundary.
    """
    n = int(rng.integers(2, 41))
    start = (0.0, rng.uniform(0.0, 0.1), rng.uniform(0.0, 5.0))[case % 3]
    ibis = rng.uniform(0.25, 1.2) * (1.0 if case % 2 else rng.uniform(0.8, 1.25, n - 1))
    ref = start + np.concatenate([[0.0], np.cumsum(np.broadcast_to(ibis, n - 1))])
    kind = case % 4
    if kind == 0:
        est = rng.uniform(0.0, ref[-1] + 1.0, size=int(rng.integers(0, 2 * n)))
    else:
        taps = condition_taps(ref, Condition.OFFBEAT_HALF) if kind == 2 else ref
        est = taps + rng.normal(0.0, rng.choice([0.005, 0.02, 0.06]), len(taps))
        if kind == 3:
            est = np.round(est, 2)
    est = np.unique(est[est >= 0.0])
    params = ToleranceParams(
        cap=rng.choice([0.02, 0.07, 0.5]),
        gamma=rng.choice([0.05, 0.175, 0.6, 0.9]),
        context=int(rng.integers(2, 5)),
    )
    return BeatSequence(ref), BeatSequence(est), params


def test_scaling_all_times_by_two_changes_no_result(rng):
    """Doubling every time, cap and the F1 window is exact in binary
    floating point, and so is every difference, mean, gamma product and
    ulp slack computed from them; every result must be equal bit for bit."""
    for case in range(600):
        ref, est, params = scale_case(rng, case)
        ref2, est2 = BeatSequence(2.0 * ref.times), BeatSequence(2.0 * est.times)
        params2 = ToleranceParams(2.0 * params.cap, params.gamma, params.context)
        assert np.array_equal(
            coverage_matrix(ref, est, params).rows, coverage_matrix(ref2, est2, params2).rows
        ), case
        if len(ref) >= params.context:
            for a, b in zip(l_correct_detection(ref, est, params), l_correct_detection(ref2, est2, params2)):
                assert np.array_equal(a, b), case
        assert np.array_equal(
            continuity_correct(ref, est, params.gamma), continuity_correct(ref2, est2, params.gamma)
        ), case
        assert cmlt(ref, est, params.gamma) == cmlt(ref2, est2, params.gamma), case
        assert amlt(ref, est, params.gamma) == amlt(ref2, est2, params.gamma), case
        assert f1_score(ref, est, params.cap) == f1_score(ref2, est2, params2.cap), case


@st.composite
def grid_pass(draw):
    """(items, params) of one pass of 1 to 4 tracks on a 1/256 s grid.

    A reference may start at 0 s, and ``cap`` is a power of two, so each
    estimated beat, one of the reference beats moved by -cap, 0 or +cap,
    is exact and sits on or inside the tolerance boundary.
    """
    cap = draw(st.sampled_from([1 / 64, 1 / 16, 1 / 4]))
    params = ToleranceParams(cap, draw(st.sampled_from(CONTINUITY_GAMMAS)), draw(st.integers(2, 4)))
    items = []
    for k in range(draw(st.integers(1, 4))):
        start = draw(st.one_of(st.just(0), st.integers(0, 512)))
        gaps = draw(st.lists(st.integers(16, 256), min_size=params.context - 1, max_size=16))
        ref = (start + np.cumsum([0, *gaps])) / 256
        moves = draw(st.lists(st.sampled_from([-1, 0, 1, None]), min_size=len(ref), max_size=len(ref)))
        est = sorted({t + m * cap for t, m in zip(ref.tolist(), moves) if m is not None and t + m * cap >= 0.0})
        items.append((f"t{k}", BeatSequence(ref), BeatSequence(est)))
    return items, params


@given(grid_pass())
def test_scaling_a_pass_by_two_changes_no_report(case):
    """Doubling every time and cap of a pass of several tracks is exact,
    as in the seeded one-track test: every report is equal bit for bit."""
    items, params = case
    doubled = [(track_id, BeatSequence(2.0 * ref.times), BeatSequence(2.0 * est.times)) for track_id, ref, est in items]
    params2 = ToleranceParams(2.0 * params.cap, params.gamma, params.context)
    reports = _evaluate_tracks(items, params)
    assert _evaluate_tracks(doubled, params2) == reports


def test_reversing_time_mirrors_coverage(rng):
    """Map every time t to T - t on a 1/256 s grid, with T a whole second
    past the last beat: every difference and mean is then exact.  The
    onbeat, subharmonic and harmonic rows come out reversed, and the one-
    and two-third offbeats swap.  An offbeat tap is credited to the first
    beat of its interval, so each offbeat row also shifts by one beat;
    the last beat, which no offbeat window covers, is left unchecked."""
    mirror = {c: c for c in Condition}
    mirror[Condition.OFFBEAT_ONE_THIRD] = Condition.OFFBEAT_TWO_THIRD
    mirror[Condition.OFFBEAT_TWO_THIRD] = Condition.OFFBEAT_ONE_THIRD
    for case in range(600):
        ref, est, params = scale_case(rng, case)
        r, e = (np.unique(np.round(s.times * 256.0) / 256.0) for s in (ref, est))
        end = np.ceil(max(r[-1], e[-1] if len(e) else 0.0)) + 1.0
        rows = coverage_matrix(BeatSequence(r), BeatSequence(e), params).covered
        back = coverage_matrix(BeatSequence(end - r[::-1]), BeatSequence(end - e[::-1]), params).covered
        for c in Condition:
            a, b = rows[c], back[mirror[c]][::-1]
            if c in OFFBEAT_CONDITIONS:
                assert np.array_equal(a[:-1], b[1:]), (case, c)
            else:
                assert np.array_equal(a, b), (case, c)


def test_wider_tolerance_loses_no_match(rng):
    """Coverage rows are non-decreasing in cap and in gamma, and the
    continuity flags in gamma: a wider band keeps every match it had."""
    for case in range(600):
        ref, est, params = scale_case(rng, case)
        cap = params.cap + rng.uniform(0.0, 0.3)
        gamma = params.gamma + rng.uniform(0.0, 0.99 - params.gamma)
        rows = coverage_matrix(ref, est, params).rows
        for wider in (
            ToleranceParams(cap, params.gamma, params.context),
            ToleranceParams(params.cap, gamma, params.context),
        ):
            assert not np.any(rows & ~coverage_matrix(ref, est, wider).rows), case
        correct = continuity_correct(ref, est, params.gamma)
        assert not np.any(correct & ~continuity_correct(ref, est, gamma)), case
