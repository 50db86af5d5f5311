import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from beatcover import (
    BeatSequence,
    Condition,
    ToleranceParams,
    coverage_matrix,
    l_correct_detection,
    subharmonic_variant,
    variant_window,
    window_match,
)
from conftest import constant_beats, random_times


def times_strategy(max_size=30, span=15.0):
    return st.lists(
        st.floats(min_value=0.0, max_value=span, allow_nan=False),
        min_size=0,
        max_size=max_size,
        unique=True,
    ).map(sorted)


class TestWindowMatch:
    def test_finds_smallest_offset(self):
        win = subharmonic_variant(BeatSequence([1.0, 1.5, 2.0]), 0, 3, 1)
        est = BeatSequence([0.2, 0.98, 1.52, 1.99])
        assert win.epsilon == pytest.approx(0.070)
        assert window_match(win, est) == 1

    def test_one_tap_out_of_tolerance_fails(self):
        win = subharmonic_variant(BeatSequence([1.0, 1.5, 2.0]), 0, 3, 1)
        est = BeatSequence([0.98, 1.62, 1.99])
        assert window_match(win, est) is None

    def test_distance_exactly_epsilon_matches(self):
        # closed comparison: landing on the tolerance boundary still
        # counts; an exactly representable epsilon keeps this test exact
        win = subharmonic_variant(BeatSequence([0.0, 0.25, 0.5]), 0, 3, 1)
        win = replace(win, epsilon=0.0625)
        est = BeatSequence([0.0625, 0.3125, 0.5625])
        assert window_match(win, est) == 0
        beyond = BeatSequence([0.0625, 0.3125, 0.5626])
        assert window_match(win, beyond) is None

    def test_gap_in_estimate_breaks_the_run(self):
        # taps must be consecutive estimated beats; an extra beat in
        # between shifts the run and breaks the alignment
        win = subharmonic_variant(BeatSequence([0.0, 0.5, 1.0]), 0, 3, 1)
        est = BeatSequence([0.0, 0.25, 0.5, 1.0])
        assert window_match(win, est) is None

    def test_empty_estimate(self):
        win = subharmonic_variant(BeatSequence([0.0, 0.5, 1.0]), 0, 2, 1)
        assert window_match(win, BeatSequence([])) is None

    @given(times_strategy(), st.integers(min_value=0, max_value=5))
    def test_matches_oracle(self, est_raw, instance):
        ref = constant_beats(131, 9)
        est = BeatSequence(np.asarray(est_raw))
        for condition in Condition:
            win = variant_window(ref, instance, condition)
            if win is None:
                continue
            got = window_match(win, est)
            expected = oracles.oracle_match(win.times.tolist(), win.epsilon, est_raw)
            assert got == expected


class TestCoverageMatrix:
    def test_identity_covers_everything_onbeat(self):
        ref = constant_beats(120, 16)
        cm = coverage_matrix(ref, ref)
        assert cm.covered[Condition.ONBEAT].all()
        assert cm.any_row.all()

    def test_double_tempo_estimate(self):
        ref = constant_beats(120, 12)
        est = constant_beats(240, 23)
        cm = coverage_matrix(ref, est)
        assert cm.covered[Condition.HARMONIC_DOUBLE].all()
        assert not cm.covered[Condition.ONBEAT].any()
        assert cm.any_row.all()
        assert not cm.offbeat_row.any()

    def test_half_tempo_estimate(self):
        ref = constant_beats(120, 12)
        est = BeatSequence(ref.times[0::2])
        cm = coverage_matrix(ref, est)
        half = cm.covered[Condition.SUBHARMONIC_HALF]
        # every second beat is covered, the skipped ones are not
        assert half[0::2].all()
        assert not half[1::2].any()
        assert not cm.covered[Condition.ONBEAT].any()

    def test_empty_estimate_covers_nothing(self):
        cm = coverage_matrix(constant_beats(120, 8), BeatSequence([]))
        assert not cm.any_row.any()

    def test_matches_oracle_on_random_input(self, rng):
        # context 4 and 5 give harmonic-quadruple windows of 13 and 17
        # taps, long enough for numpy's unrolled summation in the mean
        for context, cap, gamma in itertools.product((2, 3, 4, 5), (0.070, 0.5), (0.175, 0.6)):
            params = ToleranceParams(cap=cap, gamma=gamma, context=context)
            for _ in range(20):
                ref = BeatSequence(random_times(rng, int(rng.integers(4, 16))))
                est = BeatSequence(random_times(rng, int(rng.integers(0, 25))))
                cm = coverage_matrix(ref, est, params)
                expected = oracles.oracle_coverage(
                    ref.times.tolist(), est.times.tolist(), context, cap, gamma
                )
                for name, row in expected.items():
                    assert np.array_equal(cm.covered[Condition.parse(name)], row)


# A first reference beat under 2 * eps: ``w0 - e`` then rounds, and an
# estimate just below the rounded band edge ``w0 - eps`` still passes
# ``|w0 - e| <= eps``.
NEAR_ZERO_REF = [0.07534006385069895, 0.6260426855856602, 1.1767453073206215, 1.7274479290555829]
NEAR_ZERO_EST = [0.005340063850698947, 0.6270426855856602, 1.1767453073206215, 1.7274479290555829]


def nudge(x, ulps):
    """``x`` moved by ``ulps`` representable doubles."""
    for _ in range(abs(ulps)):
        x = np.nextafter(x, np.inf if ulps > 0 else -np.inf)
    return float(x)


class TestNearZero:
    def test_band_edge_repro(self):
        ref, est = BeatSequence(NEAR_ZERO_REF), BeatSequence(NEAR_ZERO_EST)
        expected = oracles.oracle_coverage(NEAR_ZERO_REF, NEAR_ZERO_EST)
        assert expected["onbeat"] == [True] * 4
        cm = coverage_matrix(ref, est)
        for name, row in expected.items():
            assert cm.covered[Condition.parse(name)].tolist() == row
        win = variant_window(ref, 0, Condition.ONBEAT)
        assert window_match(win, est) == oracles.oracle_match(win.times.tolist(), win.epsilon, NEAR_ZERO_EST) == 0
        est2 = NEAR_ZERO_EST[:1] + NEAR_ZERO_REF[1:]
        ref_flags, est_flags = l_correct_detection(ref, BeatSequence(est2))
        assert (ref_flags.tolist(), est_flags.tolist()) == oracles.oracle_l_correct(NEAR_ZERO_REF, est2)

    def test_tolerance_edges_match_oracles(self, rng):
        # a first beat under 0.14 s and estimates within 2 ulps of the
        # edge of the 0.07 s tolerance (intervals of 0.45 s and more
        # keep the onbeat and L-correct tolerance at the cap)
        for _ in range(300):
            n = int(rng.integers(3, 6))
            raw = np.concatenate([[rng.uniform(0.0, 0.14)], rng.uniform(0.45, 0.7, n - 1)])
            ref = np.cumsum(raw).tolist()
            est = []
            for r in ref:
                e = nudge(r + rng.choice([-0.07, 0.07]), int(rng.integers(-2, 3)))
                if e >= 0.0 and (not est or e > est[-1]):
                    est.append(e)
            ref_seq, est_seq = BeatSequence(ref), BeatSequence(est)
            cm = coverage_matrix(ref_seq, est_seq)
            for name, row in oracles.oracle_coverage(ref, est).items():
                assert cm.covered[Condition.parse(name)].tolist() == row, (ref, est, name)
            win = variant_window(ref_seq, 0, Condition.ONBEAT)
            assert window_match(win, est_seq) == oracles.oracle_match(win.times.tolist(), win.epsilon, est)
            ref_flags, est_flags = l_correct_detection(ref_seq, est_seq)
            assert (ref_flags.tolist(), est_flags.tolist()) == oracles.oracle_l_correct(ref, est)


class TestLCorrectDetection:
    def test_identity_flags_everything(self):
        ref = constant_beats(120, 10)
        ref_flags, est_flags = l_correct_detection(ref, ref)
        assert ref_flags.all()
        assert est_flags.all()

    def test_half_offbeat_estimate(self):
        ref = constant_beats(120, 10)
        est = BeatSequence(ref.times[:-1] + 0.25)
        ref_flags, est_flags = l_correct_detection(ref, est)
        # offbeat windows need the interval after their last anchor, so
        # the final reference beat has no window that covers it
        assert ref_flags[:-1].all()
        assert not ref_flags[-1]
        assert est_flags.all()

    def test_uses_fixed_cap_not_adaptive_tolerance(self):
        # at 240 bpm the adaptive tolerance would be 0.04375; a uniform
        # 0.06 offset is detected only under the fixed 0.070 cap
        ref = constant_beats(240, 10)
        est = BeatSequence(ref.times + 0.06)
        ref_flags, _ = l_correct_detection(ref, est)
        assert ref_flags.all()

    def test_missing_beat_breaks_windows_around_it(self):
        ref = constant_beats(120, 10)
        est = BeatSequence(np.delete(ref.times, 5))
        ref_flags, est_flags = l_correct_detection(ref, est)
        assert not ref_flags[5]
        assert ref_flags[[0, 1, 2, 3, 8, 9]].all()
        assert est_flags.all()

    def test_matches_oracle_on_random_input(self, rng):
        flagged = 0
        for context, cap in itertools.product((2, 3, 4), (0.07, 0.5)):
            params = ToleranceParams(cap=cap, context=context)
            for case in range(20):
                ref = BeatSequence(random_times(rng, int(rng.integers(4, 16))))
                if case % 2:
                    est = BeatSequence(random_times(rng, int(rng.integers(0, 25))))
                else:
                    # jittered onbeat or half-offbeat taps, so windows do match
                    shift = 0.5 * float(np.mean(ref.ibis)) if case % 4 else 0.0
                    jitter = rng.normal(0.0, 0.03, len(ref))
                    est = BeatSequence(np.unique(np.clip(ref.times + shift + jitter, 0.0, None)))
                ref_flags, est_flags = l_correct_detection(ref, est, params)
                expected = oracles.oracle_l_correct(ref.times.tolist(), est.times.tolist(), context, cap)
                assert ref_flags.tolist() == expected[0]
                assert est_flags.tolist() == expected[1]
                flagged += int(ref_flags.any())
        assert flagged > 0
