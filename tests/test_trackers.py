import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from beatcover import (
    ActivationFunction,
    BeatSequence,
    DegenerateTempoError,
    EmptySequenceError,
    dp_track,
    gen_activation,
    global_tempo_from_reference,
    sppk,
)
from beatcover.trackers import _BLOCK_CELLS, _link_frames
from conftest import constant_beats

# seeded random-tempo cases per (fps, tightness) pair in test_matches_dp_oracle
CASES = 50


def impulse_train(n_frames, period, fps=100.0):
    values = np.zeros(n_frames)
    values[::period] = 1.0
    return ActivationFunction(fps=fps, values=values)


def triangle(center, width, height, n_frames, fps=100.0):
    values = np.zeros(n_frames)
    for k in range(-width, width + 1):
        values[center + k] = height * (1 - abs(k) / (width + 1))
    return ActivationFunction(fps=fps, values=values)


class TestSppk:
    def test_silence_yields_no_beats(self):
        act = ActivationFunction(fps=100.0, values=np.zeros(500))
        assert len(sppk(act)) == 0

    @pytest.mark.parametrize("values", [[], [0.9], [0.2, 0.9], [0.9, 0.2]])
    def test_fewer_than_three_frames_yield_no_beats(self, values):
        # a peak needs a neighbor on each side
        beats = sppk(ActivationFunction(fps=100.0, values=values), threshold=0.0, min_gap=0.0)
        assert len(beats) == 0 and beats.times.dtype == np.float64

    def test_single_peak(self):
        act = triangle(50, 5, 1.0, 200)
        beats = sppk(act)
        assert beats.times.tolist() == [0.5]

    def test_plateau_yields_first_frame(self):
        act = ActivationFunction(fps=100.0, values=[0.0, 0.8, 0.8, 0.8, 0.0])
        assert sppk(act).times.tolist() == [0.01]

    def test_threshold_filters_small_peaks(self):
        act = triangle(50, 5, 0.25, 200)
        assert len(sppk(act, threshold=0.3)) == 0
        assert len(sppk(act, threshold=0.2)) == 1

    def test_close_smaller_peak_suppressed(self):
        values = np.zeros(200)
        values[50] = 0.9
        values[55] = 0.8
        act = ActivationFunction(fps=100.0, values=values)
        assert sppk(act, min_gap=0.15).times.tolist() == [0.5]

    def test_equal_peaks_earlier_wins(self):
        values = np.zeros(200)
        values[50] = 0.9
        values[55] = 0.9
        act = ActivationFunction(fps=100.0, values=values)
        assert sppk(act, min_gap=0.15).times.tolist() == [0.5]

    def test_gap_exactly_min_gap_is_kept(self):
        values = np.zeros(200)
        values[50] = 0.9
        values[65] = 0.8
        act = ActivationFunction(fps=100.0, values=values)
        assert sppk(act, min_gap=0.15).times.tolist() == [0.5, 0.65]

    def test_negative_min_gap_rejected(self):
        act = ActivationFunction(fps=100.0, values=np.zeros(10))
        with pytest.raises(ValueError):
            sppk(act, min_gap=-0.1)

    def test_nan_min_gap_rejected(self):
        act = ActivationFunction(fps=100.0, values=np.zeros(10))
        with pytest.raises(ValueError, match="min_gap"):
            sppk(act, min_gap=float("nan"))

    def test_infinite_min_gap_rejected(self):
        # an infinite gap would quietly keep only the highest peak
        act = ActivationFunction(fps=100.0, values=np.zeros(10))
        with pytest.raises(ValueError, match="min_gap must be finite and >= 0"):
            sppk(act, min_gap=float("inf"))

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_threshold_rejected(self, threshold):
        # a nan threshold would pass no candidate and quietly return 0 beats
        act = ActivationFunction(fps=100.0, values=np.zeros(10))
        with pytest.raises(ValueError, match="threshold must be finite"):
            sppk(act, threshold=threshold)

    def test_matches_suppression_oracle(self, rng):
        for fps in (100.0, 44100 / 512):
            for _ in range(30):
                n = int(rng.integers(20, 240))
                values = rng.random(n)
                threshold = float(rng.uniform(0.2, 0.6))
                min_gap = float(rng.uniform(0.02, 0.3))
                act = ActivationFunction(fps=fps, values=values)
                got = sppk(act, threshold=threshold, min_gap=min_gap)
                expected = oracles.oracle_suppression(values.tolist(), fps, threshold, min_gap)
                assert got.times.tolist() == [f / fps for f in expected]
            # a long curve whose peaks share few values, with no gap; with
            # gaps that are exact frame multiples (kept at equality), among
            # them 7 and 13 frames, whose min_gap * fps rounds above 7 or 13
            # at one of the two rates; one ulp past 41 frames, where it
            # rounds to 41 at both; and past the curve's end, the last so
            # long that min_gap * fps is inf
            values = np.round(rng.random(5000), 1)
            act = ActivationFunction(fps=fps, values=values)
            multiples = [k / fps for k in (1, 3, 7, 13, 25)]
            for min_gap in (0.0, *multiples, np.nextafter(41 / fps, np.inf), 1e300, 1e308):
                got = sppk(act, threshold=0.3, min_gap=min_gap)
                expected = oracles.oracle_suppression(values.tolist(), fps, 0.3, min_gap)
                assert got.times.tolist() == [f / fps for f in expected]


@st.composite
def dp_cases(draw):
    """(values, fps, tempo, tightness) for ``dp_track``: periods of 2 to
    150 frames, plateaus, a silent lead-in, values of -0.0, and lengths
    that seldom fill the last block."""
    fps = draw(st.sampled_from((7.0, 20.0, 100.0, 44100 / 512, 200.0)))
    tau = draw(st.floats(min_value=2.0, max_value=150.0))
    tempo = fps * 60.0 / tau
    if fps * 60.0 / tempo < 2.0:  # tau rounded below 2 frames
        tempo = fps * 30.0
    tightness = draw(
        st.one_of(
            st.sampled_from((0.0, 1e308, -1e308)),
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        )
    )
    level = st.one_of(st.sampled_from((0.0, -0.0, 0.5, 1.0)), st.floats(min_value=0.0, max_value=1.0))
    levels = draw(st.lists(level, min_size=1, max_size=60))
    hold = draw(st.integers(min_value=1, max_value=8))  # frames per level: plateaus
    n = draw(st.integers(min_value=1, max_value=int(4 * tau) + 40))
    values = [levels[k // hold % len(levels)] for k in range(n)]
    lead = draw(st.integers(min_value=0, max_value=n))
    values[:lead] = [draw(st.sampled_from((0.0, -0.0)))] * lead
    return values, fps, tempo, tightness


class TestDpTrack:
    def test_recovers_clean_impulse_train(self):
        act = impulse_train(1000, 50)  # 120 bpm at 100 fps
        beats = dp_track(act, global_tempo=120.0)
        assert np.allclose(beats.times, np.arange(20) * 0.5)

    def test_flat_activation_settles_on_target_period(self):
        act = ActivationFunction(fps=100.0, values=np.full(1000, 0.5))
        beats = dp_track(act, global_tempo=120.0)
        gaps = np.diff(beats.times)
        # every interval stays inside the structural (tau/2, 2*tau) band
        assert np.all(gaps >= 0.25) and np.all(gaps <= 1.0)
        # and all but the ramp-in settle on tau exactly
        assert np.count_nonzero(np.abs(gaps - 0.5) < 1e-9) >= len(gaps) - 2

    def test_survives_missing_impulse(self):
        values = np.zeros(1000)
        values[::50] = 1.0
        values[500] = 0.0  # one beat dropped from the middle
        act = ActivationFunction(fps=100.0, values=values)
        beats = dp_track(act, global_tempo=120.0)
        on_grid = np.isclose(beats.times * 100 % 50, 0.0)
        assert on_grid.mean() > 0.9

    @pytest.mark.parametrize("offset", [0.26, 0.33, 0.43, 0.49])
    def test_late_first_beat_is_found_where_it_is(self, offset):
        # A first beat more than half a period after 0 s starts its own
        # path instead of being linked back toward the start.
        ref = BeatSequence(offset + 0.5 * np.arange(20))
        beats = dp_track(gen_activation(ref, fps=100.0), global_tempo=120.0)
        assert len(beats) == len(ref)
        assert np.all(np.abs(beats.times - ref.times) <= 0.01 + 1e-9)

    def test_matches_dp_oracle(self, rng):
        # tau = 10 frames: every window ends exactly tau/2 frames back, so
        # a block one frame longer would read a score of its own
        cases = [(20.0, 120.0, 100.0)] * 25 + [(20.0, 120.0, 0.0)] * 25
        # non-integer periods of 3 to 120 frames; tightness 0 and plateaus
        # make ties, which go to the earliest predecessor, and a negative
        # tightness favours the window's far ends
        for fps in (10.0, 43.0, 100.0):
            for tightness in (100.0, 0.0, -1.0):
                cases += [(fps, float(rng.uniform(50.0, 200.0)), tightness) for _ in range(CASES)]
        for k, (fps, tempo, tightness) in enumerate(cases):
            n = int(rng.integers(40, 150 if fps == 20.0 else 400))
            values = rng.random(n)
            if k % 3 == 1:
                values = np.round(values, 1)
            elif k % 3 == 2:
                values = np.repeat(values[: n // 5 + 1], 5)[:n]
            if k % 2:
                values[: n // 4] = 0.0  # silent lead-in: a best score of exactly 0.0 links nowhere
            act = ActivationFunction(fps=fps, values=values)
            beats = dp_track(act, global_tempo=tempo, tightness=tightness)
            expected = oracles.oracle_dp_path(values.tolist(), fps, tempo, tightness)
            assert beats.times.tolist() == [f / fps for f in expected]

    @pytest.mark.parametrize("ulps, spacing", [(-1, 100), (3, 25)])
    @pytest.mark.parametrize("tightness", [100.0, 0.0, -1.0])
    def test_rounded_window_bounds_match_oracle(self, ulps, spacing, tightness):
        # tau a few ulps below (above) 50 frames: n - 2*tau (n - tau/2) is
        # rounded onto an integer only from frame 228 (154) on, which
        # moves that window bound by one frame; spikes 2*tau (tau/2) apart
        # sit on the bound before and after the move
        tempo = 6000.0 / (50.0 + ulps * np.spacing(50.0))
        values = np.zeros(400)
        values[::spacing] = 1.0
        act = ActivationFunction(fps=100.0, values=values)
        expected = oracles.oracle_dp_path(values.tolist(), 100.0, tempo, tightness)
        assert dp_track(act, tempo, tightness).times.tolist() == [f / 100.0 for f in expected]

    @given(dp_cases())
    def test_matches_dp_oracle_on_drawn_activations(self, case):
        values, fps, tempo, tightness = case
        act = ActivationFunction(fps=fps, values=values)
        beats = dp_track(act, global_tempo=tempo, tightness=tightness)
        expected = oracles.oracle_dp_path(values, fps, tempo, tightness)
        assert beats.times.tolist() == [f / fps for f in expected]

    @pytest.mark.parametrize("tightness", [1e308, -1e308])
    def test_an_overflowing_tightness_warns_nothing(self, rng, tightness):
        # at -1e308 the scores overflow to inf; the beats are still the
        # oracle's, and numpy's overflow warning is not raised
        values = np.round(rng.random(1000), 1)
        act = ActivationFunction(fps=100.0, values=values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            beats = dp_track(act, 120.0, tightness)
        expected = oracles.oracle_dp_path(values.tolist(), 100.0, 120.0, tightness)
        assert beats.times.tolist() == [f / 100.0 for f in expected]

    @pytest.mark.parametrize("tightness", [100.0, 0.0, -1.0])
    def test_a_wide_window_caps_the_block_by_cells(self, rng, tightness):
        # tau = 400 frames: the window spans about 600 gaps, so a block
        # of _BLOCK_CELLS cells holds fewer frames than the shortest gap
        tau, fps = 400.0, 100.0
        width = int(2 * tau) - int(np.ceil(tau / 2)) + 1
        assert _BLOCK_CELLS // width < np.ceil(tau / 2)
        values = np.round(rng.random(1700), 1)
        values[:300] = 0.0
        tempo = fps * 60.0 / tau
        beats = dp_track(ActivationFunction(fps=fps, values=values), tempo, tightness)
        expected = oracles.oracle_dp_path(values.tolist(), fps, tempo, tightness)
        assert beats.times.tolist() == [f / fps for f in expected]

    def test_an_unlinked_negative_zero_scores_positive_zero(self):
        # a frame with a window (from frame tau/2 = 25 on) that links to
        # none scores its activation plus +0.0, so -0.0 becomes +0.0; the
        # two compare equal, so the beats are those of the recurrence
        # that keeps -0.0
        values = np.full(400, -0.0)
        values[200::50] = 1.0
        cumscore, backlink = _link_frames(values, 50.0, 100.0)
        assert np.all(np.signbit(cumscore[:25])) and not np.any(np.signbit(cumscore[25:200]))
        assert backlink[:200].tolist() == [-1] * 200
        assert cumscore[200:].tolist() == _link_frames(np.abs(values), 50.0, 100.0)[0][200:].tolist()
        act = ActivationFunction(fps=100.0, values=values)
        expected = oracles.oracle_dp_path(values.tolist(), 100.0, 120.0)
        assert dp_track(act, 120.0).times.tolist() == [f / 100.0 for f in expected] == [2.0, 2.5, 3.0, 3.5]

    def test_peak_memory_is_linear_in_frames(self):
        # about 33 B per frame: the scores (with their lead-in and one
        # block of slack), each frame's best column and best score, and the
        # frame numbers that turn the columns into backlinks
        peaks = []
        for minutes in (5, 10):
            act = gen_activation(constant_beats(120.0, 120 * minutes), fps=100.0, noise_std=0.1, seed=1)
            tracemalloc.start()
            try:
                dp_track(act, global_tempo=120.0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
            assert peak <= 36 * len(act), (minutes, peak / len(act))
        assert peaks[1] <= 2.1 * peaks[0]

    def test_degenerate_period_raises(self):
        act = ActivationFunction(fps=10.0, values=np.full(100, 0.5))
        with pytest.raises(DegenerateTempoError):
            dp_track(act, global_tempo=400.0)

    def test_overflowing_period_rejected(self):
        # fps * 60 / 1e-320 overflows to an infinite period
        act = ActivationFunction(fps=100.0, values=np.full(100, 0.5))
        with pytest.raises(ValueError, match="is not finite"):
            dp_track(act, global_tempo=1e-320)

    def test_period_near_float_max_starts_one_path(self):
        # tau is finite but 2 * tau is not; no frame has a predecessor
        act = ActivationFunction(fps=100.0, values=np.full(100, 0.5))
        assert dp_track(act, global_tempo=5e-305).times.tolist() == [0.0]

    def test_tiny_tempo_stays_linear_in_memory(self):
        # tau is 6e6 frames: a gap window not clamped to the 1000-frame
        # track would hold about 1.2e7 entries (about 100 MB)
        act = ActivationFunction(fps=100.0, values=np.full(1000, 0.5))
        tracemalloc.start()
        try:
            beats = dp_track(act, global_tempo=1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert beats.times.tolist() == [0.0]
        assert peak < 1_000_000

    def test_empty_activation_raises(self):
        with pytest.raises(EmptySequenceError):
            dp_track(ActivationFunction(fps=100.0, values=[]), global_tempo=120.0)

    def test_nonpositive_tempo_rejected(self):
        act = ActivationFunction(fps=100.0, values=np.full(100, 0.5))
        with pytest.raises(ValueError):
            dp_track(act, global_tempo=0.0)

    def test_nan_tempo_rejected(self):
        act = ActivationFunction(fps=100.0, values=np.full(100, 0.5))
        with pytest.raises(ValueError, match="global_tempo"):
            dp_track(act, global_tempo=float("nan"))

    def test_infinite_tempo_rejected(self):
        act = ActivationFunction(fps=100.0, values=np.full(100, 0.5))
        with pytest.raises(ValueError, match="global_tempo must be finite and > 0"):
            dp_track(act, global_tempo=float("inf"))

    @pytest.mark.parametrize("tightness", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_tightness_rejected(self, tightness):
        # a nan tightness would make every predecessor score nan, so the
        # backtrace would quietly return a single beat
        act = ActivationFunction(fps=100.0, values=np.full(100, 0.5))
        with pytest.raises(ValueError, match="tightness must be finite"):
            dp_track(act, global_tempo=120.0, tightness=tightness)


def test_global_tempo_from_reference():
    assert global_tempo_from_reference(constant_beats(132, 30)) == pytest.approx(132.0)


def scale_values(rng, case):
    """Activation values for the scaling tests: random, rounded to one
    decimal, or held for five frames (plateaus and ties), half of them
    with a silent lead-in."""
    n = int(rng.integers(40, 400))
    values = rng.random(n)
    if case % 3 == 1:
        values = np.round(values, 1)
    elif case % 3 == 2:
        values = np.repeat(values[: n // 5 + 1], 5)[:n]
    if case % 2:
        values[: n // 4] = 0.0
    return values


def test_sppk_doubling_fps_and_halving_min_gap_halves_the_times(rng):
    """The candidate frames depend on the values alone.  The gap test
    compares ``d / fps`` with ``min_gap``; with fps doubled and min_gap
    halved both sides are halved, which is exact in binary floating
    point, so every comparison and so every accepted frame is the same,
    and each time ``frame / (2 * fps)`` is exactly half of ``frame / fps``."""
    for case in range(300):
        values = scale_values(rng, case)
        fps = float(rng.choice([100.0, 44100 / 512, rng.uniform(5.0, 500.0)]))
        # gaps that are whole frames sit on the ``>=`` boundary
        min_gap = float(rng.choice([0.0, rng.integers(1, 30) / fps, rng.uniform(0.0, 0.5)]))
        threshold = float(rng.uniform(0.0, 0.8))
        got = sppk(ActivationFunction(fps=fps, values=values), threshold, min_gap)
        half = sppk(ActivationFunction(fps=2.0 * fps, values=values), threshold, min_gap / 2.0)
        assert half.times.tolist() == (got.times / 2.0).tolist(), case


def test_dp_track_doubling_fps_and_tempo_halves_the_times(rng):
    """``tau = fps * 60 / global_tempo``: ``2 * fps * 60`` is exactly twice
    ``fps * 60``, and dividing by ``2 * global_tempo`` gives exactly the
    same double ``tau``.  The path depends only on the values, ``tau``
    and the tightness, so the frames are the same, and each time
    ``frame / (2 * fps)`` is exactly half of ``frame / fps``."""
    for case in range(300):
        values = scale_values(rng, case)
        fps = float(rng.choice([100.0, 44100 / 512, rng.uniform(10.0, 200.0)]))
        tempo = float(rng.uniform(50.0, 200.0))
        tightness = (100.0, 0.0, -1.0, 3.7)[case % 4]
        got = dp_track(ActivationFunction(fps=fps, values=values), tempo, tightness)
        half = dp_track(ActivationFunction(fps=2.0 * fps, values=values), 2.0 * tempo, tightness)
        assert half.times.tolist() == (got.times / 2.0).tolist(), case
