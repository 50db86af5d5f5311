import numpy as np
import pytest

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
from conftest import constant_beats


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

    def test_matches_suppression_oracle(self, rng):
        for _ in range(30):
            n = int(rng.integers(20, 240))
            values = rng.random(n)
            threshold = float(rng.uniform(0.2, 0.6))
            min_gap = float(rng.uniform(0.02, 0.3))
            act = ActivationFunction(fps=100.0, values=values)
            got = sppk(act, threshold=threshold, min_gap=min_gap)
            expected = oracles.oracle_suppression(values.tolist(), 100.0, threshold, min_gap)
            assert got.times.tolist() == [f / 100.0 for f in expected]


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
        for _ in range(25):
            n = int(rng.integers(40, 150))
            values = rng.random(n)
            act = ActivationFunction(fps=20.0, values=values)
            beats = dp_track(act, global_tempo=120.0)
            expected = oracles.oracle_dp_path(values.tolist(), 20.0, 120.0)
            assert beats.times.tolist() == [f / 20.0 for f in expected]

    def test_degenerate_period_raises(self):
        act = ActivationFunction(fps=10.0, values=np.full(100, 0.5))
        with pytest.raises(DegenerateTempoError):
            dp_track(act, global_tempo=400.0)

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


def test_global_tempo_from_reference():
    assert global_tempo_from_reference(constant_beats(132, 30)) == pytest.approx(132.0)
