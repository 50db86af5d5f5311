import math
import re
import tracemalloc

import numpy as np
import pytest

import oracles
from beatcover import (
    BeatSequence,
    Condition,
    Scenario,
    Segment,
    coverage_matrix,
    gen_activation,
    gen_estimate,
    gen_reference,
    sppk,
)
from beatcover.synth import _BLOCK_CELLS


class TestGenReference:
    def test_constant_tempo_exact_grid(self):
        beats = gen_reference(120, 4.0)
        assert np.allclose(beats.times, np.arange(8) * 0.5, atol=1e-12)

    def test_duration_is_exclusive(self):
        # 2.0 s at 120 bpm: beats at 0.0 .. 1.5, not at 2.0
        beats = gen_reference(120, 2.0)
        assert len(beats) == 4
        assert beats.times[-1] < 2.0

    def test_first_beat_at_zero(self):
        beats = gen_reference([(0.0, 93.0), (5.0, 140.0)], 5.0)
        assert beats[0] == 0.0

    def test_ramp_shrinks_intervals(self):
        beats = gen_reference([(0.0, 60.0), (10.0, 120.0)], 10.0)
        gaps = np.diff(beats.times)
        assert np.all(np.diff(gaps) < 0)
        assert gaps[0] < 1.0  # already accelerating inside the first interval
        assert gaps[-1] > 0.5

    def test_ramp_against_numeric_integration(self):
        curve = [(0.0, 80.0), (6.0, 150.0)]
        beats = gen_reference(curve, 6.0)
        # brute-force phase accumulation on a fine grid
        dt = 1e-5
        t = np.arange(0.0, 6.0, dt)
        rate = np.interp(t, [0.0, 6.0], [80.0 / 60.0, 150.0 / 60.0])
        phase = np.concatenate([[0.0], np.cumsum(rate * dt)])
        expected = []
        k = 0
        for idx in range(len(t)):
            while phase[idx + 1] > k:
                expected.append(t[idx])
                k += 1
        assert len(beats) == len(expected)
        assert np.allclose(beats.times, expected, atol=1e-3)

    @pytest.mark.parametrize(
        "curve, duration",
        [
            ([(0.0, 120.0), (30.0, 120.000000001)], 30.0),
            (
                [(0.0, 182.57474058181185), (25.548518390145524, 182.57474058181285)],
                25.548518390145524,
            ),
        ],
    )
    def test_near_flat_ramp_keeps_precision(self, curve, duration):
        # dividing by a slope near 1e-12 placed these beats up to 0.4 ms
        # off, and put the second curve's beats out of order
        beats = gen_reference(curve, duration).times
        assert np.all(np.diff(beats) > 0)
        grid = np.arange(len(beats)) * 60.0 / curve[0][1]
        assert np.abs(beats - grid).max() <= 1e-9

    def test_piecewise_segments_integrate_to_same_count(self):
        # splitting a constant curve into knots must not change the beats
        flat = gen_reference(100, 8.0)
        split = gen_reference([(0.0, 100.0), (3.0, 100.0), (7.0, 100.0)], 8.0)
        assert np.allclose(flat.times, split.times, atol=1e-9)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            gen_reference(120, 0.0)
        with pytest.raises(ValueError):
            gen_reference(-5, 4.0)
        with pytest.raises(ValueError):
            gen_reference([(0.0, 100.0), (0.0, 120.0)], 4.0)
        with pytest.raises(ValueError, match="at least one point"):
            gen_reference([], 4.0)
        with pytest.raises(ValueError, match="times must be >= 0"):
            gen_reference([(-1.0, 100.0), (2.0, 120.0)], 4.0)

    def test_beat_count_is_bounded_before_generating(self):
        # 2e12 beats: the check must fire before any beat is placed
        with pytest.raises(ValueError, match="more than 1000000 beats"):
            gen_reference(120.0, 1e12)
        with pytest.raises(ValueError, match="more than 1000000 beats"):
            gen_reference([(0.0, 120.0), (5.0, 1e12)], 12.0)

    def test_beat_count_limit_is_inclusive(self):
        # duration * highest BPM / 60 may reach the limit but not pass it
        Scenario(60.0, 1_000_000.0, (Segment(0, Condition.ONBEAT),))
        with pytest.raises(ValueError, match="more than 1000000 beats"):
            Scenario(60.0, 1_000_001.0, (Segment(0, Condition.ONBEAT),))

    def test_bpm_floor_places_exact_beats(self):
        # at the floor the squared beat rate is still a normal float
        ref = gen_reference(1e-100, 6e103)
        assert len(ref) == 100
        assert np.array_equal(ref.times, np.arange(100) / (1e-100 / 60.0))

    @pytest.mark.parametrize("curve", [1e-160, 9.99e-101, [(0.0, 120.0), (2.0, 1e-101)]])
    def test_bpm_below_floor_rejected(self, curve):
        with pytest.raises(ValueError, match="BPM values must be >= 1e-100"):
            gen_reference(curve, 6e163)
        with pytest.raises(ValueError, match="BPM values must be >= 1e-100"):
            Scenario(curve, 6e163, (Segment(0, Condition.ONBEAT),))


NON_FINITE = [math.nan, math.inf, -math.inf]

# field -> (tempo curve, duration) with the non-finite number in that field
CURVE_AND_DURATION = {
    "duration": lambda x: (120, x),
    "tempo": lambda x: (x, 4.0),
    "knot_time": lambda x: ([(0.0, 120.0), (x, 130.0)], 4.0),
    "knot_bpm": lambda x: ([(0.0, 120.0), (2.0, x)], 4.0),
}


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("field", list(CURVE_AND_DURATION))
def test_non_finite_curve_or_duration_rejected(field, bad):
    curve, duration = CURVE_AND_DURATION[field](bad)
    with pytest.raises(ValueError, match="finite"):
        gen_reference(curve, duration)
    with pytest.raises(ValueError, match="finite"):
        Scenario(curve, duration, (Segment(0, Condition.ONBEAT),))


class TestScenarioValidation:
    def test_minimal(self):
        sc = Scenario(tempo_curve=120, duration=4.0, segments=(Segment(0, Condition.ONBEAT),))
        assert sc.tempo_curve == ((0.0, 120.0),)

    def test_first_segment_must_start_at_zero(self):
        with pytest.raises(ValueError):
            Scenario(120, 4.0, (Segment(3, Condition.ONBEAT),))

    def test_segment_starts_strictly_increase(self):
        with pytest.raises(ValueError):
            Scenario(
                120,
                4.0,
                (Segment(0, Condition.ONBEAT), Segment(0, Condition.HARMONIC_DOUBLE)),
            )

    def test_needs_a_segment(self):
        with pytest.raises(ValueError):
            Scenario(120, 4.0, ())

    def test_segment_rejects_negative_start(self):
        with pytest.raises(ValueError, match="segment start must be >= 0"):
            Segment(-1, Condition.ONBEAT)

    @pytest.mark.parametrize("start", [1.0, 1.5])
    def test_segment_rejects_non_integer_start(self, start):
        with pytest.raises(ValueError, match="segment start must be an integer"):
            Segment(start, Condition.ONBEAT)

    def test_segment_numpy_integer_start_becomes_int(self):
        segment = Segment(np.int64(4), Condition.ONBEAT)
        assert segment.start == 4 and type(segment.start) is int

    def test_segment_rejects_negative_jitter(self):
        with pytest.raises(ValueError):
            Segment(0, Condition.ONBEAT, jitter_std=-0.01)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_segment_rejects_non_finite_jitter(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Segment(0, Condition.ONBEAT, jitter_std=bad)


class TestGenEstimate:
    def test_onbeat_reproduces_reference(self):
        ref = gen_reference(120, 8.0)
        sc = Scenario(120, 8.0, (Segment(0, Condition.ONBEAT),))
        assert np.array_equal(gen_estimate(ref, sc).times, ref.times)

    def test_subharmonic_keeps_every_second_beat(self):
        ref = gen_reference(120, 8.0)
        sc = Scenario(120, 8.0, (Segment(0, Condition.SUBHARMONIC_HALF),))
        assert np.array_equal(gen_estimate(ref, sc).times, ref.times[0::2])

    def test_harmonic_interpolates_midpoints(self):
        ref = gen_reference(120, 4.0)
        sc = Scenario(120, 4.0, (Segment(0, Condition.HARMONIC_DOUBLE),))
        est = gen_estimate(ref, sc)
        assert len(est) == 2 * len(ref) - 1
        assert np.allclose(np.diff(est.times), 0.25, atol=1e-12)

    def test_offbeat_shifts_into_intervals(self):
        ref = gen_reference(120, 4.0)
        sc = Scenario(120, 4.0, (Segment(0, Condition.OFFBEAT_HALF),))
        est = gen_estimate(ref, sc)
        # the final beat has no following interval, so one fewer tap
        assert len(est) == len(ref) - 1
        assert np.allclose(est.times, ref.times[:-1] + 0.25, atol=1e-12)

    def test_two_segment_split(self):
        ref = gen_reference(120, 8.0)  # 16 beats
        sc = Scenario(
            120, 8.0,
            (Segment(0, Condition.ONBEAT), Segment(8, Condition.SUBHARMONIC_HALF)),
        )
        est = gen_estimate(ref, sc)
        expected = np.concatenate([ref.times[:8], ref.times[8::2]])
        assert np.array_equal(est.times, expected)

    def test_segment_start_beyond_reference_rejected(self):
        ref = gen_reference(120, 2.0)
        sc = Scenario(
            120, 2.0,
            (Segment(0, Condition.ONBEAT), Segment(50, Condition.HARMONIC_DOUBLE)),
        )
        with pytest.raises(ValueError):
            gen_estimate(ref, sc)

    def test_deterministic_per_seed(self):
        ref = gen_reference(120, 8.0)
        sc = Scenario(120, 8.0, (Segment(0, Condition.ONBEAT, jitter_std=0.01),))
        a = gen_estimate(ref, sc, seed=7)
        b = gen_estimate(ref, sc, seed=7)
        c = gen_estimate(ref, sc, seed=8)
        assert np.array_equal(a.times, b.times)
        assert not np.array_equal(a.times, c.times)

    def test_jitter_stays_within_three_sigma(self):
        ref = gen_reference(120, 30.0)
        sc = Scenario(120, 30.0, (Segment(0, Condition.ONBEAT, jitter_std=0.01),))
        est = gen_estimate(ref, sc, seed=3)
        assert len(est) == len(ref)
        assert np.max(np.abs(est.times - ref.times)) <= 0.03 + 1e-12

    def test_heavy_jitter_warns_and_sorts(self):
        ref = gen_reference(240, 10.0)
        sc = Scenario(240, 10.0, (Segment(0, Condition.ONBEAT, jitter_std=0.2),))
        with pytest.warns(UserWarning, match="monotonic"):
            est = gen_estimate(ref, sc, seed=1)
        assert np.all(np.diff(est.times) > 0)

    def test_jittered_estimate_still_covers_onbeat(self):
        ref = gen_reference(120, 16.0)
        sc = Scenario(120, 16.0, (Segment(0, Condition.ONBEAT, jitter_std=0.005),))
        est = gen_estimate(ref, sc, seed=5)
        cm = coverage_matrix(ref, est)
        assert cm.covered[Condition.ONBEAT].all()


@pytest.mark.parametrize("seed, reason", [
    (-1, "seed must be >= 0, got -1"),
    (1.5, "seed must be an integer, got 1.5"),
    (None, "seed must be an integer, got None"),
])
@pytest.mark.parametrize("generate", ["estimate", "activation"])
def test_bad_seed_rejected_by_name(generate, seed, reason):
    ref = gen_reference(120, 4.0)
    sc = Scenario(120, 4.0, (Segment(0, Condition.ONBEAT, jitter_std=0.01),))
    with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
        if generate == "estimate":
            gen_estimate(ref, sc, seed=seed)
        else:
            gen_activation(ref, noise_std=0.05, seed=seed)


def test_numpy_integer_seed_is_accepted():
    ref = gen_reference(120, 4.0)
    sc = Scenario(120, 4.0, (Segment(0, Condition.ONBEAT, jitter_std=0.01),))
    assert np.array_equal(gen_estimate(ref, sc, seed=np.int64(7)).times, gen_estimate(ref, sc, seed=7).times)
    assert gen_activation(ref, noise_std=0.05, seed=np.int64(7)) == gen_activation(ref, noise_std=0.05, seed=7)


class TestGenActivation:
    def test_bumps_sit_on_beats(self):
        ref = gen_reference(120, 4.0)
        act = gen_activation(ref, fps=100.0)
        frames = (ref.times * 100).round().astype(int)
        assert np.all(act.values[frames] > 0.99)

    def test_runs_one_second_past_last_beat(self):
        ref = gen_reference(120, 4.0)  # last beat at 3.5
        act = gen_activation(ref, fps=100.0)
        assert len(act) == 451
        assert act.duration == pytest.approx(4.5)

    def test_no_beats_give_a_silent_second(self):
        act = gen_activation(BeatSequence([]), fps=100.0)
        assert len(act) == 101
        assert act.duration == 1.0
        assert not act.values.any()

    def test_values_clipped_to_unit_interval(self):
        ref = gen_reference(480, 4.0)  # dense beats force overlapping bumps
        act = gen_activation(ref, fps=50.0, peak_width=0.2)
        assert act.values.max() <= 1.0

    def test_noise_is_seeded(self):
        ref = gen_reference(120, 4.0)
        a = gen_activation(ref, noise_std=0.05, seed=2)
        b = gen_activation(ref, noise_std=0.05, seed=2)
        c = gen_activation(ref, noise_std=0.05, seed=3)
        assert a == b
        assert a != c

    @pytest.mark.parametrize("fps", [math.nan, math.inf])
    def test_non_finite_fps_rejected(self, fps):
        with pytest.raises(ValueError, match="fps must be finite"):
            gen_activation(gen_reference(120, 4.0), fps=fps)

    @pytest.mark.parametrize("noise_std", [math.nan, math.inf, -0.1])
    def test_bad_noise_std_rejected(self, noise_std):
        # unchecked, nan and negative values would return the clean curve
        with pytest.raises(ValueError, match="noise_std must be finite and >= 0"):
            gen_activation(gen_reference(120, 4.0), noise_std=noise_std)

    @pytest.mark.parametrize("fps", [1e15, np.float64(1e308)])
    def test_huge_fps_rejected_before_allocating(self, fps):
        # 1e308 frames per second would also overflow the frame count to inf
        with pytest.raises(ValueError, match="more than 10000000 activation frames"):
            gen_activation(gen_reference(120, 4.0), fps=fps)

    def test_frame_bound_rejects_just_over_it(self):
        # with no beats the curve lasts one second, so (last + 1 s) * fps
        # is fps itself; at the bound it would build ten million frames
        with pytest.raises(ValueError, match="more than 10000000 activation frames"):
            gen_activation(BeatSequence([]), fps=np.nextafter(1e7, np.inf))

    @pytest.mark.parametrize("peak_width", [math.nan, math.inf])
    def test_bad_peak_width_rejected(self, peak_width):
        # unchecked, a nan width would fail later, as an activation range error
        with pytest.raises(ValueError, match="peak_width must be finite and > 0"):
            gen_activation(gen_reference(120, 4.0), peak_width=peak_width)

    @pytest.mark.parametrize("peak_width", [0.001, 0.05, 0.3, 5.0])
    def test_matches_dense_oracle_bytes(self, rng, peak_width):
        # gaps from well inside the +-40 peak_width band to about twice it,
        # capped at 3 s so the widest bumps keep the curve short
        for fps in (100.0, 44100 / 512):
            # a lone beat late enough that its far tail is subnormal, not 0
            lone = np.array([45.0 * peak_width])
            act = gen_activation(BeatSequence(lone), fps=fps, peak_width=peak_width)
            assert act.values.tobytes() == oracles.oracle_activation(lone, fps, peak_width).tobytes()
            for noise_std in (0.0, 0.1):
                for _ in range(4):
                    count = int(rng.integers(0, 30))
                    gaps = rng.uniform(0.001, min(80.0 * peak_width, 3.0), count)
                    times = float(rng.uniform(0.0, 2.0)) + np.cumsum(gaps)
                    seed = int(rng.integers(1000))
                    act = gen_activation(
                        BeatSequence(times), fps=fps, peak_width=peak_width, noise_std=noise_std, seed=seed
                    )
                    expected = oracles.oracle_activation(times, fps, peak_width, noise_std, seed)
                    assert act.values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("peak_width", [0.001, 0.05])
    def test_several_blocks_match_dense_oracle_bytes(self, rng, peak_width):
        # A block holds _BLOCK_CELLS // (frames of the widest bump) beats,
        # and a bump covers at least 80 * peak_width * fps - 1 frames, so
        # these curves cross at least two block edges.  The gaps are well
        # inside the bump, so most frames sum bumps from both sides of an edge.
        for fps, noise_std in ((100.0, 0.0), (44100 / 512, 0.1)):
            per_block = _BLOCK_CELLS // (int(80.0 * peak_width * fps) - 1)
            count = 2 * per_block + int(rng.integers(1, per_block))
            times = float(rng.uniform(0.0, 2.0)) + np.cumsum(rng.uniform(0.001, 20.0 * peak_width, count))
            act = gen_activation(BeatSequence(times), fps=fps, peak_width=peak_width, noise_std=noise_std, seed=5)
            expected = oracles.oracle_activation(times, fps, peak_width, noise_std, 5)
            assert act.values.tobytes() == expected.tobytes()

    def test_peak_memory_is_linear_in_frames(self):
        # about 18 B per frame: the curve and its frame times while the
        # bumps are summed, a block at a time, then the clipped curve and
        # the copy that ActivationFunction keeps
        tracemalloc.start()
        try:
            act = gen_activation(gen_reference(120.0, 3600.0), fps=100.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 24 * len(act), peak / len(act)

    def test_round_trips_through_peak_picker(self):
        ref = gen_reference(120, 8.0)
        act = gen_activation(ref, fps=100.0)
        found = sppk(act, threshold=0.3, min_gap=0.15)
        # the bump at t=0 has no left neighbor, so the first beat is lost
        assert len(found) == len(ref) - 1
        assert np.allclose(found.times, ref.times[1:], atol=0.011)
