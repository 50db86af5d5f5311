import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from beatcover import (
    OFFBEAT_CONDITIONS,
    BeatSequence,
    Condition,
    ToleranceParams,
    VariantWindow,
    WindowTooShortError,
    adaptive_epsilon,
    condition_taps,
    harmonic_variant,
    offbeat_variant,
    subharmonic_variant,
    variant_window,
    window_table,
)
from conftest import constant_beats


class TestConditionTaps:
    # uneven intervals, so each tap shows which interval it was cut from
    REF = [0.0, 1.0, 3.0, 4.0]

    @pytest.mark.parametrize(
        "condition, expected",
        [
            (Condition.ONBEAT, [0.0, 1.0, 3.0, 4.0]),
            (Condition.SUBHARMONIC_HALF, [0.0, 3.0]),
            (Condition.SUBHARMONIC_THIRD, [0.0, 4.0]),
            (Condition.SUBHARMONIC_QUARTER, [0.0]),
            (Condition.OFFBEAT_HALF, [0.5, 2.0, 3.5]),
            (Condition.OFFBEAT_ONE_THIRD, [1 / 3, 1 + 2 / 3, 3 + 1 / 3]),
            (Condition.OFFBEAT_TWO_THIRD, [2 / 3, 1 + 4 / 3, 3 + 2 / 3]),
            (Condition.HARMONIC_DOUBLE, [0.0, 0.5, 1.0, 2.0, 3.0, 3.5, 4.0]),
            (Condition.HARMONIC_TRIPLE, [0.0, 1 / 3, 2 / 3, 1.0, 1 + 2 / 3, 1 + 4 / 3, 3.0, 3 + 1 / 3, 3 + 2 / 3, 4.0]),
        ],
    )
    def test_closed_form(self, condition, expected):
        assert np.allclose(condition_taps(self.REF, condition), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("condition", list(Condition))
    def test_empty_and_single_beat(self, condition):
        assert condition_taps([], condition).size == 0
        single = condition_taps([2.0], condition)
        assert single.tolist() == ([] if condition in OFFBEAT_CONDITIONS else [2.0])


class TestAdaptiveEpsilon:
    def test_fast_window_scales_with_interval(self):
        # mean interval 0.25 s -> 0.175 * 0.25 = 0.04375, below the cap
        assert adaptive_epsilon([0.0, 0.25, 0.5]) == pytest.approx(0.04375)

    def test_slow_window_hits_cap(self):
        # mean interval 0.5 s -> 0.0875 would exceed the cap of 0.070
        assert adaptive_epsilon([0.0, 0.5, 1.0]) == pytest.approx(0.070)

    def test_cap_boundary(self):
        # 0.175 * 0.4 = 0.070 exactly: cap and scaled value coincide
        assert adaptive_epsilon([0.0, 0.4, 0.8]) == pytest.approx(0.070)

    def test_needs_two_times(self):
        with pytest.raises(WindowTooShortError):
            adaptive_epsilon([1.0])

    @given(
        st.floats(min_value=0.05, max_value=2.0),
        st.integers(min_value=2, max_value=12),
    )
    def test_closed_form(self, period, count):
        times = period * np.arange(count)
        expected = min(0.070, 0.175 * period)
        assert adaptive_epsilon(times) == pytest.approx(expected, rel=1e-12)


class TestSubharmonicVariant:
    def test_every_second_beat(self):
        beats = constant_beats(120, 8)
        win = subharmonic_variant(beats, 0, 3, 2)
        assert np.allclose(win.times, [0.0, 1.0, 2.0])
        assert win.cover_set == frozenset({0, 2, 4})
        assert win.condition is Condition.SUBHARMONIC_HALF

    def test_none_when_step_overruns(self):
        beats = constant_beats(120, 8)
        # i + d*(L-1) = 0 + 4*2 = 8 >= 8
        assert subharmonic_variant(beats, 0, 3, 4) is None

    def test_step_one_is_identity_window(self):
        beats = BeatSequence([0.0, 0.5, 1.0])
        win = subharmonic_variant(beats, 0, 3, 1)
        assert win.condition is Condition.ONBEAT
        assert np.array_equal(win.times, beats.times)
        assert win.cover_set == frozenset({0, 1, 2})

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            subharmonic_variant(constant_beats(120, 8), 0, 2, 5)


class TestHarmonicVariant:
    def test_double_length(self):
        beats = BeatSequence([0.0, 1.0, 2.0])
        win = harmonic_variant(beats, 0, 3, 2)
        # L' = L + (h-1)(L-1) = 3 + 2 = 5
        assert len(win) == 5
        assert np.allclose(win.times, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert win.cover_set == frozenset({0, 1, 2})

    def test_uneven_intervals_interpolate_per_interval(self):
        beats = BeatSequence([0.0, 0.9, 2.1])
        win = harmonic_variant(beats, 0, 2, 3)
        assert np.allclose(win.times, [0.0, 0.3, 0.6, 0.9], atol=1e-12)
        assert win.cover_set == frozenset({0, 1})

    def test_none_when_anchors_overrun(self):
        beats = BeatSequence([0.0, 1.0])
        assert harmonic_variant(beats, 1, 2, 2) is None

    def test_epsilon_uses_subdivided_interval(self):
        beats = constant_beats(60, 4)  # 1 s intervals
        win = harmonic_variant(beats, 0, 2, 4)
        # window intervals are 0.25 s -> 0.175 * 0.25
        assert win.epsilon == pytest.approx(0.04375)

    @given(
        st.integers(min_value=2, max_value=6),
        st.sampled_from([2, 3, 4]),
    )
    def test_length_formula_and_anchor_membership(self, length, factor):
        beats = constant_beats(100, 10)
        win = harmonic_variant(beats, 1, length, factor)
        assert len(win) == length + (factor - 1) * (length - 1)
        anchors = beats.times[1 : 1 + length]
        for a in anchors:
            assert np.any(np.isclose(win.times, a, atol=1e-12))


class TestOffbeatVariant:
    def test_half_offbeat(self):
        beats = BeatSequence([0.0, 1.0, 2.0])
        win = offbeat_variant(beats, 0, 2, 0.5)
        assert np.allclose(win.times, [0.5, 1.5])
        assert win.cover_set == frozenset({0, 1})
        assert win.condition is Condition.OFFBEAT_HALF

    def test_one_third(self):
        beats = BeatSequence([0.0, 1.0, 2.0])
        win = offbeat_variant(beats, 0, 2, 1.0 / 3.0)
        assert np.allclose(win.times, [1.0 / 3.0, 4.0 / 3.0])

    def test_needs_interval_after_last_anchor(self):
        # every tap sits inside the interval after its anchor, so the
        # beat at instance + length must exist
        beats = BeatSequence([0.0, 1.0])
        assert offbeat_variant(beats, 0, 2, 0.5) is None

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            offbeat_variant(constant_beats(120, 8), 0, 2, 0.25)


class TestDispatchAndEnumeration:
    def test_variant_window_dispatches_all_conditions(self):
        beats = constant_beats(120, 12)
        for condition in Condition:
            win = variant_window(beats, 0, condition)
            assert win is not None
            assert win.condition is condition
            assert len(win.cover_set) == 2

    def test_instance_out_of_range(self):
        with pytest.raises(ValueError):
            variant_window(constant_beats(120, 4), 4, Condition.ONBEAT)

    def test_window_needs_two_times(self):
        with pytest.raises(WindowTooShortError, match="at least two times"):
            VariantWindow(Condition.ONBEAT, 0, [0.5], 0.07, frozenset({0}))

    def test_two_beats_yield_only_onbeat_and_harmonics(self):
        times = BeatSequence([0.0, 0.5]).times
        rows = {c: len(window_table(times, c, 2)[0]) for c in Condition}
        assert [c for c in Condition if rows[c]] == [
            Condition.ONBEAT,
            Condition.HARMONIC_DOUBLE,
            Condition.HARMONIC_TRIPLE,
            Condition.HARMONIC_QUADRUPLE,
        ]
        # a single window each, anchored at beat 0
        assert max(rows.values()) == 1

    def test_quarter_instances_on_nine_beats(self):
        beats = constant_beats(120, 9)
        windows, _, stride = window_table(beats.times, Condition.SUBHARMONIC_QUARTER, 2)
        # rows are anchors 0..4; anchor i covers beats i and i + 4
        assert stride == 4
        assert np.array_equal(windows, beats.times[np.arange(5)[:, None] + [0, 4]])

    def test_quarter_absent_with_longer_context(self):
        windows, eps, _ = window_table(constant_beats(120, 8).times, Condition.SUBHARMONIC_QUARTER, 3)
        assert windows.shape == (0, 3)
        assert eps.shape == (0,)

    @given(st.integers(min_value=4, max_value=12), st.integers(min_value=2, max_value=3))
    def test_matches_oracle_windows(self, count, length):
        beats = constant_beats(97, count)
        params = ToleranceParams(context=length)
        ref = beats.times.tolist()
        for name, (kind, param) in oracles.CONDITIONS.items():
            for i in range(count):
                expected = oracles.oracle_window(ref, i, length, kind, param)
                win = variant_window(beats, i, Condition.parse(name), params)
                if expected is None:
                    assert win is None
                    continue
                times, cover, eps = expected
                assert np.allclose(win.times, times, atol=1e-12)
                assert win.cover_set == frozenset(cover)
                assert win.epsilon == pytest.approx(eps, rel=1e-12)

    def test_single_window_is_its_table_row(self, rng):
        """Bit for bit, under changing tempo, at every anchor, None past the last row."""
        for _ in range(20):
            ibis = 60.0 / rng.uniform(50.0, 220.0, size=int(rng.integers(1, 24)))
            beats = BeatSequence(rng.uniform(0.0, 3.0) + np.concatenate([[0.0], np.cumsum(ibis)]))
            for length in range(2, 6):
                params = ToleranceParams(context=length)
                for condition in Condition:
                    windows, eps, stride = window_table(beats.times, condition, length, params)
                    for i in range(len(beats)):
                        win = variant_window(beats, i, condition, params)
                        if i >= len(windows):
                            assert win is None
                            continue
                        assert (win.condition, win.instance) == (condition, i)
                        assert win.times.tobytes() == windows[i].tobytes()
                        assert np.float64(win.epsilon).tobytes() == eps[i].tobytes()
                        assert win.cover_set == frozenset(range(i, i + stride * length, stride))
