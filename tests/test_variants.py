import itertools

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
    condition_taps,
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


def onbeat_epsilon(times):
    """Tolerance of the one onbeat window over all of ``times``."""
    return window_table(times, Condition.ONBEAT, ToleranceParams(context=np.size(times)))[1][0]


def window(beats, condition, length, instance=0):
    return variant_window(beats, instance, condition, ToleranceParams(context=length))


class TestAdaptiveEpsilon:
    def test_fast_window_scales_with_interval(self):
        # mean interval 0.25 s -> 0.175 * 0.25 = 0.04375, below the cap
        assert onbeat_epsilon([0.0, 0.25, 0.5]) == pytest.approx(0.04375)

    def test_slow_window_hits_cap(self):
        # mean interval 0.5 s -> 0.0875 would exceed the cap of 0.070
        assert onbeat_epsilon([0.0, 0.5, 1.0]) == pytest.approx(0.070)

    def test_cap_boundary(self):
        # 0.175 * 0.4 = 0.070 exactly: cap and scaled value coincide
        assert onbeat_epsilon([0.0, 0.4, 0.8]) == pytest.approx(0.070)

    def test_needs_two_times(self):
        with pytest.raises(ValueError, match="context must be >= 2"):
            onbeat_epsilon([1.0])

    @given(
        st.floats(min_value=0.05, max_value=2.0),
        st.integers(min_value=2, max_value=12),
    )
    def test_closed_form(self, period, count):
        times = period * np.arange(count)
        expected = min(0.070, 0.175 * period)
        assert onbeat_epsilon(times) == pytest.approx(expected, rel=1e-12)


    def test_every_tolerance_is_the_oracles(self, rng):
        # bit for bit at every condition and L from 2 to 12, under a cap
        # that no row reaches: from 8 gaps on, numpy's mean would sum a
        # row pairwise, where the oracle sums it in order
        params = [ToleranceParams(cap=1.0, context=length) for length in range(2, 13)]
        for _ in range(8):
            ibis = 60.0 / rng.uniform(50.0, 220.0, size=30)
            beats = BeatSequence(rng.uniform(0.0, 3.0) + np.concatenate([[0.0], np.cumsum(ibis)]))
            ref = beats.times.tolist()
            for p, (name, (kind, param)) in itertools.product(params, oracles.CONDITIONS.items()):
                windows, eps, _ = window_table(beats.times, Condition.parse(name), p)
                assert not (len(windows) and windows.flags.writeable)
                expected = [oracles.oracle_window(ref, i, p.context, kind, param, p.cap)[2] for i in range(len(eps))]
                assert eps.tobytes() == np.array(expected).tobytes(), (p.context, name)


class TestWindowLength:
    def test_rows_take_their_length_from_context(self):
        times = constant_beats(120, 8).times
        for length in range(2, 9):
            windows, eps, stride = window_table(times, Condition.ONBEAT, ToleranceParams(context=length))
            assert windows.shape == (9 - length, length) and eps.shape == (9 - length,) and stride == 1
            assert np.array_equal(windows, times[np.arange(9 - length)[:, None] + np.arange(length)])

    def test_length_beyond_the_sequence_builds_nothing(self):
        # a row of 10**15 taps would need petabytes, and numpy cannot even
        # shape an empty array of 3e18 or 1e20 columns; no row fits, so
        # none is built and the columns stop at the taps
        beats = constant_beats(120, 8)
        for length in (10**15, 3 * 10**18, 10**20):
            params = ToleranceParams(context=length)
            for condition in Condition:
                windows, eps, _ = window_table(beats.times, condition, params)
                assert len(windows) == 0 and len(eps) == 0
                assert windows.shape[1] < 4 * len(beats)  # at most the quadruple's taps + 1
                assert variant_window(beats, 0, condition, params) is None

    def test_numpy_integer_length_accepted(self):
        times = constant_beats(120, 8).times
        for condition in Condition:
            windows, eps, stride = window_table(times, condition, ToleranceParams(context=np.int64(3)))
            expected = window_table(times, condition, ToleranceParams(context=3))
            assert windows.tobytes() == expected[0].tobytes()
            assert eps.tobytes() == expected[1].tobytes()
            assert stride == expected[2]


class TestSubharmonicVariant:
    def test_every_second_beat(self):
        beats = constant_beats(120, 8)
        win = window(beats, Condition.SUBHARMONIC_HALF, 3)
        assert np.allclose(win.times, [0.0, 1.0, 2.0])
        assert win.cover_set == frozenset({0, 2, 4})
        assert win.condition is Condition.SUBHARMONIC_HALF

    def test_none_when_step_overruns(self):
        beats = constant_beats(120, 8)
        # i + d*(L-1) = 0 + 4*2 = 8 >= 8
        assert window(beats, Condition.SUBHARMONIC_QUARTER, 3) is None

    def test_step_one_is_identity_window(self):
        beats = BeatSequence([0.0, 0.5, 1.0])
        win = window(beats, Condition.ONBEAT, 3)
        assert win.condition is Condition.ONBEAT
        assert np.array_equal(win.times, beats.times)
        assert win.cover_set == frozenset({0, 1, 2})


class TestHarmonicVariant:
    def test_double_length(self):
        beats = BeatSequence([0.0, 1.0, 2.0])
        win = window(beats, Condition.HARMONIC_DOUBLE, 3)
        # L' = L + (h-1)(L-1) = 3 + 2 = 5
        assert len(win) == 5
        assert np.allclose(win.times, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert win.cover_set == frozenset({0, 1, 2})

    def test_uneven_intervals_interpolate_per_interval(self):
        beats = BeatSequence([0.0, 0.9, 2.1])
        win = window(beats, Condition.HARMONIC_TRIPLE, 2)
        assert np.allclose(win.times, [0.0, 0.3, 0.6, 0.9], atol=1e-12)
        assert win.cover_set == frozenset({0, 1})

    def test_none_when_anchors_overrun(self):
        beats = BeatSequence([0.0, 1.0])
        assert window(beats, Condition.HARMONIC_DOUBLE, 2, instance=1) is None

    def test_epsilon_uses_subdivided_interval(self):
        beats = constant_beats(60, 4)  # 1 s intervals
        win = window(beats, Condition.HARMONIC_QUADRUPLE, 2)
        # window intervals are 0.25 s -> 0.175 * 0.25
        assert win.epsilon == pytest.approx(0.04375)

    @given(
        st.integers(min_value=2, max_value=6),
        st.sampled_from(
            [(Condition.HARMONIC_DOUBLE, 2), (Condition.HARMONIC_TRIPLE, 3), (Condition.HARMONIC_QUADRUPLE, 4)]
        ),
    )
    def test_length_formula_and_anchor_membership(self, length, harmonic):
        condition, factor = harmonic
        beats = constant_beats(100, 10)
        win = window(beats, condition, length, instance=1)
        assert len(win) == length + (factor - 1) * (length - 1)
        anchors = beats.times[1 : 1 + length]
        for a in anchors:
            assert np.any(np.isclose(win.times, a, atol=1e-12))


class TestOffbeatVariant:
    def test_half_offbeat(self):
        beats = BeatSequence([0.0, 1.0, 2.0])
        win = window(beats, Condition.OFFBEAT_HALF, 2)
        assert np.allclose(win.times, [0.5, 1.5])
        assert win.cover_set == frozenset({0, 1})
        assert win.condition is Condition.OFFBEAT_HALF

    def test_one_third(self):
        beats = BeatSequence([0.0, 1.0, 2.0])
        win = window(beats, Condition.OFFBEAT_ONE_THIRD, 2)
        assert np.allclose(win.times, [1.0 / 3.0, 4.0 / 3.0])

    def test_needs_interval_after_last_anchor(self):
        # every tap sits inside the interval after its anchor, so the
        # beat at instance + length must exist
        beats = BeatSequence([0.0, 1.0])
        assert window(beats, Condition.OFFBEAT_HALF, 2) is None


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

    @pytest.mark.parametrize("instance", [1.0, 1.5])
    def test_non_integer_instance_rejected(self, instance):
        with pytest.raises(ValueError, match="instance must be an integer"):
            variant_window(constant_beats(120, 8), instance, Condition.ONBEAT)

    def test_numpy_integer_instance_becomes_int(self):
        beats = constant_beats(120, 8)
        window = variant_window(beats, np.int64(1), Condition.ONBEAT)
        assert window.instance == 1 and type(window.instance) is int
        assert window.times.tobytes() == variant_window(beats, 1, Condition.ONBEAT).times.tobytes()

    def test_window_needs_two_times(self):
        with pytest.raises(WindowTooShortError, match="at least two times"):
            VariantWindow(Condition.ONBEAT, 0, [0.5], 0.07, frozenset({0}))

    def test_two_beats_yield_only_onbeat_and_harmonics(self):
        times = BeatSequence([0.0, 0.5]).times
        rows = {c: len(window_table(times, c)[0]) for c in Condition}
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
        windows, _, stride = window_table(beats.times, Condition.SUBHARMONIC_QUARTER)
        # rows are anchors 0..4; anchor i covers beats i and i + 4
        assert stride == 4
        assert np.array_equal(windows, beats.times[np.arange(5)[:, None] + [0, 4]])

    def test_quarter_absent_with_longer_context(self):
        windows, eps, _ = window_table(
            constant_beats(120, 8).times, Condition.SUBHARMONIC_QUARTER, ToleranceParams(context=3)
        )
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
                    windows, eps, stride = window_table(beats.times, condition, params)
                    for i in range(len(beats)):
                        win = variant_window(beats, i, condition, params)
                        if i >= len(windows):
                            assert win is None
                            continue
                        assert (win.condition, win.instance) == (condition, i)
                        assert win.times.tobytes() == windows[i].tobytes()
                        assert np.float64(win.epsilon).tobytes() == eps[i].tobytes()
                        assert win.cover_set == frozenset(range(i, i + stride * length, stride))
