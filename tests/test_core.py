import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from beatcover import (
    ActivationFunction,
    BeatcoverError,
    BeatSequence,
    Condition,
    CoverageMatrix,
    EmptySequenceError,
    NegativeTimeError,
    NonMonotonicError,
    OFFBEAT_CONDITIONS,
    ToleranceParams,
    validate_beats,
)


class TestValidateBeats:
    def test_accepts_strictly_increasing(self):
        beats = validate_beats([0.5, 1.0, 1.5])
        assert isinstance(beats, BeatSequence)
        assert np.array_equal(beats.times, [0.5, 1.0, 1.5])

    def test_collapses_exact_duplicates_with_warning(self):
        with pytest.warns(UserWarning, match="duplicate"):
            beats = validate_beats([1.0, 1.0, 2.0])
        assert np.array_equal(beats.times, [1.0, 2.0])

    def test_rejects_decreasing(self):
        with pytest.raises(NonMonotonicError):
            validate_beats([2.0, 1.0])

    def test_rejects_negative(self):
        with pytest.raises(NegativeTimeError):
            validate_beats([-0.1, 1.0])

    def test_rejects_empty(self):
        with pytest.raises(EmptySequenceError):
            validate_beats([])

    def test_a_beat_sequence_is_read_as_its_times(self):
        beats = validate_beats([0.0, 1.0])
        assert validate_beats(beats) == beats

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
            min_size=2,
            max_size=40,
            unique=True,
        )
    )
    def test_sorted_unique_always_accepted(self, raw):
        raw.sort()
        beats = validate_beats(raw)
        assert len(beats) == len(raw)
        assert np.all(np.diff(beats.times) > 0)


    def test_two_equal_infinities_are_not_a_duplicate(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="beat times must be finite"):
                validate_beats([0.5, np.inf, np.inf])

    def test_a_duplicate_warns_before_a_later_error(self):
        with pytest.warns(UserWarning, match="collapsed 1 duplicate"):
            with pytest.raises(ValueError, match="beat times must be finite"):
                validate_beats([1.0, 1.0, np.nan])

    @given(
        st.lists(
            st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, -1.0, np.inf, -np.inf, np.nan]),
            min_size=1,
            max_size=8,
        )
    )
    def test_rules_warning_and_error_order_match_the_oracle(self, raw):
        times, dropped, error = oracles.oracle_validate_beats(raw)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                beats = validate_beats(raw)
            except (ValueError, BeatcoverError) as exc:
                assert (type(exc).__name__, str(exc)) == error
            else:
                assert error is None
                assert beats.times.tobytes() == np.array(times, dtype=np.float64).tobytes()
        expected = [f"collapsed {dropped} duplicate beat time(s)"] if dropped else []
        assert [str(w.message) for w in caught] == expected


class TestBeatSequence:
    def test_times_are_read_only(self):
        beats = BeatSequence([0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            beats.times[0] = 5.0

    def test_container_protocol(self):
        beats = BeatSequence([0.0, 0.5, 1.0])
        assert len(beats) == 3
        assert beats[1] == 0.5
        assert list(beats) == [0.0, 0.5, 1.0]

    def test_ibis(self):
        beats = BeatSequence([0.0, 0.4, 1.0])
        assert np.allclose(beats.ibis, [0.4, 0.6])

    def test_equality_is_by_value(self):
        assert BeatSequence([0.0, 1.0]) == BeatSequence(np.array([0.0, 1.0]))
        assert BeatSequence([0.0, 1.0]) != BeatSequence([0.0, 1.5])

    def test_empty_is_valid(self):
        assert len(BeatSequence([])) == 0
        assert BeatSequence(np.zeros(0)).ibis.size == 0

    @pytest.mark.parametrize("times", [[-0.5], [-1e-300], [1.0, -2.0]])
    def test_negative_time_rejected(self, times):
        with pytest.raises(NegativeTimeError):
            BeatSequence(times)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_single_non_finite_time_rejected(self, value):
        with pytest.raises(ValueError, match="beat times must be finite"):
            BeatSequence([value])


class TestCondition:
    def test_parse_round_trips_every_member(self):
        for condition in Condition:
            assert Condition.parse(condition.value) is condition

    def test_parse_rejects_unknown_name(self):
        with pytest.raises(ValueError):
            Condition.parse("dotted_eighth")

    def test_ten_conditions(self):
        assert len(list(Condition)) == 10


class TestToleranceParams:
    def test_defaults(self):
        params = ToleranceParams()
        assert params.cap == 0.070
        assert params.gamma == 0.175
        assert params.context == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cap": 0.0},
            {"cap": -0.1},
            {"gamma": 0.0},
            {"gamma": 1.0},
            {"context": 1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ToleranceParams(**kwargs)

    @pytest.mark.parametrize("context", [2.5, 3.0, float("nan"), "3"])
    def test_rejects_non_integer_context(self, context):
        with pytest.raises(ValueError, match="context must be an integer"):
            ToleranceParams(context=context)

    def test_numpy_integer_context_becomes_int(self):
        params = ToleranceParams(context=np.int64(3))
        assert params.context == 3 and type(params.context) is int

    def test_numpy_float_cap_and_gamma_become_float(self):
        params = ToleranceParams(cap=np.float32(0.05), gamma=np.float64(0.2))
        assert type(params.cap) is float and type(params.gamma) is float
        assert params.cap == float(np.float32(0.05)) and params.gamma == 0.2

    @pytest.mark.parametrize("cap", [np.float32(0.0), np.float64("inf"), np.float32("nan")])
    def test_bad_numpy_cap_keeps_message(self, cap):
        with pytest.raises(ValueError, match=f"cap must be finite and > 0, got {cap}"):
            ToleranceParams(cap=cap)


class TestActivationFunction:
    def test_duration_and_frame_times(self):
        # duration is the time of the last frame, (n - 1) / fps
        act = ActivationFunction(fps=10.0, values=[0.0, 0.5, 1.0, 0.5])
        assert act.duration == pytest.approx(0.3)
        assert np.allclose(act.frame_times(), [0.0, 0.1, 0.2, 0.3])

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError):
            ActivationFunction(fps=10.0, values=[0.0, 1.2])
        with pytest.raises(ValueError):
            ActivationFunction(fps=10.0, values=[-0.01, 0.5])

    def test_rejects_nonpositive_fps(self):
        with pytest.raises(ValueError):
            ActivationFunction(fps=0.0, values=[0.0, 0.5])

    @pytest.mark.parametrize("fps", [float("inf"), float("nan")])
    def test_rejects_non_finite_fps(self, fps):
        with pytest.raises(ValueError, match="fps must be finite and > 0"):
            ActivationFunction(fps=fps, values=[0.5, 0.5])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_values(self, value):
        with pytest.raises(ValueError, match="activation values must lie in"):
            ActivationFunction(fps=10.0, values=[0.5, value])

    def test_rejects_an_fps_that_puts_the_last_frame_at_infinity(self):
        # (2 - 1) / 1e-320 overflows; 1e-300 still gives a finite time
        with pytest.raises(ValueError, match="fps 1e-320 puts the last of 2 frames at an infinite time"):
            ActivationFunction(fps=1e-320, values=[0.5, 0.5])
        assert ActivationFunction(fps=1e-300, values=[0.5, 0.5]).duration == 1.0 / 1e-300
        # a curve of at most one frame has its last frame at 0 s
        for values in ([], [0.5]):
            assert ActivationFunction(fps=1e-320, values=values).duration == 0.0

    def test_empty_curve_is_valid(self):
        assert len(ActivationFunction(fps=10.0, values=[])) == 0

    @pytest.mark.parametrize("fps", [np.float64(100.0), np.float32(44100 / 512), np.int64(50)])
    def test_numpy_fps_becomes_float(self, fps):
        act = ActivationFunction(fps=fps, values=[0.5])
        assert type(act.fps) is float and act.fps == fps


class TestCoverageMatrix:
    def test_rows_derive_unions(self):
        rows = np.zeros((len(Condition), 3), dtype=bool)
        rows[list(Condition).index(Condition.ONBEAT)] = [True, False, False]
        rows[list(Condition).index(Condition.OFFBEAT_HALF)] = [False, True, False]
        cm = CoverageMatrix(rows)
        assert cm.n_beats == 3
        assert np.array_equal(cm.any_row, [True, True, False])
        assert np.array_equal(cm.offbeat_row, [False, True, False])
        # the other conditions keep their all-False rows
        assert not cm.covered[Condition.HARMONIC_TRIPLE].any()

    def test_rejects_ragged_rows_and_a_wrong_row_count(self):
        ragged = [np.zeros(2, dtype=bool)] + [np.zeros(3, dtype=bool)] * (len(Condition) - 1)
        with pytest.raises(ValueError):
            CoverageMatrix(ragged)
        for count in (len(Condition) - 1, len(Condition) + 1):
            with pytest.raises(ValueError, match="coverage needs a"):
                CoverageMatrix([np.zeros(3, dtype=bool)] * count)

    @pytest.mark.parametrize(
        "shape", [(3,), (len(Condition) - 1, 3), (len(Condition), 3, 1), ()]
    )
    def test_rejects_wrong_shape(self, shape):
        with pytest.raises(ValueError, match="coverage needs a"):
            CoverageMatrix(np.zeros(shape, dtype=bool))

    def test_rows_are_copied_and_read_only(self):
        rows = np.zeros((len(Condition), 4), dtype=bool)
        cm = CoverageMatrix(rows)
        rows[0, 0] = True
        assert not cm.rows.any()
        for arr in (cm.rows, cm.any_row, cm.offbeat_row, *cm.covered.values()):
            with pytest.raises(ValueError):
                arr[0] = True
        with pytest.raises(TypeError):
            cm.covered[Condition.ONBEAT] = np.ones(4, dtype=bool)
        with pytest.raises(AttributeError):
            cm.any_row = np.ones(4, dtype=bool)

    def test_equality_is_by_value(self):
        rows = np.zeros((len(Condition), 3), dtype=bool)
        assert CoverageMatrix(rows) == CoverageMatrix(rows.copy())
        assert CoverageMatrix(rows) != CoverageMatrix(rows[:, :2])
        rows[4, 1] = True
        assert CoverageMatrix(rows) != CoverageMatrix(np.zeros_like(rows))

    @given(
        st.integers(min_value=0, max_value=40).flatmap(
            lambda n: st.lists(
                st.lists(st.booleans(), min_size=n, max_size=n),
                min_size=len(Condition),
                max_size=len(Condition),
            )
        )
    )
    def test_views_and_unions_follow_rows(self, raw):
        rows = np.array(raw, dtype=bool)
        cm = CoverageMatrix(rows)
        assert cm.n_beats == rows.shape[1]
        assert np.array_equal(cm.rows, rows)
        for i, c in enumerate(Condition):
            assert np.array_equal(cm.covered[c], rows[i])
        offbeat = [i for i, c in enumerate(Condition) if c in OFFBEAT_CONDITIONS]
        assert np.array_equal(cm.any_row, rows.any(axis=0))
        assert np.array_equal(cm.offbeat_row, rows[offbeat].any(axis=0))
        assert CoverageMatrix(list(cm.covered.values())) == cm


@pytest.mark.parametrize(
    "value",
    [
        BeatSequence([0.5]),
        ActivationFunction(fps=10.0, values=[0.5]),
        CoverageMatrix(np.ones((len(Condition), 1), dtype=bool)),
    ],
    ids=["beats", "activation", "coverage"],
)
def test_equality_with_another_type_is_false(value):
    assert value != [0.5]
    assert not value == "0.5"
