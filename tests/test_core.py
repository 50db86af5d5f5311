import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from beatcover import (
    ActivationFunction,
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

    def test_beat_sequence_passes_through_unchanged(self):
        beats = validate_beats([0.0, 1.0])
        assert validate_beats(beats) is beats

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


class TestCoverageMatrix:
    def test_from_rows_derives_unions(self):
        rows = {
            Condition.ONBEAT: np.array([True, False, False]),
            Condition.OFFBEAT_HALF: np.array([False, True, False]),
        }
        cm = CoverageMatrix.from_rows(rows)
        assert cm.n_beats == 3
        assert np.array_equal(cm.any_row, [True, True, False])
        assert np.array_equal(cm.offbeat_row, [False, True, False])
        # unspecified conditions are filled with all-False rows
        assert not cm.covered[Condition.HARMONIC_TRIPLE].any()

    def test_from_rows_rejects_mismatched_lengths(self):
        rows = {
            Condition.ONBEAT: np.array([True, False]),
            Condition.OFFBEAT_HALF: np.array([False, True, False]),
        }
        with pytest.raises(ValueError):
            CoverageMatrix.from_rows(rows)

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
        assert CoverageMatrix.from_rows(cm.covered) == cm
