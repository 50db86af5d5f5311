import numpy as np
import pytest

from beatcover import (
    ActivationFunction,
    Condition,
    MissingFpsError,
    ParseError,
    Segment,
    ValueOutOfRangeError,
    gen_activation,
    gen_reference,
    parse_activation_file,
    parse_beats_file,
    parse_scenario_file,
    write_activation_file,
    write_beats_file,
)


class TestBeatsFiles:
    def test_round_trip(self, tmp_path):
        beats = gen_reference(117, 9.0)
        path = tmp_path / "ref.beats"
        write_beats_file(beats, path)
        back = parse_beats_file(path)
        assert np.allclose(back.times, beats.times, atol=1e-6)

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "a.beats"
        path.write_text("0.50 1\n1.00 2\n1.50 3\n")
        assert parse_beats_file(path).times.tolist() == [0.5, 1.0, 1.5]

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "a.beats"
        path.write_text("# header\n\n0.5\n1.0  # trailing note\n\n")
        assert parse_beats_file(path).times.tolist() == [0.5, 1.0]

    def test_garbage_line_reports_position(self, tmp_path):
        path = tmp_path / "a.beats"
        path.write_text("0.5\noops\n1.5\n")
        with pytest.raises(ParseError) as err:
            parse_beats_file(path)
        assert err.value.lineno == 2
        assert str(path) in str(err.value)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "a.beats"
        path.write_text("0.5\nnan\n")
        with pytest.raises(ParseError):
            parse_beats_file(path)

    def test_empty_file_rejected(self, tmp_path):
        # a tracker that found nothing: an empty, valid sequence
        path = tmp_path / "a.beats"
        path.write_text("# nothing here\n")
        assert len(parse_beats_file(path)) == 0

    @pytest.mark.parametrize(
        "body, reason",
        [("0.5\n1.5\n1.0\n", "beat times must be strictly increasing"), ("-0.5\n1.0\n", "beat times must be >= 0")],
        ids=["decreasing", "negative"],
    )
    def test_bad_sequence_is_a_parse_error_that_names_the_file(self, tmp_path, body, reason):
        path = tmp_path / "a.beats"
        path.write_text(body)
        with pytest.raises(ParseError) as err:
            parse_beats_file(path)
        assert str(err.value) == f"{path}: {reason}"
        assert err.value.lineno is None

    def test_a_collapsed_duplicate_warns_with_the_path_at_the_caller(self, tmp_path):
        path = tmp_path / "a.beats"
        path.write_text("0.5\n1.0\n1.0\n1.5\n")
        with pytest.warns(UserWarning) as caught:
            beats = parse_beats_file(path)
        assert beats.times.tolist() == [0.5, 1.0, 1.5]
        assert [str(w.message) for w in caught] == [f"{path}: collapsed 1 duplicate beat time(s)"]
        assert caught[0].filename == __file__


class TestActivationFiles:
    def test_round_trip(self, tmp_path):
        act = gen_activation(gen_reference(120, 3.0), fps=50.0)
        path = tmp_path / "a.act"
        write_activation_file(act, path)
        back = parse_activation_file(path)
        assert back.fps == act.fps
        assert np.allclose(back.values, act.values, atol=1e-6)
        assert len(back) == len(act)

    def test_missing_fps_header(self, tmp_path):
        path = tmp_path / "a.act"
        path.write_text("0.5\n0.6\n")
        with pytest.raises(MissingFpsError):
            parse_activation_file(path)

    def test_comment_only_file_lacks_fps_header(self, tmp_path):
        path = tmp_path / "a.act"
        path.write_text("# no header, no frames\n\n")
        with pytest.raises(MissingFpsError, match="missing 'fps=<rate>' header"):
            parse_activation_file(path)

    @pytest.mark.parametrize("header", ["fps\t= 100", "fps =100", " fps = 100 "])
    def test_whitespace_around_the_header_key_is_allowed(self, tmp_path, header):
        path = tmp_path / "a.act"
        path.write_text(f"{header}\n0.5\n")
        assert parse_activation_file(path).fps == 100.0

    @pytest.mark.parametrize("header", ["f p s = 100", "fps", "fps: 100"])
    def test_a_header_key_other_than_fps_is_missing_fps(self, tmp_path, header):
        path = tmp_path / "a.act"
        path.write_text(f"{header}\n0.5\n")
        with pytest.raises(MissingFpsError, match="first line must be 'fps=<rate>'") as err:
            parse_activation_file(path)
        assert err.value.lineno == 1

    def test_value_out_of_range(self, tmp_path):
        path = tmp_path / "a.act"
        path.write_text("fps=100\n0.5\n1.5\n")
        with pytest.raises(ValueOutOfRangeError) as err:
            parse_activation_file(path)
        assert err.value.lineno == 3

    def test_bad_fps_value(self, tmp_path):
        path = tmp_path / "a.act"
        path.write_text("fps=-10\n0.5\n")
        with pytest.raises(ParseError):
            parse_activation_file(path)

    def test_fps_that_puts_the_last_frame_at_infinity(self, tmp_path):
        path = tmp_path / "a.act"
        path.write_text("fps=1e-320\n0.5\n0.5\n")
        with pytest.raises(ParseError) as err:
            parse_activation_file(path)
        assert str(err.value) == f"{path}: fps 1e-320 puts the last of 2 frames at an infinite time"
        assert err.value.lineno is None

    def test_empty_curve_is_valid(self, tmp_path):
        path = tmp_path / "a.act"
        path.write_text("fps=100\n")
        act = parse_activation_file(path)
        assert len(act) == 0

    @pytest.mark.parametrize("fps", [np.float64(100.0), np.float32(44100 / 512)])
    def test_numpy_fps_round_trip(self, tmp_path, fps):
        act = ActivationFunction(fps=fps, values=[0.25, 0.75])
        path = tmp_path / "a.act"
        write_activation_file(act, path)
        assert path.read_text().splitlines()[0] == f"fps={float(fps)!r}"
        back = parse_activation_file(path)
        assert back.fps == act.fps == fps
        assert back == act

    def test_header_survives_round_trip_exactly(self, tmp_path):
        act = ActivationFunction(fps=44100.0 / 441.0, values=[0.25, 0.75])
        path = tmp_path / "a.act"
        write_activation_file(act, path)
        assert parse_activation_file(path).fps == act.fps


class TestScenarioFiles:
    def test_full_scenario(self, tmp_path):
        path = tmp_path / "s.scenario"
        path.write_text(
            "# double, then quadruple with jitter\n"
            "duration = 16.0\n"
            "tempo = 0:120, 8:150\n"
            "segment = 0 harmonic_double\n"
            "segment = 16 harmonic_quadruple 0.002\n"
        )
        sc = parse_scenario_file(path)
        assert sc.duration == 16.0
        assert sc.tempo_curve == ((0.0, 120.0), (8.0, 150.0))
        assert sc.segments == (
            Segment(0, Condition.HARMONIC_DOUBLE),
            Segment(16, Condition.HARMONIC_QUADRUPLE, jitter_std=0.002),
        )

    def test_bare_tempo_scalar(self, tmp_path):
        path = tmp_path / "s.scenario"
        path.write_text("duration = 4\ntempo = 97.5\nsegment = 0 onbeat\n")
        assert parse_scenario_file(path).tempo_curve == ((0.0, 97.5),)

    @pytest.mark.parametrize(
        "body,missing",
        [
            ("tempo = 120\nsegment = 0 onbeat\n", "duration"),
            ("duration = 4\nsegment = 0 onbeat\n", "tempo"),
            ("duration = 4\ntempo = 120\n", "segment"),
        ],
    )
    def test_missing_required_key(self, tmp_path, body, missing):
        path = tmp_path / "s.scenario"
        path.write_text(body)
        with pytest.raises(ParseError, match=missing):
            parse_scenario_file(path)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "s.scenario"
        path.write_text("duration = 4\ntempo = 120\nswing = 0.3\nsegment = 0 onbeat\n")
        with pytest.raises(ParseError, match="swing"):
            parse_scenario_file(path)

    def test_unknown_condition_reports_line(self, tmp_path):
        path = tmp_path / "s.scenario"
        path.write_text("duration = 4\ntempo = 120\nsegment = 0 dotted_eighth\n")
        with pytest.raises(ParseError) as err:
            parse_scenario_file(path)
        assert err.value.lineno == 3

    def test_bad_knot_syntax(self, tmp_path):
        path = tmp_path / "s.scenario"
        path.write_text("duration = 4\ntempo = 0:120, 8\nsegment = 0 onbeat\n")
        with pytest.raises(ParseError):
            parse_scenario_file(path)

    @pytest.mark.parametrize("segment", ["0", "0 onbeat 0.01 extra"], ids=["one_field", "four_fields"])
    def test_segment_field_count(self, tmp_path, segment):
        path = tmp_path / "s.scenario"
        path.write_text(f"duration = 4\ntempo = 120\nsegment = {segment}\n")
        with pytest.raises(ParseError, match="segment needs") as err:
            parse_scenario_file(path)
        assert err.value.lineno == 3

    def test_line_without_equals_sign(self, tmp_path):
        path = tmp_path / "s.scenario"
        path.write_text("duration = 4\ntempo 120\nsegment = 0 onbeat\n")
        with pytest.raises(ParseError, match="expected 'key = value'") as err:
            parse_scenario_file(path)
        assert err.value.lineno == 2

    def test_semantic_errors_become_parse_errors(self, tmp_path):
        # validation inside Scenario (first segment must start at 0)
        path = tmp_path / "s.scenario"
        path.write_text("duration = 4\ntempo = 120\nsegment = 3 onbeat\n")
        with pytest.raises(ParseError):
            parse_scenario_file(path)


# field -> (parser, file text with {x} where the number goes, line of the number)
NUMERIC_FIELDS = {
    "beat time": (parse_beats_file, "0.5\n{x}\n", 2),
    "fps": (parse_activation_file, "fps={x}\n0.5\n", 1),
    "activation value": (parse_activation_file, "fps=100\n0.5\n{x}\n", 3),
    "duration": (parse_scenario_file, "duration = {x}\ntempo = 120\nsegment = 0 onbeat\n", 1),
    "tempo": (parse_scenario_file, "duration = 4\ntempo = {x}\nsegment = 0 onbeat\n", 2),
    "tempo knot time": (
        parse_scenario_file,
        "duration = 4\ntempo = 0:120, {x}:130\nsegment = 0 onbeat\n",
        2,
    ),
    "tempo knot BPM": (
        parse_scenario_file,
        "duration = 4\ntempo = 0:120, 2:{x}\nsegment = 0 onbeat\n",
        2,
    ),
    "segment start": (parse_scenario_file, "duration = 4\ntempo = 120\nsegment = {x} onbeat\n", 3),
    "jitter_std": (parse_scenario_file, "duration = 4\ntempo = 120\nsegment = 0 onbeat {x}\n", 3),
}


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", list(NUMERIC_FIELDS))
def test_non_finite_number_is_a_parse_error_at_its_line(tmp_path, field, text):
    parse, body, lineno = NUMERIC_FIELDS[field]
    path = tmp_path / "input.txt"
    path.write_text(body.format(x=text))
    with pytest.raises(ParseError) as err:
        parse(path)
    assert type(err.value) is ParseError
    assert err.value.lineno == lineno
    assert str(err.value).startswith(f"{path}:{lineno}: {field} ")
