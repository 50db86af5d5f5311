import math
import warnings

import numpy as np
import pytest
from hypothesis import event, given
from hypothesis import strategies as st

import oracles
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
from beatcover.fileio import _plain_numbers, _read


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


    def test_a_leading_byte_order_mark_is_ignored(self, tmp_path):
        path = tmp_path / "a.beats"
        path.write_bytes("\ufeff0.5\n1.0\n".encode("utf-8"))
        assert parse_beats_file(path).times.tolist() == [0.5, 1.0]

    def test_a_byte_order_mark_inside_the_file_is_not_a_number(self, tmp_path):
        path = tmp_path / "a.beats"
        path.write_bytes("0.5\n\ufeff1.0\n".encode("utf-8"))
        with pytest.raises(ParseError) as err:
            parse_beats_file(path)
        assert str(err.value) == f"{path}:2: beat time is not a number: '\\ufeff1.0'"


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

    def test_a_leading_byte_order_mark_is_ignored(self, tmp_path):
        path = tmp_path / "a.act"
        path.write_bytes("\ufefffps=100\n0.5\n".encode("utf-8"))
        assert parse_activation_file(path) == ActivationFunction(fps=100.0, values=[0.5])

    @pytest.mark.parametrize(
        "body",
        [
            "fps=100\r\n0.25\r\n0.75\r\n",
            "# tracker output\nfps=100\n0.25\n0.75\n",
            "\nfps = 100\n\n0.25 1\n0.75  # peak\n",
            "fps=100\x0b0.25\n0.75",
            " fps=100\n\t0.25\n0.75\xa0\n",
        ],
        ids=["crlf", "comment_first", "blank_first", "vertical_tab", "padded"],
    )
    def test_every_layout_reads_the_same_curve(self, tmp_path, body):
        path = tmp_path / "a.act"
        path.write_text(body, newline="")
        assert parse_activation_file(path) == ActivationFunction(fps=100.0, values=[0.25, 0.75])

    @pytest.mark.parametrize(
        "body, error, lineno",
        [
            ("fps=100\n0.5\n1.5\n", ValueOutOfRangeError, 3),
            ("fps=100\n0.5\n-0.0001\n", ValueOutOfRangeError, 3),
            ("fps=100\n0.5\nnan\n", ParseError, 3),
            ("fps=100\n0.5\n1e999\n", ParseError, 3),
            ("fps=100\n0.5\n1_0\n", ValueOutOfRangeError, 3),
            ("fps=100\n\n0.5 x\n0.5x\n", ParseError, 4),
            ("0.5\nfps=100\n", MissingFpsError, 1),
            ("fps=0\n0.5\n", ParseError, 1),
            ("fps=100\x850.5\n2\n", ValueOutOfRangeError, 3),
        ],
    )
    def test_errors_keep_their_type_and_line(self, tmp_path, body, error, lineno):
        path = tmp_path / "a.act"
        path.write_text(body)
        with pytest.raises(ParseError) as err:
            parse_activation_file(path)
        assert type(err.value) is error
        assert err.value.lineno == lineno


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

    @pytest.mark.parametrize(
        "body,key,lineno",
        [
            ("duration = 8\nduration = 9\ntempo = 120\nsegment = 0 onbeat\n", "duration", 2),
            ("duration = 8\ntempo = 120\nsegment = 0 onbeat\ntempo = 90\n", "tempo", 4),
        ],
        ids=["duration", "tempo"],
    )
    def test_repeated_key_is_an_error_at_its_line(self, tmp_path, body, key, lineno):
        path = tmp_path / "s.scenario"
        path.write_text(body)
        with pytest.raises(ParseError, match=f"repeated key '{key}'") as err:
            parse_scenario_file(path)
        assert err.value.lineno == lineno

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


# ---------------------------------------------------------------------------
# beat files against the oracle: a file of one finite number per line with
# no comment and no whitespace but line breaks is read in one array pass
# (``_plain_numbers``); any other file goes through the per-line loop.  Both
# must give what README's rule, read line by line, gives.

NUMBER_FORMATS = ("{:.6f}", "{!r}", "{:.3e}", "{:g}")
# spliced in among the numbers: not a number, not finite, or out of order
ODD_TOKENS = ("nan", "inf", "-inf", "1e999", "1_0", "abc", "-0.5", "0.0", "\ufeff1.0")
# lines that hold no beat time
ODD_LINES = ("", "   ", "\t", "\xa0", "\x1f", "# header", "  # note")
# whitespace that separates fields but does not end a line
SEPARATORS = (" ", "\t", "\x1f", "\xa0", "\u2003")
# whitespace that ends a line; \r\n is one line end
LINE_ENDS = ("\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028")


@st.composite
def beat_file_texts(draw):
    """Increasing numbers, one per line, with rarer cases spliced in."""
    times = sorted(draw(st.lists(st.floats(min_value=0.0, max_value=600.0), max_size=12)))
    fmt = draw(st.sampled_from(NUMBER_FORMATS))
    lines = [fmt.format(t) for t in times]
    end = draw(st.sampled_from(("\n", "\r\n")))
    ends = [end] * len(lines)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        at = draw(st.integers(min_value=0, max_value=len(lines)))
        kind = draw(st.sampled_from(("duplicate", "token", "line", "column", "comment", "pad", "end")))
        if kind in ("duplicate", "token", "line"):
            if kind == "duplicate":
                new = lines[at - 1] if at else "1.0"
            else:
                new = draw(st.sampled_from(ODD_TOKENS if kind == "token" else ODD_LINES))
            lines.insert(at, new)
            ends.insert(at, end)
        elif at < len(lines):
            if kind == "column":
                lines[at] += draw(st.sampled_from(SEPARATORS)) + "1"
            elif kind == "comment":
                lines[at] += "  # beat"
            elif kind == "pad":
                lines[at] = draw(st.sampled_from(SEPARATORS)) + lines[at] + draw(st.sampled_from(SEPARATORS))
            else:
                ends[at] = draw(st.sampled_from(LINE_ENDS))
    if lines and not draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + e for line, e in zip(lines, ends))


def _finite_number(field: str) -> bool:
    try:
        return math.isfinite(float(field))
    except ValueError:
        return False


def _is_plain(text: str) -> bool:
    """The fast path's rule, read from the oracle's fields."""
    return (
        "#" not in text
        and all(c in "\r\n" for c in text if c.isspace())
        and all(_finite_number(f) for _, f in oracles.oracle_beat_fields(text))
    )


def _outcome(path):
    """(time bytes, or a ParseError's text and line; warning messages)
    of ``parse_beats_file(path)``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = parse_beats_file(path).times.tobytes()
        except ParseError as exc:
            assert type(exc) is ParseError
            out = (str(exc), exc.lineno)
    return out, [str(w.message) for w in caught]


def _expected(path, text):
    """:func:`_outcome` of a file holding ``text``, by the oracle."""
    times, dropped, error = oracles.oracle_beats_file(text)
    if error is not None:
        message, lineno = error
        where = f"{path}:{lineno}" if lineno is not None else str(path)
        return (f"{where}: {message}", lineno), []
    warned = [f"{path}: collapsed {dropped} duplicate beat time(s)"] if dropped else []
    return np.array(times, dtype=np.float64).tobytes(), warned


@pytest.fixture(scope="module")
def beat_path(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle") / "a.beats"


@given(beat_file_texts())
def test_beat_files_parse_as_the_oracle_reads_them(beat_path, text):
    beat_path.write_bytes(text.encode("utf-8"))
    read = _read(beat_path)
    fast = _plain_numbers(read)
    plain = _is_plain(read)
    event("one array pass" if plain else "per-line loop")
    assert (fast is not None) == plain
    if plain:
        expected = [float(f) for _, f in oracles.oracle_beat_fields(read)]
        assert fast.tobytes() == np.array(expected, dtype=np.float64).tobytes()
    assert _outcome(beat_path) == _expected(beat_path, text)


@pytest.mark.parametrize(
    "text",
    ["", "\n\n", "0.5", "0.5\n1.0\n", "0.5\r\n1.0\r\n", "0.5\r1.0\r", "\n0.5\n\n1.0\n\n", "1e2\n0.5\n", "0.5\n0.5\n", "1_0\n"],
)
def test_plain_text_is_read_in_one_array_pass(tmp_path, text):
    assert _plain_numbers(text) is not None
    path = tmp_path / "a.beats"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(path) == _expected(path, text)


@pytest.mark.parametrize(
    "text",
    [
        "# header\n0.5\n",
        "0.5 1\n1.0 2\n",
        "0.5\x0b1.0\n",
        "0.5\x0c1.0\n",
        "0.5\x1c1.0\n",
        "0.5\x1f1\n",
        "0.5\x85\n1.0\n",
        "0.5\xa0\n1.0\n",
        "0.5\u2003\n",
        " 0.5\n",
        "\n \n0.5\n",
        "0.5\nnan\n",
        "0.5\n1e999\n",
        "0.5\nabc\n",
        "0.5\n\ufeff1.0\n",
    ],
)
def test_other_text_goes_through_the_per_line_loop(tmp_path, text):
    assert _plain_numbers(text) is None
    path = tmp_path / "a.beats"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(path) == _expected(path, text)
