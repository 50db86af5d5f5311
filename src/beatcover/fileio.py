"""Text file formats: beat lists, activation curves, scenario scripts.

All three formats are line oriented UTF-8, read without a leading
byte-order mark; blank lines and lines whose first non-space character
is ``#`` are ignored, and a trailing ``# comment`` is allowed on any
line.  Writers emit six decimal places, which is far below the matching
tolerances in use.
"""

from __future__ import annotations

import math
import sys
import warnings
from pathlib import Path

import numpy as np

from .core import ActivationFunction, BeatcoverError, BeatSequence, Condition, validate_beats
from .synth import Scenario, Segment

__all__ = [
    "ParseError",
    "MissingFpsError",
    "ValueOutOfRangeError",
    "parse_beats_file",
    "write_beats_file",
    "parse_activation_file",
    "write_activation_file",
    "parse_scenario_file",
]


class ParseError(BeatcoverError):
    """A line in an input file could not be interpreted."""

    def __init__(self, path, lineno: int | None, message: str):
        where = f"{path}:{lineno}" if lineno is not None else str(path)
        super().__init__(f"{where}: {message}")
        self.path = path
        self.lineno = lineno


class MissingFpsError(ParseError):
    """An activation file does not start with an ``fps=`` header."""


class ValueOutOfRangeError(ParseError):
    """An activation value lies outside [0, 1]."""


def _read(path) -> str:
    """The text of ``path``; a leading UTF-8 byte-order mark is dropped."""
    return Path(path).read_text(encoding="utf-8-sig")


def _content_lines(text: str):
    """Yield (lineno, text) for lines that carry content."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _plain_numbers(text: str):
    """The numbers of ``text``, or None unless it is the plain case.

    Plain text has no ``#``, no whitespace but line breaks, and one
    finite number per non-blank line.  Then ``text.split()`` gives
    exactly the content lines, and ``float`` reads each as ``_number``
    would, so the caller's per-line loop would give the same values.
    Anything else is left to that loop, which reports each error with
    its line.
    """
    if "#" in text:
        return None
    fields = text.split()
    # the characters outside the fields are all whitespace, so this
    # holds exactly when each of them is a line feed or carriage return
    if sum(map(len, fields)) + text.count("\n") + text.count("\r") != len(text):
        return None
    try:
        values = np.fromiter(map(float, fields), np.float64, len(fields))
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _number(path, lineno: int, text: str, what: str, convert=float):
    """``text`` as a finite number, or a ParseError at ``path:lineno``.

    Every numeric field of every format is read here, so that none of
    them lets ``nan`` or ``inf`` through to code that cannot use it.
    """
    try:
        value = convert(text)
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        raise ParseError(path, lineno, f"{what} is not {kind}: {text!r}") from None
    if not math.isfinite(value):
        raise ParseError(path, lineno, f"{what} must be finite, got {text!r}")
    return value


def _built(path, lineno: int | None, build, *args, **kwargs):
    """``build(*args, **kwargs)``, or a ParseError at ``path[:lineno]``.

    Every value built from file content is built here, so that the
    ValueError or BeatcoverError of its own checks names the file, and
    so does each warning it raises, such as a collapsed duplicate beat
    time: the warning is issued again, with the path before its message,
    at the first line outside this module (the line that called the
    parser, or that called ``_built`` itself).
    """
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = build(*args, **kwargs)
    except (ValueError, BeatcoverError) as exc:
        raise ParseError(path, lineno, str(exc)) from None
    frame, stacklevel = sys._getframe(1), 2
    while frame.f_globals["__name__"] == __name__:
        frame, stacklevel = frame.f_back, stacklevel + 1
    for w in caught:
        warnings.warn(f"{path}: {w.message}", w.category, stacklevel=stacklevel)
    return value


def parse_beats_file(path) -> BeatSequence:
    """Read one beat time per line; extra columns are ignored.

    Annotation files often carry a beat-in-bar label in a second
    column; only the first field counts.  The parsed times go through
    :func:`beatcover.core.validate_beats`, so exact duplicates are
    collapsed with a warning, and a negative or decreasing time is a
    ParseError that names the file.  A file with no beat times (a
    tracker that found nothing) gives an empty sequence; callers that
    need beats, such as reference scoring, reject it themselves.
    """
    text = _read(path)
    times = _plain_numbers(text)
    if times is None:
        times = [
            _number(path, lineno, line.split()[0], "beat time") for lineno, line in _content_lines(text)
        ]
    if len(times) == 0:
        return BeatSequence(np.empty(0))
    return _built(path, None, validate_beats, times)


def write_beats_file(beats: BeatSequence, path) -> None:
    lines = [f"{t:.6f}" for t in beats.times]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _fps(path, lineno: int, line: str) -> float:
    """The rate of an ``fps=<rate>`` header line."""
    key, sep, field = line.partition("=")
    if key.strip() != "fps" or not sep:
        raise MissingFpsError(path, lineno, "first line must be 'fps=<rate>'")
    field = field.strip()
    fps = _number(path, lineno, field, "fps")
    if not fps > 0:
        raise ParseError(path, lineno, f"fps must be a positive real, got {field}")
    return fps


def parse_activation_file(path) -> ActivationFunction:
    """Read an activation curve: ``fps=<rate>`` header, one value per line.

    Raises:
        MissingFpsError: the first content line is not an fps header.
        ValueOutOfRangeError: a value lies outside [0, 1].
        ParseError: the fps or a value is not a finite number, or the
            fps is so small that the last frame's time is infinite.
    """
    text = _read(path)
    first, _, body = text.partition("\n")
    header = first.strip()
    # one array pass when line 1, as the per-line loop splits it, is the
    # whole header with no comment, and the lines after it are plain
    if header and "#" not in first and len(first.splitlines()) == 1:
        values = _plain_numbers(body)
        if values is not None and ((values >= 0.0) & (values <= 1.0)).all():
            fps = _fps(path, 1, header)
            return _built(path, None, ActivationFunction, fps=fps, values=values)
    fps = None
    values = []
    for lineno, line in _content_lines(text):
        if fps is None:
            fps = _fps(path, lineno, line)
            continue
        value = _number(path, lineno, line.split()[0], "activation value")
        if not 0.0 <= value <= 1.0:
            raise ValueOutOfRangeError(path, lineno, f"value {value} outside [0, 1]")
        values.append(value)
    if fps is None:
        raise MissingFpsError(path, None, "missing 'fps=<rate>' header")
    return _built(path, None, ActivationFunction, fps=fps, values=np.asarray(values))


def write_activation_file(act: ActivationFunction, path) -> None:
    lines = [f"fps={act.fps!r}"]
    lines.extend(f"{v:.6f}" for v in act.values)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_tempo(path, lineno: int, text: str):
    """A bare BPM, or comma-separated ``time:bpm`` knots."""
    if ":" not in text:
        return _number(path, lineno, text, "tempo")
    points = []
    for chunk in text.split(","):
        knot = chunk.strip()
        if knot.count(":") != 1:
            raise ParseError(path, lineno, f"bad tempo knot {knot!r}, expected time:bpm")
        t, bpm = knot.split(":")
        points.append(
            (_number(path, lineno, t, "tempo knot time"), _number(path, lineno, bpm, "tempo knot BPM"))
        )
    return points


def _parse_segment(path, lineno: int, text: str) -> Segment:
    fields = text.split()
    if len(fields) not in (2, 3):
        raise ParseError(path, lineno, "segment needs '<start> <condition> [jitter_std]'")
    start = _number(path, lineno, fields[0], "segment start", int)
    jitter = _number(path, lineno, fields[2], "jitter_std") if len(fields) == 3 else 0.0
    condition = _built(path, lineno, Condition.parse, fields[1])
    return _built(path, lineno, Segment, start=start, condition=condition, jitter_std=jitter)


def parse_scenario_file(path) -> Scenario:
    """Read a scenario script.

    Recognized keys, one ``key = value`` pair per line::

        duration = 16.0
        tempo = 120            # or time:bpm knots: 0:120, 8:150
        segment = 0 onbeat     # start index, condition, optional jitter std
        segment = 16 harmonic_double 0.002

    ``segment`` repeats; everything else appears once.
    """
    once: dict = {}  # duration and tempo
    segments: list[Segment] = []
    for lineno, line in _content_lines(_read(path)):
        if "=" not in line:
            raise ParseError(path, lineno, f"expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "segment":
            segments.append(_parse_segment(path, lineno, value))
        elif key in once:
            raise ParseError(path, lineno, f"repeated key {key!r}; only 'segment' may repeat")
        elif key == "duration":
            once[key] = _number(path, lineno, value, "duration")
        elif key == "tempo":
            once[key] = _parse_tempo(path, lineno, value)
        else:
            raise ParseError(path, lineno, f"unknown key {key!r}")
    for key in ("duration", "tempo"):
        if key not in once:
            raise ParseError(path, None, f"missing required key {key!r}")
    if not segments:
        raise ParseError(path, None, "missing required key 'segment'")
    return _built(path, None, Scenario, once["tempo"], once["duration"], tuple(segments))
