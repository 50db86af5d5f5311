"""Domain types shared across the toolkit.

Every quantity is expressed in seconds unless noted otherwise.  Beat
sequences, activation curves, tolerance settings, and coverage matrices
are immutable after construction, so a value checked once stays valid
wherever it is passed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "BeatcoverError",
    "NonMonotonicError",
    "NegativeTimeError",
    "EmptySequenceError",
    "TooFewBeatsError",
    "WindowTooShortError",
    "BeatSequence",
    "Condition",
    "OFFBEAT_CONDITIONS",
    "ToleranceParams",
    "ActivationFunction",
    "CoverageMatrix",
    "validate_beats",
]


class BeatcoverError(Exception):
    """Base class for all errors raised by this package."""


class NonMonotonicError(BeatcoverError):
    """A later beat time is smaller than an earlier one."""


class NegativeTimeError(BeatcoverError):
    """A beat time is negative."""


class EmptySequenceError(BeatcoverError):
    """An input that must contain at least one beat is empty."""


class TooFewBeatsError(BeatcoverError):
    """An operation needs more beats than the sequence provides."""


class WindowTooShortError(BeatcoverError):
    """A variant window has fewer than two elements."""


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype).reshape(-1)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class BeatSequence:
    """Strictly increasing event times in seconds.

    Holds either reference (annotated) or estimated beats.  A sequence
    may be empty: a tracker that finds nothing still returns a valid,
    empty ``BeatSequence``.  Use :func:`validate_beats` to build one
    from untrusted input.
    """

    times: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.times)
        if arr.size:
            if not np.all(np.isfinite(arr)):
                raise ValueError("beat times must be finite")
            if arr[0] < 0.0 or np.any(arr < 0.0):
                raise NegativeTimeError("beat times must be >= 0")
            if np.any(np.diff(arr) <= 0.0):
                raise NonMonotonicError("beat times must be strictly increasing")
        object.__setattr__(self, "times", arr)

    def __len__(self) -> int:
        return int(self.times.size)

    def __getitem__(self, index) -> float:
        return float(self.times[index])

    def __iter__(self) -> Iterator[float]:
        return iter(self.times.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, BeatSequence):
            return NotImplemented
        return np.array_equal(self.times, other.times)

    @property
    def ibis(self) -> np.ndarray:
        """Inter-beat intervals, length ``len(self) - 1``."""
        return np.diff(self.times)


def validate_beats(raw) -> BeatSequence:
    """Validate raw beat times and return a :class:`BeatSequence`.

    Exact duplicate timestamps are collapsed with a warning (annotation
    files occasionally contain them); any other ordering violation is a
    hard error because every downstream computation assumes strictly
    increasing times.

    Raises:
        EmptySequenceError: ``raw`` contains no times.
        NegativeTimeError: a time is negative.
        NonMonotonicError: a later time is smaller than an earlier one.
    """
    if isinstance(raw, BeatSequence):
        return raw
    arr = np.asarray(raw, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise EmptySequenceError("no beat times given")
    keep = np.concatenate(([True], np.diff(arr) != 0.0))
    dropped = int(arr.size - np.count_nonzero(keep))
    if dropped:
        warnings.warn(f"collapsed {dropped} duplicate beat time(s)", stacklevel=2)
        arr = arr[keep]
    return BeatSequence(arr)


class Condition(Enum):
    """The ten metric-level conditions a tracker may tap at.

    The enumeration is closed; the values are stable identifiers used in
    scenario files, JSON reports, and SVG row ids.
    """

    ONBEAT = "onbeat"
    OFFBEAT_HALF = "offbeat_half"
    OFFBEAT_ONE_THIRD = "offbeat_one_third"
    OFFBEAT_TWO_THIRD = "offbeat_two_third"
    SUBHARMONIC_HALF = "subharmonic_half"
    SUBHARMONIC_THIRD = "subharmonic_third"
    SUBHARMONIC_QUARTER = "subharmonic_quarter"
    HARMONIC_DOUBLE = "harmonic_double"
    HARMONIC_TRIPLE = "harmonic_triple"
    HARMONIC_QUADRUPLE = "harmonic_quadruple"

    @classmethod
    def parse(cls, name: str) -> "Condition":
        try:
            return cls(name)
        except ValueError:
            valid = ", ".join(c.value for c in cls)
            raise ValueError(f"unknown condition {name!r}; expected one of: {valid}") from None


OFFBEAT_CONDITIONS = (
    Condition.OFFBEAT_HALF,
    Condition.OFFBEAT_ONE_THIRD,
    Condition.OFFBEAT_TWO_THIRD,
)


@dataclass(frozen=True)
class ToleranceParams:
    """Matching tolerance settings.

    cap: absolute tolerance ceiling in seconds, finite and positive.
    gamma: tolerance as a fraction of the local mean inter-beat interval.
    context: window length in beats; a beat counts as detected only as
        part of a fully matched run of this many consecutive beats.
    """

    cap: float = 0.070
    gamma: float = 0.175
    context: int = 2

    def __post_init__(self):
        if not 0.0 < self.cap < np.inf:
            raise ValueError(f"cap must be finite and > 0, got {self.cap}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        if self.context < 2:
            raise ValueError(f"context must be >= 2, got {self.context}")


@dataclass(frozen=True, eq=False)
class ActivationFunction:
    """Uniformly sampled beat-likelihood curve.

    values are in [0, 1]; frame ``n`` corresponds to time ``n / fps``.
    """

    fps: float
    values: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.fps < np.inf:
            raise ValueError(f"fps must be finite and > 0, got {self.fps}")
        arr = _frozen_array(self.values)
        if arr.size and (np.any(arr < 0.0) or np.any(arr > 1.0) or not np.all(np.isfinite(arr))):
            raise ValueError("activation values must lie in [0, 1]")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ActivationFunction):
            return NotImplemented
        return self.fps == other.fps and np.array_equal(self.values, other.values)

    @property
    def duration(self) -> float:
        """Time of the last frame in seconds."""
        return (len(self) - 1) / self.fps if len(self) else 0.0

    def frame_times(self) -> np.ndarray:
        return np.arange(len(self)) / self.fps


@dataclass(frozen=True, eq=False)
class CoverageMatrix:
    """Per-beat Boolean coverage for each of the ten conditions.

    ``rows`` is a read-only ``(len(Condition), n_beats)`` array in
    ``Condition`` order: ``rows[i, k]`` is True when reference beat
    ``k`` belongs to some fully matched window of the ``i``-th
    condition.  The constructor copies and shape-checks it and derives,
    once and read-only, ``n_beats``, ``covered`` (condition -> row
    view), ``any_row`` (the union over all conditions) and
    ``offbeat_row`` (the union over the three offbeat conditions).

    Raises:
        ValueError: ``rows`` is not a ``(len(Condition), n)`` array.
    """

    rows: np.ndarray

    def __post_init__(self):
        rows = np.array(self.rows, dtype=bool)
        if rows.ndim != 2 or len(rows) != len(Condition):
            raise ValueError(f"coverage needs a ({len(Condition)}, n) array, got shape {rows.shape}")
        offbeat = rows[[c in OFFBEAT_CONDITIONS for c in Condition]]
        unions = np.array([rows.any(axis=0), offbeat.any(axis=0)])
        rows.flags.writeable = unions.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "n_beats", rows.shape[1])
        object.__setattr__(self, "covered", MappingProxyType(dict(zip(Condition, rows))))
        object.__setattr__(self, "any_row", unions[0])
        object.__setattr__(self, "offbeat_row", unions[1])

    @classmethod
    def from_rows(cls, covered: Mapping[Condition, Sequence]) -> "CoverageMatrix":
        """Build a matrix from per-condition rows.

        Missing conditions are filled with all-False rows.

        Raises:
            ValueError: the rows differ in length.
        """
        lengths = {len(np.asarray(row)) for row in covered.values()}
        if len(lengths) > 1:
            raise ValueError(f"coverage rows differ in length: {sorted(lengths)}")
        n = lengths.pop() if lengths else 0
        return cls([covered.get(c, np.zeros(n, dtype=bool)) for c in Condition])

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoverageMatrix):
            return NotImplemented
        return np.array_equal(self.rows, other.rows)
