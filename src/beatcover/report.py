"""Batch evaluation and the JSON report format.

Reference and estimate files pair by filename stem.  Every numeric
value is rounded to six decimal places before it enters a report, so
serializing and re-parsing a report reproduces it exactly and the
stored means equal the means recomputed (with the same rounding) from
the stored tracks.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np

from .core import BeatcoverError, BeatSequence, Condition, ToleranceParams
from .fileio import _built, parse_beats_file
from .metrics import TrackReport, _check_context, _evaluate_tracks, _r6, mean_track_tempo, stable_intervals

__all__ = [
    "SCHEMA_VERSION",
    "NoPairsFoundError",
    "StemCollisionError",
    "DatasetStats",
    "DatasetReport",
    "METRIC_GROUPS",
    "SCALAR_FIELDS",
    "check_metric_groups",
    "list_files",
    "dataset_stats_from_refs",
    "compute_means",
    "evaluate_dataset",
    "serialize_report",
    "parse_report",
    "write_report",
    "read_report",
]

SCHEMA_VERSION = 1

# Scalar TrackReport fields in report order.
SCALAR_FIELDS = tuple(f.name for f in dataclass_fields(TrackReport) if f.name not in ("track_id", "acr"))

# CLI --metrics groups and the report fields they keep.
METRIC_GROUPS = {
    "f1": ("f1", "precision", "recall"),
    "continuity": ("cmlt", "amlt"),
    "l_correct": ("l_correct_f", "l_correct_p", "l_correct_r"),
    "acr": ("acr", "acr_any", "acr_offbeat"),
    "mlsr": ("mlsr",),
}


class NoPairsFoundError(BeatcoverError):
    """No reference/estimate filename stems matched."""


class StemCollisionError(BeatcoverError):
    """Two files in one directory share a stem, so pairing is ambiguous."""


@dataclass(frozen=True)
class DatasetStats:
    """Reference-side statistics over the evaluated tracks.

    total_duration sums the annotated spans (last beat minus first) in
    seconds.  percent_stable_tempi pools every inter-beat interval of
    every track and reports the stable share on a 0..100 scale.
    mean_track_tempo is the unweighted mean of per-track tempi in BPM.
    """

    n_tracks: int
    total_duration: float
    percent_stable_tempi: float
    mean_track_tempo: float


@dataclass(frozen=True)
class DatasetReport:
    tracks: tuple[TrackReport, ...]
    means: dict[str, float]
    dataset_stats: DatasetStats
    warnings: tuple[str, ...]
    params: ToleranceParams


def dataset_stats_from_refs(refs: list[BeatSequence]) -> DatasetStats:
    """Table-style statistics from reference sequences alone.

    Every track needs at least two beats (a track without one interval
    has no tempo).
    """
    if not refs:
        raise NoPairsFoundError("no reference tracks")
    tempi = [mean_track_tempo(beats) for beats in refs]  # raises on fewer than two beats
    spans = [beats.times[-1] - beats.times[0] for beats in refs]
    # pooled over every interval of every track, not averaged per track
    stable = np.concatenate([stable_intervals(beats) for beats in refs])
    return DatasetStats(
        n_tracks=len(refs),
        total_duration=_r6(sum(spans)),
        percent_stable_tempi=_r6(100.0 * int(np.count_nonzero(stable)) / stable.size),
        mean_track_tempo=_r6(float(np.mean(tempi))),
    )


def compute_means(tracks) -> dict[str, float]:
    """Unweighted per-metric means, flat keyed, rounded to 6 decimals.

    Per-condition coverage means appear as ``acr_<condition>`` keys.
    """
    means = {}
    for name in SCALAR_FIELDS:
        means[name] = _r6(np.mean([getattr(t, name) for t in tracks]))
    for cond in Condition:
        means[f"acr_{cond.value}"] = _r6(np.mean([t.acr[cond] for t in tracks]))
    return means


def list_files(directory) -> list[Path]:
    """Regular, non-hidden files of ``directory`` in sorted order."""
    d = Path(directory)
    if not d.is_dir():
        raise NotADirectoryError(f"not a directory: {d}")
    return sorted(p for p in d.iterdir() if p.is_file() and not p.name.startswith("."))


def _by_stem(directory) -> dict[str, Path]:
    out: dict[str, Path] = {}
    for p in list_files(directory):
        if p.stem in out:
            raise StemCollisionError(f"duplicate stem {p.stem!r}: {out[p.stem].name} and {p.name}")
        out[p.stem] = p
    return out


def evaluate_dataset(ref_dir, est_dir, params: ToleranceParams = ToleranceParams()) -> DatasetReport:
    """Evaluate every stem-matched (reference, estimate) file pair.

    Tracks are read and scored in sorted stem order, so the first bad
    file or too-short reference in that order raises.  Their windows are
    matched in passes of up to 4096 reference beats (see
    :mod:`beatcover.matching`), which give each track the scores it gets
    on its own.  Unmatched files become warnings; the result is
    independent of directory listing order.

    Raises:
        NoPairsFoundError: no stem matched at all.
        StemCollisionError: a directory has two files with one stem.
        ParseError: a file does not parse, or a reference has fewer
            beats than ``params.context``; either names the file.
    """
    refs = _by_stem(ref_dir)
    ests = _by_stem(est_dir)
    stems = sorted(set(refs) & set(ests))
    if not stems:
        raise NoPairsFoundError(f"no matching stems between {ref_dir} and {est_dir}")
    warnings = tuple(
        [f"no estimate for reference {s!r}" for s in sorted(set(refs) - set(ests))]
        + [f"no reference for estimate {s!r}" for s in sorted(set(ests) - set(refs))]
    )
    ref_seqs = []

    def pairs():  # read lazily, so files are read and scored in stem order
        for stem in stems:
            ref, est = parse_beats_file(refs[stem]), parse_beats_file(ests[stem])
            _built(refs[stem], None, _check_context, ref, params)
            ref_seqs.append(ref)
            yield stem, ref, est

    tracks = _evaluate_tracks(pairs(), params)
    return DatasetReport(
        tracks=tuple(tracks),
        means=compute_means(tracks),
        dataset_stats=dataset_stats_from_refs(ref_seqs),
        warnings=warnings,
        params=params,
    )


def check_metric_groups(names) -> list[str]:
    """``names`` as a list, after checking each is a key of ``METRIC_GROUPS``.

    Raises:
        ValueError: no name at all, or an unknown group name.
    """
    names = list(names)
    if not names:
        raise ValueError(f"no metric group selected; valid: {sorted(METRIC_GROUPS)}")
    unknown = [m for m in names if m not in METRIC_GROUPS]
    if unknown:
        raise ValueError(f"unknown metric group(s) {unknown}; valid: {sorted(METRIC_GROUPS)}")
    return names


def _selected_fields(metrics) -> set[str]:
    names = METRIC_GROUPS if metrics is None else check_metric_groups(metrics)
    return {field for name in names for field in METRIC_GROUPS[name]}


def _track_to_json(track: TrackReport, fields) -> dict:
    obj: dict = {"track_id": track.track_id}
    for name in SCALAR_FIELDS:
        if name in fields:
            obj[name] = getattr(track, name)
    if "acr" in fields:
        obj["acr"] = {c.value: track.acr[c] for c in Condition}
    return obj


def serialize_report(report: DatasetReport, metrics=None) -> str:
    """Deterministic JSON text for a report.

    ``metrics`` optionally restricts the emitted metric groups (keys of
    ``METRIC_GROUPS``); only an unrestricted report parses back into a
    ``DatasetReport``.
    """
    fields = _selected_fields(metrics)
    mean_keys = [k for k in SCALAR_FIELDS if k in fields]
    if "acr" in fields:
        mean_keys += [f"acr_{c.value}" for c in Condition]
    obj = {
        "schema_version": SCHEMA_VERSION,
        "params": asdict(report.params),
        "dataset_stats": asdict(report.dataset_stats),
        "means": {k: report.means[k] for k in mean_keys},
        "tracks": [_track_to_json(t, fields) for t in report.tracks],
        "warnings": list(report.warnings),
    }
    return json.dumps(obj, indent=2) + "\n"


def parse_report(text: str) -> DatasetReport:
    """Parse a full JSON report back into a DatasetReport.

    Each track's scores are rounded to six decimals as its
    :class:`~beatcover.metrics.TrackReport` is built.  What
    :func:`serialize_report` writes is already rounded and reads back
    unchanged; a hand-written score with more decimals reads back
    rounded.  The stored means are read as written.

    Raises:
        ValueError: another schema version, or a report written with
            ``metrics`` that left out some metric group.
    """
    obj = json.loads(text)
    version = obj.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}")
    missing = [
        name for name, keys in METRIC_GROUPS.items() if not all(k in t for t in obj["tracks"] for k in keys)
    ]
    if missing:
        raise ValueError(f"report lacks metric group(s) {missing}; only a full report reads back")
    tracks = tuple(
        TrackReport(
            track_id=t["track_id"],
            acr={Condition.parse(k): v for k, v in t["acr"].items()},
            **{name: t[name] for name in SCALAR_FIELDS},
        )
        for t in obj["tracks"]
    )
    return DatasetReport(
        tracks=tracks,
        means=dict(obj["means"]),
        dataset_stats=DatasetStats(**obj["dataset_stats"]),
        warnings=tuple(obj["warnings"]),
        params=ToleranceParams(**obj["params"]),
    )


def write_report(report: DatasetReport, path, metrics=None) -> None:
    Path(path).write_text(serialize_report(report, metrics), encoding="utf-8")


def read_report(path) -> DatasetReport:
    return parse_report(Path(path).read_text(encoding="utf-8"))
