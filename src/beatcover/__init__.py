"""Coverage-based evaluation of beat trackers.

Classic beat-tracking scores either demand the annotated metric level
(continuity metrics) or allow one alternative level for a whole piece.
This package measures, beat by beat, which of ten metric-level
conditions an estimate satisfies, aggregates that into coverage ratios
and a level-switch ratio, and ships the surrounding tooling: baseline
metrics, two post-processing trackers, a scenario synthesizer, JSON
batch reports, and SVG rendering.
"""

from .core import (
    ActivationFunction,
    BeatcoverError,
    BeatSequence,
    Condition,
    CoverageMatrix,
    EmptySequenceError,
    NegativeTimeError,
    NonMonotonicError,
    OFFBEAT_CONDITIONS,
    TooFewBeatsError,
    ToleranceParams,
    WindowTooShortError,
    validate_beats,
)
from .fileio import (
    MissingFpsError,
    ParseError,
    ValueOutOfRangeError,
    parse_activation_file,
    parse_beats_file,
    parse_scenario_file,
    write_activation_file,
    write_beats_file,
)
from .matching import coverage_matrix, l_correct_detection, window_match
from .metrics import (
    AcrScores,
    TrackReport,
    acr_scores,
    amlt,
    cmlt,
    continuity_correct,
    evaluate_track,
    f1_score,
    l_correct_fmeasure,
    mean_track_tempo,
    mlsr,
    stable_tempi_percentage,
)
from .report import (
    METRIC_GROUPS,
    SCHEMA_VERSION,
    DatasetReport,
    DatasetStats,
    NoPairsFoundError,
    StemCollisionError,
    compute_means,
    dataset_stats_from_refs,
    evaluate_dataset,
    parse_report,
    read_report,
    serialize_report,
    write_report,
)
from .synth import Scenario, Segment, gen_activation, gen_estimate, gen_reference
from .trackers import DegenerateTempoError, dp_track, global_tempo_from_reference, sppk
from .variants import (
    VariantWindow,
    adaptive_epsilon,
    condition_taps,
    harmonic_variant,
    offbeat_variant,
    subharmonic_variant,
    variant_window,
    window_table,
)
from .viz import render_coverage_svg

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ActivationFunction",
    "AcrScores",
    "BeatcoverError",
    "BeatSequence",
    "Condition",
    "CoverageMatrix",
    "DatasetReport",
    "DatasetStats",
    "DegenerateTempoError",
    "EmptySequenceError",
    "METRIC_GROUPS",
    "MissingFpsError",
    "NegativeTimeError",
    "NoPairsFoundError",
    "NonMonotonicError",
    "OFFBEAT_CONDITIONS",
    "ParseError",
    "SCHEMA_VERSION",
    "Scenario",
    "Segment",
    "StemCollisionError",
    "TooFewBeatsError",
    "ToleranceParams",
    "TrackReport",
    "ValueOutOfRangeError",
    "VariantWindow",
    "WindowTooShortError",
    "acr_scores",
    "adaptive_epsilon",
    "amlt",
    "cmlt",
    "compute_means",
    "condition_taps",
    "continuity_correct",
    "coverage_matrix",
    "dataset_stats_from_refs",
    "dp_track",
    "evaluate_dataset",
    "evaluate_track",
    "f1_score",
    "gen_activation",
    "gen_estimate",
    "gen_reference",
    "global_tempo_from_reference",
    "harmonic_variant",
    "l_correct_detection",
    "l_correct_fmeasure",
    "mean_track_tempo",
    "mlsr",
    "offbeat_variant",
    "parse_activation_file",
    "parse_beats_file",
    "parse_report",
    "parse_scenario_file",
    "read_report",
    "render_coverage_svg",
    "serialize_report",
    "sppk",
    "stable_tempi_percentage",
    "subharmonic_variant",
    "validate_beats",
    "variant_window",
    "window_match",
    "window_table",
    "write_activation_file",
    "write_beats_file",
    "write_report",
]
