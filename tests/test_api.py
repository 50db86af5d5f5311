"""The top-level namespace is exactly the union of the modules' public names."""

import importlib
from dataclasses import fields
from itertools import chain

import beatcover

MODULE_NAMES = ("core", "fileio", "matching", "metrics", "report", "synth", "trackers", "variants", "viz")
MODULES = [importlib.import_module(f"beatcover.{name}") for name in MODULE_NAMES]

# The names beatcover exported while __init__.py still listed them by
# hand; none may disappear except on purpose, as RETIRED_NAMES did.
EARLIER_NAMES = """
    AcrScores ActivationFunction BeatSequence BeatcoverError Condition
    CoverageMatrix DatasetReport DatasetStats DegenerateTempoError
    EmptySequenceError METRIC_GROUPS MissingFpsError NegativeTimeError
    NoPairsFoundError NonMonotonicError OFFBEAT_CONDITIONS ParseError SCHEMA_VERSION
    Scenario Segment StemCollisionError ToleranceParams TooFewBeatsError TrackReport
    ValueOutOfRangeError VariantWindow WindowTooShortError __version__ acr_scores
    amlt cmlt compute_means condition_taps continuity_correct
    coverage_matrix dataset_stats_from_refs dp_track evaluate_dataset evaluate_track
    f1_score gen_activation gen_estimate gen_reference global_tempo_from_reference
    l_correct_detection l_correct_fmeasure mean_track_tempo mlsr
    parse_activation_file parse_beats_file parse_report
    parse_scenario_file read_report render_coverage_svg serialize_report sppk
    stable_tempi_percentage validate_beats variant_window
    window_match window_table write_activation_file write_beats_file write_report
""".split()

# Window builders keyed by step, factor or fraction, and the one-window
# tolerance; window_table and variant_window give the same windows.
RETIRED_NAMES = ("subharmonic_variant", "harmonic_variant", "offbeat_variant", "adaptive_epsilon")


def test_no_name_is_public_in_two_modules():
    # A star import would silently let the later module shadow the earlier.
    names = list(chain.from_iterable(module.__all__ for module in MODULES))
    assert len(names) == len(set(names))


def test_every_public_name_is_the_same_object_at_top_level():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(beatcover, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_all_is_version_then_module_lists():
    assert beatcover.__all__ == ["__version__", *chain.from_iterable(m.__all__ for m in MODULES)]


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from beatcover import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(beatcover.__all__)


def test_earlier_names_are_kept():
    assert len(EARLIER_NAMES) == 64
    assert set(EARLIER_NAMES) <= set(beatcover.__all__)


def test_removed_forms_are_gone():
    # CoverageMatrix has one constructor, and a TrackReport no
    # ToleranceParams: the dataset report holds the one copy
    assert not hasattr(beatcover.CoverageMatrix, "from_rows")
    assert "params" not in [f.name for f in fields(beatcover.TrackReport)]


def test_retired_names_are_gone():
    for module in (beatcover, beatcover.variants):
        assert [name for name in RETIRED_NAMES if hasattr(module, name)] == [], module.__name__
