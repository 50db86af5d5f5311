import itertools
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from beatcover import (
    METRIC_GROUPS,
    BeatSequence,
    Condition,
    NoPairsFoundError,
    Scenario,
    Segment,
    StemCollisionError,
    ToleranceParams,
    check_metric_groups,
    compute_means,
    dataset_stats_from_refs,
    evaluate_dataset,
    evaluate_track,
    gen_estimate,
    gen_reference,
    parse_report,
    read_report,
    serialize_report,
    write_beats_file,
    write_report,
)
from beatcover.fileio import parse_beats_file
from beatcover.metrics import _BLOCK_ROWS
from beatcover.variants import condition_taps
from conftest import constant_beats


def make_dataset(tmp_path, n_tracks=4):
    """Small on-disk dataset with one scripted level per track."""
    ref_dir = tmp_path / "ref"
    est_dir = tmp_path / "est"
    ref_dir.mkdir()
    est_dir.mkdir()
    conditions = [
        Condition.ONBEAT,
        Condition.HARMONIC_DOUBLE,
        Condition.SUBHARMONIC_HALF,
        Condition.OFFBEAT_HALF,
    ]
    for k in range(n_tracks):
        bpm = 100 + 10 * k
        duration = 10.0 + k
        ref = gen_reference(bpm, duration)
        sc = Scenario(bpm, duration, (Segment(0, conditions[k % len(conditions)]),))
        est = gen_estimate(ref, sc)
        write_beats_file(ref, ref_dir / f"track{k}.beats")
        write_beats_file(est, est_dir / f"track{k}.beats")
    return ref_dir, est_dir


class TestEvaluateDataset:
    def test_pairs_by_stem_and_sorts(self, tmp_path):
        ref_dir, est_dir = make_dataset(tmp_path)
        report = evaluate_dataset(ref_dir, est_dir)
        assert [t.track_id for t in report.tracks] == ["track0", "track1", "track2", "track3"]
        assert report.dataset_stats.n_tracks == 4
        assert report.warnings == ()

    def test_unmatched_files_become_warnings(self, tmp_path):
        ref_dir, est_dir = make_dataset(tmp_path, n_tracks=2)
        write_beats_file(constant_beats(120, 8), ref_dir / "lonely.beats")
        write_beats_file(constant_beats(120, 8), est_dir / "spurious.beats")
        report = evaluate_dataset(ref_dir, est_dir)
        assert len(report.tracks) == 2
        assert any("lonely" in w for w in report.warnings)
        assert any("spurious" in w for w in report.warnings)

    def test_no_overlap_raises(self, tmp_path):
        ref_dir = tmp_path / "ref"
        est_dir = tmp_path / "est"
        ref_dir.mkdir()
        est_dir.mkdir()
        write_beats_file(constant_beats(120, 8), ref_dir / "a.beats")
        write_beats_file(constant_beats(120, 8), est_dir / "b.beats")
        with pytest.raises(NoPairsFoundError):
            evaluate_dataset(ref_dir, est_dir)

    def test_stem_collision_raises(self, tmp_path):
        ref_dir, est_dir = make_dataset(tmp_path, n_tracks=1)
        (ref_dir / "track0.txt").write_text("0.5\n1.0\n")
        with pytest.raises(StemCollisionError):
            evaluate_dataset(ref_dir, est_dir)

    def test_missing_directory(self, tmp_path):
        ref_dir, _ = make_dataset(tmp_path, n_tracks=1)
        with pytest.raises(NotADirectoryError):
            evaluate_dataset(ref_dir, tmp_path / "nowhere")

    def test_hidden_files_ignored(self, tmp_path):
        ref_dir, est_dir = make_dataset(tmp_path, n_tracks=2)
        (ref_dir / ".DS_Store").write_text("junk")
        report = evaluate_dataset(ref_dir, est_dir)
        assert len(report.tracks) == 2


class TestPasses:
    """Tracks are matched in passes; each track keeps its own scores."""

    def test_tracks_score_as_they_do_alone(self, tmp_path, rng):
        ref_dir, est_dir = tmp_path / "ref", tmp_path / "est"
        ref_dir.mkdir()
        est_dir.mkdir()
        # about 6800 reference beats in all, so the windows take two
        # passes; one track alone has more beats than one pass holds
        durations = [2.0, 30.0, 1.0, 700.0, 45.0, 2400.0, 12.0, 60.0, 1.5]
        for k, duration in enumerate(durations):
            ref = gen_reference(float(rng.uniform(70.0, 160.0)), duration)
            segments = (Segment(0, list(Condition)[k % len(Condition)], 0.005),)
            est = gen_estimate(ref, Scenario(float(rng.uniform(70.0, 160.0)), duration, segments), seed=k)
            write_beats_file(ref, ref_dir / f"t{k}.beats")
            write_beats_file(est if k != 2 else BeatSequence([]), est_dir / f"t{k}.beats")
        report = evaluate_dataset(ref_dir, est_dir, ToleranceParams(context=2))
        refs = [parse_beats_file(ref_dir / f"t{k}.beats") for k in range(len(durations))]
        assert sum(map(len, refs)) > _BLOCK_ROWS and max(map(len, refs)) > _BLOCK_ROWS
        for k, track in enumerate(report.tracks):
            est = parse_beats_file(est_dir / f"t{k}.beats")
            assert track == evaluate_track(f"t{k}", refs[k], est, ToleranceParams(context=2))
        assert any(t.acr_any > 0.5 for t in report.tracks)

    def test_pass_memory_does_not_grow_with_the_dataset(self, tmp_path):
        # a pass holds at most _BLOCK_ROWS reference beats, so four times
        # the tracks add only their reports to the peak
        def peak(n_tracks):
            root = tmp_path / str(n_tracks)
            for side in ("ref", "est"):
                (root / side).mkdir(parents=True)
            for k in range(n_tracks):
                ref = constant_beats(100 + k % 50, 40, start=0.01 * k)
                write_beats_file(ref, root / "ref" / f"t{k:03d}.beats")
                write_beats_file(BeatSequence(ref.times[::2]), root / "est" / f"t{k:03d}.beats")
            tracemalloc.start()
            try:
                evaluate_dataset(root / "ref", root / "est")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(96), peak(384)
        assert 96 * 40 <= _BLOCK_ROWS < 384 * 40
        assert large - small < 1.5 * 2**20, (small, large)


def oracle_dataset(rng, n_tracks, length, spans):
    """``(stem, ref, est)`` per track, each sequence as lines of six-decimal text.

    References hold 2 to 40 beats, a fifth of them exactly ``length``.
    With ``spans`` they hold about 4300 beats in all, so that they take
    more than one pass; then only one track in eight, and none over 100
    beats, gets a whole estimate, and the others an empty one or a
    fragment of a few beats, which keeps the quadratic oracles cheap.
    An estimate is empty, a
    condition's taps with 5 or 20 ms of jitter, those taps rounded to
    10 ms, a fragment of them, or random times.
    """
    conditions = list(Condition)
    tracks = []
    for k in range(n_tracks):
        if spans:
            n = max(length, int(rng.integers(4300 // n_tracks, 4300 // n_tracks + 8)))
        else:
            n = length if rng.random() < 0.2 else int(rng.integers(max(length, 2), 41))
        start = (0.0, rng.uniform(0.0, 0.1), rng.uniform(0.0, 3.0))[k % 3]
        ibis = rng.uniform(0.3, 0.9) * rng.uniform(0.85, 1.15, n - 1)
        ref = start + np.concatenate([[0.0], np.cumsum(ibis)])
        whole = not spans or (n <= 100 and rng.random() < 0.125)
        kind = int(rng.integers(0, 5)) if whole else int(rng.choice([0, 3]))
        taps = condition_taps(ref, conditions[int(rng.integers(len(conditions)))])
        est = taps + rng.normal(0.0, rng.choice([0.005, 0.02]), len(taps))
        if kind == 0:
            est = est[:0]
        elif kind == 2:
            est = np.round(est, 2)
        elif kind == 3:
            first = int(rng.integers(0, len(est)))
            est = est[first : first + int(rng.integers(1, 8))]
        elif kind == 4:
            est = rng.uniform(0.0, ref[-1] + 1.0, size=int(rng.integers(1, 2 * n)))
        lines = [list(dict.fromkeys(f"{t:.6f}" for t in np.sort(x[x >= 0.0]))) for x in (ref, est)]
        tracks.append((f"t{k:02d}", *lines))
    return tracks


class TestOracleReport:
    """The whole report against one composed from ``tests/oracles.py``."""

    @settings(max_examples=max(1, settings.default.max_examples // 6))
    @given(
        n_tracks=st.integers(1, 60),
        length=st.integers(2, 5),
        cap=st.sampled_from([0.070, 0.025]),
        gamma=st.sampled_from([0.175, 0.6]),
        spans=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_report_matches_the_oracle_report(self, n_tracks, length, cap, gamma, spans, seed):
        tracks = oracle_dataset(np.random.default_rng(seed), n_tracks, length, spans)
        with tempfile.TemporaryDirectory() as root:
            for side, k in (("ref", 1), ("est", 2)):
                (Path(root) / side).mkdir()
                for track in tracks:
                    (Path(root) / side / f"{track[0]}.beats").write_text("".join(f"{t}\n" for t in track[k]))
            params = ToleranceParams(cap=cap, gamma=gamma, context=length)
            text = serialize_report(evaluate_dataset(Path(root) / "ref", Path(root) / "est", params))
        parsed = [(stem, list(map(float, ref)), list(map(float, est))) for stem, ref, est in tracks]
        if spans:
            assert sum(len(ref) for _, ref, _ in parsed) > _BLOCK_ROWS
        assert text == oracles.oracle_report_text(parsed, length, cap, gamma)


def test_stats_need_a_reference():
    with pytest.raises(NoPairsFoundError, match="no reference tracks"):
        dataset_stats_from_refs([])


class TestMeansAndStats:
    def test_means_are_means_of_rounded_track_values(self, tmp_path):
        ref_dir, est_dir = make_dataset(tmp_path)
        report = evaluate_dataset(ref_dir, est_dir)
        for name in ("f1", "cmlt", "amlt", "acr_any", "mlsr"):
            expected = round(float(np.mean([getattr(t, name) for t in report.tracks])), 6)
            assert report.means[name] == expected
        for cond in Condition:
            expected = round(float(np.mean([t.acr[cond] for t in report.tracks])), 6)
            assert report.means[f"acr_{cond.value}"] == expected

    def test_dataset_stats_values(self):
        refs = [constant_beats(120, 9), constant_beats(60, 5)]
        stats = dataset_stats_from_refs(refs)
        assert stats.n_tracks == 2
        assert stats.total_duration == pytest.approx(4.0 + 4.0)
        assert stats.percent_stable_tempi == 100.0
        assert stats.mean_track_tempo == pytest.approx(90.0)

    def test_unstable_intervals_pool_across_tracks(self):
        wobble = np.cumsum([0.0] + [0.5, 0.6] * 8)  # every interval unstable
        stats = dataset_stats_from_refs([constant_beats(120, 17), BeatSequence(wobble)])
        assert stats.percent_stable_tempi == pytest.approx(100.0 * 16 / 32)


# every non-empty subset of the metric groups, in their order; the full set is last
SUBSETS = [c for n in range(1, len(METRIC_GROUPS) + 1) for c in itertools.combinations(METRIC_GROUPS, n)]


@pytest.fixture(scope="module")
def full_report(tmp_path_factory):
    ref_dir, est_dir = make_dataset(tmp_path_factory.mktemp("dataset"), n_tracks=2)
    report = evaluate_dataset(ref_dir, est_dir)
    return report, serialize_report(report)


class TestSerialization:
    def test_round_trip_is_exact(self, tmp_path):
        ref_dir, est_dir = make_dataset(tmp_path)
        report = evaluate_dataset(ref_dir, est_dir, params=ToleranceParams(context=3))
        text = serialize_report(report)
        back = parse_report(text)
        assert back == report
        assert serialize_report(back) == text

    def test_a_hand_written_score_reads_back_rounded(self, tmp_path):
        ref_dir, est_dir = make_dataset(tmp_path, n_tracks=1)
        obj = json.loads(serialize_report(evaluate_dataset(ref_dir, est_dir)))
        obj["tracks"][0]["f1"] = 0.1234567
        obj["tracks"][0]["acr"]["onbeat"] = 0.9999996
        (track,) = parse_report(json.dumps(obj)).tracks
        assert (track.f1, track.acr[Condition.ONBEAT]) == (0.123457, 1.0)

    def test_write_read_files(self, tmp_path):
        ref_dir, est_dir = make_dataset(tmp_path, n_tracks=2)
        report = evaluate_dataset(ref_dir, est_dir)
        out = tmp_path / "report.json"
        write_report(report, out)
        assert read_report(out) == report

    def test_schema_version_checked(self):
        with pytest.raises(ValueError, match="schema_version"):
            parse_report(json.dumps({"schema_version": 99}))

    def test_metric_filter_limits_output(self, tmp_path):
        ref_dir, est_dir = make_dataset(tmp_path, n_tracks=2)
        report = evaluate_dataset(ref_dir, est_dir)
        obj = json.loads(serialize_report(report, metrics=["f1", "mlsr"]))
        track = obj["tracks"][0]
        assert set(track) == {"track_id", "f1", "precision", "recall", "mlsr"}
        assert set(obj["means"]) == {"f1", "precision", "recall", "mlsr"}
        assert "acr" not in track

    @pytest.mark.parametrize("groups", SUBSETS, ids=",".join)
    def test_a_restricted_report_is_the_full_report_less_the_other_groups(self, full_report, groups):
        report, text = full_report
        expected = json.loads(text)
        dropped = [f for name in METRIC_GROUPS if name not in groups for f in METRIC_GROUPS[name]]
        if "acr" in dropped:
            dropped += [f"acr_{c.value}" for c in Condition]
        for obj in (expected["means"], *expected["tracks"]):
            for key in dropped:
                obj.pop(key, None)
        # the order of the selection does not matter
        for metrics in (groups, groups[::-1]):
            assert serialize_report(report, metrics=metrics) == json.dumps(expected, indent=2) + "\n"

    @pytest.mark.parametrize("groups", SUBSETS[:-1], ids=",".join)
    def test_a_restricted_report_does_not_read_back(self, full_report, tmp_path, groups):
        report, text = full_report
        path = tmp_path / "report.json"
        write_report(report, path, metrics=groups)
        missing = [name for name in METRIC_GROUPS if name not in groups]
        with pytest.raises(ValueError, match="only a full report reads back") as err:
            read_report(path)
        assert str(missing) in str(err.value)
        assert parse_report(text) == report

    @pytest.mark.parametrize("metrics", [[], ()])
    def test_empty_metric_selection_rejected(self, tmp_path, metrics):
        ref_dir, est_dir = make_dataset(tmp_path, n_tracks=1)
        report = evaluate_dataset(ref_dir, est_dir)
        with pytest.raises(ValueError, match="no metric group selected"):
            serialize_report(report, metrics=metrics)
        with pytest.raises(ValueError, match="no metric group selected"):
            check_metric_groups(iter(metrics))

    def test_numpy_gamma_serializes(self, tmp_path):
        ref_dir, est_dir = make_dataset(tmp_path, n_tracks=2)
        params = ToleranceParams(cap=np.float64(0.06), gamma=np.float32(0.2))
        report = evaluate_dataset(ref_dir, est_dir, params=params)
        obj = json.loads(serialize_report(report))
        assert obj["params"] == {"cap": 0.06, "gamma": float(np.float32(0.2)), "context": 2}
        back = parse_report(serialize_report(report))
        assert back == report
        assert serialize_report(back) == serialize_report(report)

    def test_unknown_metric_group_rejected(self, tmp_path):
        ref_dir, est_dir = make_dataset(tmp_path, n_tracks=1)
        report = evaluate_dataset(ref_dir, est_dir)
        with pytest.raises(ValueError, match="tempo"):
            serialize_report(report, metrics=["tempo"])

    def test_serialized_values_survive_json_exactly(self, tmp_path):
        ref_dir, est_dir = make_dataset(tmp_path)
        report = evaluate_dataset(ref_dir, est_dir)
        obj = json.loads(serialize_report(report))
        for track, parsed in zip(report.tracks, obj["tracks"]):
            assert parsed["f1"] == track.f1
            assert parsed["acr"]["harmonic_double"] == track.acr[Condition.HARMONIC_DOUBLE]
