import argparse
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from beatcover import (
    gen_activation,
    gen_reference,
    parse_beats_file,
    write_activation_file,
    write_beats_file,
)
from beatcover import cli
from beatcover.cli import main

SCENARIO = (
    "duration = 12.0\n"
    "tempo = 120\n"
    "segment = 0 onbeat\n"
    "segment = 12 harmonic_double\n"
)


def run_cli(argv):
    """main() returns an exit code; argparse usage failures raise SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def write_scenario(tmp_path, text=SCENARIO):
    path = tmp_path / "case.scenario"
    path.write_text(text)
    return path


def run_synth(tmp_path, out_act=False):
    tmp_path.mkdir(parents=True, exist_ok=True)
    scenario = write_scenario(tmp_path)
    ref = tmp_path / "ref.beats"
    est = tmp_path / "est.beats"
    argv = [
        "synth", "--scenario", str(scenario),
        "--out-ref", str(ref), "--out-est", str(est),
    ]
    act = tmp_path / "act.act"
    if out_act:
        argv += ["--out-act", str(act)]
    assert run_cli(argv) == 0
    return ref, est, act


# Runs whose data error lies in one file.  Each builder writes its input
# files into ``tmp_path`` and returns the argv, with every output under
# ``tmp_path``, and the path of the bad file.


def one_beat_reference_for_dp(tmp_path):
    act = tmp_path / "a.act"
    write_activation_file(gen_activation(gen_reference(120, 6.0)), act)
    ref = tmp_path / "one.beats"
    ref.write_text("1.5\n")
    argv = ["track", "--activation", str(act), "--ppt", "dp", "--ref", str(ref), "--out", str(tmp_path / "o")]
    return argv, ref


def frameless_activation_for_dp(tmp_path):
    act = tmp_path / "a.act"
    act.write_text("fps=100\n")
    argv = ["track", "--activation", str(act), "--ppt", "dp", "--tempo", "120", "--out", str(tmp_path / "o")]
    return argv, act


def segment_past_the_reference(tmp_path):
    scenario = write_scenario(
        tmp_path, "duration = 8\ntempo = 120\nsegment = 0 onbeat\nsegment = 100 harmonic_double\n"
    )
    argv = ["synth", "--scenario", str(scenario)]
    argv += ["--out-ref", str(tmp_path / "r"), "--out-est", str(tmp_path / "e"), "--out-act", str(tmp_path / "a")]
    return argv, scenario


def reference_shorter_than_the_window(tmp_path):
    ref_dir, est_dir = tmp_path / "refs", tmp_path / "ests"
    ref_dir.mkdir()
    est_dir.mkdir()
    (ref_dir / "a.txt").write_text("0.5\n1.0\n")
    (est_dir / "a.txt").write_text("".join(f"{0.5 * k}\n" for k in range(8)))
    argv = ["eval", "--ref", str(ref_dir), "--est", str(est_dir), "--L", "3", "--out", str(tmp_path / "o")]
    return argv, ref_dir / "a.txt"


def reference_without_a_tempo(tmp_path):
    ref_dir = tmp_path / "refs"
    ref_dir.mkdir()
    write_beats_file(gen_reference(120, 10.0), ref_dir / "a.beats")
    (ref_dir / "b.beats").write_text("1.5\n")
    return ["stats", "--ref", str(ref_dir)], ref_dir / "b.beats"


def comment_only_reference_for_viz(tmp_path):
    ref, est = tmp_path / "r.beats", tmp_path / "e.beats"
    ref.write_text("# not annotated\n")
    write_beats_file(gen_reference(120, 6.0), est)
    return ["viz", "--ref", str(ref), "--est", str(est), "--out", str(tmp_path / "o")], ref


class TestSynthCommand:
    def test_writes_parseable_outputs(self, tmp_path):
        ref, est, act = run_synth(tmp_path, out_act=True)
        assert len(parse_beats_file(ref)) == 24
        assert len(parse_beats_file(est)) > 24
        assert act.exists()

    def test_bad_scenario_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.scenario"
        path.write_text("tempo = 120\nsegment = 0 onbeat\n")  # duration missing
        code = run_cli([
            "synth", "--scenario", str(path),
            "--out-ref", str(tmp_path / "r"), "--out-est", str(tmp_path / "e"),
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body,lineno",
        [
            ("duration = inf\ntempo = 120\nsegment = 0 onbeat\n", 1),
            ("duration = 12\ntempo = inf\nsegment = 0 onbeat\n", 2),
            ("duration = 12\ntempo = 0:120, 5:inf\nsegment = 0 onbeat\n", 2),
        ],
        ids=["duration", "tempo", "knot_bpm"],
    )
    def test_non_finite_number_exits_2_at_its_line(self, tmp_path, capsys, body, lineno):
        path = write_scenario(tmp_path, body)
        code = run_cli([
            "synth", "--scenario", str(path),
            "--out-ref", str(tmp_path / "r"), "--out-est", str(tmp_path / "e"),
        ])
        assert code == 2
        assert f"{path}:{lineno}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body",
        [
            "duration = 1e12\ntempo = 120\nsegment = 0 onbeat\n",
            "duration = 12\ntempo = 0:120, 5:1e12\nsegment = 0 onbeat\n",
        ],
        ids=["duration", "tempo"],
    )
    def test_huge_beat_count_exits_2_before_generating(self, tmp_path, capsys, body):
        path = write_scenario(tmp_path, body)
        code = run_cli([
            "synth", "--scenario", str(path),
            "--out-ref", str(tmp_path / "r"), "--out-est", str(tmp_path / "e"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{path}: " in err and "more than 1000000 beats" in err
        assert not (tmp_path / "r").exists()

    def test_bpm_below_floor_exits_2(self, tmp_path, capsys):
        path = write_scenario(tmp_path, "duration = 6e163\ntempo = 1e-160\nsegment = 0 onbeat\n")
        code = run_cli([
            "synth", "--scenario", str(path),
            "--out-ref", str(tmp_path / "r"), "--out-est", str(tmp_path / "e"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{path}: " in err and "BPM values must be >= 1e-100" in err
        assert not (tmp_path / "r").exists()

    def test_segment_past_the_reference_names_the_scenario(self, tmp_path, capsys):
        argv, scenario = segment_past_the_reference(tmp_path)
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == f"error: {scenario}: segment start 100 beyond 16 reference beats\n"

    def test_bad_fps_writes_no_output(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        ref, est, act = (tmp_path / name for name in ("r.beats", "e.beats", "a.act"))
        code = run_cli([
            "synth", "--scenario", str(path), "--out-ref", str(ref),
            "--out-est", str(est), "--out-act", str(act), "--fps", "0",
        ])
        assert code == 1
        assert "fps must be finite and > 0" in capsys.readouterr().err
        assert not ref.exists() and not est.exists() and not act.exists()


    def test_a_jitter_re_sort_warns_at_the_synth_command(self, tmp_path):
        path = write_scenario(tmp_path, "duration = 12.0\ntempo = 120\nsegment = 0 onbeat 0.3\n")
        lines, first = inspect.getsourcelines(cli._cmd_synth)
        lineno = first + next(k for k, line in enumerate(lines) if "gen_estimate" in line)
        with pytest.warns(UserWarning) as caught:
            code = run_cli([
                "synth", "--scenario", str(path),
                "--out-ref", str(tmp_path / "r"), "--out-est", str(tmp_path / "e"),
            ])
        assert code == 0
        assert [(str(w.message), w.filename, w.lineno) for w in caught] == [
            (f"{path}: jitter broke monotonicity; estimate re-sorted", cli.__file__, lineno)
        ]

    @pytest.mark.parametrize("fps", ["1e15", "1e308"])
    def test_huge_fps_exits_2_and_writes_no_output(self, tmp_path, capsys, fps):
        path = write_scenario(tmp_path)
        ref, est, act = (tmp_path / name for name in ("r.beats", "e.beats", "a.act"))
        code = run_cli([
            "synth", "--scenario", str(path), "--out-ref", str(ref),
            "--out-est", str(est), "--out-act", str(act), "--fps", fps,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "more than 10000000 activation frames" in err
        assert not ref.exists() and not est.exists() and not act.exists()


class TestEvalCommand:
    def make_dirs(self, tmp_path):
        ref, est, _ = run_synth(tmp_path)
        ref_dir = tmp_path / "refs"
        est_dir = tmp_path / "ests"
        ref_dir.mkdir()
        est_dir.mkdir()
        (ref_dir / "a.beats").write_text(ref.read_text())
        (est_dir / "a.beats").write_text(est.read_text())
        return ref_dir, est_dir

    def test_writes_report(self, tmp_path, capsys):
        ref_dir, est_dir = self.make_dirs(tmp_path)
        out = tmp_path / "report.json"
        code = run_cli(["eval", "--ref", str(ref_dir), "--est", str(est_dir), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema_version"] == 1
        assert report["tracks"][0]["track_id"] == "a"
        assert "evaluated 1 track(s)" in capsys.readouterr().out

    def test_unmatched_reference_is_a_warning(self, tmp_path, capsys):
        ref_dir, est_dir = self.make_dirs(tmp_path)
        (ref_dir / "b.beats").write_text((ref_dir / "a.beats").read_text())
        out = tmp_path / "report.json"
        code = run_cli(["eval", "--ref", str(ref_dir), "--est", str(est_dir), "--out", str(out)])
        assert code == 0
        assert "warning: no estimate for reference 'b'" in capsys.readouterr().err
        assert [t["track_id"] for t in json.loads(out.read_text())["tracks"]] == ["a"]

    def test_metrics_filter(self, tmp_path):
        ref_dir, est_dir = self.make_dirs(tmp_path)
        out = tmp_path / "report.json"
        code = run_cli([
            "eval", "--ref", str(ref_dir), "--est", str(est_dir),
            "--out", str(out), "--metrics", "acr,mlsr",
        ])
        assert code == 0
        track = json.loads(out.read_text())["tracks"][0]
        assert set(track) == {"track_id", "acr", "acr_any", "acr_offbeat", "mlsr"}

    @pytest.mark.parametrize("selection", ["", ",", " , "])
    def test_empty_metric_selection_is_usage_error(self, tmp_path, capsys, selection):
        ref_dir, est_dir = self.make_dirs(tmp_path)
        out = tmp_path / "report.json"
        code = run_cli([
            "eval", "--ref", str(ref_dir), "--est", str(est_dir),
            "--out", str(out), "--metrics", selection,
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "usage" in err and "no metric group selected" in err
        assert not out.exists()

    def test_unknown_metric_group_is_usage_error(self, tmp_path, capsys):
        code = run_cli([
            "eval", "--ref", str(tmp_path), "--est", str(tmp_path),
            "--out", str(tmp_path / "r.json"), "--metrics", "loudness",
        ])
        assert code == 1
        assert "usage" in capsys.readouterr().err

    def test_largest_float_cap_does_not_warn(self, tmp_path):
        # the band edges of L-correct and F1 overflow to inf, which still
        # bounds every band; the suite turns any numpy warning into an error
        ref_dir, est_dir = self.make_dirs(tmp_path)
        out = tmp_path / "report.json"
        code = run_cli([
            "eval", "--ref", str(ref_dir), "--est", str(est_dir),
            "--out", str(out), "--cap", "1.7976931348623157e308",
        ])
        assert code == 0
        track = json.loads(out.read_text())["tracks"][0]
        # under an unbounded window each reference beat pairs with the
        # estimated beat of the same rank, and every onbeat window matches
        n_ref, n_est = (len(parse_beats_file(d / "a.beats")) for d in (ref_dir, est_dir))
        assert track["recall"] == round(min(n_ref, n_est) / n_ref, 6)
        assert track["precision"] == round(min(n_ref, n_est) / n_est, 6)
        assert track["l_correct_r"] == 1.0

    def test_comment_only_estimate_scores_zero(self, tmp_path):
        ref_dir, est_dir = self.make_dirs(tmp_path)
        (est_dir / "a.beats").write_text("# tracker found nothing\n")
        out = tmp_path / "report.json"
        code = run_cli(["eval", "--ref", str(ref_dir), "--est", str(est_dir), "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["tracks"][0]["f1"] == 0

    def test_comment_only_reference_exits_2(self, tmp_path, capsys):
        ref_dir, est_dir = self.make_dirs(tmp_path)
        (ref_dir / "a.beats").write_text("# not annotated\n")
        code = run_cli([
            "eval", "--ref", str(ref_dir), "--est", str(est_dir),
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "short, garbled, message",
        [
            ("b", "c", "refs/b.txt: need at least 3 reference beats, got 2"),
            ("c", "b", "b.txt:2: beat time is not a number: 'abc'"),
        ],
    )
    def test_first_bad_track_in_stem_order_is_the_error(self, tmp_path, capsys, short, garbled, message):
        # files are read and scored track by track in stem order, although
        # windows are matched in passes over several tracks
        ref_dir, est_dir = tmp_path / "refs", tmp_path / "ests"
        ref_dir.mkdir()
        est_dir.mkdir()
        beats = "".join(f"{0.5 * k}\n" for k in range(8))
        for stem in "abc":
            (ref_dir / f"{stem}.txt").write_text("0.5\n1.0\n" if stem == short else beats)
            (est_dir / f"{stem}.txt").write_text("0.5\nabc\n" if stem == garbled else beats)
        out = tmp_path / "r.json"
        code = run_cli(["eval", "--ref", str(ref_dir), "--est", str(est_dir), "--out", str(out), "--L", "3"])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_a_decreasing_estimate_is_an_error_that_names_its_file(self, tmp_path, capsys):
        ref_dir, est_dir = tmp_path / "refs", tmp_path / "ests"
        ref_dir.mkdir()
        est_dir.mkdir()
        beats = "".join(f"{0.5 * k}\n" for k in range(8))
        for stem in "ab":
            (ref_dir / f"{stem}.txt").write_text(beats)
            (est_dir / f"{stem}.txt").write_text(beats)
        (est_dir / "b.txt").write_text("0.5\n1.5\n1.0\n")
        out = tmp_path / "r.json"
        code = run_cli(["eval", "--ref", str(ref_dir), "--est", str(est_dir), "--out", str(out)])
        assert code == 2
        assert f"error: {est_dir / 'b.txt'}: beat times must be strictly increasing" in capsys.readouterr().err
        assert not out.exists()

    def test_each_estimate_with_duplicates_is_named_and_scored_collapsed(self, tmp_path):
        ref_dir, est_dir, clean_dir = tmp_path / "refs", tmp_path / "ests", tmp_path / "clean"
        beats = "".join(f"{0.5 * k}\n" for k in range(8))
        for folder, body in ((ref_dir, beats), (est_dir, beats.replace("1.0\n", "1.0\n1.0\n")), (clean_dir, beats)):
            folder.mkdir()
            for stem in "ab":
                (folder / f"{stem}.txt").write_text(body)
        out, clean_out = tmp_path / "r.json", tmp_path / "clean.json"
        with pytest.warns(UserWarning) as caught:
            code = run_cli(["eval", "--ref", str(ref_dir), "--est", str(est_dir), "--out", str(out)])
        assert code == 0
        assert sorted(str(w.message) for w in caught) == [
            f"{est_dir / stem}.txt: collapsed 1 duplicate beat time(s)" for stem in "ab"
        ]
        assert run_cli(["eval", "--ref", str(ref_dir), "--est", str(clean_dir), "--out", str(clean_out)]) == 0
        assert out.read_bytes() == clean_out.read_bytes()

    def test_missing_directory_exits_2(self, tmp_path, capsys):
        code = run_cli([
            "eval", "--ref", str(tmp_path / "absent"), "--est", str(tmp_path),
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestTrackCommand:
    def test_sppk(self, tmp_path):
        ref = gen_reference(120, 6.0)
        act_path = tmp_path / "a.act"
        write_activation_file(gen_activation(ref), act_path)
        out = tmp_path / "found.beats"
        code = run_cli(["track", "--activation", str(act_path), "--ppt", "sppk", "--out", str(out)])
        assert code == 0
        found = parse_beats_file(out)
        assert len(found) == len(ref) - 1  # the t=0 bump has no left slope

    def test_dp_with_explicit_tempo(self, tmp_path):
        ref = gen_reference(120, 6.0)
        act_path = tmp_path / "a.act"
        write_activation_file(gen_activation(ref), act_path)
        out = tmp_path / "found.beats"
        code = run_cli([
            "track", "--activation", str(act_path), "--ppt", "dp",
            "--tempo", "120", "--out", str(out),
        ])
        assert code == 0
        found = parse_beats_file(out)
        # every reference beat is recovered within a frame; the padded
        # tail of the activation may add beats past the last annotation
        assert len(found) >= len(ref)
        assert np.max(np.abs(found.times[: len(ref)] - ref.times)) <= 0.011
        assert np.all(found.times[len(ref):] > ref.times[-1])

    def test_dp_with_reference_tempo(self, tmp_path):
        ref = gen_reference(120, 6.0)
        ref_path = tmp_path / "r.beats"
        write_beats_file(ref, ref_path)
        act_path = tmp_path / "a.act"
        write_activation_file(gen_activation(ref), act_path)
        out = tmp_path / "found.beats"
        code = run_cli([
            "track", "--activation", str(act_path), "--ppt", "dp",
            "--ref", str(ref_path), "--out", str(out),
        ])
        assert code == 0
        found = parse_beats_file(out)
        assert np.max(np.abs(found.times[: len(ref)] - ref.times)) <= 0.011

    def test_dp_without_tempo_source_exits_1(self, tmp_path, capsys):
        ref = gen_reference(120, 6.0)
        act_path = tmp_path / "a.act"
        write_activation_file(gen_activation(ref), act_path)
        code = run_cli([
            "track", "--activation", str(act_path), "--ppt", "dp",
            "--out", str(tmp_path / "found.beats"),
        ])
        assert code == 1
        assert "--tempo or --ref" in capsys.readouterr().err

    def test_dp_with_a_reference_without_a_tempo_names_it(self, tmp_path, capsys):
        argv, ref = one_beat_reference_for_dp(tmp_path)
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == f"error: {ref}: tempo needs at least two beats\n"

    def test_dp_on_an_activation_without_frames_names_it(self, tmp_path, capsys):
        argv, act = frameless_activation_for_dp(tmp_path)
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == f"error: {act}: activation has no frames\n"

    @pytest.mark.parametrize(
        "flag, value", [("--tightness", "-1e308"), ("--tightness", "-1e3"), ("--threshold", "-1e-3")]
    )
    def test_a_negative_value_in_exponent_notation_is_the_flags_value(self, tmp_path, flag, value):
        act_path = tmp_path / "a.act"
        write_activation_file(gen_activation(gen_reference(120, 6.0)), act_path)
        ppt = "dp" if flag == "--tightness" else "sppk"
        argv = ["track", "--activation", str(act_path), "--ppt", ppt, "--tempo", "120", "--out"]
        spaced, joined = tmp_path / "spaced.beats", tmp_path / "joined.beats"
        assert run_cli(argv + [str(spaced), flag, value]) == 0
        assert run_cli(argv + [str(joined), f"{flag}={value}"]) == 0
        assert spaced.read_bytes() == joined.read_bytes()

    def test_a_dash_before_a_letter_is_still_an_option(self, tmp_path, capsys):
        act_path = tmp_path / "a.act"
        write_activation_file(gen_activation(gen_reference(120, 6.0)), act_path)
        out = tmp_path / "found.beats"
        code = run_cli([
            "track", "--activation", str(act_path), "--ppt", "dp", "--tempo", "120",
            "--tightness", "-x", "--out", str(out),
        ])
        assert code == 1
        assert "beatcover track: error: argument --tightness: expected one argument\n" in capsys.readouterr().err
        assert not out.exists()

    def test_dp_with_overflowing_period_exits_2(self, tmp_path, capsys):
        act_path = tmp_path / "a.act"
        write_activation_file(gen_activation(gen_reference(120, 6.0)), act_path)
        out = tmp_path / "found.beats"
        code = run_cli([
            "track", "--activation", str(act_path), "--ppt", "dp",
            "--tempo", "1e-320", "--out", str(out),
        ])
        assert code == 2
        assert "is not finite" in capsys.readouterr().err
        assert not out.exists()


class TestVizCommand:
    def test_renders_svg(self, tmp_path):
        ref, est, act = run_synth(tmp_path, out_act=True)
        out = tmp_path / "cover.svg"
        code = run_cli([
            "viz", "--ref", str(ref), "--est", str(est),
            "--activation", str(act), "--out", str(out),
        ])
        assert code == 0
        text = out.read_text()
        assert text.startswith("<svg")
        assert 'id="beats-panel"' in text
        assert 'id="row-any"' in text

    def test_window_longer_than_reference_renders_empty_rows(self, tmp_path, capsys):
        ref, est, _ = run_synth(tmp_path)
        out = tmp_path / "cover.svg"
        code = run_cli([
            "viz", "--ref", str(ref), "--est", str(est),
            "--L", "1000000000000000", "--out", str(out),
        ])
        assert code == 0
        assert capsys.readouterr().err == ""
        text = out.read_text()
        assert 'id="row-any"' in text and 'class="cover"' not in text

    @pytest.mark.parametrize("length", ["3000000000000000000", "100000000000000000000"])
    def test_window_too_long_for_numpy_renders_like_any_long_window(self, tmp_path, capsys, length):
        # numpy cannot shape even an empty array of that many columns
        ref, est, _ = run_synth(tmp_path)
        figures = []
        for arg in ("1000000000000000", length):
            out = tmp_path / f"cover-{arg}.svg"
            code = run_cli(["viz", "--ref", str(ref), "--est", str(est), "--L", arg, "--out", str(out)])
            assert code == 0
            figures.append(out.read_bytes())
        assert capsys.readouterr().err == ""
        assert figures[0] == figures[1]

    def test_an_fps_that_puts_the_last_frame_at_infinity_exits_2(self, tmp_path):
        # (2 - 1) / 1e-320 is inf: the axis would never end, and the
        # tick loop with it; the file is refused before any drawing
        ref, est, _ = run_synth(tmp_path)
        act = tmp_path / "tiny.act"
        act.write_text("fps=1e-320\n0.5\n0.5\n")
        out = tmp_path / "c.svg"
        result = subprocess.run(
            [sys.executable, "-m", "beatcover", "viz", "--ref", str(ref), "--est", str(est),
             "--activation", str(act), "--out", str(out)],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 2
        assert result.stderr == f"error: {act}: fps 1e-320 puts the last of 2 frames at an infinite time\n"
        assert not out.exists()

    def test_comment_only_reference_exits_2(self, tmp_path, capsys):
        _, est, _ = run_synth(tmp_path)
        ref = tmp_path / "empty.beats"
        ref.write_text("# not annotated\n")
        code = run_cli(["viz", "--ref", str(ref), "--est", str(est), "--out", str(tmp_path / "c.svg")])
        assert code == 2
        assert "no reference beats" in capsys.readouterr().err


class TestStatsCommand:
    def test_prints_summary(self, tmp_path, capsys):
        ref_dir = tmp_path / "refs"
        ref_dir.mkdir()
        write_beats_file(gen_reference(120, 10.0), ref_dir / "a.beats")
        write_beats_file(gen_reference(90, 10.0), ref_dir / "b.beats")
        assert run_cli(["stats", "--ref", str(ref_dir)]) == 0
        out = capsys.readouterr().out
        assert "tracks:" in out
        assert "105.00 BPM" in out
        assert "100.00 %" in out

    def test_empty_directory_exits_2(self, tmp_path, capsys):
        assert run_cli(["stats", "--ref", str(tmp_path)]) == 2
        assert "no reference tracks" in capsys.readouterr().err

    def test_a_reference_without_a_tempo_is_an_error_that_names_its_file(self, tmp_path, capsys):
        write_beats_file(gen_reference(120, 10.0), tmp_path / "a.beats")
        (tmp_path / "b.beats").write_text("1.5\n")
        write_beats_file(gen_reference(90, 10.0), tmp_path / "c.beats")
        assert run_cli(["stats", "--ref", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / 'b.beats'}: tempo needs at least two beats\n"


class TestDataErrorsNameTheirFile:
    @pytest.mark.parametrize(
        "bad_input",
        [
            one_beat_reference_for_dp,
            frameless_activation_for_dp,
            segment_past_the_reference,
            reference_shorter_than_the_window,
            reference_without_a_tempo,
            comment_only_reference_for_viz,
        ],
        ids=lambda build: build.__name__,
    )
    def test_one_error_line_that_names_the_file_and_no_output(self, tmp_path, capsys, bad_input):
        argv, bad = bad_input(tmp_path)
        inputs = sorted(tmp_path.rglob("*"))
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: ") and captured.err.count("\n") == 1
        assert captured.err.endswith("\n")
        assert sorted(tmp_path.rglob("*")) == inputs


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run_cli([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert run_cli(["frobnicate"]) == 1

    def test_missing_required_option(self, capsys):
        assert run_cli(["eval", "--ref", "x"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--ref", "r", "--est", "e", "--out", "o.json", "--L", "1"],
            ["eval", "--ref", "r", "--est", "e", "--out", "o.json", "--gamma", "1.5"],
            ["eval", "--ref", "r", "--est", "e", "--out", "o.json", "--cap", "0"],
            ["viz", "--ref", "r", "--est", "e", "--out", "o.svg", "--L", "1"],
            ["eval", "--ref", "r", "--est", "e", "--out", "o.json", "--cap", "inf"],
        ],
    )
    def test_bad_tolerance_flag_is_usage_error(self, argv, capsys):
        reasons = {
            "1": "context must be >= 2, got 1",
            "1.5": "gamma must be in (0, 1), got 1.5",
            "0": "cap must be finite and > 0, got 0.0",
            "inf": "cap must be finite and > 0, got inf",
        }
        command, flag, value = argv[0], argv[-2], argv[-1]
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: beatcover {command} ")
        assert f"beatcover {command}: error: argument {flag}: {reasons[value]}\n" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["track", "--activation", "a.act", "--ppt", "dp", "--out", "o", "--tempo"],
            ["track", "--activation", "a.act", "--ppt", "sppk", "--out", "o", "--threshold"],
            ["track", "--activation", "a.act", "--ppt", "sppk", "--out", "o", "--min-gap"],
            ["track", "--activation", "a.act", "--ppt", "dp", "--out", "o", "--tightness"],
            ["synth", "--scenario", "s", "--out-ref", "r", "--out-est", "e", "--fps"],
        ],
        ids=lambda argv: argv[-1],
    )
    def test_non_finite_number_flag_is_usage_error(self, argv, value, capsys):
        # each flag prints the message of the core rule its library parameter uses
        rules = {
            "--tempo": "tempo must be finite and > 0",
            "--threshold": "threshold must be finite",
            "--min-gap": "min_gap must be finite and >= 0",
            "--tightness": "tightness must be finite",
            "--fps": "fps must be finite and > 0",
        }
        command, flag = argv[0], argv[-1]
        assert run_cli(argv + [value]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: beatcover {command} ")
        assert f"beatcover {command}: error: argument {flag}: {rules[flag]}, got {value}\n" in err

    @pytest.mark.parametrize(
        "flag, value, reason",
        [
            ("--fps", "0", "fps must be finite and > 0, got 0.0"),
            ("--fps", "-1", "fps must be finite and > 0, got -1.0"),
            ("--tempo", "0", "tempo must be finite and > 0, got 0.0"),
            ("--tempo", "-5", "tempo must be finite and > 0, got -5.0"),
            ("--min-gap", "-1", "min_gap must be finite and >= 0, got -1.0"),
            ("--seed", "-1", "seed must be >= 0, got -1"),
            ("--workers", "-5", "workers must be >= 1, got -5"),
            ("--workers", "0", "workers must be >= 1, got 0"),
        ],
    )
    def test_out_of_range_number_flag_is_usage_error(self, tmp_path, flag, value, reason, capsys):
        # real inputs, so only the flag can stop the run
        outs = [tmp_path / name for name in ("r.beats", "e.beats", "o.act")]
        if flag in ("--fps", "--seed"):
            command = "synth"
            argv = ["synth", "--scenario", str(write_scenario(tmp_path)), "--out-ref", str(outs[0]),
                    "--out-est", str(outs[1]), "--out-act", str(outs[2])]
        elif flag == "--workers":
            command = "eval"
            for name in ("ref", "est"):
                (tmp_path / name).mkdir()
                write_beats_file(gen_reference(120, 6.0), tmp_path / name / "a.beats")
            argv = ["eval", "--ref", str(tmp_path / "ref"), "--est", str(tmp_path / "est"), "--out", str(outs[0])]
        else:
            command = "track"
            act = tmp_path / "a.act"
            write_activation_file(gen_activation(gen_reference(120, 6.0)), act)
            ppt = "dp" if flag == "--tempo" else "sppk"
            argv = ["track", "--activation", str(act), "--ppt", ppt, "--out", str(outs[0])]
        assert run_cli(argv + [flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: beatcover {command} ")
        assert f"beatcover {command}: error: argument {flag}: {reason}\n" in err
        assert not any(out.exists() for out in outs)
        if flag == "--workers":
            assert run_cli(["eval", "--help"]) == 0
            assert re.search(r"--workers WORKERS\s+accepted but has no effect\n", capsys.readouterr().out)

    def test_help_exits_zero(self):
        assert run_cli(["--help"]) == 0

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "beatcover", "--help"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "eval" in result.stdout and "synth" in result.stdout


def test_main_builds_its_parser_once(tmp_path, monkeypatch, capsys):
    ref = tmp_path / "refs"
    ref.mkdir()
    (ref / "a.txt").write_text("".join(f"{0.5 * k}\n" for k in range(8)))
    assert run_cli(["stats", "--ref", str(ref)]) == 0
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", lambda self, *a, **k: built.append(init(self, *a, **k)))
    assert run_cli(["stats", "--ref", str(ref)]) == 0
    assert run_cli(["stats"]) == 1
    assert "the following arguments are required: --ref" in capsys.readouterr().err
    assert built == []
    cli.build_parser()  # still public, and each call builds a new parser
    assert len(built) == 6  # the parser and its five commands


def test_scoring_loads_no_further_numpy_module(tmp_path):
    # a numpy module that loads on first use (numpy.ma does, from
    # np.unique on numpy 2) raises the peak memory of every evaluation
    dataset = Path(__file__).parent.parent / "demos" / "out" / "mini_dataset"
    ref, est = (str(dataset / side / "steady.beats") for side in ("reference", "estimates"))
    argv = ["eval", "--ref", str(dataset / "reference"), "--est", str(dataset / "estimates"),
            "--out", str(tmp_path / "report.json")]
    script = (
        "import json, sys\n"
        "from beatcover import cli, evaluate_track, parse_beats_file\n"
        "before = set(sys.modules)\n"
        f"evaluate_track('steady', parse_beats_file({ref!r}), parse_beats_file({est!r}))\n"
        "track = set(sys.modules) - before\n"
        f"cli.main({argv!r})\n"
        "print(json.dumps([sorted(track), sorted(set(sys.modules) - before - track)]))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    loaded = json.loads(result.stdout.splitlines()[-1])
    assert [[m for m in new if m.split(".")[0] == "numpy"] for new in loaded] == [[], []], loaded


class TestPipelineDeterminism:
    def test_synth_outputs_are_reproducible(self, tmp_path):
        a_ref, a_est, _ = run_synth(tmp_path / "a")
        b_ref, b_est, _ = run_synth(tmp_path / "b")
        assert a_ref.read_bytes() == b_ref.read_bytes()
        assert a_est.read_bytes() == b_est.read_bytes()
