"""CLI and tracker outputs, compared byte for byte with stored files.

``tests/golden/`` holds two pipelines' outputs:

* ``switch_*``: criterion 9's eval report and coverage SVG (the
  level-switch scenario, jitter seed 9).  A change to window geometry,
  tolerances, metrics, rounding or the file formats that alters a single
  byte of either output fails here.
* ``tracker_*``: the activation written by ``synth --out-act`` for
  ``demos/scenarios/double_to_quadruple.scenario`` and a noisy activation
  of the same reference, each tracked by ``track --ppt dp`` and ``track
  --ppt sppk``.  This pins ``gen_activation``, ``dp_track`` and ``sppk``.
* ``cover_*``: coverage SVGs of a level switch with an activation panel
  (polyline, reference and estimate ticks) at several lengths and frame
  rates, with and without the estimate ticks, and one with no panel.
  The 5-minute, 100 fps figure, the size the benchmark renders, is
  pinned by its sha256 to keep the repository small.

The demo dataset's committed report, ``demos/out/mini_dataset/report.json``,
is compared too: ``eval`` must write it from the dataset's files as written
and from a CRLF, commented, two-column copy of them.
"""

import hashlib
from pathlib import Path

import pytest

from beatcover import (
    Condition,
    Scenario,
    Segment,
    coverage_matrix,
    gen_activation,
    gen_estimate,
    gen_reference,
    parse_beats_file,
    render_coverage_svg,
    write_activation_file,
)
from beatcover.cli import main as cli_main
from test_acceptance import run_pipeline

GOLDEN = Path(__file__).parent / "golden"
SCENARIO = Path(__file__).parent.parent / "demos" / "scenarios" / "double_to_quadruple.scenario"
DEMO_DATASET = Path(__file__).parent.parent / "demos" / "out" / "mini_dataset"
NOISE_SEED = 5


def run_tracker_pipeline(base) -> dict[str, bytes]:
    """synth -> track (dp, sppk) on a clean and a noisy activation.

    Returns the bytes of each activation and beat file, keyed by the
    name of its golden file.
    """
    ref = base / "ref.beats"
    assert cli_main([
        "synth", "--scenario", str(SCENARIO), "--out-ref", str(ref),
        "--out-est", str(base / "est.beats"), "--out-act", str(base / "tracker_clean.act"),
    ]) == 0
    noisy = gen_activation(parse_beats_file(ref), noise_std=0.1, seed=NOISE_SEED)
    write_activation_file(noisy, base / "tracker_noisy.act")
    names = []
    for kind in ("clean", "noisy"):
        act = base / f"tracker_{kind}.act"
        names.append(act.name)
        for ppt, extra in (("dp", ["--ref", str(ref)]), ("sppk", [])):
            out = base / f"tracker_{kind}_{ppt}.beats"
            assert cli_main(["track", "--activation", str(act), "--ppt", ppt, *extra, "--out", str(out)]) == 0
            names.append(out.name)
    return {name: (base / name).read_bytes() for name in names}


def annotated_copy(src: Path, dst: Path) -> None:
    """Copy a dataset's beat files with CRLF line ends, a ``#`` header
    line and a beat-in-bar second column, the layout annotation tools
    write; such files go through the parser's per-line loop."""
    for path in src.glob("*/*.beats"):
        lines = path.read_text(encoding="utf-8").splitlines()
        body = "".join(f"{line} {k % 4 + 1}\r\n" for k, line in enumerate(lines))
        out = dst / path.relative_to(src)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_bytes(f"# time beat\r\n{body}".encode("utf-8"))


@pytest.mark.parametrize("annotated", [False, True], ids=["as_written", "annotated"])
def test_demo_dataset_reproduces_its_report(tmp_path, annotated):
    data = DEMO_DATASET
    if annotated:
        data = tmp_path / "data"
        annotated_copy(DEMO_DATASET, data)
    out = tmp_path / "report.json"
    argv = ["eval", "--ref", str(data / "reference"), "--est", str(data / "estimates"), "--out", str(out)]
    assert cli_main(argv) == 0
    assert out.read_bytes() == (DEMO_DATASET / "report.json").read_bytes()


def test_cli_outputs_match_golden_bytes(tmp_path):
    report, svg, _ = run_pipeline(tmp_path)
    assert report == (GOLDEN / "switch_report.json").read_bytes()
    assert svg == (GOLDEN / "switch_cover.svg").read_bytes()


@pytest.fixture(scope="module")
def tracker_outputs(tmp_path_factory):
    return run_tracker_pipeline(tmp_path_factory.mktemp("trackers"))


@pytest.mark.parametrize("name", [
    "tracker_clean.act", "tracker_clean_dp.beats", "tracker_clean_sppk.beats",
    "tracker_noisy.act", "tracker_noisy_dp.beats", "tracker_noisy_sppk.beats",
])
def test_tracker_outputs_match_golden_bytes(tracker_outputs, name):
    assert tracker_outputs[name] == (GOLDEN / name).read_bytes()


# name -> (seconds, activation fps or None for no panel, draw the estimate)
SVG_CASES = {
    "cover_30s_100fps.svg": (30.0, 100.0, True),
    "cover_40s_86fps.svg": (40.0, 44100 / 512, True),
    "cover_60s_50fps.svg": (60.0, 50.0, True),
    "cover_20s_100fps_no_est.svg": (20.0, 100.0, False),
    "cover_20s_no_panel.svg": (20.0, None, False),
}
LONG_SVG_SHA256 = "c1664bcc3abf8916614c22ce9c104f8a4d99cb19428be8d43738b2ab7de2b68b"


def render_svg_case(seconds, fps, with_est) -> bytes:
    """A jittered estimate that switches from the beat to double tempo
    on a 112 -> 128 BPM ramp, over a noisy activation of the reference."""
    scenario = Scenario(
        ((0.0, 112.0), (seconds, 128.0)), seconds,
        (Segment(0, Condition.ONBEAT, 0.01), Segment(20, Condition.HARMONIC_DOUBLE, 0.01)),
    )
    ref = gen_reference(scenario.tempo_curve, scenario.duration)
    est = gen_estimate(ref, scenario, seed=3)
    act = gen_activation(ref, fps=fps, noise_std=0.1, seed=4) if fps else None
    svg = render_coverage_svg(coverage_matrix(ref, est), ref, act=act, est=est if with_est else None)
    return svg.encode("utf-8")


@pytest.mark.parametrize("name", SVG_CASES)
def test_coverage_svgs_match_golden_bytes(name):
    assert render_svg_case(*SVG_CASES[name]) == (GOLDEN / name).read_bytes()


def test_five_minute_coverage_svg_matches_pinned_hash():
    assert hashlib.sha256(render_svg_case(300.0, 100.0, True)).hexdigest() == LONG_SVG_SHA256
