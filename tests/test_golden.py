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
"""

from pathlib import Path

import pytest

from beatcover import gen_activation, parse_beats_file, write_activation_file
from beatcover.cli import main as cli_main
from test_acceptance import run_pipeline

GOLDEN = Path(__file__).parent / "golden"
SCENARIO = Path(__file__).parent.parent / "demos" / "scenarios" / "double_to_quadruple.scenario"
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
