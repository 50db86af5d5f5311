"""The CLI's eval report and coverage SVG, compared byte for byte with stored files.

``tests/golden/`` holds the outputs of criterion 9's pipeline (the
level-switch scenario, jitter seed 9).  A change to window geometry,
tolerances, metrics, rounding or the file formats that alters a single
byte of either output fails here.
"""

from pathlib import Path

from test_acceptance import run_pipeline

GOLDEN = Path(__file__).parent / "golden"


def test_cli_outputs_match_golden_bytes(tmp_path):
    report, svg, _ = run_pipeline(tmp_path)
    assert report == (GOLDEN / "switch_report.json").read_bytes()
    assert svg == (GOLDEN / "switch_cover.svg").read_bytes()
