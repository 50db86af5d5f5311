"""``tools/bench_layers.py`` writes one record of every layer at every length."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "tools" / "bench_layers.py")
bench_layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_layers)


def test_the_smallest_record_has_every_key(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert bench_layers.main(["--minutes", "1", "--repeats", "1", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert json.loads(capsys.readouterr().out) == record
    assert set(record) == {"recipe", "method", "repeats", "environment", "lengths", "dataset"}
    assert set(record["environment"]) == {"python", "numpy", "simd_found", "cpu_count", "machine", "system"}
    assert all(isinstance(feature, str) for feature in record["environment"]["simd_found"])
    (length,) = record["lengths"]
    assert length["minutes"] == 1
    # 120 reference beats; 60 on the beat, then 59 intervals at double tempo and the last beat
    assert (length["ref_beats"], length["est_beats"]) == (120, 179)
    assert list(length["layers"]) == list(bench_layers.LAYERS)
    assert {"l_correct_detection", "cmlt", "mlsr", "parse_beats_file", "serialize_report"} <= set(length["layers"])
    fixed = record["dataset"]
    assert (fixed["tracks"], fixed["ref_beats"]) == (24, 2549)
    assert list(fixed["layers"]) == list(bench_layers.DATASET_LAYERS) == ["evaluate_dataset", "cli_eval"]
    for layer in [*length["layers"].values(), *fixed["layers"].values()]:
        assert set(layer) == {"best_ms", "peak_mb"}


def test_without_out_it_takes_the_next_free_number(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_layers, "ROOT", tmp_path)
    (tmp_path / "BENCH_1.json").write_text("{}")
    assert bench_layers.next_record() == tmp_path / "BENCH_2.json"
