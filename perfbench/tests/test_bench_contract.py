"""BENCHMARK.json, the workload files and run.py name the same things."""

import json
from pathlib import Path

import run
from records import read_keys

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match_the_runner():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    emitted = [(m, u, b) for m, _, _, u, b in run.SPAN_METRICS] + run.OTHER_METRICS
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == emitted


def test_setup_bound_is_the_largest():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_every_workload_has_a_config_and_expected_keys():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS
    expected_counts = {"parafermi-default": 58, "clifford-16": 12, "all-large-dim": 115}
    for name, count in expected_counts.items():
        config = run.HERE / "workloads" / f"{name}.cfg"
        assert config.read_text().startswith("# Why:")
        assert len(read_keys(str(run.HERE / "workloads" / f"{name}.keys"))) == count


def test_a_tree_without_sources_fails_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "clifford-16", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
