"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q bench/test_bench.py

Each workload is run twice, traced, on one seed; the counts must repeat
exactly and the bypass predictions of README.md must hold.  Takes about
two minutes.
"""
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
RUN = BENCH / "run.py"
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in DECLARED["workloads"])
COUNT_UNITS = {"calls/op", "records/op", "evals/call"}

sys.path.insert(0, str(BENCH))
from tracer import LAYERS, Tracer, layer_names  # noqa: E402


def _run(*args):
    return subprocess.run([sys.executable, str(RUN), *args],
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced runs of every workload on one seed; the first writes spans."""
    out = {}
    for name in WORKLOADS:
        runs = []
        for i in range(2):
            spans = tmp_path_factory.mktemp(name) / "spans.jsonl"
            proc = _run("--workload", name, "--seed", "7", "--seconds", "1",
                        "--trace", "1", *(["--spans", str(spans)] if i == 0
                                          else []))
            assert proc.returncode == 0, proc.stderr
            runs.append(json.loads(proc.stdout.splitlines()[-1]))
            if i == 0:
                runs[0]["spans"] = [json.loads(line) for line
                                    in spans.read_text().splitlines()]
        out[name] = runs
    return out


@pytest.mark.parametrize("name", WORKLOADS)
def test_counts_repeat_exactly(traced, name):
    first, second = traced[name]
    assert first["correct"] and second["correct"]
    counts = {k for k, m in first["metrics"].items()
              if m["unit"] in COUNT_UNITS}
    assert {"trial.records_indexed", "reml.evals_per_call"} <= counts
    assert len(counts) == 2 + len(layer_names())
    for key in counts:
        assert first["metrics"][key] == second["metrics"][key], key
    assert set(first["metrics"]) == {m["name"] for m in DECLARED["per_layer"]}


@pytest.mark.parametrize("name", WORKLOADS)
def test_self_times_sum_to_op_time(traced, name):
    m = traced[name][0]["metrics"]
    self_ms = sum(v["value"] for k, v in m.items()
                  if k.endswith(".self_ms")) + m["op.orchestration_ms"]["value"]
    assert self_ms == pytest.approx(m["op.traced_ms"]["value"], rel=1e-9)


@pytest.mark.parametrize("name", WORKLOADS)
def test_spans_written_nest_under_ops(traced, name):
    spans = traced[name][0]["spans"]
    roots = [s for s in spans if s["parent"] < 0]
    assert roots and all(s["name"] == "op" for s in roots)
    for s in spans:
        if s["parent"] >= 0:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
            assert parent["op"] == s["op"]


def test_bypass_predictions(traced):
    def calls(name, layer):
        return traced[name][0]["metrics"][f"{layer}.calls"]["value"]

    plugin = "study_plugin_i400"
    assert calls(plugin, "reml.exchangeable") == 0
    assert calls(plugin, "reml.nested") == 0
    assert calls(plugin, "trial.drop_cluster") == 0
    assert traced[plugin][0]["metrics"]["reml.evals_per_call"]["value"] == 0
    for name in ("study_jackknife_i10", "analysis_unequal_i28"):
        assert calls(name, "reml.exchangeable") > 0
        assert calls(name, "reml.nested") > 0
        assert calls(name, "trial.drop_cluster") > 0
        assert traced[name][0]["metrics"]["reml.evals_per_call"]["value"] > 0
    assert calls("analysis_unequal_i28", "io.parse_trial_csv") == 1


def test_untraced_run_reports_declared_metrics():
    proc = _run("--workload", "study_plugin_i400", "--seed", "7",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_absent_function_is_reported_not_fatal():
    layers = LAYERS + [("pbcrt.trial", "ObservedTrial.no_such_method",
                        lambda a, k: "gone", ["trial.gone"]),
                       ("pbcrt.no_such_module", "f",
                        lambda a, k: "gone2", ["gone2"])]
    sys.path.insert(0, str(BENCH.parent / "src"))
    tracer = Tracer(layers)
    tracer.install()
    try:
        assert tracer.absent == {"trial.gone", "gone2"}
    finally:
        tracer.uninstall()
    assert tracer.totals()["calls"] == {}


def test_fails_without_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
