"""End-to-end checks of run.py: output contract, repeatable counts, bare directory."""

import json
import shutil
import subprocess
import sys

import bootstrap
import layers
import run

#: Per-layer metrics derived only from counts; they must repeat exactly.
COUNT_METRICS = [
    name
    for name, unit in layers.PER_LAYER
    if unit in ("count", "count/write", "count/read") or name.endswith("_ratio")
]


def bench(*args, cwd=bootstrap.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=600,
    )


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_what_run_py_prints():
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.GATED)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_counts_of_single_client_workloads_repeat_for_a_seed():
    for workload in ("eval-join", "write-mix"):
        outputs = []
        for _ in range(2):
            done = bench("--workload", workload, "--seed", "3", "--seconds", "2", "--trace", "1")
            assert done.returncode == 0, done.stderr
            result = last_json(done.stdout)
            assert result["correct"] and result["failed"] == 0
            assert set(result["metrics"]) == {name for name, _ in layers.PER_LAYER}
            outputs.append({name: result["metrics"][name]["value"] for name in COUNT_METRICS})
        assert outputs[0] == outputs[1], workload


def test_untraced_run_prints_every_end_to_end_metric():
    done = bench("--workload", "eval-join", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1000
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_printing_a_result_in_a_bare_directory(tmp_path):
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        bootstrap.ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    done = bench("--workload", "eval-join", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
