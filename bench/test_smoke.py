"""Smoke test of the benchmark at its tiny size (a few seconds per run).

    python3 -m pytest bench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit,
that the untraced and the traced run of one seed see identical inputs
(equal input digests, flow.steps and okounkov.hull_points), that the
compare mode finds no difference between two runs of the same code, and
that the benchmark fails without printing a result when the program's
sources are missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


def _run(run_py, *args):
    return subprocess.run(
        [sys.executable, str(run_py), *args], capture_output=True, text=True, timeout=170
    )


def _measure(workload, trace, out):
    done = _run(HERE / "run.py", "--workload", workload, "--seed", str(SEED),
                "--seconds", "1", "--trace", str(trace), "--size", "smoke",
                "--out", str(out))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1]), json.loads(out.read_text())["runs"][0]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_metrics_units_and_identical_inputs(workload, tmp_path):
    plain, plain_record = _measure(workload, 0, tmp_path / "plain.json")
    traced, traced_record = _measure(workload, 1, tmp_path / "traced.json")

    for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in SPEC[kind]}

    first_plain = plain_record["passes"][0]
    first_traced = next(p for p in traced_record["passes"] if p["traced"])
    assert first_plain["inputs_sha256"] == first_traced["inputs_sha256"]
    for count in ("flow.steps", "okounkov.hull_points"):
        if count in first_plain["counts"]:
            assert first_plain["counts"][count] == first_traced["counts"][count]
            assert traced["metrics"][count]["value"] == first_plain["counts"][count]

    done = _run(HERE / "run.py", "--compare", str(tmp_path / "plain.json"),
                str(tmp_path / "traced.json"))
    assert done.returncode == 0, done.stderr
    [report] = json.loads(done.stdout)
    assert report["passes_compared"] >= 1
    assert report["max_abs_dF"] == 0.0 and report["max_abs_dbracket"] == 0.0
    assert report["step_count_differences"] == []
    assert report["exact_output_differences"] == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path / HERE.name / "run.py", "--workload", "flag-exact",
                "--seed", str(SEED), "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
