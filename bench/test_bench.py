"""The benchmark's own tests: tiny smoke runs and checks that catch faults.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT, script=None):
    script = script or os.path.join(BENCH_DIR, "run.py")
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_is_correct(workload, tmp_path):
    res = _result(_bench("--workload", workload, "--seed", "3", "--seconds",
                         "0", "--trace", "0", "--size", "tiny"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert set(res["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in res["metrics"].values())
    # whole rounds; only the known faults fail
    ops = workloads.make_ops(workload, 3, str(tmp_path), "tiny")
    known = sum(op["expect"] is not None for op in ops)
    assert res["attempted"] == len(ops) * run.MIN_PASSES
    assert res["failed"] == known * run.MIN_PASSES


def test_traced_counts_repeat():
    runs = [_result(_bench("--workload", "recipes", "--seed", "4",
                           "--seconds", "0", "--trace", "1", "--size", "tiny"))
            for _ in range(2)]
    for res in runs:
        assert set(res["metrics"]) == set(run.PER_LAYER)
    counts = [{k: v["value"] for k, v in res["metrics"].items()
               if v["unit"] in ("count", "B")} for res in runs]
    assert counts[0] == counts[1]
    assert counts[0]["kernel.quad.calls"] > 0


def test_benchmark_json_lists_the_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "sweep", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path,
                  script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _tiny_output(tmp_path, workload, name):
    import resdyn.cli as cli

    ops = workloads.make_ops(workload, 5, str(tmp_path), "tiny")
    op = next(o for o in ops if o["name"] == name)
    assert cli.main(op["argv"] + ["--out", str(tmp_path / op["out"])]) == 0
    return op


def _corrupt(path, column, row=3):
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    i = header.index(column)
    cells[i] = repr(float(cells[i]) * (1.0 + 1e-6) + 1e-7)
    lines[row] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("workload,name,column", [
    ("sweep", "tdot0", "re_a"),
    ("sweep", "tdot0", "im_chi_resonant"),
    ("sweep", "friedrichs0", "re_a"),
    ("recipes", "fig2", "re_lambda"),
    ("recipes", "fig8b", "r"),
])
def test_corrupted_output_fails_its_check(tmp_path, workload, name, column):
    op = _tiny_output(tmp_path, workload, name)
    recipe_dir = os.path.join(ROOT, "src", "resdyn", "recipes")
    checks.check_output(op, str(tmp_path), str(tmp_path), recipe_dir)
    _corrupt(tmp_path / op["out"], column)
    with pytest.raises(checks.CheckFailed):
        checks.check_output(op, str(tmp_path), str(tmp_path), recipe_dir)
