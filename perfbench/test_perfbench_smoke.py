"""Smoke runs of the benchmark: every workload at a seconds-long size.

Each run uses tiny inputs and a few rounds but performs every check of
the full workload, untraced and traced, and must print a result line
carrying exactly the metrics ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], capture_output=True,
                          text=True, timeout=300, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["serve_rw", "olap_nat", "provenance_nx"])
def test_smoke_run_checks_and_reports(workload, trace):
    out = _run(["--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--smoke"])
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-4000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = _spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    # only serve_rw's malformed-Content-Length requests may fail
    for line in out.stdout.splitlines():
        match = re.match(r"  (\w+) +attempted +(\d+) +failed +(\d+)", line)
        if match and match.group(1) != "malformed":
            assert match.group(3) == "0", line


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "olap_nat",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
