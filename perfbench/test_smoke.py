"""Smoke test of the benchmark at a tiny input scale.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "0.05"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    table = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.startswith("  ")}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert table[m["name"]] == m["unit"], m["name"]
    assert table["failed_ratio"] == "ratio"


def test_benchmark_json_matches_the_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }


def test_same_seed_gives_same_digest():
    digests = []
    for trace in (0, 0, 1):
        proc = _run("train-minibatch-long", trace, seed=5)
        assert proc.returncode == 0, proc.stderr
        digests.append([l for l in proc.stdout.splitlines() if l.startswith("digest ")])
    assert digests[0] == digests[1] == digests[2] and digests[0]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
