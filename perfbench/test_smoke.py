"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py

A tiny run of each workload, untraced and traced, must print every metric
BENCHMARK.json names with its unit; an item that decodes a KT stream with
the mixture coder must count as failed without stopping the run.
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


def bench(workload, trace, cwd, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace, tmp_path):
    proc = bench(workload, trace, tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in result["metrics"].items()}
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1] if not line.startswith("#")}
    for m in spec:
        assert printed[m["name"]] == m["unit"]
    if trace:
        assert (tmp_path / ".bench_out" / f"spans-{workload}-seed3.jsonl").is_file()
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)


def test_wrong_decoder_counts_as_failed_item():
    sys.path.insert(0, str(HERE))
    import run

    run.import_mdelta()
    import workloads

    pool = workloads.codec_pool(3, size=2)
    kinds = [workloads.codec_kind(pool, "kt"), workloads.codec_kind(pool, "kt", decoder="mixture")]
    records = run.run_items(kinds, count=4, calibrate=True)
    assert [r.ok for r in records] == [True, False, True, False]
    metrics, _ = run.end_to_end("codec", records)
    assert metrics["work_per_s"][0] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("codec", 0, tmp_path, tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
