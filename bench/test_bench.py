"""Smoke tests of the benchmark itself.

Every workload runs at tiny m and n in both modes and must print each
metric that BENCHMARK.json declares, with its unit, after its output
checks. The checks must catch a damaged CSV, and without the package
sources the benchmark must fail without printing a result.

Run from the repository root: python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_declared_metric(workload, trace):
    proc = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", str(trace), "--m", "2", "--n", "6",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    # every pass's replicates plus its aggregate step, and a rerun or a
    # second pass for the byte-identity check
    assert result["attempted"] >= 3
    assert f"checks: {result['attempted']} operations checked, 0 failed" in lines
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        printed = [line for line in lines if line.startswith(m["name"] + " = ")]
        assert len(printed) == 1
        assert printed[0].split()[3] == m["unit"]
    if not trace:
        # the ratios to the frozen baseline that the calibrated metrics use
        for name in ("speedup_vs_baseline", "setup_vs_baseline"):
            assert sum(line.startswith(name + " = ") for line in lines) == 1


def _tiny_replicate(tmp_path):
    sys.path.insert(0, str(BENCH_DIR))
    sys.path.insert(0, str(ROOT / "src"))
    import run
    from wavesel import harness

    wl = run.Workload("synthetic", ("random",), 2, 6, ())
    config = harness.parse_config(run.config_text(wl, 0, tmp_path))
    harness.run(config, "random", 0)
    return run, harness, wl, Path(harness.cpi_csv_path(str(tmp_path), "random", 0))


def _set_field(line, index, value):
    parts = line.split(",")
    parts[index] = value
    return ",".join(parts)


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda lines, col: lines[:-1], "rows, expected"),
        (lambda lines, col: lines[:1] + [_set_field(lines[1], col["loss"], "1.5")] + lines[2:],
         "loss outside [0, 1]"),
        (lambda lines, col: lines[:1] + [_set_field(lines[1], col["regret_inc"], "-0.01")] + lines[2:],
         "regret_inc below"),
        (lambda lines, col: lines[:1] + [_set_field(lines[1], col["sinr_db"], "nan")] + lines[2:],
         "non-finite"),
    ],
)
def test_checks_catch_damaged_output(tmp_path, damage, message):
    run, harness, wl, cpi_path = _tiny_replicate(tmp_path)
    assert run.check_replicate(harness, tmp_path, "random", 0, wl) == []
    lines = cpi_path.read_text().splitlines()
    col = {name: i for i, name in enumerate(lines[0].split(","))}
    cpi_path.write_text("\n".join(damage(lines, col)) + "\n")
    problems = run.check_replicate(harness, tmp_path, "random", 0, wl)
    assert any(message in p for p in problems), problems


def test_without_sources_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", SPEC["workloads"][0]["name"], "--seed", "0",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
