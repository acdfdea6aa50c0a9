"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest bench/tests -q

Runs from the repository root; it imports the package from ./src and the
benchmark modules from ./bench.
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from workloads import WORKLOADS, check_rows, oracle  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "twin-reps": replace(WORKLOADS["twin-reps"], repetitions=20, n_max=12),
    "sweep-L": replace(WORKLOADS["sweep-L"], repetitions=10, n_max=12,
                       points=3),
    # no benchmark workload uses squeezed vacuum; its anchors are checked here
    "twin-squeezed": replace(WORKLOADS["twin-reps"], name="twin-squeezed",
                             state_kind="squeezed_vacuum", mean_n=10.0,
                             repetitions=4, n_max=16),
}


def test_benchmark_file_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["bench"]


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result, details = run.run(TINY[name], seed=1, seconds=0, trace=trace,
                              work_dir=tmp_path)
    assert result["correct"], details["problems"]
    assert result["failed"] == 0 and result["attempted"] >= run.MIN_CALLS
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({m["name"]: m["unit"] for m in declared}
            == {k: v["unit"] for k, v in result["metrics"].items()})
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def _set_value(csv_text: str, column: str, scale: float) -> str:
    header, row, *rest = csv_text.splitlines()
    cells = row.split(",")
    i = header.split(",").index(column)
    cells[i] = repr(float(cells[i]) * scale)
    return "\n".join([header, ",".join(cells), *rest]) + "\n"


@pytest.mark.parametrize("column", [
    "qfi_before", "tau_rob_classical_s", "phase_diff_rad", "theta_full_rad",
    "qfi_after"])
@pytest.mark.parametrize("name", ["twin-reps", "twin-squeezed"])
def test_first_call_check_rejects_a_corrupted_value(name, column, tmp_path):
    runner = run.Runner(TINY[name], 1, tmp_path)
    runner.call()
    assert runner.failed == 0, runner.problems
    text = runner.reference.decode()
    assert check_rows(runner.doc, text, oracle(runner.doc)) == []
    corrupted = _set_value(text, column, 1.0 + 1e-6)
    problems = check_rows(runner.doc, corrupted, oracle(runner.doc))
    assert problems and any(column in p for p in problems)


@pytest.mark.parametrize("on_call", [1, 2], ids=["first", "later"])
def test_corrupted_csv_is_counted_as_failed(on_call, tmp_path, monkeypatch):
    runner = run.Runner(TINY["twin-reps"], 1, tmp_path)
    write = runner.cli.write_results_csv
    calls = []

    def corrupting_write(path, results, digest):
        write(path, results, digest)
        calls.append(path)
        if len(calls) == on_call:
            path.write_text(_set_value(path.read_text(), "qfi_after", 1.001))

    monkeypatch.setattr(runner.cli, "write_results_csv", corrupting_write)
    for _ in range(3):
        runner.call()
    assert runner.attempted == 3
    # a bad first call poisons the reference, so every call fails
    assert runner.failed == (3 if on_call == 1 else 1)


@pytest.mark.parametrize("name", list(TINY))
def test_seed_changes_inputs_but_not_call_counts(name, tmp_path):
    workload = TINY[name]
    assert workload.document(1) == workload.document(1)
    assert workload.document(1) != workload.document(2)
    counts = []
    for seed in (1, 2):
        result, details = run.run(workload, seed, 0, True, tmp_path / str(seed))
        assert result["correct"], details["problems"]
        counts.append(details["calls_per_call"])
    assert counts[0] == counts[1]


def test_tail_keeps_ten_samples_beyond_it():
    value, percentile = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and percentile == 75.0


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "twin-reps",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
