"""cavityclock benchmark: drives `cavityclock.cli.main([...])` in-process.

    python3 bench/run.py --workload twin-reps --seed 1 --seconds 55 --trace 0

Run from the repository root; the package is imported from ./src.  With
`--trace 0` the last stdout line carries the end-to-end metrics of an
untraced run; with `--trace 1` it carries the per-layer metrics of a traced
run (see bench/README.md).  Every call is checked: it must exit 0 and write
the same CSV bytes as the run's first call, which is itself checked against
analytic anchors and an independent squared-map path before timing starts.
The line before the result holds the environment facts and the details
(sample counts, tail percentile, layer shares).
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported (here or in a child interpreter).
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse
import contextlib
import gc
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "_work"
SETUP_RUNS = 20
TAIL_BEYOND = 10          # samples that must lie above the reported tail
MIN_CALLS = TAIL_BEYOND + 1

# Span names per layer of the interaction table in bench/README.md; every
# other span counts as "I/O and the rest".
LAYERS = {
    "propagation loop": ("gauss.apply_reduced", "gauss.extract_params",
                         "clock.run_twin"),
    "linear-algebra kernels": ("modes.compose", "modes.passive_part",
                               "modes.symplectic_residual", "modes.inverse",
                               "modes.free_phase_map"),
    "map construction": ("modes.junction_map", "modes.trajectory_map"),
    "sweep pool": ("clock.sweep",),
}

from spans import Profile, Tracer, write_spans  # noqa: E402
from workloads import WORKLOADS, Workload, check_rows, oracle  # noqa: E402

# Child interpreter for setup_s: import the CLI and load the config.
SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from cavityclock.cli import load_config
load_config(sys.argv[2])
print(repr(time.perf_counter() - t0))
"""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit(root: Path) -> str | None:
    """HEAD of the git repository at `root`, or None outside one."""
    try:
        proc = subprocess.run(
            ["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": git_commit(ROOT),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


class Runner:
    """Runs one workload's CLI call repeatedly and checks every output."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path):
        from cavityclock import cli

        self.cli = cli
        self.workload = workload
        self.threads = min(workload.threads, nproc())
        self.doc = workload.document(seed)
        case = work_dir / workload.name
        shutil.rmtree(case, ignore_errors=True)
        self.out = case / "out"
        self.out.mkdir(parents=True)
        self.config = case / "config.json"
        self.config.write_text(json.dumps(self.doc, indent=2) + "\n")
        self.csv = self.out / f"{workload.name}_results.csv"
        self.argv = workload.argv(self.config, self.out, self.threads)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: bytes | None = None
        self.reference_ok = False

    def call(self) -> float:
        """One checked `main(argv)` call; returns its wall seconds."""
        self.csv.unlink(missing_ok=True)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            start = perf_counter()
            code = self.cli.main(self.argv)
            elapsed = perf_counter() - start
        self.attempted += 1
        written = self.csv.read_bytes() if self.csv.exists() else None
        if self.reference is None and code == 0 and written is not None:
            # first call: checked outside the timed region
            found = check_rows(self.doc, written.decode(), oracle(self.doc))
            self.problems += found
            self.reference = written
            self.reference_ok = not found
        ok = code == 0 and self.reference_ok and written == self.reference
        if not ok:
            self.failed += 1
            if code != 0:
                self.problems.append(f"call {self.attempted} exited {code}")
            elif written != self.reference:
                self.problems.append(f"call {self.attempted} wrote other CSV bytes")
        return elapsed

    def peak_alloc_bytes(self) -> int:
        gc.collect()
        tracemalloc.start()
        try:
            self.call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def setup_seconds(config: Path) -> float:
    """Import cavityclock.cli and load_config in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(config)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic that still has
    TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Timed calls for `seconds`, at least MIN_CALLS of them.  The SETUP_RUNS
    set-up samples are spread evenly over the same window, so that they see
    the same mix of fast and slow machine periods as the calls."""
    runner.call()                       # checked first call, also warms up
    gc.collect()
    samples: list[float] = []
    setup: list[float] = []
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        next_setup_at = seconds * len(setup) / SETUP_RUNS
        if len(setup) < SETUP_RUNS and elapsed >= next_setup_at:
            setup.append(setup_seconds(runner.config))
        elif elapsed < seconds or len(samples) < MIN_CALLS:
            samples.append(runner.call())
        else:
            break
    peak = runner.peak_alloc_bytes()
    tail_s, tail_pct = tail(samples)
    metrics = {
        "call_s.p50": metric(statistics.median(samples), "s"),
        "call_s.tail": metric(tail_s, "s"),
        "round_trips_per_s": metric(
            runner.workload.round_trips_per_call * len(samples) / sum(samples),
            "1/s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_alloc_mb": metric(peak / 1e6, "MB"),
        "ok_frac": metric(
            (runner.attempted - runner.failed) / runner.attempted, "ratio"),
    }
    details = {"timed_calls": len(samples), "tail_percentile": tail_pct,
               "setup_runs_s": setup}
    return metrics, details


def layer_shares(self_s: dict[str, float], wall: float) -> dict[str, float]:
    """Self time per layer as a share of the traced call's wall time; the
    shares add up to the number of busy threads."""
    shares = {layer: sum(self_s.get(name, 0.0) for name in names) / wall
              for layer, names in LAYERS.items()}
    shares["I/O and the rest"] = sum(self_s.values()) / wall - sum(shares.values())
    return shares


def per_layer(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Alternates untraced and traced calls, so drift in machine speed
    does not bias the tracing overhead."""
    runner.call()
    tracer = Tracer()
    profile = Profile()
    untraced: list[float] = []
    traced: list[float] = []
    last_spans: list[tuple] = []
    gc.collect()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(traced) < MIN_CALLS:
        untraced.append(runner.call())
        tracer.instrument()
        try:
            traced.append(runner.call())
        finally:
            tracer.restore()
        last_spans = tracer.drain()
        profile.add(last_spans)
    write_spans(runner.config.parent / "spans.tsv", last_spans)

    n = len(traced)
    calls = {k: v / n for k, v in profile.calls.items()}
    self_s = {k: v / n for k, v in profile.self_s.items()}
    sweep_wall = profile.wall_s.get("clock.sweep", 0.0)
    busy = (profile.sweep_child_s / (sweep_wall * runner.threads)
            if sweep_wall else 0.0)
    p50_untraced = statistics.median(untraced)
    p50_traced = statistics.median(traced)

    def count(name):
        return metric(calls.get(name, 0.0), "count")

    def busy_s(name):
        return metric(self_s.get(name, 0.0), "s")

    metrics = {
        "gauss.apply_reduced.calls": count("gauss.apply_reduced"),
        "gauss.apply_reduced.s": busy_s("gauss.apply_reduced"),
        "gauss.extract_params.calls": count("gauss.extract_params"),
        "gauss.extract_params.s": busy_s("gauss.extract_params"),
        "clock.run_twin.self_s": busy_s("clock.run_twin"),
        "modes.compose.calls": count("modes.compose"),
        "modes.compose.s": busy_s("modes.compose"),
        "modes.compose.flop_computed": metric(profile.compose_flop / n, "flop"),
        "modes.compose.bytes_computed": metric(profile.compose_bytes / n, "B"),
        "modes.passive_part.s": busy_s("modes.passive_part"),
        "modes.symplectic_residual.calls": count("modes.symplectic_residual"),
        "modes.symplectic_residual.s": busy_s("modes.symplectic_residual"),
        "modes.junction_map.calls": count("modes.junction_map"),
        "modes.junction_map.s": busy_s("modes.junction_map"),
        "modes.trajectory_map.self_s": busy_s("modes.trajectory_map"),
        "clock.sweep.self_s": busy_s("clock.sweep"),
        "clock.sweep.busy_frac": metric(busy, "ratio"),
        "cli.load_config.s": busy_s("cli.load_config"),
        "cli.write_results_csv.s": busy_s("cli.write_results_csv"),
        "cli.write_results_csv.bytes": metric(len(runner.reference or b""), "B"),
        "cli.write_manifest.s": busy_s("cli.write_manifest"),
        "cli.main.self_s": busy_s("cli.main"),
        "trajectory.s": metric(sum(v for k, v in self_s.items()
                                   if k.startswith("trajectory.")), "s"),
        "metrology.phase_qfi.s": busy_s("metrology.phase_qfi"),
        "trace.call_s.p50": metric(p50_traced, "s"),
        "trace.overhead_frac": metric(
            (p50_traced - p50_untraced) / p50_untraced, "ratio"),
    }
    wall = profile.wall_s.get("cli.main", 0.0) / n
    details = {
        "untraced_calls": len(untraced), "traced_calls": n,
        "traced_call_s.mean": wall,
        "self_share": {k: v / wall for k, v in self_s.items()},
        "layer_share": layer_shares(self_s, wall),
        "self_sum_over_wall": sum(self_s.values()) / wall,
        "calls_per_call": dict(sorted(calls.items())),
    }
    return metrics, details


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        work_dir: Path = WORK_DIR) -> tuple[dict, dict]:
    """(result line, details) for one benchmark run."""
    runner = Runner(workload, seed, work_dir)
    measure = per_layer if trace else end_to_end
    metrics, details = measure(runner, seconds)
    details.update(workload=workload.name, seed=seed, threads=runner.threads,
                   problems=runner.problems[:20])
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cavityclock" / "__init__.py").is_file():
        print(f"bench: no cavityclock sources under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cavityclock

    if Path(cavityclock.__file__).resolve().parent != SRC / "cavityclock":
        print(f"bench: imported cavityclock from {cavityclock.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    result, details = run(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    details["environment"] = environment_facts()
    report = json.dumps({"details": details}, sort_keys=True)
    (WORK_DIR / args.workload / "report.json").write_text(report + "\n")
    print(report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
