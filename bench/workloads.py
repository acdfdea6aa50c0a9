"""Benchmark workloads and the output-correctness checks.

A workload fixes the amount of work (state, truncation, repetitions, grid
size, threads); the seed draws only config values that leave the work
unchanged (cavity lengths, initial phase).  The checks read the CSV that
`cavityclock twin|sweep` wrote and compare every row with values the
benchmark computes itself: analytic anchors, plus an independent
squared-map path (`trajectory_map` over all repetitions at once) for the
final phase and QFI.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass

# Exact SI value; the checks do not read the library's constant.
C = 299_792_458.0

T_A_S = 1e-9
T_I_S = 0.0
A_MPS2 = 1.7e15
CLOCK_MODE = 1

# Tolerances of the first-call checks.  Worst agreement seen over seeds 1-5
# of the workloads and of a squeezed-vacuum twin at n_max 128 is in brackets;
# each bound leaves at least 10x room.
ANCHOR_RTOL = 1e-12        # qfi_before [5.8e-14] and the classical time ratio [2.2e-16]
PHASE_DIFF_RTOL = 1e-13    # phase_diff vs theta_alice - theta_full, relative to |theta_alice| [0]
# theta_full is ~1.7e6 rad on twin-reps, where one ulp is 2.3e-10 rad [0]
ORACLE_PHASE_ATOL = 1e-9   # rad, theta_full vs the squared-map path
ORACLE_QFI_RTOL = 1e-11    # qfi_after vs the squared-map path [9.2e-13]


@dataclass(frozen=True)
class Workload:
    """One set of inputs for `cavityclock.cli.main`."""

    name: str
    why: str
    command: str                       # "twin" or "sweep"
    state_kind: str
    mean_n: float
    n_max: int
    repetitions: int
    L_range: tuple[float, float]       # seeded draw of L (one per grid point)
    draw_theta0: bool
    points: int = 1                    # sweep grid size
    threads: int = 1                   # --threads, always passed explicitly

    @property
    def round_trips_per_call(self) -> int:
        return self.repetitions * self.points

    def document(self, seed: int) -> dict:
        """Config document for `seed`; the same seed gives the same document."""
        rng = random.Random(f"{self.name}:{seed}")
        lengths = [rng.uniform(*self.L_range) for _ in range(self.points)]
        theta0 = rng.uniform(-math.pi, math.pi) if self.draw_theta0 else 0.0
        doc = {
            "schema": 1,
            "units": "SI",
            "scenario": {
                "t_a_s": T_A_S,
                "t_i_s": T_I_S,
                "L_m": lengths[0] if self.command == "twin"
                else 0.5 * sum(self.L_range),
                "a_mps2": A_MPS2,
                "repetitions": self.repetitions,
                "clock_mode": CLOCK_MODE,
                "state": {"kind": self.state_kind, "mean_n": self.mean_n,
                          "theta0_rad": theta0},
            },
            "numerics": {"n_max": self.n_max, "residual_gate": 1e-4,
                         "quadrature_tol": 1e-12},
            "output": {"prefix": self.name},
        }
        if self.command == "sweep":
            doc["sweep"] = {"vary": "L", "grid": sorted(lengths)}
        return doc

    def argv(self, config_path, out_dir, threads: int) -> list[str]:
        return [self.command, "--config", str(config_path), "--out",
                str(out_dir), "--threads", str(threads)]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="twin-reps",
        why="5000 round trips at n_max 24: stresses the per-repetition "
            "propagation loop (apply_reduced, extract_params, compose)",
        command="twin", state_kind="coherent", mean_n=1.0, n_max=24,
        repetitions=5000, L_range=(0.010, 0.012), draw_theta0=True),
    Workload(
        name="sweep-L",
        why="16-point L sweep of 200 round trips on 2 threads: distinct maps "
            "per point, the sweep thread pool and a multi-row CSV",
        command="sweep", state_kind="coherent", mean_n=1.0, n_max=24,
        repetitions=200, L_range=(0.009, 0.013), draw_theta0=False,
        points=16, threads=2),
)}


def _theta_start(state_kind: str, theta0: float) -> float:
    """Clock readout of the initial state: the displacement phase, or half
    the squeeze angle for squeezed vacuum."""
    wrapped = math.remainder(theta0, 2.0 * math.pi)
    return wrapped if state_kind == "coherent" else 0.5 * wrapped


def squared_map_readout(doc: dict, L: float) -> tuple[float, float]:
    """Final clock phase and QFI from the whole-trajectory map, built by
    squaring the block map, applied once to the initial state."""
    from cavityclock.gauss import (apply_reduced, coherent, extract_params,
                                   squeezed_vacuum)
    from cavityclock.metrology import phase_qfi
    from cavityclock.modes import trajectory_map
    from cavityclock.trajectory import build_twin_trajectory

    sc = doc["scenario"]
    st = sc["state"]
    n_max = doc["numerics"]["n_max"]
    k, reps = sc["clock_mode"], sc["repetitions"]
    t_a, t_i, a = sc["t_a_s"], sc["t_i_s"], sc["a_mps2"]
    if st["kind"] == "coherent":
        state0 = coherent(math.sqrt(st["mean_n"]), st["theta0_rad"])
    else:
        state0 = squeezed_vacuum(st["mean_n"], st["theta0_rad"])
    full = trajectory_map(build_twin_trajectory(t_a, t_i, reps, a), L, n_max,
                          tol=doc["numerics"]["quadrature_tol"])
    params = extract_params(apply_reduced(full, k, state0, residual_gate=None))
    if params.displacement > 1e-12:
        wrapped, period = params.phase, 2.0 * math.pi
    else:
        wrapped, period = 0.5 * params.squeeze_angle, math.pi
    omega = k * math.pi / L * C
    anchor = (_theta_start(st["kind"], st["theta0_rad"])
              + reps * omega * (2.0 * t_i + classical_ratio(a * L / C**2) * 4.0 * t_a))
    return anchor + math.remainder(wrapped - anchor, period), phase_qfi(params)


def classical_ratio(h: float) -> float:
    """tau_cavity / tau_point = h / (2 artanh(h/2))."""
    return h / (2.0 * math.atanh(h / 2.0))


def expected_lengths(doc: dict) -> list[float]:
    sweep = doc.get("sweep")
    return list(sweep["grid"]) if sweep else [doc["scenario"]["L_m"]]


def oracle(doc: dict) -> list[tuple[float, float]]:
    """Squared-map (theta_full, qfi_after) for every row the run must write."""
    return [squared_map_readout(doc, L) for L in expected_lengths(doc)]


def _close(value: float, expected: float, atol: float) -> bool:
    return math.isfinite(value) and abs(value - expected) <= atol


def check_rows(doc: dict, csv_text: str,
               reference: list[tuple[float, float]]) -> list[str]:
    """Problems found in a results CSV; an empty list means it passed.

    `reference` is `oracle(doc)`, computed once per run.
    """
    sc = doc["scenario"]
    st = sc["state"]
    k, reps = sc["clock_mode"], sc["repetitions"]
    n = st["mean_n"]
    qfi0 = 4.0 * n if st["kind"] == "coherent" else 8.0 * n * (n + 1.0)
    theta_start = _theta_start(st["kind"], st["theta0_rad"])
    lengths = expected_lengths(doc)
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    if len(rows) != len(lengths):
        return [f"{len(rows)} rows, expected {len(lengths)}"]

    problems = []
    for i, (row, L, (theta_ref, qfi_ref)) in enumerate(
            zip(rows, lengths, reference)):
        try:
            values = {key: float(row[key]) for key in (
                "L_m", "a_mps2", "reps", "tau_alice_s", "tau_rob_point_s",
                "tau_rob_classical_s", "theta_full_rad", "phase_diff_rad",
                "qfi_before", "qfi_after")}
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"row {i}: unreadable value ({exc})")
            continue
        if values["L_m"] != L or values["reps"] != reps:
            problems.append(f"row {i}: L_m/reps do not match the config")
            continue
        h = values["a_mps2"] * L / C**2
        theta_alice = theta_start + k * math.pi / L * C * values["tau_alice_s"]
        checks = (
            ("qfi_before", values["qfi_before"], qfi0, ANCHOR_RTOL * qfi0),
            ("tau_rob_classical_s / tau_rob_point_s",
             values["tau_rob_classical_s"] / values["tau_rob_point_s"],
             classical_ratio(h), ANCHOR_RTOL),
            ("phase_diff_rad", values["phase_diff_rad"],
             theta_alice - values["theta_full_rad"],
             PHASE_DIFF_RTOL * abs(theta_alice)),
            ("theta_full_rad vs squared map", values["theta_full_rad"],
             theta_ref, ORACLE_PHASE_ATOL),
            ("qfi_after vs squared map", values["qfi_after"], qfi_ref,
             ORACLE_QFI_RTOL * abs(qfi_ref)),
        )
        for label, value, expected, atol in checks:
            if not _close(value, expected, atol):
                problems.append(f"row {i}: {label} = {value!r}, expected "
                                f"{expected!r} within {atol:.3g}")
    return problems
