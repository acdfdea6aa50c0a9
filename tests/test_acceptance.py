"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured figure and running within its stated budget."""

import json
import math
import time

import numpy as np
import pytest

from conftest import random_symplectic_map
from transport_oracle import apply_full, embed, partial_trace
from cavityclock import (BogoliubovMap, C, G_NEWTON, HorizonError,
                         ScenarioConfig, apply_reduced,
                         classical_cavity_ratio, coherent, extract_params,
                         junction_map, phase_qfi, run_twin,
                         schwarzschild_acceleration, squeezed_vacuum,
                         symplectic_residual)
from cavityclock.cli import main


def report(number: int, detail: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {detail}")


def test_criterion_1_classical_ratio_series():
    start = time.monotonic()
    devs = {h: abs(classical_cavity_ratio(h) - (1 - h * h / 12))
            for h in (0.01, 0.05, 0.1, 0.2, 0.5)}
    for h, dev in devs.items():
        assert dev <= h**4, (h, dev)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"max |ratio - series| = {max(devs.values()):.3e} "
              f"(bounds h^4), {elapsed * 1e3:.1f} ms")


def test_criterion_2_qfi_anchors():
    ident = BogoliubovMap.identity(8)
    worst = 0.0
    for mean_n in (1.0, 5.0, 10.0):
        coh = apply_reduced(ident, 1, coherent(math.sqrt(mean_n), 0.3))
        value = phase_qfi(extract_params(coh))
        worst = max(worst, abs(value / (4 * mean_n) - 1))
        assert value == pytest.approx(4 * mean_n, rel=1e-12)

        sq = apply_reduced(ident, 1, squeezed_vacuum(mean_n, 0.7))
        value = phase_qfi(extract_params(sq))
        expected = 8 * mean_n * (mean_n + 1)
        worst = max(worst, abs(value / expected - 1))
        assert value == pytest.approx(expected, rel=1e-12)
    report(2, f"coherent 4N and squeezed 8N(N+1) anchors, worst relative "
              f"deviation {worst:.2e} (tolerance 1e-12)")


def test_criterion_3_reduced_vs_full_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    states = [coherent(1.3, 0.4), squeezed_vacuum(2.0, -0.6),
              coherent(0.0), squeezed_vacuum(0.5, 1.9)]
    worst = 0.0
    for i in range(100):
        bmap = random_symplectic_map(rng, 8)
        state = states[i % len(states)]
        k = int(rng.integers(1, 9))
        reduced = apply_reduced(bmap, k, state, residual_gate=None)
        full = partial_trace(apply_full(bmap, embed(state, 8, k)), k)
        dev = max(np.max(np.abs(reduced.first_moments - full.first_moments)),
                  np.max(np.abs(reduced.covariance - full.covariance)))
        worst = max(worst, float(dev))
        assert dev <= 1e-10
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(3, f"100 maps, worst elementwise deviation {worst:.2e} "
              f"(tolerance 1e-10), {elapsed:.2f} s")


def test_criterion_4_symplectic_convergence():
    eps = {n: symplectic_residual(junction_map(0.01, n), 5)[0]
           for n in (10, 20, 40)}
    assert eps[40] <= 1e-6
    assert eps[10] > eps[20] > eps[40]
    report(4, f"junction h=0.01 eps1(5x5): n_max 10 -> {eps[10]:.2e}, "
              f"20 -> {eps[20]:.2e}, 40 -> {eps[40]:.2e} (gate 1e-6)")


def test_criterion_5_beta_linear_scaling():
    hs = np.geomspace(1e-3, 1e-1, 9)
    norms = [float(np.linalg.norm(junction_map(h, 16).beta)) for h in hs]
    slope = float(np.polyfit(np.log(hs), np.log(norms), 1)[0])
    assert slope == pytest.approx(1.0, abs=0.05)
    report(5, f"log-log slope of |beta|(h) over [1e-3, 1e-1] = {slope:.4f} "
              f"(1 +/- 0.05)")


SQUID_DEFAULTS = dict(t_a=1e-9, t_i=0.0, L=0.011, a=1.7e15, repetitions=500)


def test_criterion_6_twin_paradox_trends():
    start = time.monotonic()
    coh = run_twin(ScenarioConfig(**SQUID_DEFAULTS, n_max=24,
                                  state_kind="coherent", mean_n=10.0))
    sq = run_twin(ScenarioConfig(**SQUID_DEFAULTS, n_max=24,
                                 state_kind="squeezed_vacuum", mean_n=10.0))

    # (a) time ordering
    assert coh.tau_alice > coh.tau_rob_pointlike
    assert coh.tau_rob_pointlike > coh.tau_rob_classical_extended

    # (b) phase difference grows monotonically with repetition count
    increments = np.diff(np.concatenate([[0.0],
                                         coh.phase_difference_series]))
    assert increments.shape == (500,)
    assert np.all(increments > 0)

    # (c) mode-mixing degrades the squeezed clock, and harder than the
    # equal-energy coherent one
    assert sq.qfi_change_pct_mm_only < 0
    assert abs(sq.qfi_change_pct_mm_only) >= abs(coh.qfi_change_pct_mm_only)

    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(6, "tau_alice > tau_point > tau_classical; phase difference "
              f"monotone over 500 repetitions (final "
              f"{coh.phase_difference_vs_alice:.4f} rad); mm-only QFI change "
              f"squeezed {sq.qfi_change_pct_mm_only:.2e}% vs coherent "
              f"{coh.qfi_change_pct_mm_only:.2e}%; {elapsed:.2f} s")


def test_criterion_7_schwarzschild_limits():
    start = time.monotonic()
    mass = 5.972e24
    rs = 2 * G_NEWTON * mass / C**2
    r = 100 * rs
    newtonian = G_NEWTON * mass / r**2
    value = schwarzschild_acceleration(mass, r)
    rel = abs(value - newtonian) / newtonian
    assert rel < 0.01
    with pytest.raises(HorizonError):
        schwarzschild_acceleration(mass, rs)
    with pytest.raises(HorizonError):
        schwarzschild_acceleration(mass, 0.3 * rs)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(7, f"a_S at 100 r_s within {100 * rel:.3f}% of GM/r^2; "
              f"r <= r_s raises; {elapsed * 1e3:.1f} ms")


def test_criterion_8_thread_count_determinism(tmp_path):
    document = {
        "schema": 1,
        "units": "SI",
        "scenario": {
            "t_a_s": 1e-9, "t_i_s": 0.0, "L_m": 0.011, "a_mps2": 1.7e15,
            "repetitions": 500, "clock_mode": 1,
            "state": {"kind": "coherent", "mean_n": 10.0, "theta0_rad": 0.0},
        },
        "numerics": {"n_max": 24, "residual_gate": 1e-4,
                     "quadrature_tol": 1e-12},
        "output": {"prefix": "criterion6"},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(document))
    payloads = []
    for threads, sub in (("1", "run_a"), ("4", "run_b")):
        out = tmp_path / sub
        assert main(["twin", "--config", str(config), "--out", str(out),
                     "--threads", threads]) == 0
        payloads.append((out / "criterion6_results.csv").read_bytes())
    assert payloads[0] == payloads[1]
    report(8, f"byte-identical CSVs across --threads 1 vs 4 "
              f"({len(payloads[0])} bytes)")
