"""The readout's det sigma (`gauss.row_moments`) and the phase QFI read with
it, against the 50-digit referee (`mp_referee`) on the row pairs `run_twin`
reads, at config A's geometry (t_a 1 ns, t_i 0, a 1.7e15 m/s^2, L 0.011 m,
n_max 24).  The det s11 s22 - s12^2 of sigma's entries cancels for a large
squeezed vacuum at a nonzero angle: on the final row pair at 500 round
trips and theta0 0.3 it was off by 6.7e-6 relative at N 1e5 and by 9.4e-2
at 1e7."""

import functools

import numpy as np
import pytest

import cavityclock.clock as clock
from cavityclock import ScenarioConfig, run_twin
from mp_referee import referee

KINDS = ("coherent", "squeezed_vacuum")


def config_a(reps: int, kind: str = "coherent", mean_n: float = 1.0,
             theta0: float = 0.0) -> ScenarioConfig:
    return ScenarioConfig(t_a=1e-9, t_i=0.0, L=0.011, a=1.7e15,
                          repetitions=reps, n_max=24, state_kind=kind,
                          mean_n=mean_n, theta0=theta0)


@functools.cache
def row_pairs(reps: int) -> tuple:
    """The final and the mode-mixing-only row pair of config A's map stage
    at `reps` round trips; the map stage does not depend on the state."""
    stage = clock._map_stage(config_a(reps))
    return stage.final_rows, stage.mm_rows


@pytest.mark.parametrize("reps", [1, 500, 5000])
@pytest.mark.parametrize("theta0", [0.0, 0.3])
@pytest.mark.parametrize("mean_n", [1.0, 1e5, 1e7])
@pytest.mark.parametrize("kind", KINDS)
def test_every_readout_det_matches_the_referee(kind, mean_n, theta0, reps,
                                               monkeypatch):
    # the dets run_twin's gate reads, in one span: the initial state by
    # identity rows (exactly 1/16), then the final and the mode-mixing-only
    # row pair
    dets = []
    covariance_terms = clock._covariance_terms

    def recording(cov, det):
        dets.extend(np.ravel(det).tolist())
        return covariance_terms(cov, det)

    monkeypatch.setattr(clock, "_covariance_terms", recording)
    run_twin(config_a(reps, kind, mean_n, theta0))
    assert dets[0] == 0.0625
    for det, rows in zip(dets, (np.eye(2), *row_pairs(reps)), strict=True):
        want = referee(rows, kind, mean_n, theta0)[0]
        assert abs(det - want) <= 1e-15 * want


@pytest.mark.parametrize("mean_n", [1.0, 10.0, 1e3, 1e5, 1e6, 1e7])
def test_squeezed_qfi_before_at_an_angle(mean_n):
    # the entry det read it off by -2.4e-7 relative at N 1e5 and by -3.9e-3
    # at 1e7, and found the state at 1e6 unphysical
    result = run_twin(config_a(1, "squeezed_vacuum", mean_n, 0.3))
    assert result.qfi_before == pytest.approx(8 * mean_n * (mean_n + 1),
                                              rel=1e-13)


def test_large_squeezed_vacuum_reads_at_an_angle():
    # N 1e7 at theta0 0.3: the lanes, with the entry det, found repetition
    # 73 unphysical from the readout's own cancellation
    result = run_twin(config_a(500, "squeezed_vacuum", 1e7, 0.3))
    for got, rows in zip((result.qfi_after, result.qfi_after_mm_only),
                         row_pairs(500)):
        want = referee(rows, "squeezed_vacuum", 1e7, 0.3)[1]
        assert abs(got - want) <= 1e-12 * want
