"""Exact symmetries of `run_twin` as oracles.

S_B depends on the configuration only through h = aL/c^2 and the mode
phases omega_n c t and Omega_n a t / c, so two transforms leave every
dimensionless `ScenarioResult` field unchanged in exact arithmetic:
a -> -a, whose parity conjugation cancels on the clock mode, and the
rescaling (L, a, t_a, t_i) -> (lam L, a / lam, lam t_a, lam t_i).  For lam a
power of 2 every rescaled product is exact in floating point too, so both
transforms must hold bit for bit: the dimensionless fields (`residual`
included) and the series byte for byte, and the proper times exactly lam
times the base's."""

import functools
from dataclasses import fields, replace

import numpy as np
import pytest

from cavityclock import ScenarioConfig, ScenarioResult, run_twin

TAU_FIELDS = ("tau_alice", "tau_rob_pointlike", "tau_rob_classical_extended")
DIMENSIONLESS = [f.name for f in fields(ScenarioResult)
                 if f.name not in TAU_FIELDS + ("config",)]
LAMBDAS = [2.0, 0.5, 4.0, 8.0, 2.0**-10]
BASES = [(kind, t_i, reps) for kind in ("coherent", "squeezed_vacuum")
         for t_i in (0.0, 0.3e-9) for reps in (1, 37, 500)]
BASE_IDS = [f"{kind}-t_i{t_i:g}-{reps}" for kind, t_i, reps in BASES]


def base_config(kind: str, t_i: float, reps: int) -> ScenarioConfig:
    return ScenarioConfig(t_a=1e-9, t_i=t_i, L=0.011, a=1.7e15,
                          repetitions=reps, n_max=24, state_kind=kind,
                          mean_n=3.0, theta0=0.4)


@functools.cache
def base_result(kind: str, t_i: float, reps: int) -> ScenarioResult:
    return run_twin(base_config(kind, t_i, reps))


def bits(value) -> bytes:
    """The doubles of a float, or of a tuple or array of them."""
    return np.asarray(value, dtype=float).tobytes()


def assert_same_dimensionless(got: ScenarioResult, want: ScenarioResult):
    for name in DIMENSIONLESS:
        assert bits(getattr(got, name)) == bits(getattr(want, name)), name
    assert (bits(got.phase_difference_series)
            == bits(want.phase_difference_series))


@pytest.mark.parametrize("base", BASES, ids=BASE_IDS)
def test_acceleration_sign_is_bit_identical(base):
    want = base_result(*base)
    config = base_config(*base)
    got = run_twin(replace(config, a=-config.a))
    assert_same_dimensionless(got, want)
    for name in TAU_FIELDS:
        assert bits(getattr(got, name)) == bits(getattr(want, name)), name


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("base", BASES, ids=BASE_IDS)
def test_power_of_two_rescaling_is_bit_identical(base, lam):
    want = base_result(*base)
    config = base_config(*base)
    got = run_twin(replace(config, L=lam * config.L, a=config.a / lam,
                           t_a=lam * config.t_a, t_i=lam * config.t_i))
    assert_same_dimensionless(got, want)
    for name in TAU_FIELDS:
        assert getattr(got, name) == lam * getattr(want, name), name
