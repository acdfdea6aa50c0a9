"""Shared test helpers: deterministic random symplectic (Bogoliubov) maps."""

import numpy as np

from cavityclock import BogoliubovMap
from cavityclock.gauss import _covariance_terms, _parameters
from map_oracle import compose


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_passive_map(rng: np.random.Generator, n: int) -> BogoliubovMap:
    return BogoliubovMap(random_unitary(rng, n), np.zeros((n, n), complex))


def random_squeeze_map(rng: np.random.Generator, n: int,
                       r_max: float = 1.0) -> BogoliubovMap:
    r = rng.uniform(0.0, r_max, size=n)
    phi = rng.uniform(-np.pi, np.pi, size=n)
    return BogoliubovMap(np.diag(np.cosh(r)).astype(complex),
                         np.diag(np.sinh(r) * np.exp(1j * phi)))


def random_symplectic_map(rng: np.random.Generator, n: int,
                          r_max: float = 1.0) -> BogoliubovMap:
    """Bloch-Messiah form: passive . squeeze . passive; exactly symplectic
    up to rounding."""
    return compose(random_passive_map(rng, n),
                   compose(random_squeeze_map(rng, n, r_max),
                           random_passive_map(rng, n)))


def entry_det(cov):
    """s11 s22 - s12^2 of single-mode covariances (..., 2, 2): the det of
    entries that carry no rows to take it from (`gauss.row_det`)."""
    return cov[..., 0, 0] * cov[..., 1, 1] - cov[..., 0, 1] * cov[..., 1, 0]


def moment_params(moments, cov):
    """(params, None) or (None, fault): the gate, then the formulas, with
    the det of the entries (`entry_det`)."""
    terms, fault = _covariance_terms(cov, entry_det(cov))
    return (None, fault) if fault else (_parameters(moments, terms), None)
