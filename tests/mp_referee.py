"""A 50-digit referee for the clock readout: the pure initial state of a
scenario, carried by one row pair of a real symplectic matrix (its doubles
taken as exact) in `mpmath`, and read to its covariance determinant and
phase QFI with the parameter formulas of `gauss._parameters` and
`metrology.phase_qfi`.  It shares no rounding with the library: the state
enters through its factor G_k (sigma_k = G_k G_kᵀ / 4), and sigma' = M Mᵀ / 4
with M the rows whose mode-k columns are turned into R_k G_k."""

import mpmath

DIGITS = 50


def referee(rows, kind: str, mean_n: float, theta0: float,
            k: int = 1) -> tuple:
    """(det sigma', phase QFI) of the `kind` state ("coherent" or
    "squeezed_vacuum") with energy `mean_n` and phase `theta0`, placed at
    mode k (1-based) of a vacuum register and carried by the row pair `rows`
    (2 x 2N), as mpmath numbers."""
    with mpmath.workdps(DIGITS):
        i = 2 * k - 2
        m = mpmath.matrix(rows.tolist())
        theta = mpmath.mpf(theta0)
        if kind == "coherent":
            amplitude = mpmath.sqrt(mpmath.mpf(mean_n))
            f = [amplitude * mpmath.cos(theta), amplitude * mpmath.sin(theta)]
            g_k = mpmath.eye(2)
        else:
            f = [0, 0]
            r = mpmath.asinh(mpmath.sqrt(mpmath.mpf(mean_n)))
            c, s = mpmath.cos(theta / 2), mpmath.sin(theta / 2)
            g_k = (mpmath.matrix([[c, -s], [s, c]])
                   * mpmath.diag([mpmath.exp(r), mpmath.exp(-r)]))
        r_k = m[:, i:i + 2]
        q, p = r_k * mpmath.matrix(f)
        m[:, i:i + 2] = r_k * g_k
        sigma = m * m.T / 4
        s11, s22, s12 = sigma[0, 0], sigma[1, 1], sigma[0, 1]
        det = s11 * s22 - s12 * s12
        purity = 1 / (4 * mpmath.sqrt(det))
        trace = s11 + s22
        split = mpmath.sqrt((s11 - s22) ** 2 + 4 * s12 * s12)
        r = mpmath.log((trace + split) ** 2 / (4 * det)) / 4
        phi = mpmath.atan2(2 * s12, s11 - s22) - 2 * mpmath.atan2(p, q)
        qfi = (4 * (q * q + p * p) * purity
               * (mpmath.cosh(2 * r) + mpmath.sinh(2 * r) * mpmath.cos(phi))
               + 4 * mpmath.sinh(2 * r) ** 2 / (1 + purity * purity))
        return det, qfi
