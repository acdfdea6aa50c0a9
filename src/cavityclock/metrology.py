"""Quantum Fisher information for phase estimation and the Cramér-Rao bound."""

from __future__ import annotations

import math
import numbers
import sys

from .errors import UnboundedVarianceError, ValidationError
from .gauss import GaussianParams


def phase_qfi(params: GaussianParams) -> float:
    """QFI for the phase of a single-mode Gaussian state:

    H = 4 alpha^2 P [cosh 2r + sinh 2r cos phi] + 4 sinh^2(2r) / (1 + P^2).

    Anchors: coherent state H = 4 <N>; pure squeezed vacuum H = 8 <N>(<N>+1).
    """
    a = params.displacement
    r = params.squeeze_magnitude
    p = params.purity
    term_disp = 4.0 * a * a * p * (math.cosh(2 * r)
                                   + math.sinh(2 * r) * math.cos(params.squeeze_angle))
    term_sq = 4.0 * math.sinh(2 * r) ** 2 / (1.0 + p * p)
    return term_disp + term_sq


def cramer_rao(qfi: float, measurements: int) -> float:
    """Best attainable standard deviation over `measurements` repetitions:
    1 / sqrt(M * H), or 1 / (sqrt(M) sqrt(H)) where M * H overflows.  A
    count that no double holds raises ValidationError."""
    if not 0 <= qfi <= sys.float_info.max:
        raise ValidationError(f"qfi must be >= 0 and finite, got {qfi}")
    if (isinstance(measurements, bool)
            or not isinstance(measurements, numbers.Integral)):
        raise ValidationError(
            f"measurements must be an integer, got {measurements!r}")
    if measurements < 1:
        raise ValidationError(f"measurements must be >= 1, got {measurements}")
    try:
        count = float(measurements)
    except OverflowError:
        raise ValidationError(
            f"measurements must fit in a double, got an integer of "
            f"{measurements.bit_length()} bits") from None
    if qfi == 0:
        raise UnboundedVarianceError(
            "zero Fisher information: estimator variance is unbounded")
    if (product := count * qfi) <= sys.float_info.max:
        return 1.0 / math.sqrt(product)
    return 1.0 / (math.sqrt(count) * math.sqrt(qfi))


def qfi_change_pct(before: float, after: float) -> float:
    """Change of the QFI as a percentage of its pre-motion value:
    100 (after - before) / before, or 100 ((after - before) / before) where
    the former overflows."""
    if not 0 < before <= sys.float_info.max:
        raise ValidationError(
            f"reference qfi must be > 0 and finite, got {before}")
    if not 0 <= after <= sys.float_info.max:
        raise ValidationError(f"qfi must be >= 0 and finite, got {after}")
    change = 100.0 * (after - before) / before
    if abs(change) <= sys.float_info.max:
        return change
    # 100 (after - before) overflowed: divide first
    return 100.0 * ((after - before) / before)
