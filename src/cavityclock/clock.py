"""Twin-paradox scenario orchestration.

Runs the full pipeline: build the round-trip trajectory and its map, evolve
the clock mode's Gaussian state, and compare the resulting clock time
(phase / mode frequency) and precision (phase QFI) against the pointlike and
classical extended-clock predictions.

Two stages.  `_map_stage` builds all that does not depend on the state,
as a `MapStage`: the one-block map S_B, gated by the residual of its
trusted rows and read for the drift delta = omega - 1 of its clock row
pair R, where omega = (R Omega Rᵀ)_12 is 1 for an exact map; then S_B^reps,
squared in S_B's own buffer and two more (`modes._map_power`) and gated
the same way; the clock mode k's row pair of S_B^reps; and the row pair of
the passive part of S_B^reps (from its alpha alone) for the
mode-mixing-only state.  No more than three 2n x 2n matrices are alive at
once.

One route then reads the clock.  A run beyond the drift horizon 0.5 *
`_PURITY_SLACK` / max(|delta|, 2^-52) (`_drift_fault`) raises
TruncationError before the state enters.  Any physical state has sigma + i
Omega / 4 >= 0, so after a row pair with symplectic product omega(r) its
purity is at most 1/omega(r); omega(r) - 1 drifts by nearly delta per round
trip, so within the horizon the drift uses at most half the physicality
gate's slack, and the final state vouches for every earlier repetition.
The clock row pair of S_B^reps carries the initial state, at mode k of a
vacuum register, straight to the clock mode's moments and covariance
(`gauss.row_moments`), as the mode-mixing-only row pair does; identity rows
at mode k carry the initial state itself.  The three are read as one
3-entry span (`_clock_frame`): one transport pass, one physicality gate,
whose error names the first faulty state in that order, and one
`_parameters`.  Every readout takes det sigma from that pass
(`gauss.row_moments`), as a sum of terms that are each >= 0, never as s11
s22 - s12^2, whose O(N^2) products cancel for a large squeezed vacuum at a
nonzero angle.

The lanes (`_lane_route`) serve `ScenarioResult.phase_difference_series`
alone and gate every repetition.  After r round trips the map is B^r, and
the clock row pair obeys S_k(r + m) = S_k(r) S_B^m, so the lanes hold the
row pairs of M consecutive repetitions, S_B^r = S_B^(r-1) S_B for r = 1..M,
ending at H = S_B^M; one (2M x 2n) by (2n x 2n) product with H, written
into a second lane buffer, then moves every lane M repetitions on.  Each
lane writes the clock mode's moments, covariance and det straight into the
span buffers; a span is read by the gate and `_parameters` (`_span_phase`).

Clock readout, decided once per run from `state_kind`: a coherent clock
reads its displacement phase atan2(p, q), with period 2 pi, at any
amplitude; a squeezed-vacuum clock reads its squeeze orientation phi/2,
which advances at the same rate but wraps with period pi.  Phases are
unwrapped against the analytic per-block anchor (Minkowski rate on coasts,
Rindler rate during acceleration), which stays within half a branch of the
truth for any configuration whose mixing corrections are perturbative.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .constants import C, G_NEWTON
from .errors import (CavityClockError, HorizonError, TruncationError,
                     UnboundedVarianceError, ValidationError)
from .gauss import (_PURITY_SLACK, GaussianParams, GaussianState,
                    _covariance_terms, _parameters, _remainder, coherent,
                    row_moments, squeezed_vacuum)
from .metrology import phase_qfi, qfi_change_pct
from .modes import (_TRUSTED_MARGIN, _alpha, _block_symplectic, _coefficients,
                    _map_power, _trusted_interior, gated_residual,
                    symplectic_matrix)
from .trajectory import build_twin_trajectory, elapsed_times


def classical_cavity_ratio(h: float) -> float:
    """Proper-time rate of the extended cavity clock relative to a pointlike
    clock at its center during constant proper acceleration:

    ratio = h / (2 artanh(h/2)) = h / ln((2+h)/(2-h)) = 1 - h^2/12 + O(h^4).

    Even in h (the wedge orientation cannot matter); 1 at h = 0.
    """
    ah = abs(h)
    if not ah < 2:
        raise HorizonError(f"ratio defined for |h| < 2, got {h}")
    if ah == 0:
        return 1.0
    return ah / (2.0 * math.atanh(ah / 2.0))


@dataclass(frozen=True)
class ScenarioConfig:
    """Twin-paradox run parameters (SI at this surface).

    The clock is mode `clock_mode` (1-based, fundamental by default) of a
    cavity of length L; `mean_n` fixes the initial state energy (coherent
    amplitude sqrt(mean_n), or squeezed vacuum with that <N>), `theta0` its
    initial phase (displacement phase, or squeeze angle).
    """

    t_a: float
    t_i: float
    L: float
    a: float
    repetitions: int
    clock_mode: int = 1
    n_max: int = 24
    state_kind: str = "coherent"
    mean_n: float = 1.0
    theta0: float = 0.0
    residual_gate: float | None = 1e-4
    quadrature_tol: float = 1e-12

    def __post_init__(self):
        # NaN slips through every comparison below, and +inf through each
        # lower bound, so finiteness is checked first; unlike math.isfinite,
        # comparing with the largest double never raises, not even for an
        # integer too large for one
        for name in ("L", "a", "t_a", "t_i", "mean_n", "theta0"):
            if not abs(value := getattr(self, name)) <= sys.float_info.max:
                raise ValidationError(f"{name} must be finite, got {value}")
        for name in ("repetitions", "clock_mode", "n_max"):
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, numbers.Integral)):
                raise ValidationError(
                    f"{name} must be an integer, got {value!r}")
        if not 0 < self.quadrature_tol <= sys.float_info.max:
            raise ValidationError(f"quadrature_tol must be > 0 and finite, "
                                  f"got {self.quadrature_tol}")
        if (self.residual_gate is not None
                and not 0 < self.residual_gate <= sys.float_info.max):
            raise ValidationError(f"residual_gate must be > 0 and finite, or "
                                  f"None, got {self.residual_gate}")
        if self.L <= 0:
            raise ValidationError(f"L must be > 0, got {self.L}")
        if self.t_a <= 0:
            raise ValidationError(f"t_a must be > 0, got {self.t_a}")
        if self.t_i < 0:
            raise ValidationError(f"t_i must be >= 0, got {self.t_i}")
        if self.repetitions < 1:
            raise ValidationError(
                f"repetitions must be >= 1, got {self.repetitions}")
        if self.mean_n <= 0:
            raise ValidationError(
                f"mean_n must be > 0 (a zero-energy state carries no phase "
                f"information), got {self.mean_n}")
        if self.state_kind not in ("coherent", "squeezed_vacuum"):
            raise ValidationError(f"unknown state kind {self.state_kind!r}")
        # the initial state's phase QFI (`phase_qfi`'s anchors) must be
        # finite; below that bound the state itself is finite too
        n = self.mean_n
        qfi = 4.0 * n if self.state_kind == "coherent" else 8.0 * n * (n + 1.0)
        if not qfi <= sys.float_info.max:
            raise ValidationError(
                f"mean_n {n!r} gives a {self.state_kind} state whose phase "
                f"QFI is not finite")
        if self.clock_mode < 1:
            raise ValidationError("clock_mode must be >= 1")
        if self.clock_mode + _TRUSTED_MARGIN > self.n_max:
            raise ValidationError(
                f"need clock_mode + {_TRUSTED_MARGIN} <= n_max for a trusted "
                f"interior block, got k={self.clock_mode}, n_max={self.n_max}")
        if self.h >= 2:
            raise HorizonError(
                f"cavity intersects the Rindler horizon: h = {self.h:.6g} >= 2")

    @property
    def h(self) -> float:
        return abs(self.a) * self.L / C**2

    def initial_state(self) -> GaussianState:
        if self.state_kind == "coherent":
            return coherent(math.sqrt(self.mean_n), self.theta0)
        return squeezed_vacuum(self.mean_n, self.theta0)


@dataclass(frozen=True)
class ScenarioResult:
    """Clock-time decomposition and QFI before/after for one scenario."""

    h: float
    tau_alice: float
    tau_rob_pointlike: float
    tau_rob_classical_extended: float
    theta_alice: float
    theta_full: float
    theta_mm_only: float
    phase_difference_vs_alice: float
    pc_fraction: float
    qfi_before: float
    qfi_after: float
    qfi_after_mm_only: float
    qfi_change_pct_full: float
    qfi_change_pct_mm_only: float
    residual: tuple[float, float]
    config: ScenarioConfig = field(repr=False)

    @cached_property
    def phase_difference_series(self) -> np.ndarray:
        """theta_alice - theta_full after each round trip, 1 to reps.

        Computed on first read, and then kept, by the lanes (`_lane_route`),
        which build S_B again and gate each repetition's state: a fault
        raises TruncationError here, naming the first faulty one."""
        return _lane_route(self.config)


# Lanes advanced per matrix product, and repetitions per vectorized
# readout, a multiple of _LANES so every span ends on a lane step.  The
# buffers stay two lane buffers of _LANES x 2 x 2 n_max floats (the idle one
# is row_moments' work buffer, freed for the span's readout) and span
# buffers of _SPAN x 6 floats, whatever the repetition count.
_LANES = 24
_SPAN = 336


def _unwrap(wrapped: np.ndarray, anchor, period: float) -> np.ndarray:
    """anchor + remainder(wrapped - anchor, period), written over
    `wrapped`."""
    np.subtract(wrapped, anchor, out=wrapped)
    return np.add(anchor, _remainder(wrapped, period, out=wrapped),
                  out=wrapped)


def _span_phase(moments: np.ndarray, cov: np.ndarray, det: np.ndarray,
                first_rep, what, squeezed: bool):
    """(wrapped clock phase, parameters) of one span of transported states
    and their dets.  Entry i is repetition `first_rep` + i of the state
    `what` names, or, for sequences `first_rep` and `what`, repetition
    first_rep[i] of state what[i]: so the gate's error names it, where a
    state that breaks the uncertainty relation is a truncation artifact.
    The phase is the displacement phase theta of a coherent clock, or half
    the squeeze angle of a `squeezed` one."""
    terms, fault = _covariance_terms(cov, det)
    if fault is not None:
        i, message = fault
        name, rep = ((what, first_rep + i) if isinstance(what, str)
                     else (what[i], first_rep[i]))
        raise TruncationError(f"{name} at repetition {rep}: {message}; "
                              "truncation artifact, increase n_max")
    params = _parameters(moments, terms)
    return 0.5 * params.squeeze_angle if squeezed else params.phase, params


def _readout(rows: np.ndarray, state: GaussianState, k: int, first_rep,
             what, squeezed: bool) -> list[tuple[float, float]]:
    """(wrapped clock phase, phase QFI) in plain floats of `state` carried
    by each row pair of `rows` (m, 2, 2N), read as one span
    (`_span_phase`)."""
    wrapped, params = _span_phase(*row_moments(rows, state, k), first_rep,
                                  what, squeezed)
    # vars(), not dataclasses.astuple: astuple deep-copies every array field
    fields = [v.tolist() for v in vars(params).values()]
    return [(theta, phase_qfi(GaussianParams(*entry)))
            for theta, *entry in zip(wrapped.tolist(), *fields)]


# the states `_clock_frame` reads, in the order of its span
_READ_STATES = ("initial state", "transported state", "mode-mixing-only state")


def _clock_frame(config: ScenarioConfig, rows: np.ndarray | None = None
                 ) -> tuple:
    """(initial state, its phase QFI, whether it is squeezed vacuum,
    theta_start, period, omega_k c, the classical extended clock's time per
    block, readings): what the readout needs besides the maps, with the
    readout decided once per run by `state_kind`.  The initial state is
    read by identity rows (det sigma exactly 1/16): alone, or, given `rows`,
    the clock row pair of S_B^reps and the mode-mixing-only row pair, at
    mode k of a zero matrix ahead of them, all three in one span, whose
    other two (wrapped phase, QFI) pairs are `readings`.  A squeezed vacuum
    too faint for its covariance to resolve is a numerical limit."""
    state = config.initial_state()
    squeezed = config.state_kind == "squeezed_vacuum"
    k, reps = int(config.clock_mode), int(config.repetitions)
    if rows is None:
        batch, k = np.eye(2)[None], 1
    else:
        batch = np.zeros((1 + len(rows), 2, rows.shape[-1]))
        batch[0, :, 2 * k - 2:2 * k] = np.eye(2)
        batch[1:] = rows
    try:
        (theta_start, qfi), *readings = _readout(
            batch, state, k, (0, reps, reps), _READ_STATES, squeezed)
    except TruncationError:
        if rows is not None:  # the initial state's own faults come first
            _clock_frame(config)
        raise
    if not qfi > 0:  # covariance cannot resolve mean_n
        raise UnboundedVarianceError(
            f"initial state at mean_n {config.mean_n!r} reads phase QFI "
            f"{qfi!r}: below what its covariance resolves")
    # a plain int: an np.int64 mode would make the time fields numpy scalars
    omega_c = int(config.clock_mode) * math.pi / config.L * C
    classical_block = (2.0 * config.t_i
                       + classical_cavity_ratio(config.h) * (4.0 * config.t_a))
    return (state, qfi, squeezed, theta_start,
            math.pi if squeezed else 2.0 * math.pi, omega_c, classical_block,
            readings)


def _horizon(delta: float) -> float:
    """Repetitions within which the drift delta of S_B cannot carry a
    clock state to the physicality gate: 0.5 * `_PURITY_SLACK` /
    max(|delta|, 2^-52) (module docstring)."""
    return 0.5 * _PURITY_SLACK / max(abs(delta), 2.0**-52)


def _drift_fault(config: ScenarioConfig, delta: float) -> str | None:
    """Why a run beyond the horizon of S_B's drift `delta` is not read, or
    None within it: the one rule of `run_twin` and `check`."""
    if config.repetitions <= (horizon := _horizon(delta)):
        return None
    return (f"{config.repetitions} round trips exceed the drift horizon "
            f"{horizon:.4g} set by S_B's clock-row drift delta={delta:.3e}; "
            "increase n_max only if `check --config` shows delta shrinking "
            "with n_max")


def _block_map(config: ScenarioConfig, junctions=None) -> tuple:
    """(S_B, the product that powers it, Alice's time per block) of one
    round trip (`_block_symplectic`, whose junction cache `junctions`
    seeds)."""
    block = build_twin_trajectory(config.t_a, config.t_i, 1, config.a)
    s_block, product = _block_symplectic(block, config.L, int(config.n_max),
                                         config.quadrature_tol, junctions)
    return s_block, product, elapsed_times(block)[1]


@dataclass(frozen=True)
class MapStage:
    """What a run computes before the state enters (`_map_stage`)."""

    final_rows: np.ndarray  # the clock row pair of S_B^reps
    mm_rows: np.ndarray  # the clock row pair of its passive part
    delta: float  # the drift omega - 1 of S_B's clock row pair
    tau_alice_block: float  # Alice's proper time per block
    residuals: tuple  # (eps1, eps2) of S_B, then of S_B^reps


def _map_stage(config: ScenarioConfig, junctions=None) -> MapStage:
    """The map stage (module docstring): S_B's and S_B^reps' residuals,
    each gated by `residual_gate` (None: not gated) and S_B's first, and
    the rows, the drift and the time per block that the readout needs.
    `junctions` seeds `_block_symplectic`'s junction cache."""
    k = int(config.clock_mode)
    s_block, product, tau_alice_block = _block_map(config, junctions)
    trusted = np.s_[:2 * _trusted_interior(k, int(config.n_max))]
    block_residual = gated_residual(*_coefficients(s_block[trusted]), k,
                                    config.residual_gate, "block-map")
    # omega = (R Omega Rᵀ)_12 of S_B's clock row pair R, 1 for an exact map
    r = s_block[2 * k - 2:2 * k]
    delta = float(r[0, 0::2] @ r[1, 1::2] - r[0, 1::2] @ r[1, 0::2]) - 1.0
    s_final = _map_power(s_block, int(config.repetitions), product)
    del s_block, r  # the power reused S_B's buffer: no name may pin it
    # eps1 of B^r never exceeds eps1 of B^2000 for r <= 2000 at the README
    # and benchmark configs (tests/test_repetitions.py): the residual grows
    # with r, so gating the final map vouches for every repetition below
    final_residual = gated_residual(*_coefficients(s_final[trusted]), k,
                                    config.residual_gate, "composed-map")
    # of S_B^reps only its clock row pair and row k of its passive part
    # (alpha's polar factor, beta zeroed) are read later; S_B^reps and alpha
    # are freed before the passive rows are built
    final_rows = s_final[2 * k - 2:2 * k].copy()  # a view would pin S_B^reps
    alpha = _alpha(s_final)
    del s_final
    if not np.isfinite(alpha).all():  # the SVD would raise LinAlgError
        raise TruncationError("composed-map is not finite; increase n_max")
    u, _, vh = np.linalg.svd(alpha)
    del alpha
    mm_alpha = (u @ vh)[k - 1:k]
    del u, vh
    return MapStage(final_rows,
                    symplectic_matrix(mm_alpha, np.zeros_like(mm_alpha)),
                    delta, tau_alice_block, (block_residual, final_residual))


def _lane_route(config: ScenarioConfig) -> np.ndarray:
    """theta_alice - theta after each round trip 1..reps, from the lanes
    (module docstring), which run the physicality gate on every
    repetition's state."""
    s_block, _, tau_alice_block = _block_map(config)
    k = int(config.clock_mode)
    reps = int(config.repetitions)
    state0, _, squeezed, theta_start, period, omega_c, classical_block, _ = (
        _clock_frame(config))
    anchor_block = omega_c * classical_block

    # Sequential products build the lanes and end at H = S_B^M.  H by
    # squaring reads no closer: at 5000 round trips, n_max 24 and ten cavity
    # lengths, the series stayed within one ulp of theta (2.3e-10 rad) of
    # the full-map loop either way, for either state kind.
    lanes = np.empty((min(_LANES, reps), 2, 2 * int(config.n_max)))
    step = s_block
    lanes[0] = step[2 * k - 2:2 * k]
    for r in range(1, len(lanes)):  # a loop view would pin a lane buffer
        step = step @ s_block
        lanes[r] = step[2 * k - 2:2 * k]
    # H goes over S_B, which no caller reads after the lanes, so one 2n x 2n
    # matrix, not two, stays alive through the spans
    s_block[...] = step
    step = s_block

    moments = np.empty((min(_SPAN, reps), 2))
    cov = np.empty((min(_SPAN, reps), 2, 2))
    det = np.empty(min(_SPAN, reps))
    series = np.empty(reps)
    for start in range(0, reps, _SPAN):
        count = min(_SPAN, reps - start)
        ahead = np.empty_like(lanes)  # freed for the span's readout below
        for offset in range(0, count, len(lanes)):
            if start or offset:
                np.matmul(lanes.reshape(-1, len(step)), step,
                          out=ahead.reshape(-1, len(step)))
                lanes, ahead = ahead, lanes
            end = min(offset + len(lanes), count)
            # ahead is idle until the next lane step overwrites it
            row_moments(lanes[:end - offset], state0, k,
                        out=(moments[offset:end], cov[offset:end],
                             det[offset:end]),
                        work=ahead[:end - offset])
        del ahead
        wrapped = _span_phase(moments[:count], cov[:count], det[:count],
                              start + 1, "transported state", squeezed)[0]
        rep = np.arange(start + 1, start + 1 + count, dtype=float)
        theta = _unwrap(wrapped, theta_start + rep * anchor_block, period)
        theta_alice = theta_start + omega_c * (rep * tau_alice_block)
        np.subtract(theta_alice, theta, out=series[start:start + count])
        # nothing of this span may outlive it into the next span's readout
        del wrapped, theta, rep, theta_alice
    return series


def run_twin(config: ScenarioConfig) -> ScenarioResult:
    """Run the twin-paradox scenario: the map stage, the drift horizon, then
    the initial, the final and the mode-mixing-only state, read in one span
    (module docstring)."""
    stage = _map_stage(config)
    if (fault := _drift_fault(config, stage.delta)) is not None:
        raise TruncationError(fault)
    # a plain int: an np.int64 count would make the time fields numpy scalars
    reps = int(config.repetitions)
    (_, qfi_before, _, theta_start, period, omega_c, classical_block,
     ((theta_full, qfi_after), (theta_mm, qfi_after_mm))) = _clock_frame(
        config, np.stack((stage.final_rows, stage.mm_rows)))
    anchor = theta_start + reps * (omega_c * classical_block)
    theta_full = anchor + math.remainder(theta_full - anchor, period)
    theta_mm = anchor + math.remainder(theta_mm - anchor, period)

    tau_alice = reps * stage.tau_alice_block
    tau_point = reps * (4.0 * config.t_a + 2.0 * config.t_i)
    tau_classical = reps * classical_block
    theta_alice = theta_start + omega_c * tau_alice

    pc_numerator = (theta_full - theta_mm) / omega_c
    denom = tau_alice - tau_point
    # without dilation there is nothing to attribute to particle creation
    pc_fraction = 100.0 * pc_numerator / denom if denom else 0.0

    return ScenarioResult(
        h=config.h,
        tau_alice=tau_alice,
        tau_rob_pointlike=tau_point,
        tau_rob_classical_extended=tau_classical,
        theta_alice=theta_alice,
        theta_full=theta_full,
        theta_mm_only=theta_mm,
        phase_difference_vs_alice=theta_alice - theta_full,
        pc_fraction=pc_fraction,
        qfi_before=qfi_before,
        qfi_after=qfi_after,
        qfi_after_mm_only=qfi_after_mm,
        qfi_change_pct_full=qfi_change_pct(qfi_before, qfi_after),
        qfi_change_pct_mm_only=qfi_change_pct(qfi_before, qfi_after_mm),
        residual=stage.residuals[1],
        config=config,
    )


_SWEEP_FIELDS = ("L", "h", "mean_n", "theta0")


@dataclass(frozen=True)
class SweepPoint:
    """One grid point of a sweep: the varied value and either a result or
    the library error that point raised."""

    value: float
    result: ScenarioResult | None
    exception: CavityClockError | None

    @property
    def error(self) -> str | None:
        """The point's error as "ErrorType: message", or None."""
        if self.exception is None:
            return None
        return f"{type(self.exception).__name__}: {self.exception}"


def _config_at(base: ScenarioConfig, vary: str, value: float) -> ScenarioConfig:
    if vary == "L":
        return replace(base, L=float(value))
    if vary == "h":
        if value < 0:  # the sign of a is the base's
            raise ValidationError(f"h must be >= 0, got {value}")
        sign = -1.0 if base.a < 0 else 1.0
        return replace(base, a=sign * float(value) * C**2 / base.L)
    if vary == "mean_n":
        return replace(base, mean_n=float(value))
    return replace(base, theta0=float(value))


def sweep(base: ScenarioConfig, vary: str, grid) -> list[SweepPoint]:
    """Run the scenario across `grid` values of one parameter.

    Points run one after another on the calling thread, in grid order;
    per-point library errors (CavityClockError) are collected as
    SweepPoint.exception instead of aborting the sweep.  Any other exception
    is a bug and propagates.
    """
    try:
        values = [float(v) for v in grid]
    except OverflowError:
        raise ValidationError(
            "sweep grid values must fit in a double") from None
    if not values:
        raise ValidationError("sweep grid must be nonempty")
    if vary not in _SWEEP_FIELDS:
        raise ValidationError(f"vary must be one of {_SWEEP_FIELDS}, got {vary!r}")

    def point(value: float) -> SweepPoint:
        try:
            result = run_twin(_config_at(base, vary, value))
            return SweepPoint(value, result, None)
        except CavityClockError as exc:  # collected, not fatal
            return SweepPoint(value, None, exc)

    return [point(value) for value in values]


def schwarzschild_acceleration(mass: float, r: float) -> float:
    """Proper acceleration of a stationary observer at Schwarzschild radius r:
    a = (c^2 r_s / 2 r^2) / sqrt(1 - r_s/r), r_s = 2GM/c^2."""
    if not mass > 0:
        raise ValidationError(f"mass must be > 0, got {mass}")
    rs = 2.0 * G_NEWTON * mass / C**2
    if not r > rs:
        raise HorizonError(
            f"no stationary observer at r = {r} <= r_s = {rs} "
            "(proper acceleration diverges at the horizon)")
    f = 1.0 - rs / r
    return C**2 * rs / (2.0 * r * r) / math.sqrt(f)
