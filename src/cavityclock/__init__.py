"""cavityclock: a cavity-confined field mode as a relativistic quantum clock.

Piecewise inertial/accelerated trajectories induce Bogoliubov transformations
on the cavity field; Gaussian states transported through them give the clock
time (single-mode phase) and clock precision (phase QFI), compared against
the pointlike proper-time prediction.
"""

from .clock import (ScenarioConfig, ScenarioResult, SweepPoint,
                    classical_cavity_ratio, run_twin,
                    schwarzschild_acceleration, sweep)
from .constants import C, G_NEWTON
from .errors import (CavityClockError, HorizonError, QuadratureError,
                     TruncationError, UnboundedVarianceError, ValidationError)
from .gauss import (GaussianParams, GaussianState, apply_reduced, coherent,
                    extract_params, squeezed_vacuum)
from .metrology import cramer_rao, phase_qfi, qfi_change_pct
from .modes import (BogoliubovMap, dump_map, junction_map,
                    symplectic_residual, trajectory_map)
from .trajectory import (Segment, Trajectory, build_twin_trajectory,
                         elapsed_times, final_kinematics)

__version__ = "0.1.0"

__all__ = [
    "C", "G_NEWTON", "__version__",
    # errors
    "CavityClockError", "ValidationError", "HorizonError", "QuadratureError",
    "TruncationError", "UnboundedVarianceError",
    # trajectory
    "Segment", "Trajectory", "build_twin_trajectory", "elapsed_times",
    "final_kinematics",
    # modes
    "BogoliubovMap", "junction_map", "trajectory_map", "symplectic_residual",
    "dump_map",
    # gauss
    "GaussianState", "GaussianParams", "coherent", "squeezed_vacuum",
    "apply_reduced", "extract_params",
    # metrology
    "phase_qfi", "cramer_rao", "qfi_change_pct",
    # clock
    "ScenarioConfig", "ScenarioResult", "SweepPoint", "classical_cavity_ratio",
    "run_twin", "sweep", "schwarzschild_acceleration",
]
