import importlib
import pkgutil

import cavityclock
import cavityclock.cli as cli
import cavityclock.clock as clock
import cavityclock.gauss as gauss
import cavityclock.modes as modes
import cavityclock.trajectory as trajectory
from cavityclock import BogoliubovMap, Segment

EXPORTS = [
    "C", "G_NEWTON", "__version__",
    "CavityClockError", "ValidationError", "HorizonError", "QuadratureError",
    "TruncationError", "UnboundedVarianceError",
    "Segment", "Trajectory", "build_twin_trajectory", "elapsed_times",
    "BogoliubovMap", "junction_map", "trajectory_map", "symplectic_residual",
    "dump_map",
    "GaussianState", "GaussianParams", "coherent", "squeezed_vacuum",
    "apply_reduced", "extract_params",
    "phase_qfi", "cramer_rao", "qfi_change_pct",
    "ScenarioConfig", "ScenarioResult", "SweepPoint", "classical_cavity_ratio",
    "run_twin", "sweep", "schwarzschild_acceleration",
]


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from cavityclock import *", namespace)
    exported = cavityclock.__all__
    assert len(exported) == len(set(exported))
    for name in exported:
        assert namespace[name] is getattr(cavityclock, name)


def test_exports_are_exactly_the_pinned_list():
    # a change to the public surface must show as a change to this list
    assert cavityclock.__all__ == EXPORTS


def test_test_only_map_algebra_is_not_in_the_library():
    # the compose chain, the free map and the mode bases are test oracles
    # (tests/map_oracle.py, tests/kg_oracle.py)
    for attr in ("compose", "inverse"):
        assert not hasattr(BogoliubovMap, attr)
    for name in ("ModeBasis", "BasisKind", "free_phase_map"):
        assert not hasattr(modes, name)


def test_one_transport_and_one_readout():
    # the dense multimode transport is a test oracle
    # (tests/transport_oracle.py), the mode-mixing-only state is read like
    # every span, the gate and the parameter formulas are one call, and the
    # clock frame has one read path
    for name in ("vacuum", "embed", "apply_full", "partial_trace",
                 "moment_params", "_angles", "_covariance_terms",
                 "_parameters"):
        assert not hasattr(gauss, name)
    for name in ("_last", "_readout", "_READ_STATES"):
        assert not hasattr(clock, name)


def test_one_clock_readout():
    # the readout follows the state kind, decided once per run; no
    # per-entry displacement test picks it
    assert not hasattr(clock, "_read_phase")


def test_one_route():
    # run_twin reads every clock from the row pairs of S_B^reps, with the
    # det from the rows; the lanes serve the series alone
    for name in ("_final_map_route", "_one_entry_span", "_last_qfi",
                 "_initial_readout", "extract_params"):
        assert not hasattr(clock, name)
    assert not hasattr(cli, "_final_map_route")


def test_one_map_stage():
    # `check` reads the map stage `twin` runs, and builds no map of its own
    for name in ("_block_symplectic", "_map_power", "_coefficients"):
        assert not hasattr(cli, name)
    assert not hasattr(clock, "_state_stage")


def test_geometry_oracles_are_not_in_the_library():
    # the Rindler layout and the near-horizon mapping are test oracles
    # (tests/kg_oracle.py); no pipeline path reads them
    for name in ("RindlerGeometry", "rindler_geometry"):
        assert not hasattr(trajectory, name)
    assert not hasattr(clock, "near_horizon_geometry")

def test_cli_has_one_entry_point():
    assert not hasattr(cli, "run")


def test_segment_is_inertial_by_default():
    seg = Segment(1e-9)
    assert seg.proper_acceleration == 0.0
    assert not hasattr(seg, "kind")


def test_no_warning_channel():
    # no readout logs a warning, so no manifest collects one
    assert not hasattr(gauss, "logger")
    assert not hasattr(cli, "_WarningCollector")


def test_one_exception_taxonomy():
    # every error class is defined in `cavityclock.errors`; no module
    # relabels the library's errors under a class of its own
    names = [cavityclock.__name__] + [
        info.name for info in pkgutil.iter_modules(cavityclock.__path__,
                                                   "cavityclock.")]
    defining = {name for name in names
                for obj in vars(importlib.import_module(name)).values()
                if isinstance(obj, type) and issubclass(obj, BaseException)
                and obj.__module__ == name}
    assert defining == {"cavityclock.errors"}


def test_cli_relabels_no_library_error():
    # `load_config` raises `ValidationError` and lets `ScenarioConfig`'s
    # errors, `HorizonError` among them, through as they are
    assert not hasattr(cli, "ConfigError")
