"""Command-line interface: config ingestion, scenario execution, and
analysis-ready CSV/manifest emission.

Subcommands: `twin` (one scenario), `sweep` (parameter grid), `qfi`
(initial-state Fisher information), `bogo` (dump the trajectory's Bogoliubov
map), `check` (self-tests of the maps `twin` builds).  Configuration is a
single JSON document (schema 1, SI units at this boundary); see README for
the full schema and the fixed CSV column order.

Exit codes: 0 success, 2 config parse error or unwritable output, 3
validation error, 4 numerical gate failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .clock import (ScenarioConfig, ScenarioResult, _clock_frame,
                    _drift_fault, _horizon, _map_stage, run_twin, sweep)
from .constants import C
from .errors import CavityClockError, ValidationError
from .metrology import cramer_rao
from .modes import (BogoliubovMap, _junction_blocks, _trusted_interior,
                    dump_map, gated_residual, symplectic_residual,
                    trajectory_map)
from .trajectory import build_twin_trajectory

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4

CSV_COLUMNS = [
    "h", "L_m", "a_mps2", "t_a_s", "t_i_s", "reps",
    "tau_alice_s", "tau_rob_point_s", "tau_rob_classical_s",
    "theta_full_rad", "theta_mm_rad", "phase_diff_rad", "pc_fraction_pct",
    "qfi_before", "qfi_after", "qfi_after_mm", "qfi_change_pct",
    "config_digest",
]


@dataclass(frozen=True)
class LoadedConfig:
    scenario: ScenarioConfig
    digest: str
    sweep_spec: dict | None
    prefix: str


def config_digest(document: dict) -> str:
    """sha256 of the canonical (key-sorted, compact) JSON encoding; stable
    under key reordering of the source document."""
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _require(mapping: dict, key: str, kinds, where: str):
    if key not in mapping:
        raise ValidationError(f"missing {where}.{key}")
    value = mapping[key]
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise ValidationError(f"{where}.{key} has wrong type: {value!r}")
    return value


def _number(mapping: dict, key: str, where: str,
            default: float | None = None) -> float:
    """Numeric field as a float, required unless a default is given.  NaN
    and ±Infinity pass: finiteness is `ScenarioConfig`'s rule."""
    if default is not None and key not in mapping:
        return default
    value = _require(mapping, key, (int, float), where)
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(
            f"{where}.{key} is too large for a double") from None


def load_config(path: str | Path) -> LoadedConfig:
    with open(path, encoding="utf-8") as fh:
        document = json.load(fh)
    if not isinstance(document, dict):
        raise ValidationError("config document must be a JSON object")
    if document.get("schema") != 1:
        raise ValidationError(f"unsupported schema {document.get('schema')!r}")
    if document.get("units", "SI") != "SI":
        raise ValidationError("only SI units are supported at the config boundary")

    sc = _require(document, "scenario", dict, "config")
    state = sc.get("state", {})
    if not isinstance(state, dict):
        raise ValidationError("scenario.state must be an object")
    numerics = document.get("numerics", {})
    if not isinstance(numerics, dict):
        raise ValidationError("numerics must be an object")

    t_i = _number(sc, "t_i_s", "scenario")
    L = _number(sc, "L_m", "scenario")
    a = _number(sc, "a_mps2", "scenario")
    if "repetitions" not in sc:
        raise ValidationError("missing scenario.repetitions")

    if ("t_a_s" in sc) == ("theta_a_rad" in sc):
        raise ValidationError("scenario needs exactly one of t_a_s or theta_a_rad")
    if "theta_a_rad" in sc:
        theta_a = _number(sc, "theta_a_rad", "scenario")
        if not 0 < theta_a <= sys.float_info.max:
            raise ValidationError(f"scenario.theta_a_rad must be > 0 and "
                                  f"finite, got {theta_a}")
        if a == 0:
            raise ValidationError("theta_a_rad needs a nonzero acceleration")

    kind = state.get("kind", "coherent")
    mean_n = _number(state, "mean_n", "scenario.state", 1.0)
    theta0 = _number(state, "theta0_rad", "scenario.state", 0.0)
    tol = _number(numerics, "quadrature_tol", "numerics", 1e-12)
    gate = numerics.get("residual_gate", 1e-4)
    if gate is not None:
        gate = _number(numerics, "residual_gate", "numerics", 1e-4)

    # under theta_a_rad, t_a is a stand-in until h and k are checked
    scenario = ScenarioConfig(
        t_a=_number(sc, "t_a_s", "scenario", 1.0), t_i=t_i, L=L, a=a,
        repetitions=sc["repetitions"],
        clock_mode=sc.get("clock_mode", 1),
        n_max=numerics.get("n_max", 24), state_kind=kind,
        mean_n=mean_n, theta0=theta0,
        residual_gate=gate, quadrature_tol=tol)
    if "theta_a_rad" in sc:
        # theta_a = Omega_k eta(t_a) => t_a = theta_a u_max c / (k pi |a|)
        u_max = 2.0 * math.atanh(scenario.h / 2.0)
        t_a = (theta_a * u_max * C
               / (scenario.clock_mode * math.pi * abs(a)))
        if not 0 < t_a <= sys.float_info.max:  # underflow or overflow
            raise ValidationError(f"scenario.theta_a_rad {theta_a!r} gives "
                                  f"no acceleration time > 0 and finite")
        scenario = replace(scenario, t_a=t_a)

    sweep_spec = document.get("sweep")
    if sweep_spec is not None:
        if not isinstance(sweep_spec, dict):
            raise ValidationError("sweep must be an object")
        _require(sweep_spec, "vary", str, "sweep")
        grid = _require(sweep_spec, "grid", list, "sweep")
        # checked now, not when the sweep runs; unlike math.isfinite, this
        # is False without raising for an integer too large for a double
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   and abs(v) <= sys.float_info.max for v in grid):
            raise ValidationError("sweep.grid must be a list of finite numbers")

    output = document.get("output", {})
    if not isinstance(output, dict):
        raise ValidationError("output must be an object")
    prefix = output.get("prefix", "run")
    # outputs must land in --out: a bare file-name stem, on any platform
    if (not isinstance(prefix, str) or "/" in prefix or "\\" in prefix
            or "\0" in prefix or prefix in (".", "..")):
        raise ValidationError(
            f"output.prefix must be a file-name stem, got {prefix!r}")
    return LoadedConfig(scenario, config_digest(document), sweep_spec, prefix)


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _result_row(res: ScenarioResult, digest: str) -> list[str]:
    c = res.config
    values = [res.h, c.L, c.a, c.t_a, c.t_i, c.repetitions,
              res.tau_alice, res.tau_rob_pointlike,
              res.tau_rob_classical_extended,
              res.theta_full, res.theta_mm_only,
              res.phase_difference_vs_alice, res.pc_fraction,
              res.qfi_before, res.qfi_after, res.qfi_after_mm_only,
              res.qfi_change_pct_full, digest]
    return [_fmt(v) for v in values]


_NEEDS_QUOTING = re.compile(r'[,"\r\n]')


def _csv_line(fields: list[str]) -> str:
    """One record as `csv.writer(fh, lineterminator="\\n")` writes it, for
    fields that need no quoting: column names, repr floats, ints and a hex
    digest.  A field that would need quoting raises ValueError.  No
    `csv.writer`: it allocates a record buffer of about 128 KB on its first
    row, on top of the results it writes."""
    for value in fields:
        if _NEEDS_QUOTING.search(value):
            raise ValueError(f"CSV field needs quoting: {value!r}")
    return ",".join(fields) + "\n"


# no O_TRUNC (see `_rewrite`); O_BINARY, on Windows only, as `open` passes it
_REWRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


@contextmanager
def _rewrite(path: Path, newline: str | None = None):
    """`open(path, "w", encoding="utf-8", newline=newline)`, except that an
    existing file is written over in place and, on exit (error paths too),
    cut at the position written, so no stale bytes remain.  "w" truncates
    to zero first: a rerun of the same length then frees the file's blocks
    and may make the file system flush them on close (ext4's replace-via-
    truncate), a stall of up to tens of ms per rewritten output."""
    with open(os.open(path, _REWRITE_FLAGS, 0o666), "w", encoding="utf-8",
              newline=newline) as fh:
        try:
            yield fh
        finally:
            fh.truncate()


def write_results_csv(path: Path, results: list[ScenarioResult],
                      digest: str) -> None:
    with _rewrite(path, newline="") as fh:
        fh.write(_csv_line(CSV_COLUMNS))
        for res in results:
            fh.write(_csv_line(_result_row(res, digest)))


def write_manifest(path: Path, command: str, loaded: LoadedConfig,
                   results: list[ScenarioResult], errors: list[str]) -> None:
    eps1 = max((r.residual[0] for r in results), default=0.0)
    eps2 = max((r.residual[1] for r in results), default=0.0)
    manifest = {
        "schema": 2,
        "command": command,
        "config_digest": loaded.digest,
        "tool_version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "n_max": loaded.scenario.n_max,
        "residual_eps1": eps1,
        "residual_eps2": eps2,
        "rows": len(results),
        "errors": errors,
    }
    with _rewrite(path) as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _cmd_twin(args, loaded: LoadedConfig) -> int:
    result = run_twin(loaded.scenario)
    out = Path(args.out)
    write_results_csv(out / f"{loaded.prefix}_results.csv", [result],
                      loaded.digest)
    write_manifest(out / f"{loaded.prefix}_manifest.json", "twin", loaded,
                   [result], [])
    print(f"twin: wrote 1 row to {out / (loaded.prefix + '_results.csv')} "
          f"(phase_diff={result.phase_difference_vs_alice!r} rad, "
          f"qfi_change={result.qfi_change_pct_full!r} %)")
    return EXIT_OK


def _cmd_sweep(args, loaded: LoadedConfig) -> int:
    if loaded.sweep_spec is None:
        raise ValidationError("sweep subcommand needs a sweep section in the config")
    points = sweep(loaded.scenario, loaded.sweep_spec["vary"],
                   loaded.sweep_spec["grid"])
    results = [p.result for p in points if p.result is not None]
    errors = [f"{loaded.sweep_spec['vary']}={p.value!r}: {p.error}"
              for p in points if p.error is not None]
    out = Path(args.out)
    write_results_csv(out / f"{loaded.prefix}_results.csv", results,
                      loaded.digest)
    write_manifest(out / f"{loaded.prefix}_manifest.json", "sweep", loaded,
                   results, errors)
    for line in errors:
        print(f"sweep point failed: {line}", file=sys.stderr)
    print(f"sweep: wrote {len(results)} rows to "
          f"{out / (loaded.prefix + '_results.csv')}")
    if not results:
        # nothing computed: exit as `twin` would on the first point's error
        raise points[0].exception
    return EXIT_OK


def _cmd_qfi(args, loaded: LoadedConfig) -> int:
    value = _clock_frame(loaded.scenario).qfi
    print(f"qfi={value!r}")
    if args.measurements is not None:
        print(f"bound={cramer_rao(value, args.measurements)!r}")
    return EXIT_OK


def _cmd_bogo(args, loaded: LoadedConfig) -> int:
    c = loaded.scenario
    traj = build_twin_trajectory(c.t_a, c.t_i, c.repetitions, c.a)
    bmap = trajectory_map(traj, c.L, c.n_max, tol=c.quadrature_tol)
    eps1, eps2 = gated_residual(bmap.alpha, bmap.beta, c.clock_mode,
                                c.residual_gate, "trajectory-map")
    path = Path(args.out) / f"{loaded.prefix}_bogomap.txt"
    with _rewrite(path) as fh:
        dump_map(bmap, fh, meta={
            "h": c.h, "config_digest": loaded.digest,
            "eps1": eps1, "eps2": eps2,
        })
    print(f"bogo: wrote {path} (eps1={eps1!r}, eps2={eps2!r})")
    return EXIT_OK


def _cmd_check(args, loaded: LoadedConfig | None) -> int:
    """Self-tests of the maps `twin` builds, through the helpers it calls:
    the junction's blocks and its inverse's (`_junction_blocks`) at the
    config's h and `quadrature_tol` and, with a config, S_B and S_B^reps
    (from the same blocks) and the drift horizon that `twin` exits on
    (`clock._drift_fault`)."""
    c = loaded.scenario if loaded is not None else None
    if c is not None:
        h, n_max, tol = c.h or 0.01, c.n_max, c.quadrature_tol
        gate, clock_mode = c.residual_gate or 1e-4, c.clock_mode
    else:
        h, n_max, tol, gate, clock_mode = 0.01, 20, 1e-12, 1e-4, 1
    interior = _trusted_interior(clock_mode, n_max)
    failures = 0

    def report(name: str, values, limit: float, keys=("eps1", "eps2")):
        nonlocal failures
        ok = all(v <= limit for v in values)
        failures += 0 if ok else 1
        found = " ".join(f"{key}={v:.3e}" for key, v in zip(keys, values))
        print(f"{'PASS' if ok else 'FAIL'} {name}: {found} (limit {limit:.1e})")

    (x, y), inverse = blocks = _junction_blocks(h, n_max, tol)
    eps = symplectic_residual(BogoliubovMap(0.5 * (x + y), 0.5 * (y - x)),
                              interior)
    report(f"junction map (h={h:g})", eps, gate)
    # S_J^-1 S_J = diag(YᵀX, XᵀY) = I up to the truncation eps shows
    dev = max(float(np.max(np.abs(inv[:interior] @ blk[:, :interior]
                                  - np.eye(interior))))
              for inv, blk in zip(inverse, (x, y)))
    report(f"junction inverse roundtrip ({interior}x{interior} interior)",
           (dev,), 2 * max(eps) + 1e-14, ("deviation",))

    if c is not None:
        # the residuals `run_twin` gates, from its own map stage, ungated
        stage = _map_stage(replace(c, residual_gate=None), {h: blocks})
        for name, eps in zip(("block map S_B",
                              f"composed map S_B^{c.repetitions}"),
                             stage.residuals):
            report(name, eps, gate)
        delta = stage.delta
        fault = _drift_fault(c, delta)
        failures += fault is not None
        print(f"{'PASS' if fault is None else 'FAIL'} drift horizon: "
              f"delta={delta:.3e} horizon={_horizon(delta):.4g} round trips "
              f"({c.repetitions} requested)")

    return EXIT_OK if failures == 0 else EXIT_NUMERICAL


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared by every later
    `main` call (parsing keeps no state in it); never built at import, so
    importing the CLI stays cheap."""
    parser = argparse.ArgumentParser(
        prog="cavityclock",
        description="Relativistic cavity-clock simulations")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required,
                       help="path to the JSON config document")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--threads", type=int, default=0,
                       help="ignored; sweeps run serially")

    common(sub.add_parser("twin", help="run one twin-paradox scenario"))
    common(sub.add_parser("sweep", help="run a parameter sweep"))
    qfi = sub.add_parser("qfi", help="QFI of the configured initial state")
    common(qfi)
    qfi.add_argument("--measurements", type=int, default=None,
                     help="also print the Cramér-Rao bound for M measurements")
    common(sub.add_parser("bogo", help="dump the trajectory Bogoliubov map"))
    common(sub.add_parser("check", help="run invariant self-tests"),
           config_required=False)
    return parser


def main(argv=None) -> int:
    return _execute(build_parser().parse_args(argv))


def _execute(args: argparse.Namespace) -> int:
    """Load the config once, run `args.command` and map errors to exit
    codes."""
    try:
        loaded = load_config(args.config) if args.config else None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"config parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"config read error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"config validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        if args.command == "check":
            return _cmd_check(args, loaded)
        if loaded is None:
            print("this subcommand needs --config", file=sys.stderr)
            return EXIT_VALIDATION
        if args.command != "qfi":  # so an unwritable --out costs no run
            Path(args.out).mkdir(parents=True, exist_ok=True)
        return {"twin": _cmd_twin, "sweep": _cmd_sweep, "qfi": _cmd_qfi,
                "bogo": _cmd_bogo}[args.command](args, loaded)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:  # only the outputs are files
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CavityClockError as exc:
        print(f"numerical gate failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
