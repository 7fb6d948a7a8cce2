"""Command-line front end: scenario runs, ensembles, presets, verification.

Subcommands
-----------
run       integrate a single-particle scenario and write trajectory tables
ensemble  propagate a marker ensemble and write series/snapshot tables
verify    execute the invariant battery (and optionally every preset)
presets   list the bundled example scenarios

``run`` and ``ensemble`` say which tables to write; :mod:`output` names and
writes them, with no wall time in them, and removes them all if the run fails.
Exit codes: 0, 1 when a check fails, 2 with one ``error:`` line for a refused
scenario, a named failure of the run or a table that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import output
from .checks import run_all
from .dynamics import _shell
from .errors import ContactRelError, ValidationError
from .integrators import reparametrize_by_phi, reparametrize_by_tau
from .scenario import PRESETS, ScenarioConfig, load_scenario, preset_scenario, run_ensemble, run_single

__all__ = ["main", "RunReport"]


@dataclass(frozen=True)
class RunReport:
    """Console summary of one run; file contents never include wall time."""

    termination: str
    steps: int
    steps_rejected: int
    h_drift: float
    shell_max: float
    wall_time: float
    paths: tuple[str, ...]

    def lines(self) -> list[str]:
        return [
            f"termination: {self.termination}",
            f"steps: {self.steps} accepted, {self.steps_rejected} rejected",
            f"max |H - H0|: {self.h_drift:.6e}",
            f"max shell residual: {self.shell_max:.6e}",
            f"wall time: {self.wall_time:.3f} s",
            *(f"wrote: {p}" for p in self.paths),
        ]


# --- scenario execution ---------------------------------------------------------


def _load_from_args(args) -> ScenarioConfig:
    if bool(args.scenario) == bool(args.preset):
        raise ValidationError(
            "scenario", "give exactly one of a scenario file or --preset NAME"
        )
    if args.preset:
        return preset_scenario(args.preset)
    return load_scenario(args.scenario)


def execute_single(cfg: ScenarioConfig, out_dir: str | None = None):
    """Integrate a single-particle scenario; returns (trajectory, report)."""
    if cfg.kind != "single":
        raise ValidationError(
            "initial.kind", "this scenario is an ensemble; use the ensemble command"
        )
    t0 = time.perf_counter()
    traj = run_single(cfg)
    companions = {}
    if cfg.outputs["reparametrize_phi"]:
        companions["phi"] = reparametrize_by_phi(traj)
    if cfg.outputs["reparametrize_tau"]:
        companions["tau"] = reparametrize_by_tau(traj)
    wall = time.perf_counter() - t0

    with output._RunFiles(cfg.outputs, out_dir) as files:
        files.trajectory(traj, companions)

    report = RunReport(
        termination=traj.metadata["termination"]["reason"],
        steps=traj.metadata["steps_accepted"],
        steps_rejected=traj.metadata["steps_rejected"],
        h_drift=float(np.max(np.abs(traj.ham - traj.ham[0]))),
        shell_max=float(np.max(np.abs(traj.shell))),
        wall_time=wall,
        paths=tuple(map(str, files.paths)),
    )
    return traj, report


def execute_ensemble(cfg: ScenarioConfig, out_dir: str | None = None):
    """Propagate an ensemble scenario; returns (series rows, report)."""
    if cfg.kind != "ensemble":
        raise ValidationError(
            "initial.kind", "this scenario is single-particle; use the run command"
        )
    with output._RunFiles(cfg.outputs, out_dir) as files:
        t0 = time.perf_counter()
        # snapshots are formatted beside the integration; leaving the writer
        # waits for the last file, so the wall time ends when it is complete
        with files.snapshots() as on_report:
            e0, e_end, rows, stats = run_ensemble(cfg, on_report)
        wall = time.perf_counter() - t0
        files.series(rows)
        # read in the block, so that a refused end state removes the tables
        shell0 = _shell(e0.sys, e0.q, e0.p, e0.phi)
        shell1 = _shell(e0.sys, e_end.q, e_end.p, e_end.phi)
    report = RunReport(
        termination="lambda_reached",
        steps=stats["steps_accepted"],
        steps_rejected=stats["steps_rejected"],
        h_drift=float(np.max(np.abs(0.5 * shell1 - 0.5 * shell0))),
        shell_max=float(np.max(np.abs(shell1))),
        wall_time=wall,
        paths=tuple(map(str, files.paths)),
    )
    return rows, report


# --- subcommands -------------------------------------------------------------------


def _cmd_run(args) -> int:
    cfg = _load_from_args(args)
    traj, report = execute_single(cfg, args.out_dir)
    print(f"scenario '{cfg.name}': {traj.metadata['system']}, "
          f"{len(traj)} samples in {traj.parameter}")
    print(*report.lines(), sep="\n")
    return 0


def _cmd_ensemble(args) -> int:
    cfg = _load_from_args(args)
    rows, report = execute_ensemble(cfg, args.out_dir)
    s0, s1 = rows[0, 2], rows[-1, 2]
    print(f"scenario '{cfg.name}': {cfg.initial['n']} markers, "
          f"{len(rows) - 1} reports, entropy {s0:.6f} -> {s1:.6f}")
    print(*report.lines(), sep="\n")
    return 0


def _cmd_verify(args) -> int:
    results = run_all(args.perturb_divergence, args.all_presets)
    if args.json:
        for r in results:
            record = {
                "name": r.name,
                "passed": r.passed,
                "measured": None if not np.isfinite(r.measured) else float(r.measured),
                "tolerance": None if not np.isfinite(r.tolerance) else float(r.tolerance),
                "detail": r.detail,
            }
            print(json.dumps(record))
    else:
        for r in results:
            print(r.line())
        n_pass = sum(r.passed for r in results)
        print(f"{n_pass}/{len(results)} checks passed")
    return 0 if all(r.passed for r in results) else 1


def _cmd_presets(args) -> int:
    width = max(len(name) for name in PRESETS)
    for name, (description, _, _) in PRESETS.items():
        print(f"{name:<{width}}  {description}")
    return 0


# --- entry point ------------------------------------------------------------------------


def _add_scenario_args(parser):
    parser.add_argument("scenario", nargs="?", default=None,
                        help="path to a scenario JSON document")
    parser.add_argument("--preset", default=None, metavar="NAME",
                        help="use a bundled preset instead of a file")
    parser.add_argument("--out-dir", default=None, metavar="DIR",
                        help="directory prefix for relative output paths")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="contactrel",
        description="Relativistic particle and kinetic-ensemble simulation "
                    "on the extended phase space (q, p, phi).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a single-particle scenario")
    _add_scenario_args(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_ens = sub.add_parser("ensemble", help="propagate a marker ensemble")
    _add_scenario_args(p_ens)
    p_ens.set_defaults(func=_cmd_ensemble)

    p_ver = sub.add_parser("verify", help="run the invariant battery")
    p_ver.add_argument("--all-presets", action="store_true",
                       help="also execute and check every bundled preset")
    p_ver.add_argument("--json", action="store_true",
                       help="machine-readable output, one JSON record per check")
    p_ver.add_argument("--perturb-divergence", action="store_true",
                       help="test hook: corrupt the analytic divergence by 1%% "
                            "(the divergence check must then fail)")
    p_ver.set_defaults(func=_cmd_verify)

    p_pre = sub.add_parser("presets", help="list bundled scenarios")
    p_pre.set_defaults(func=_cmd_presets)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ContactRelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
