"""Command-line front end: scenario runs, ensembles, presets, verification.

Subcommands
-----------
run       integrate a single-particle scenario and write trajectory tables
ensemble  propagate a marker ensemble and write series/snapshot tables
verify    execute the invariant battery (and optionally every preset)
presets   list the bundled example scenarios

All output files are deterministic for a fixed scenario document: wall time
appears only on the console, never in files.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import checks as checks_mod
from . import output
from .dynamics import _h_and_shell
from .errors import ContactRelError, ValidationError
from .integrators import integrate, reparametrize_by_phi, reparametrize_by_tau
from .scenario import (
    PRESETS,
    ScenarioConfig,
    build_initial_state,
    build_integrator_config,
    build_system,
    load_scenario,
    preset_scenario,
    run_ensemble,
)

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
        out = [
            f"termination: {self.termination}",
            f"steps: {self.steps} accepted, {self.steps_rejected} rejected",
            f"max |H - H0|: {self.h_drift:.6e}",
            f"max shell residual: {self.shell_max:.6e}",
            f"wall time: {self.wall_time:.3f} s",
        ]
        out.extend(f"wrote: {p}" for p in self.paths)
        return out


# --- scenario execution ---------------------------------------------------------


def _load_from_args(args) -> ScenarioConfig:
    if bool(args.scenario) == bool(args.preset):
        raise ValidationError(
            "scenario", "give exactly one of a scenario file or --preset NAME"
        )
    if args.preset:
        return preset_scenario(args.preset)
    return load_scenario(args.scenario)


def _out_base(cfg: ScenarioConfig, out_dir: str | None) -> Path:
    base = Path(cfg.outputs["path"])
    if out_dir is not None and not base.is_absolute():
        base = Path(out_dir) / base
    base.parent.mkdir(parents=True, exist_ok=True)
    return base


def execute_single(cfg: ScenarioConfig, out_dir: str | None = None,
                   allow_off_shell: bool = False):
    """Integrate a single-particle scenario; returns (trajectory, report)."""
    if cfg.kind != "single":
        raise ValidationError(
            "initial.kind", "this scenario is an ensemble; use the ensemble command"
        )
    if allow_off_shell:
        cfg = replace(cfg, initial={**cfg.initial, "allow_off_shell": True})
    sys_ = build_system(cfg)
    s0 = build_initial_state(cfg, sys_)
    icfg = build_integrator_config(cfg)

    t0 = time.perf_counter()
    traj = integrate(sys_, s0, icfg)
    companions = {}
    if cfg.outputs["reparametrize_phi"]:
        companions["phi"] = reparametrize_by_phi(traj)
    if cfg.outputs["reparametrize_tau"]:
        companions["tau"] = reparametrize_by_tau(traj)
    wall = time.perf_counter() - t0

    base = _out_base(cfg, out_dir)
    ext = cfg.outputs["format"]
    stride = cfg.outputs["stride"]
    paths = [output.write_trajectory(traj, f"{base}.{ext}", ext, stride)]
    for tag, resampled in companions.items():
        paths.append(
            output.write_trajectory(
                resampled, f"{base}_{tag}.{ext}", ext, parameter_name=tag
            )
        )

    term = traj.metadata.get("termination") or {"reason": "max_steps"}
    report = RunReport(
        termination=term["reason"],
        steps=traj.metadata["steps_accepted"],
        steps_rejected=traj.metadata["steps_rejected"],
        h_drift=float(np.max(np.abs(traj.ham - traj.ham[0]))),
        shell_max=float(np.max(np.abs(traj.shell))),
        wall_time=wall,
        paths=tuple(str(p) for p in paths),
    )
    return traj, report


def execute_ensemble(cfg: ScenarioConfig, out_dir: str | None = None):
    """Propagate an ensemble scenario; returns (series rows, report)."""
    if cfg.kind != "ensemble":
        raise ValidationError(
            "initial.kind", "this scenario is single-particle; use the run command"
        )
    reports = cfg.outputs["reports"]
    snap_stride = cfg.outputs["snapshot_stride"]

    base = _out_base(cfg, out_dir)
    ext = cfg.outputs["format"]
    snap_paths: list[Path] = []

    def on_report(k, cur):
        if snap_stride and (k % snap_stride == 0 or k == reports):
            p = Path(f"{base}_snapshot_{k:04d}.{ext}")
            write_snapshot(cur, p)
            snap_paths.append(p)

    t0 = time.perf_counter()
    # snapshots are formatted beside the integration; leaving the writer waits
    # for the last file, so the wall time ends when that file is complete
    writer = output._snapshot_writer(ext) if snap_stride else nullcontext()
    with writer as write_snapshot:
        e0, e_end, rows, stats = run_ensemble(cfg, on_report)
    wall = time.perf_counter() - t0

    series_path = output.write_ensemble_series(rows, f"{base}_series.{ext}", ext)
    h0, _ = _h_and_shell(e0.sys, e0.q, e0.p, e0.phi)
    h1, shell1 = _h_and_shell(e0.sys, e_end.q, e_end.p, e_end.phi)
    report = RunReport(
        termination="lambda_reached",
        steps=stats["steps_accepted"],
        steps_rejected=stats["steps_rejected"],
        h_drift=float(np.max(np.abs(np.asarray(h1) - np.asarray(h0)))),
        shell_max=float(np.max(np.abs(shell1))),
        wall_time=wall,
        paths=tuple(str(p) for p in [series_path, *snap_paths]),
    )
    return rows, report


# --- subcommands -------------------------------------------------------------------


def _cmd_run(args) -> int:
    cfg = _load_from_args(args)
    traj, report = execute_single(cfg, args.out_dir, args.allow_off_shell)
    print(f"scenario '{cfg.name}': {traj.metadata['system']}, "
          f"{len(traj)} samples in {traj.parameter}")
    for line in report.lines():
        print(line)
    return 0


def _cmd_ensemble(args) -> int:
    cfg = _load_from_args(args)
    rows, report = execute_ensemble(cfg, args.out_dir)
    s0, s1 = rows[0, 2], rows[-1, 2]
    print(f"scenario '{cfg.name}': {cfg.initial['n']} markers, "
          f"{len(rows) - 1} reports, entropy {s0:.6f} -> {s1:.6f}")
    for line in report.lines():
        print(line)
    return 0


def _cmd_verify(args) -> int:
    names = [name for name, _ in checks_mod.CHECKS]
    if args.all_presets:
        names += [f"preset:{name}" for name in PRESETS]
    with tempfile.TemporaryDirectory(prefix="contactrel-verify-") as tmp:
        results = checks_mod._run_records(
            functools.partial(_verify_record, args.perturb_divergence, tmp), names
        )
    if args.json:
        for r in results:
            record = {
                "name": r.name,
                "passed": bool(r.passed),
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


# --- preset verification (the --all-presets battery) -----------------------------------


def _verify_record(perturb_divergence: bool, tmp: str, name: str) -> checks_mod.CheckResult:
    """One verify record: a battery check, or "preset:NAME" for a preset run."""
    if not name.startswith("preset:"):
        return checks_mod._check_record(perturb_divergence, name)
    try:
        return _verify_one_preset(name.removeprefix("preset:"), tmp)
    except Exception as exc:
        return checks_mod._failed(name, exc)


def _verify_one_preset(name: str, tmp: str) -> checks_mod.CheckResult:
    cfg = preset_scenario(name)
    if cfg.kind == "single":
        run, _ = execute_single(cfg, tmp)
    else:  # the battery has already run this preset; reuse its rows
        run = checks_mod._gas_run(name)[2]
    measured, tol, passed, detail = PRESETS[name][2](cfg, run)
    return checks_mod.CheckResult(
        name=f"preset:{name}", passed=passed, measured=measured,
        tolerance=tol, detail=detail,
    )


# --- entry point ------------------------------------------------------------------------


def _add_scenario_args(parser, off_shell: bool):
    parser.add_argument("scenario", nargs="?", default=None,
                        help="path to a scenario JSON document")
    parser.add_argument("--preset", default=None, metavar="NAME",
                        help="use a bundled preset instead of a file")
    parser.add_argument("--out-dir", default=None, metavar="DIR",
                        help="directory prefix for relative output paths")
    if off_shell:
        parser.add_argument("--allow-off-shell", action="store_true",
                            help="accept initial momenta that violate the shell condition")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="contactrel",
        description="Relativistic particle and kinetic-ensemble simulation "
                    "on the extended phase space (q, p, phi).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a single-particle scenario")
    _add_scenario_args(p_run, off_shell=True)
    p_run.set_defaults(func=_cmd_run)

    p_ens = sub.add_parser("ensemble", help="propagate a marker ensemble")
    _add_scenario_args(p_ens, off_shell=False)
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
    p_pre.add_argument("action", nargs="?", default="list", choices=["list"])
    p_pre.set_defaults(func=_cmd_presets)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ContactRelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
