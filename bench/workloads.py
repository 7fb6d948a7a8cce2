"""The four benchmark workloads: their inputs, their job, and their gates.

A workload has three parts:

* ``setup()`` builds what a user builds before the solve: the scenario
  configs, the system, and the initial state or sampled ensemble.  It is
  timed on its own as ``setup_s``.
* ``job(out_dir)`` is the timed solve.  It runs the work through the public
  API and returns a ``JobResult`` with the raw outputs.
* ``check(result)`` applies the correctness gates outside the timed region
  and returns one verdict per operation.

An operation is one ensemble run, one single-particle run, or one verify
record.  A raise or a failed gate counts as a failed operation.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Module attributes, not imported names, so that the traced run sees the calls.
from contactrel import checks, cli, kinetic, scenario

GAS_FLAT_SEED = 12345  # the decay-gas preset's own seed
GAS_CURVED_SEED = 2024

# checks._wavy_metric written as expression strings
WAVY_DIAG = [
    "-(1 + 0.1*sin(0.7*x1 + 0.5*phi))",
    "1 + 0.1*cos(0.7*x2)",
    "1 + 0.1*sin(0.7*x3 + 0.5*phi)",
    "1 + 0.1*cos(0.7*x1)",
]

# Checks the tiny verify-all run keeps: cheap, and the divergence check is
# the one --perturb-divergence breaks.
TINY_CHECKS = ("energy-conservation", "divergence-identity")


@dataclass
class Op:
    """Verdict on one operation."""

    name: str
    passed: bool
    detail: str = ""


@dataclass
class JobResult:
    """Raw outputs of one job; ``error`` holds a raise that ended it early."""

    outputs: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    error: str | None = None


def preset_doc(name: str) -> dict:
    """A preset as a plain scenario document, through the public API."""
    return json.loads(scenario.serialize_scenario(scenario.preset_scenario(name)))


def table_rows(paths) -> int:
    """Data rows in CSV (minus the header) and JSONL files."""
    total = 0
    for p in paths:
        lines = Path(p).read_bytes().count(b"\n")
        total += lines - 1 if str(p).endswith(".csv") else lines
    return total


# --- ensembles ------------------------------------------------------------------


class _Gas:
    in_child = False

    def __init__(self, doc: dict, perturb: bool = False):
        self.doc = doc
        self.cfg = scenario.load_scenario(doc)
        self.perturb = perturb

    def setup(self):
        cfg = scenario.load_scenario(self.doc)
        sys_ = scenario.build_system(cfg)
        spec = scenario.build_density_spec(cfg)
        e0 = kinetic.sample_ensemble(sys_, spec, cfg.initial["n"], cfg.initial["seed"])
        return cfg, e0

    def job(self, out_dir: Path) -> JobResult:
        res = JobResult()
        try:
            rows, report = cli.execute_ensemble(self.cfg, str(out_dir))
        except Exception as exc:
            res.error = f"raised {type(exc).__name__}: {exc}"
            return res
        res.outputs = [rows, report]
        paths = [Path(p) for p in report.paths]
        res.counts = {
            "markers": self.cfg.initial["n"],
            "steps_accepted": report.steps,
            # advance_batch reports accepted steps only
            "steps_rejected": None,
            "rows": table_rows(paths),
            "bytes": sum(p.stat().st_size for p in paths),
        }
        return res

    def check(self, res: JobResult) -> list[Op]:
        name = self.doc["name"]
        if res.error:
            return [Op(name, False, res.error)]
        rows, report = res.outputs
        if self.perturb:
            rows = rows.copy()
            rows[len(rows) // 2, 1] *= 1.0 + 1e-12
        fails = [] if report.h_drift <= 1e-8 else [f"max|H-H0| {report.h_drift:.3e} > 1e-8"]
        fails += self.gate(rows, report)
        return [Op(name, not fails, "; ".join(fails))]


class GasFlat(_Gas):
    """decay-gas preset: 10^4 Minkowski markers, CSV snapshots."""

    def __init__(self, seed: int, tiny: bool = False):
        doc = preset_doc("decay-gas")
        doc["initial"]["seed"] = seed
        if tiny:
            doc["initial"]["n"] = 200
            doc["outputs"]["reports"] = 5
            doc["outputs"]["snapshot_stride"] = 2
        super().__init__(doc)

    def gate(self, rows, report) -> list[str]:
        fails = []
        if not report.shell_max <= 1e-8:
            fails.append(f"shell residual {report.shell_max:.3e} > 1e-8")
        if not np.all(np.diff(rows[:, 2]) < 0.0):
            fails.append("entropy not strictly decreasing")
        target = -0.4 / (1.0 + 0.1 * rows[-1, 0])
        rel = abs(rows[-1, 3] - target) / abs(target)
        if not rel <= 1e-6:
            fails.append(f"final rate off -0.4/(1+0.1 lambda) by {rel:.3e} > 1e-6")
        return fails


class GasCurved(_Gas):
    """2000 markers in a phi-dependent expression metric, JSONL snapshots."""

    def __init__(self, seed: int, tiny: bool = False, perturb: bool = False):
        doc = {
            "name": "gas-curved",
            "metric": {"kind": "expression", "diag": list(WAVY_DIAG)},
            "mass": {"kind": "exp_decay", "m0": 1.0, "alpha": 0.1},
            "c": 1.0,
            "initial": {
                "kind": "ensemble", "n": 100 if tiny else 2000, "seed": seed,
                "q_halfwidth": [0.0, 2.0, 2.0, 2.0],
                "momentum": {"kind": "gaussian", "mean": [0.0, 0.0, 0.0],
                             "sigma": [0.3, 0.3, 0.3]},
            },
            "stop": [{"kind": "lambda_reached", "value": 1.0 if tiny else 5.0}],
            "outputs": {"path": "gas_curved", "format": "jsonl",
                        "reports": 4 if tiny else 20, "snapshot_stride": 5},
        }
        super().__init__(doc, perturb)

    def gate(self, rows, report) -> list[str]:
        fails = []
        if not np.all(rows[:, 1] == rows[0, 1]):
            fails.append("total weight not exactly conserved")
        lam, _, s, rate = rows.T
        trapezoid = 0.5 * (rate[1:] + rate[:-1]) * np.diff(lam)
        rel = np.abs(np.diff(s) - trapezoid) / np.abs(trapezoid)
        if not np.max(rel) <= 1e-2:
            fails.append(f"report dS off the rate trapezoid by {np.max(rel):.3e} > 1e-2")
        return fails


# --- single particles -----------------------------------------------------------


def _single_docs(tiny: bool) -> list[tuple[str, dict, object]]:
    """(name, scenario document, gate) for each run of the suite, in order."""
    runs = []

    def sr_free(traj, sys_):
        h = float(np.max(np.abs(traj.ham)))
        ray = float(np.max(np.abs(traj.q[:, 1] - traj.lam)))
        return [] if max(h, ray) < 1e-10 else [f"|H|max {h:.2e}, ray diff {ray:.2e} >= 1e-10"]

    def orbit(traj, sys_):
        d = float(np.max(np.abs(np.linalg.norm(traj.q[:, 1:], axis=1) - 1.0)))
        return [] if d <= 1e-3 else [f"radial drift {d:.3e} > 1e-3"]

    def photon(traj, sys_):
        drift = max(float(np.max(np.abs(traj.phi - traj.phi[0]))),
                    float(np.max(np.abs(traj.shell))))
        fails = [] if drift < 1e-12 else [f"phi drift / null shell {drift:.2e} >= 1e-12"]
        if not np.all(np.isnan(traj.tau)):
            fails.append("photon carries a proper time")
        return fails

    def decay_law(traj, sys_):
        m_end = float(sys_.mass.value(traj.phi[-1]))
        err = abs(m_end * math.exp(0.1 * float(traj.tau[-1])) - 1.0)
        return [] if err < 1e-8 else [f"mass decay law off by {err:.2e} >= 1e-8"]

    gates = {
        "special-relativity-free": sr_free,
        "newtonian-orbit": orbit,
        "photon-null": photon,
        "decay-flat": decay_law,
    }
    for name, gate in gates.items():
        runs.append((name, preset_doc(name), gate))
    if tiny:
        return runs

    doc = preset_doc("newtonian-orbit")
    doc["name"] = "newtonian-orbit-10"
    doc["stop"] = [{"kind": "lambda_reached", "value": 10 * 2 * math.pi}]
    doc["outputs"].update(path="newtonian_orbit_10", reparametrize_phi=True,
                          reparametrize_tau=True)
    runs.append(("newtonian-orbit-10", doc, orbit))

    def on_surface(reason, surface):
        def gate(traj, sys_):
            got = (traj.metadata.get("termination") or {}).get("reason")
            if got != reason:
                return [f"ended on {got}, expected {reason}"]
            off = abs(surface(traj, sys_))
            return [] if off <= 1e-10 else [f"final sample {off:.2e} off the {reason} surface"]
        return gate

    events = (
        ("tau_reached", 5.0, lambda t, s: float(t.tau[-1]) - 5.0),
        ("mass_floor", 0.7, lambda t, s: float(s.mass.value(t.phi[-1])) - 0.7),
        ("phi_reached", -3.0, lambda t, s: float(t.phi[-1]) + 3.0),
    )
    for kind, value, surface in events:
        doc = preset_doc("decay-flat")
        doc["name"] = f"decay-flat-{kind}"
        doc["initial"]["p_spatial"] = [0.3, 0.1, 0.0]
        doc["stop"] = [{"kind": kind, "value": value},
                       {"kind": "lambda_reached", "value": 50.0}]
        doc["outputs"] = {"path": f"decay_flat_{kind}", "format": "jsonl",
                          "reparametrize_tau": True}
        runs.append((doc["name"], doc, on_surface(kind, surface)))

    doc = {
        "name": "weak-field-escape",
        "metric": {"kind": "weak_field", "potential": {"kind": "point_mass", "GM": 1.0}},
        "mass": {"kind": "constant", "m0": 1.0},
        "c": 100.0,
        "initial": {"kind": "single", "q0": [0.0, 1.0, 0.0, 0.0], "v": [2.0, 0.0, 0.0]},
        "stop": [{"kind": "coordinate_bound", "axis": 1, "value": 20.0},
                 {"kind": "lambda_reached", "value": 1000.0}],
        "outputs": {"path": "weak_field_escape"},
    }
    runs.append((doc["name"], doc, on_surface(
        "coordinate_bound", lambda t, s: float(t.q[-1, 1]) - 20.0)))
    return runs


class SingleSuite:
    """Single-particle runs through cli.execute_single, fixed inputs."""

    in_child = False

    def __init__(self, tiny: bool = False):
        self.runs = _single_docs(tiny)
        self.cfgs = [scenario.load_scenario(doc) for _, doc, _ in self.runs]

    def setup(self):
        built = []
        for _, doc, _ in self.runs:
            cfg = scenario.load_scenario(doc)
            sys_ = scenario.build_system(cfg)
            built.append((cfg, sys_, scenario.build_initial_state(cfg, sys_)))
        return built

    def job(self, out_dir: Path) -> JobResult:
        res = JobResult()
        steps = rejected = 0
        paths = []
        for (name, _, _), cfg in zip(self.runs, self.cfgs):
            try:
                traj, report = cli.execute_single(cfg, str(out_dir))
            except Exception as exc:
                res.outputs.append((name, exc))
                continue
            res.outputs.append((name, (traj, cfg)))
            steps += report.steps
            rejected += report.steps_rejected
            paths += [Path(p) for p in report.paths]
        res.counts = {
            "markers": len(self.runs),
            "steps_accepted": steps,
            "steps_rejected": rejected,
            "rows": table_rows(paths),
            "bytes": sum(p.stat().st_size for p in paths),
        }
        return res

    def check(self, res: JobResult) -> list[Op]:
        gates = {name: gate for name, _, gate in self.runs}
        ops = []
        for name, out in res.outputs:
            if isinstance(out, BaseException):
                ops.append(Op(name, False, f"raised {type(out).__name__}: {out}"))
                continue
            traj, cfg = out
            fails = gates[name](traj, scenario.build_system(cfg))
            ops.append(Op(name, not fails, "; ".join(fails)))
        return ops


# --- the verify battery in a fresh interpreter ------------------------------------


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], root: Path, stdout_path: Path, timeout: float) -> int:
    """Run a child interpreter to completion; returns its exit code."""
    with open(stdout_path, "wb") as out:
        proc = subprocess.Popen(argv, cwd=root, env=child_env(root), stdout=out,
                                stderr=subprocess.PIPE)
        try:
            _, err = proc.communicate(timeout=timeout)
        except BaseException:  # timeout, or the benchmark itself told to stop
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode not in (0, 1):
        sys.stderr.write(err.decode(errors="replace"))
    return proc.returncode


class VerifyAll:
    """`contactrel verify --all-presets --json`, one fresh interpreter per job.

    A fresh interpreter is needed each time because checks._gas_run caches
    the gas runs: a second battery in one process would measure a warm cache.
    """

    in_child = True

    def __init__(self, tiny: bool, perturb: bool, root: Path, deadline: float):
        self.deadline = deadline  # time.monotonic() by which every child has ended
        self.tiny = tiny
        self.perturb = perturb
        self.root = root
        self.expected = (len(TINY_CHECKS) if tiny
                         else len(checks.CHECKS) + len(scenario.PRESETS))

    def setup(self):
        """Fresh-process import time of contactrel.cli, as the child measures it."""
        code = ("import time; t = time.perf_counter(); import contactrel.cli; "
                "print(time.perf_counter() - t)")
        out = subprocess.run([sys.executable, "-c", code], cwd=self.root,
                             env=child_env(self.root), capture_output=True,
                             check=True, timeout=60)
        return float(out.stdout)

    def argv(self, spans: Path | None = None) -> list[str]:
        args = ["verify", "--json"]
        if not self.tiny:
            args.insert(1, "--all-presets")
        if self.perturb:
            args.append("--perturb-divergence")
        if spans is None and not self.tiny:
            return [sys.executable, "-m", "contactrel.cli", *args]
        child = [sys.executable, str(Path(__file__).with_name("verify_child.py"))]
        if spans is not None:
            child += ["--spans", str(spans)]
        if self.tiny:
            child += ["--only", ",".join(TINY_CHECKS)]
        return [*child, "--", *args]

    def job(self, out_dir: Path, spans: Path | None = None) -> JobResult:
        out_dir.mkdir(parents=True, exist_ok=True)
        stdout_path = out_dir / "verify.jsonl"
        res = JobResult()
        try:
            rc = run_child(self.argv(spans), self.root, stdout_path,
                           max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            res.error = f"timed out: {exc}"
            return res
        text = stdout_path.read_text()
        res.outputs = [rc, [json.loads(line) for line in text.splitlines() if line.strip()]]
        res.counts = {
            "markers": None,
            "steps_accepted": None,
            "steps_rejected": None,
            "rows": len(res.outputs[1]),
            "bytes": len(text.encode()),
        }
        return res

    def check(self, res: JobResult) -> list[Op]:
        if res.error:
            return [Op(f"record-{i}", False, res.error) for i in range(self.expected)]
        rc, records = res.outputs
        ops = [Op(r["name"], bool(r["passed"]), r.get("detail", "")) for r in records]
        ops += [Op(f"missing-{i}", False, "record missing")
                for i in range(len(ops), self.expected)]
        if rc != 0 and all(op.passed for op in ops):
            ops.append(Op("exit-code", False, f"verify exited with {rc}"))
        return ops


# The seed replaces initial.seed of the gas workloads; the others take fixed inputs.
DEFAULT_SEEDS = {"gas-flat": GAS_FLAT_SEED, "gas-curved": GAS_CURVED_SEED}


def make(name: str, seed: int | None, tiny: bool, perturb: bool, root: Path,
         deadline: float):
    """The named workload; ``seed`` is used by the gas workloads only."""
    if perturb and name not in ("gas-curved", "verify-all"):
        raise ValueError("--perturb applies to gas-curved and verify-all only")
    if name == "verify-all":
        return VerifyAll(tiny, perturb, root, deadline)
    if name == "single-suite":
        return SingleSuite(tiny)
    if name == "gas-flat":
        return GasFlat(seed, tiny)
    return GasCurved(seed, tiny, perturb)

