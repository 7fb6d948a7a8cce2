"""Layer probes: single calls into one layer, timed in isolation.

Each probe reports the median of repeated calls after one warm-up call.
``<kind>`` names the metric family: ``minkowski`` (analytic, all-zero
derivatives), ``weak_analytic`` (point-mass weak field with its analytic
gradient) and ``expression`` (the gas-curved metric, finite differences).
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from contactrel import dynamics, geometry, integrators, kinetic, output
from contactrel.dynamics import ContactHamiltonianSystem, ExtendedState, MassModel

from workloads import WAVY_DIAG

N_LARGE = 10_000
MIN_REPS = 3
BUDGET_S = 0.25  # per probe, after the minimum repetitions


def _median_s(fn) -> float:
    fn()
    times = []
    t_end = time.perf_counter() + BUDGET_S
    while len(times) < MIN_REPS or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _systems() -> dict[str, ContactHamiltonianSystem]:
    mass = MassModel.exp_decay(1.0, 0.1)
    pot, grad = geometry.point_mass_potential(1.0)
    metrics = {
        "minkowski": geometry.minkowski(),
        "weak_analytic": geometry.weak_field(pot, grad, c=100.0),
        "expression": geometry.expression_metric(WAVY_DIAG),
    }
    return {kind: ContactHamiltonianSystem(metric=m, mass=mass,
                                           c=100.0 if kind == "weak_analytic" else 1.0)
            for kind, m in metrics.items()}


def _states(sys_, n: int, seed: int = 7):
    rng = np.random.default_rng(seed)
    q = np.zeros((n, 4))
    q[:, 1:] = rng.uniform(1.0, 2.0, size=(n, 3))
    phi = np.zeros(n)
    p = dynamics.solve_p0_on_shell(sys_, q, phi, rng.normal(0.0, 0.3, size=(n, 3)))
    return q, p, phi


def probe_metrics(work_dir: Path) -> dict[str, tuple[float, str]]:
    """Probe name -> (value, unit); the writer probes write under work_dir."""
    out = {}
    for kind, sys_ in _systems().items():
        q, p, phi = _states(sys_, N_LARGE)
        for label, n in (("n1", 1), ("n10000", N_LARGE)):
            qs, phis = q[:n], phi[:n]
            t = _median_s(lambda: geometry.metric_derivatives(sys_.metric, qs, phis))
            out[f"geometry.derivatives_us.{kind}.{label}"] = (t * 1e6, "us")
        state = ExtendedState(q=q[0], p=p[0], phi=float(phi[0]))
        t = _median_s(lambda: dynamics.evolution_field(sys_, state))
        out[f"dynamics.field_us.{kind}.n1"] = (t * 1e6, "us")
        block = np.column_stack([q, p, phi, np.zeros(N_LARGE)])
        h = 1e-2
        cfg = integrators.IntegratorConfig(method="rk4", fixed_step=h)
        t = _median_s(lambda: integrators.advance_batch(sys_, block, h, cfg))
        out[f"dynamics.rk4_step_ms.{kind}.n10000"] = (t * 1e3, "ms")

    flat = _systems()["minkowski"]
    s0 = ExtendedState(q=np.zeros(4), p=[-1.0, 0.0, 0.0, 0.0], phi=0.0)
    stop = (integrators.StopCondition("lambda_reached", 10.0),)
    traj = integrators.integrate(flat, s0, integrators.IntegratorConfig(stop=stop))
    t = _median_s(lambda: integrators.reparametrize_by_tau(traj, num=1000))
    out["integrators.resample_ms.num1000"] = (t * 1e3, "ms")

    spec = kinetic.DensitySpec(momentum=kinetic.GaussianMomentum(
        mean=(0.0, 0.0, 0.0), sigma=(0.2, 0.2, 0.2)))
    ens = kinetic.sample_ensemble(flat, spec, N_LARGE, seed=3)
    work_dir.mkdir(parents=True, exist_ok=True)
    for fmt in ("csv", "jsonl"):
        path = work_dir / f"snapshot.{fmt}"
        t = _median_s(lambda: output.write_ensemble_snapshot(ens, path, fmt))
        out[f"output.{fmt}_ms.rows10000"] = (t * 1e3, "ms")
        path.unlink()
    return out
