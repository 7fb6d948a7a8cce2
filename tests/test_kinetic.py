"""Marker ensembles: sampling, transport, entropy estimators and rates."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from contactrel import dynamics
from contactrel import (
    ContactHamiltonianSystem,
    DensitySpec,
    EmptyEnsemble,
    Ensemble,
    EntropyFunctional,
    GaussianMomentum,
    IntegratorConfig,
    MassModel,
    NonPositiveDensity,
    UniformMomentum,
    UnnormalizableSpec,
    build_density_spec,
    build_integrator_config,
    build_system,
    ensemble_series,
    entropy,
    entropy_rate,
    minkowski,
    preset_scenario,
    sample_ensemble,
)
from contactrel.integrators import advance_batch


def _flat(mass=None, c=1.0):
    return ContactHamiltonianSystem(
        metric=minkowski(), mass=mass or MassModel.constant(1.0), c=c
    )


def _decay_system(alpha=0.1):
    return ContactHamiltonianSystem(
        metric=minkowski(), mass=MassModel.exp_decay(1.0, alpha), c=1.0
    )


def _gaussian_spec(sigma=0.2, mean=(0.0, 0.0, 0.0)):
    return DensitySpec(momentum=GaussianMomentum(mean=mean, sigma=(sigma,) * 3))


SB = EntropyFunctional.shannon_boltzmann()


def _fd_rate(e, functional, dlam):
    """(S(lam + dlam) - S(lam)) / dlam with the markers moved by one report."""
    moved = ensemble_series(e, dlam, 1, SB)[0]
    return (entropy(moved, functional) - entropy(e, functional)) / dlam


# ---------------------------------------------------------------------------
# sampling


def test_sampling_is_deterministic_for_fixed_seed():
    sys = _flat()
    spec = _gaussian_spec()
    a = sample_ensemble(sys, spec, 64, seed=42)
    b = sample_ensemble(sys, spec, 64, seed=42)
    assert np.array_equal(a.q, b.q)
    assert np.array_equal(a.p, b.p)
    assert np.array_equal(a.phi, b.phi)
    assert np.array_equal(a.w, b.w)
    assert np.array_equal(a.f, b.f)


def test_different_seeds_give_different_draws():
    sys = _flat()
    spec = _gaussian_spec()
    a = sample_ensemble(sys, spec, 64, seed=1)
    b = sample_ensemble(sys, spec, 64, seed=2)
    assert not np.array_equal(a.p, b.p)


def test_sampled_markers_sit_on_the_mass_shell():
    sys = _flat()
    spec = DensitySpec(
        momentum=GaussianMomentum(mean=(0.3, -0.1, 0.2), sigma=(0.5, 0.4, 0.3)),
        q_center=(0.0, 1.0, 0.0, 0.0),
        q_halfwidth=(0.0, 0.5, 0.5, 0.0),
        phi_halfwidth=0.25,
    )
    e = sample_ensemble(sys, spec, 500, seed=3)
    h, _ = dynamics._h_and_shell(sys, e.q, e.p, e.phi)
    assert np.max(np.abs(h)) < 1e-10
    # future-directed: the time covector component is negative
    assert np.all(e.p[:, 0] < 0.0)


def test_weights_are_uniform_and_sum_to_one():
    e = sample_ensemble(_flat(), _gaussian_spec(), 777, seed=9)
    assert np.allclose(e.w, 1.0 / 777, rtol=0, atol=0)
    assert abs(e.total_weight() - 1.0) < 1e-12


def test_pinned_coordinates_are_exact():
    spec = DensitySpec(
        momentum=UniformMomentum(center=(0.6, 0.0, 0.0), halfwidth=(0.1, 0.0, 0.0)),
        q_center=(0.0, 2.0, -1.0, 0.5),
        phi_center=-0.75,
    )
    e = sample_ensemble(_flat(), spec, 50, seed=11)
    assert np.all(e.q[:, 1] == 2.0)
    assert np.all(e.q[:, 3] == 0.5)
    assert np.all(e.phi == -0.75)
    assert np.all(e.p[:, 2] == 0.0)


def test_nonpositive_marker_count_rejected():
    with pytest.raises(EmptyEnsemble):
        sample_ensemble(_flat(), _gaussian_spec(), 0, seed=1)


# ---------------------------------------------------------------------------
# spec validation


@pytest.mark.parametrize(
    "spec",
    [
        DensitySpec(momentum=GaussianMomentum(mean=(0, 0, 0), sigma=(0.2, 0.0, 0.2))),
        DensitySpec(momentum=GaussianMomentum(mean=(0, 0, 0), sigma=(0.2, -1.0, 0.2))),
        DensitySpec(
            momentum=UniformMomentum(center=(0, 0, 0), halfwidth=(0.5, -0.5, 0.5))
        ),
        DensitySpec(
            momentum=GaussianMomentum(mean=(0, 0, 0), sigma=(0.2, 0.2, 0.2)),
            q_halfwidth=(0.0, -0.1, 0.0, 0.0),
        ),
        DensitySpec(
            momentum=GaussianMomentum(mean=(0, 0, 0), sigma=(0.2, 0.2, 0.2)),
            phi_halfwidth=-0.5,
        ),
        # every dimension pinned: a point, not a normalizable density
        DensitySpec(momentum=UniformMomentum(center=(0.6, 0, 0), halfwidth=(0, 0, 0))),
    ],
)
def test_unnormalizable_specs_rejected(spec):
    with pytest.raises(UnnormalizableSpec):
        sample_ensemble(_flat(), spec, 10, seed=1)


# ---------------------------------------------------------------------------
# ensemble construction


def _manual_ensemble(f_values):
    sys = _flat()
    n = len(f_values)
    q = np.zeros((n, 4))
    p_spatial = np.tile([0.1, 0.0, 0.0], (n, 1))
    p = np.column_stack([np.full(n, -math.sqrt(1.01)), p_spatial])
    return Ensemble(
        sys=sys,
        lam=0.0,
        q=q,
        p=p,
        phi=np.zeros(n),
        w=np.full(n, 1.0 / n),
        f=np.asarray(f_values, dtype=float),
    )


def test_markers_with_nonpositive_density_are_rejected():
    # no marker is dropped with its weight: the count of bad ones is named
    with pytest.raises(NonPositiveDensity, match=r"density of 2 of 5 markers"):
        _manual_ensemble([1.0, 0.0, 2.0, -3.0, 0.5])
    with pytest.raises(NonPositiveDensity, match=r"density of 1 of 3 markers"):
        _manual_ensemble([1.0, np.nan, 2.0])


def test_all_markers_dropped_raises():
    with pytest.raises(NonPositiveDensity, match=r"density of 2 of 2 markers"):
        _manual_ensemble([0.0, -1.0])


def test_empty_ensemble_raises():
    with pytest.raises(EmptyEnsemble):
        Ensemble(sys=_flat(), lam=0.0, q=np.zeros((0, 4)), p=np.zeros((0, 4)),
                 phi=[], w=[], f=[])


def test_entropy_rejects_tampered_density():
    e = _manual_ensemble([1.0, 2.0])
    e.f[0] = np.inf
    with pytest.raises(NonPositiveDensity):
        entropy(e, SB)


def test_entropy_and_rate_reject_overflowing_weight_per_density():
    # w / f overflows for a positive subnormal f: the estimators must stop
    # rather than return inf and nan
    e = _manual_ensemble([1.0, 1e-310])
    for estimator in (entropy, entropy_rate):
        with pytest.raises(NonPositiveDensity, match=r"not finite for 1 of 2 markers"):
            estimator(e, SB)


# ---------------------------------------------------------------------------
# entropy estimator oracles


def test_gaussian_momentum_entropy_matches_differential_entropy():
    # Only the three momentum dimensions are active, each N(mean, sigma^2):
    # S = -E[ln f] = 3 * (1/2) ln(2 pi e sigma^2).  Monte Carlo standard
    # error of the estimator is sqrt(1.5/n).
    sigma, n = 0.2, 20_000
    e = sample_ensemble(_flat(), _gaussian_spec(sigma=sigma), n, seed=123)
    expected = 3 * 0.5 * math.log(2.0 * math.pi * math.e * sigma**2)
    assert entropy(e, SB) == pytest.approx(expected, abs=6.0 * math.sqrt(1.5 / n))


def test_unit_box_entropy_is_exactly_zero():
    # Uniform density over a unit cube in momentum space has f = 1 for every
    # marker, so S = -sum w ln f vanishes identically (not just statistically).
    spec = DensitySpec(
        momentum=UniformMomentum(center=(0.0, 0.0, 0.0), halfwidth=(0.5, 0.5, 0.5))
    )
    e = sample_ensemble(_flat(), spec, 400, seed=31)
    assert np.all(e.f == 1.0)
    assert abs(entropy(e, SB)) < 1e-12


def test_shannon_boltzmann_is_concave():
    # sigma((a+b)/2) - (sigma(a)+sigma(b))/2 > 0 on both pairs
    for a, b in ((0.5, 1.5), (0.1, 4.0)):
        assert SB.sigma(0.5 * (a + b)) - 0.5 * (SB.sigma(a) + SB.sigma(b)) > 0.0


def test_custom_functional_entropy_and_rate():
    # sigma(f) = f - f^2 gives S = sum w (1 - f) and bracket f sigma' - sigma
    # = -f^2, so the rate is -4 sum w f dHdphi.
    quad = EntropyFunctional(
        sigma=lambda f: f - f**2, sigma_prime=lambda f: 1.0 - 2.0 * f, name="quad"
    )
    e = sample_ensemble(_decay_system(0.1), _gaussian_spec(), 200, seed=77)
    expected_s = float(np.sum(e.w * (1.0 - e.f)))
    assert entropy(e, quad) == pytest.approx(expected_s, rel=1e-12)
    analytic, fd = entropy_rate(e, quad), _fd_rate(e, quad, 1e-3)
    # FD error is O(dlam * S''); this functional's curvature along the flow is
    # ~0.3, so the difference sits near 2e-4.
    assert analytic == pytest.approx(fd, rel=1e-3)


# ---------------------------------------------------------------------------
# transport


def test_propagate_preserves_markers_and_weights():
    e0 = sample_ensemble(_decay_system(0.1), _gaussian_spec(), 300, seed=5)
    e1 = ensemble_series(e0, 2.0, 1, SB)[0]
    assert e1.n == e0.n
    assert np.array_equal(e1.w, e0.w)
    assert e1.lam == pytest.approx(2.0)
    assert e0.lam == 0.0 and np.all(e0.phi == 0.0)  # input untouched


def test_density_transport_matches_closed_form():
    # Flat space, linearly phi-coupled mass, all markers starting at phi = 0:
    # every marker's density grows by the same factor (1 + alpha lam)^4.
    alpha, lam = 0.1, 2.0
    e0 = sample_ensemble(_decay_system(alpha), _gaussian_spec(), 200, seed=13)
    e1 = ensemble_series(e0, lam, 1, SB)[0]
    ratio = e1.f / e0.f
    assert np.max(np.abs(ratio / (1.0 + alpha * lam) ** 4 - 1.0)) < 1e-8


def test_entropy_decreases_and_rate_matches_closed_form():
    alpha = 0.1
    e0 = sample_ensemble(_decay_system(alpha), _gaussian_spec(), 500, seed=17)
    assert entropy_rate(e0, SB) == pytest.approx(-4.0 * alpha, abs=1e-12)
    e1 = ensemble_series(e0, 3.0, 1, SB)[0]
    drop = entropy(e0, SB) - entropy(e1, SB)
    assert drop == pytest.approx(4.0 * math.log(1.0 + alpha * 3.0), abs=1e-8)
    assert entropy_rate(e1, SB) == pytest.approx(
        -4.0 * alpha / (1.0 + alpha * 3.0), abs=1e-8
    )


def test_constant_mass_transport_freezes_density():
    e0 = sample_ensemble(_flat(), _gaussian_spec(), 150, seed=19)
    e1 = ensemble_series(e0, 4.0, 1, SB)[0]
    assert np.max(np.abs(e1.f - e0.f)) < 1e-12
    assert abs(entropy_rate(e0, SB)) < 1e-14


def test_massless_transport_freezes_density():
    sys = _flat(mass=MassModel.zero())
    spec = DensitySpec(
        momentum=GaussianMomentum(mean=(0.6, 0.0, 0.0), sigma=(0.1, 0.1, 0.1))
    )
    e0 = sample_ensemble(sys, spec, 150, seed=23)
    e1 = ensemble_series(e0, 4.0, 1, SB)[0]
    assert np.max(np.abs(e1.f - e0.f)) < 1e-12
    assert np.max(np.abs(e1.phi - e0.phi)) < 1e-12


def test_propagate_raises_when_density_underflows():
    # A mass that grows in proper time gives dH/dphi < 0, so ln f falls; the
    # two markers that start at the smallest subnormal density underflow to
    # f = 0 and must stop the run instead of being dropped with their weight.
    # Their weights are subnormal too, so that report 0's w / f is finite.
    sys = ContactHamiltonianSystem(
        metric=minkowski(), mass=MassModel.exp_decay(1.0, -0.5), c=1.0
    )
    e = Ensemble(
        sys=sys, lam=0.0, q=np.zeros((4, 4)), p=np.tile([-1.0, 0.0, 0.0, 0.0], (4, 1)),
        phi=np.zeros(4), w=[0.25, 5e-324, 0.25, 5e-324], f=[1.0, 5e-324, 1.0, 5e-324],
    )
    assert e.n == 4
    with pytest.raises(NonPositiveDensity, match=r"2 of 4 markers .* lambda = 1$"):
        ensemble_series(e, 1.0, 1, SB)[0]


def test_rate_consistency_small_interval():
    e = sample_ensemble(_decay_system(0.1), _gaussian_spec(), 400, seed=29)
    analytic, fd = entropy_rate(e, SB), _fd_rate(e, SB, 1e-3)
    assert analytic == pytest.approx(-0.4, abs=1e-12)
    assert abs(analytic - fd) < 1e-4


# ---------------------------------------------------------------------------
# series driver


def test_ensemble_series_rows_and_callbacks():
    e0 = sample_ensemble(_decay_system(0.1), _gaussian_spec(), 100, seed=37)
    seen = []
    e_end, rows, stats = ensemble_series(
        e0, 5.0, 10, SB, cfg=IntegratorConfig(max_step=0.5),
        on_report=lambda k, cur: seen.append((k, cur.lam)),
    )
    assert rows.shape == (11, 4)
    assert np.allclose(rows[:, 0], np.linspace(0.0, 5.0, 11), atol=1e-12)
    assert rows[0, 2] == pytest.approx(entropy(e0, SB))
    assert rows[-1, 2] == pytest.approx(entropy(e_end, SB))
    # weights conserved in every report row
    assert np.max(np.abs(rows[:, 1] - 1.0)) < 1e-12
    # entropy strictly decreasing, rate column negative throughout
    assert np.all(np.diff(rows[:, 2]) < 0.0)
    assert np.all(rows[:, 3] < 0.0)
    assert stats["steps_accepted"] >= 10
    assert [k for k, _ in seen] == list(range(11))
    assert e_end.lam == pytest.approx(5.0)


def _block(e):
    return np.column_stack([e.q, e.p, e.phi, np.log(e.f)])


def test_one_report_series_equals_advance_batch():
    e0 = sample_ensemble(_decay_system(0.1), _gaussian_spec(), 200, seed=43)
    cfg = IntegratorConfig(max_step=0.7)
    e_end, rows, stats = ensemble_series(e0, 2.0, 1, SB, cfg)
    block, ref_steps = advance_batch(e0.sys, _block(e0), 2.0, cfg)
    assert stats["steps_accepted"] == ref_steps
    assert np.array_equal(_block(e_end)[:, 0:9], block[:, 0:9])
    assert np.array_equal(e_end.f, np.exp(block[:, 9]))
    assert rows[1, 0] == e_end.lam == 2.0


def test_decay_gas_series_is_one_step_sequence():
    # The step size and the FSAL stage carry over between reports, and the
    # reports come off the dense output, so the series takes fewer steps than
    # it has reports.  Its rows keep the weight column of a per-report
    # restarted run, and every marker follows the flat-space
    # closed forms ln f(lam) - ln f(0) = 4 ln(1 + alpha lam) and
    # m = m0 / (1 + alpha m0 lam) within rel_tol / 2 (measured: 3.3e-11 with
    # dense reports, 2.3e-13 with a step landed on each report).
    cfg = preset_scenario("decay-gas")
    cfg = replace(cfg, initial={**cfg.initial, "n": 500})
    e0 = sample_ensemble(build_system(cfg), build_density_spec(cfg), 500, cfg.initial["seed"])
    icfg = build_integrator_config(cfg)
    span, reports = cfg.stop[0]["value"], cfg.outputs["reports"]
    alpha, m0 = cfg.mass["alpha"], cfg.mass["m0"]
    seen = []
    # a reported ensemble views a buffer that later steps overwrite
    _, rows, stats = ensemble_series(
        e0, span, reports, SB, icfg,
        on_report=lambda k, cur: seen.append(replace(cur, q=cur.q.copy(), p=cur.p.copy(),
                                                     phi=cur.phi.copy())))
    assert stats["steps_accepted"] < reports

    dlam = span / reports
    e, ref = e0, [e0.total_weight()]
    for _ in range(reports):
        block, _ = advance_batch(e.sys, _block(e), dlam, icfg)
        e = Ensemble(sys=e.sys, lam=e.lam + dlam, q=block[:, 0:4], p=block[:, 4:8],
                     phi=block[:, 8], w=e.w.copy(), f=np.exp(block[:, 9]))
        ref.append(e.total_weight())
    assert np.array_equal(rows[:, 1], np.array(ref))

    bound = 0.5 * icfg.rel_tol
    assert len(seen) == reports + 1
    for cur in seen:
        grow = 1.0 + alpha * m0 * cur.lam
        m = cur.sys.mass.value(cur.phi)
        assert np.max(np.abs(np.log(cur.f) - np.log(e0.f) - 4.0 * math.log(grow))) <= bound
        assert np.max(np.abs(m * grow / m0 - 1.0)) <= bound
    rate = -4.0 * alpha * m0 / (1.0 + alpha * m0 * rows[:, 0])
    assert np.max(np.abs(rows[:, 3] / rate - 1.0)) <= bound


def test_series_rows_name_the_lambda_each_report_was_read_at():
    # rk45 reads report k off the dense output at k span / reports and the
    # last where the run lands, on the span end; a running sum of
    # span / reports drifts from both (to 4.999999999999998 at the end)
    cfg = preset_scenario("decay-gas")
    cfg = replace(cfg, initial={**cfg.initial, "n": 200})
    e0 = sample_ensemble(build_system(cfg), build_density_spec(cfg), 200, cfg.initial["seed"])
    span, reports = cfg.stop[0]["value"], cfg.outputs["reports"]
    e_end, rows, _ = ensemble_series(e0, span, reports, SB, build_integrator_config(cfg))
    assert rows[:-1, 0].tolist() == [k * (span / reports) for k in range(reports)]
    assert rows[-1, 0] == e_end.lam == span


def test_ensemble_series_validates_arguments():
    e0 = sample_ensemble(_flat(), _gaussian_spec(), 10, seed=41)
    with pytest.raises(ValueError):
        ensemble_series(e0, 5.0, 0, SB)
    with pytest.raises(ValueError):
        ensemble_series(e0, 0.0, 5, SB)
