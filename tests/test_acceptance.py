"""Acceptance battery: twelve end-to-end checks, one printed line each.

Each test reads one record of contactrel.checks through the record path of
`contactrel verify`, checks._check_record, at its stated tolerance and
prints the [PASS]/[FAIL] line with the measured value, so `pytest -v` shows
the full scorecard.
"""

from __future__ import annotations

from contactrel import checks


def _run(name, capsys):
    result = checks._check_record(False, name)
    with capsys.disabled():
        print(f"\n{result.line()}")
    assert result.passed, result.line()
    return result


def test_01_contact_identities_hold_for_random_states(capsys):
    # Flow-field identities: phi-advance matches p.dH/dp from a stencil of H;
    # the generating function changes along the flow only through its
    # explicit phi-slope.
    _run("contact-identities", capsys)


def test_02_constant_mass_energy_is_conserved(capsys):
    # With no phi-coupling, H is a strict invariant of the adaptive
    # integrator, and the shell residual stays pinned with projection on.
    _run("energy-conservation", capsys)


def test_03_field_divergence_matches_mass_slope(capsys):
    # The 9-dimensional divergence of the flow field equals -4 dH/dphi,
    # measured by finite differences against the analytic value.
    _run("divergence-identity", capsys)


def test_04_constant_mass_orbits_recover_geodesics(capsys):
    # A constant-mass run through a curved metric lands on the reference
    # geodesic integrated independently in proper time.
    _run("geodesic-recovery", capsys)


def test_05_weak_field_acceleration_is_newtonian(capsys):
    # Slow motion in a weak point-mass field reproduces a = -GM r/|r|^3.
    _run("newtonian-limit", capsys)


def test_06_decay_terms_cancel_in_flat_space(capsys):
    # Flat-space decaying mass: coordinate track stays straight while the
    # momentum norm decays exactly with e^{-alpha tau}.
    _run("decay-cancellation", capsys)


def test_07_proper_time_matches_line_element(capsys):
    # tau column agrees with the quadrature of the line element and with the
    # special-relativistic rate at v = 0.6c.
    _run("proper-time", capsys)


def test_08_reduced_flow_matches_extended_flow(capsys):
    # Integrating the phi-parameterized reduced field reproduces the extended
    # run resampled at matching phi values.
    _run("reduction-equivalence", capsys)


def test_09_massless_markers_ride_null_rays(capsys):
    # Zero mass: phi freezes, the shell stays null, the ray is straight, and
    # proper-time reparametrization is refused.
    _run("photon-behavior", capsys)


def test_10_entropy_falls_at_the_predicted_rate(capsys):
    # Decaying-mass gas: S strictly decreases and tracks -4 alpha/(1+alpha
    # lam); growing-mass gas increases; constant-mass and photon gases freeze.
    _run("entropy-decay", capsys)


def test_11_weights_conserved_densities_transported(capsys):
    # Long ensemble run: total weight is exact and every marker's density
    # matches the closed-form transport factor.
    _run("measure-conservation", capsys)


def test_12_fixed_step_integrator_is_fourth_order(capsys):
    # Halving the fixed step scales the endpoint error by ~2^4.
    _run("convergence-order", capsys)


def test_batteries_match_the_cli_catalog():
    # The named catalog driving `contactrel verify` carries exactly these
    # twelve checks, in this order.
    names = [name for name, _ in checks.CHECKS]
    assert names == [
        "contact-identities",
        "energy-conservation",
        "divergence-identity",
        "geodesic-recovery",
        "newtonian-limit",
        "decay-cancellation",
        "proper-time",
        "reduction-equivalence",
        "photon-behavior",
        "entropy-decay",
        "measure-conservation",
        "convergence-order",
    ]
