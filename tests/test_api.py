"""The public names: every export resolves, once, to its defining object."""

from __future__ import annotations

import importlib
import pkgutil
import sys

import pytest

import contactrel

_MODULES = [contactrel] + [
    importlib.import_module(f"contactrel.{info.name}")
    for info in pkgutil.iter_modules(contactrel.__path__)
]
_WITH_ALL = [m for m in _MODULES if hasattr(m, "__all__")]


@pytest.mark.parametrize("module", _WITH_ALL, ids=[m.__name__ for m in _WITH_ALL])
def test_every_listed_name_resolves_once(module):
    names = module.__all__
    assert len(names) == len(set(names)), "duplicate names in __all__"
    assert [n for n in names if not hasattr(module, n)] == []


def test_package_exports_are_the_submodule_objects():
    for name in contactrel.__all__:
        if name == "__version__":
            continue
        obj = getattr(contactrel, name)
        home = sys.modules[obj.__module__]
        assert home is not contactrel, name
        assert getattr(home, name) is obj, name
        if hasattr(home, "__all__"):
            assert name in home.__all__, f"{name} missing from {home.__name__}.__all__"


# The package's public surface, written out so that adding or dropping an
# export is a deliberate edit here too.
_PUBLIC = [
    "BadSignature", "CheckResult", "ContactHamiltonianSystem", "ContactRelError",
    "DensitySpec", "EmptyEnsemble", "Ensemble", "EntropyFunctional", "ExtendedState",
    "GaussianMomentum", "InsufficientSamples", "IntegratorConfig", "MassModel",
    "MasslessProjection", "MaxStepsExceeded", "MetricField", "NonFiniteDerivative",
    "NonFiniteMetric", "NonPositiveDensity", "NotMonotone", "NotTimelike",
    "ParseError", "ScenarioConfig", "ShellSolveFailed", "SingularMetric",
    "StepSizeUnderflow", "StopCondition", "Trajectory", "TransversalityFailure",
    "UniformMomentum", "UnnormalizableSpec", "ValidationError", "__version__",
    "build_density_spec", "build_initial_state",
    "build_integrator_config", "build_system", "ensemble_series",
    "entropy", "entropy_rate", "evolution_field", "expression_metric", "four_velocity",
    "geodesic_reference", "integrate", "inverse_metric", "load_scenario",
    "lowered_metric", "mass_from_tau", "metric_derivatives", "minkowski",
    "point_mass_potential", "preset_scenario", "project_to_shell",
    "reduced_field_phi", "reparametrize_by_phi", "reparametrize_by_tau", "run_all",
    "sample_ensemble", "serialize_scenario", "solve_p0_on_shell",
    "state_from_velocity", "uniform_gradient_potential", "weak_field",
    "write_ensemble_series", "write_ensemble_snapshot", "write_trajectory",
]


def test_public_surface_is_pinned():
    assert len(_PUBLIC) == 67
    assert sorted(contactrel.__all__) == _PUBLIC
