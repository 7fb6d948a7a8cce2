"""Relativistic particle dynamics on the extended phase space (q, p, phi).

The library models massive particles (with position-independent but
action-dependent mass, e.g. exponential decay in proper time), photons, and
weighted-marker kinetic ensembles, driven by a single generating function
H = (g^{ab} p_a p_b + m(phi)^2 c^2) / 2 on a 9-dimensional phase space.

Layers:

- ``geometry``: diagonal inverse-metric fields, their derivatives and lowering
- ``dynamics``: the generating function, its flow field, shell algebra
- ``integrators``: adaptive/fixed Runge-Kutta, events, reparametrization
- ``kinetic``: marker ensembles, density transport, entropy functionals
- ``scenario`` / ``output`` / ``cli``: JSON configs, tables, command line
- ``checks``: the invariant battery behind ``contactrel verify``
"""

from .errors import (
    BadSignature,
    ContactRelError,
    EmptyEnsemble,
    InsufficientSamples,
    MasslessProjection,
    MaxStepsExceeded,
    NonFiniteDerivative,
    NonFiniteMetric,
    NonPositiveDensity,
    NotMonotone,
    NotTimelike,
    ParseError,
    ShellSolveFailed,
    SingularMetric,
    StepSizeUnderflow,
    TransversalityFailure,
    UnnormalizableSpec,
    ValidationError,
)
from .geometry import (
    MetricField,
    expression_metric,
    inverse_metric,
    lowered_metric,
    metric_derivatives,
    minkowski,
    point_mass_potential,
    uniform_gradient_potential,
    weak_field,
)
from .dynamics import (
    ContactHamiltonianSystem,
    ExtendedState,
    MassModel,
    evolution_field,
    four_velocity,
    mass_from_tau,
    project_to_shell,
    reduced_field_phi,
    solve_p0_on_shell,
    state_from_velocity,
)
from .integrators import (
    IntegratorConfig,
    StopCondition,
    Trajectory,
    geodesic_reference,
    integrate,
    reparametrize_by_phi,
    reparametrize_by_tau,
)
from .kinetic import (
    DensitySpec,
    Ensemble,
    EntropyFunctional,
    GaussianMomentum,
    UniformMomentum,
    ensemble_series,
    entropy,
    entropy_rate,
    sample_ensemble,
)
from .output import (
    write_ensemble_series,
    write_ensemble_snapshot,
    write_trajectory,
)
from .scenario import (
    ScenarioConfig,
    build_density_spec,
    build_initial_state,
    build_integrator_config,
    build_system,
    load_scenario,
    preset_scenario,
    serialize_scenario,
)
from .checks import CheckResult, run_all

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "ContactRelError", "NonFiniteMetric", "NonFiniteDerivative", "BadSignature",
    "SingularMetric", "NotTimelike", "MasslessProjection", "TransversalityFailure",
    "ShellSolveFailed", "NotMonotone", "InsufficientSamples", "StepSizeUnderflow",
    "MaxStepsExceeded", "NonPositiveDensity", "EmptyEnsemble", "UnnormalizableSpec",
    "ParseError", "ValidationError",
    # geometry
    "MetricField", "inverse_metric", "lowered_metric", "metric_derivatives",
    "minkowski", "weak_field",
    "point_mass_potential", "uniform_gradient_potential", "expression_metric",
    # dynamics
    "ContactHamiltonianSystem", "ExtendedState", "MassModel",
    "project_to_shell", "evolution_field", "reduced_field_phi", "four_velocity",
    "mass_from_tau", "solve_p0_on_shell", "state_from_velocity",
    # integrators
    "IntegratorConfig", "StopCondition", "Trajectory", "integrate",
    "geodesic_reference", "reparametrize_by_phi", "reparametrize_by_tau",
    # kinetic
    "Ensemble", "EntropyFunctional", "GaussianMomentum", "UniformMomentum",
    "DensitySpec", "sample_ensemble", "entropy", "entropy_rate",
    "ensemble_series",
    # output
    "write_trajectory", "write_ensemble_series", "write_ensemble_snapshot",
    # scenario
    "ScenarioConfig", "load_scenario", "serialize_scenario", "build_system",
    "build_initial_state", "build_density_spec", "build_integrator_config",
    "preset_scenario",
    # checks
    "CheckResult", "run_all",
]
