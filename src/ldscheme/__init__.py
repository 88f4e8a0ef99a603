"""Large-deviation toolkit for stochastic Euler recursions on [0, 1].

The package simulates recursions X_k = X_{k-1} + (F_k(X_{k-1}) + a g_k)/n
driven by state-dependent increment laws, evaluates the path cost that
governs their exponential decay rates, minimizes that cost under terminal
constraints, and estimates rare-event probabilities by plain and tilted
Monte Carlo.

Importing the package loads numpy and the model, solver and path modules.
The estimators (ldscheme.rare_event and the names it exports here), like
numpy.random, scipy and csv, load on first use.
"""

import importlib

from .errors import (
    InfeasibleProblemError,
    NumericalFailure,
    SimulationBlowup,
    TiltUnreachableError,
)
from .kernel import (
    AffineNoiseModel,
    BaseNoise,
    KernelModel,
    ModelConfigError,
    PRESETS,
    affine_model,
    bernoulli_base,
    constant_drift,
    gaussian_base,
    linear_drift,
    logistic_drift,
    model_from_config,
    preset_model,
    zero_drift,
)
from .conjugate import (
    ConjugateResult,
    fenchel_rows,
    perturbed_fenchel,
)
from .scheme import (
    DualMeasure,
    Trajectory,
    coupled_perturbation_gaps,
    eval_path_many,
    gauss_legendre_01,
    load_trajectory,
    phi_limit,
    phi_n,
    save_trajectory,
    simulate,
)
from .action import (
    ActionProblem,
    ActionValue,
    MinimizeResult,
    MinimizeSettings,
    TerminalHalfspace,
    TerminalPoint,
    action,
    limit_ode,
    minimize_action,
    straight_line,
)
__version__ = "0.1.0"

__all__ = [
    "AffineNoiseModel",
    "ActionProblem",
    "ActionValue",
    "BallEvent",
    "BaseNoise",
    "ConjugateResult",
    "DualMeasure",
    "EstimateReport",
    "InfeasibleProblemError",
    "KernelModel",
    "MartingaleCheck",
    "MinimizeResult",
    "MinimizeSettings",
    "ModelConfigError",
    "NumericalFailure",
    "OdeReport",
    "PathDeviationEvent",
    "PRESETS",
    "RateReport",
    "SimulationBlowup",
    "TerminalHalfspace",
    "TerminalPoint",
    "TiltUnreachableError",
    "Trajectory",
    "action",
    "affine_model",
    "bernoulli_base",
    "constant_drift",
    "coupled_perturbation_gaps",
    "eval_path_many",
    "fenchel_rows",
    "gauss_legendre_01",
    "gaussian_base",
    "limit_ode",
    "linear_drift",
    "load_trajectory",
    "logistic_drift",
    "martingale_check",
    "mc_probability",
    "minimize_action",
    "model_from_config",
    "perturbed_fenchel",
    "phi_limit",
    "phi_n",
    "preset_model",
    "save_trajectory",
    "simulate",
    "straight_line",
    "tilted_mc_probability",
    "verify_ode_convergence",
    "verify_rate",
    "zero_drift",
]

# The estimators' names resolve through rare_event on every access, so a name
# rebound there (a tracer, a monkeypatch) is what ldscheme.<name> returns.
_ESTIMATORS = frozenset({
    "BallEvent", "EstimateReport", "MartingaleCheck", "OdeReport", "PathDeviationEvent", "RateReport",
    "martingale_check", "mc_probability", "tilted_mc_probability", "verify_ode_convergence", "verify_rate",
})


def __getattr__(name):
    if name == "rare_event" or name in _ESTIMATORS:
        module = importlib.import_module(".rare_event", __name__)
        return module if name == "rare_event" else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
