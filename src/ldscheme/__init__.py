"""Large-deviation toolkit for stochastic Euler recursions on [0, 1].

The package simulates recursions X_k = X_{k-1} + (F_k(X_{k-1}) + a g_k)/n
driven by state-dependent increment laws, evaluates the path cost that
governs their exponential decay rates, minimizes that cost under terminal
constraints, and estimates rare-event probabilities by plain and tilted
Monte Carlo.

Importing the package loads numpy and the increment laws (ldscheme.kernel),
which is all that building a model needs.  The solver, path and estimator
modules (ldscheme.conjugate, scheme, action and rare_event, and the names
each exports here), like numpy.random, scipy and csv, load on first use.
The path cost of a stored path is ldscheme.path_cost; ldscheme.action is
its module.
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

__version__ = "0.1.0"

# The public names of the modules loaded on first use.  Each resolves through
# its module on every access, so a name rebound there (a tracer, a
# monkeypatch) is what ldscheme.<name> returns.
_LAZY = {
    "conjugate": ("ConjugateResult", "fenchel_rows", "perturbed_fenchel"),
    "scheme": (
        "DualMeasure", "Trajectory", "coupled_perturbation_gaps", "eval_path_many", "load_trajectory", "phi_limit",
        "phi_n", "save_trajectory", "simulate",
    ),
    "action": (
        "ActionProblem", "ActionValue", "MinimizeResult", "MinimizeSettings", "TerminalHalfspace",
        "TerminalPoint", "limit_ode", "minimize_action", "path_cost", "straight_line",
    ),
    "rare_event": (
        "BallEvent", "EstimateReport", "MartingaleCheck", "OdeReport", "PathDeviationEvent", "RateReport",
        "martingale_check", "mc_probability", "tilted_mc_probability", "verify_ode_convergence", "verify_rate",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "InfeasibleProblemError", "NumericalFailure", "SimulationBlowup", "TiltUnreachableError",
    "AffineNoiseModel", "BaseNoise", "KernelModel", "PRESETS", "affine_model",
    "bernoulli_base", "constant_drift", "gaussian_base", "linear_drift", "logistic_drift",
    "model_from_config", "preset_model", "zero_drift", *_HOME,
]


def __getattr__(name):
    home = _HOME.get(name, name)
    if home not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{home}", __name__)
    return module if home == name else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_LAZY))
