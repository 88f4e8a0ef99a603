"""Exception types shared across the package.

Everything deriving from NumericalFailure maps to CLI exit code 3; config
problems map to exit code 2 and are raised as ConfigError by the CLI layer.
"""


class NumericalFailure(RuntimeError):
    """A computation could not be completed for numerical reasons."""


class SimulationBlowup(NumericalFailure):
    """A simulated state left the representable range (inf or nan)."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"non-finite state at step {step}")


class TiltUnreachableError(NumericalFailure):
    """No tilt parameter below the search cap reaches the requested level."""


class InfeasibleProblemError(NumericalFailure):
    """No finite-cost candidate path was found for a minimization problem."""
