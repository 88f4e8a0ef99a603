"""Exception types shared across the package.

Everything deriving from NumericalFailure maps to CLI exit code 3.  A bad
argument or config record is a plain ValueError naming it, from the library's
argument checks and the one strict config reader alike, and maps to exit
code 2.
"""


class NumericalFailure(RuntimeError):
    """A computation could not be completed for numerical reasons."""


class SimulationBlowup(NumericalFailure):
    """A simulated state left the representable range (inf or nan)."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"non-finite state at step {step}")


class TiltUnreachableError(NumericalFailure):
    """The tilt solve along a minimizing path failed: no tilt reaches a step's slope."""


class InfeasibleProblemError(NumericalFailure):
    """No finite-cost candidate path was found for a minimization problem."""
