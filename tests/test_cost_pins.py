"""Exact pins of the work a step does, so a speed-up can show a count as well as a clock.

Memory traffic is pinned as the peak of the bytes that tracemalloc traces on
this process, above the traced bytes when the measured work begins, at
20,000 rows and n = 50.  The unit is one (rows, d) float64 array, rounded to
a tenth so that small Python objects do not count.  A change that adds a row
temporary moves a pin by a whole row.  Three kinds of work are pinned:

- 5 steps of scheme._euler_steps after two warm-up steps, plain (at a = 0
  and a = 0.5) and tilted (an (n, d) shift of 0.1, as the tilted estimator
  runs it);
- one whole rare_event._martingale_rows call after one warm-up call;
- one whole rare_event._tilted_rows call after one warm-up call.

Allocation counts can depend on numpy's version, so the pins hold for the
numpy they were measured on and are skipped, with the reason, elsewhere.  To
re-pin, run this module's _*_rows function for each case and write the
values here; CHANGES.md says which moved and why.

The L-BFGS-B iterations and quadrature passes of the benchmark's three
minimizes are pinned too, on the scipy they were measured on, and skipped elsewhere: L-BFGS-B's
arithmetic differs between scipy releases (the declared floor, 1.10, runs
the Fortran code).  A version-free bound on a long path checks the
whitened coordinates on every scipy.
"""

import tracemalloc

import numpy as np
import pytest
import scipy

from ldscheme import action, kernel, rare_event, scheme
from ldscheme.action import (
    ActionProblem,
    MinimizeSettings,
    TerminalHalfspace,
    TerminalPoint,
    minimize_action,
)
from test_action import _linear_2d_model

PINNED_NUMPY = "2.4.6"
PINNED_SCIPY = "1.17.1"
ROWS, N, WARM_UP, STEPS = 20_000, 50, 2, 5
SHIFT = 0.1

# preset -> peak row arrays per run of STEPS steps at a = 0 and at a = 0.5
EULER_STEP_ROWS = {
    "gaussian-free": (4.0, 5.0),
    "gaussian-ou": (5.0, 5.0),
    "logistic": (5.0, 5.0),
    "bernoulli-walk": (4.1, 5.0),
}
# preset -> peak row arrays per run of STEPS tilted steps; the tilt needs a Gaussian base
TILTED_STEP_ROWS = {"gaussian-free": 4.0, "gaussian-ou": 4.0, "logistic": 4.0}
# preset -> peak row arrays of one _martingale_rows call at a = 0 and at a = 0.5
MARTINGALE_CALL_ROWS = {
    "gaussian-free": (10.0, 10.0),
    "gaussian-ou": (10.0, 10.0),
    "logistic": (10.0, 10.0),
    "bernoulli-walk": (10.0, 10.0),
}
# preset -> peak row arrays of one _tilted_rows call
TILTED_CALL_ROWS = {"gaussian-free": 8.1, "gaussian-ou": 8.1, "logistic": 8.1}


# benchmark minimize -> (problem, L-BFGS-B iterations, quadrature passes)
MINIMIZE_ITERATIONS = {
    "minimize-2d-point": (lambda: ActionProblem(_linear_2d_model(), [0.0, 0.0], TerminalPoint([0.6, 0.4]), m=21),
                          6, 8),
    "minimize-2d-halfspace": (lambda: ActionProblem(_linear_2d_model(), [0.0, 0.0],
                                                    TerminalHalfspace([1.0, 1.0], 1.0), m=21,
                                                    settings=MinimizeSettings(200)), 8, 9),
    "minimize-ou-halfspace": (lambda: ActionProblem(kernel.preset_model("gaussian-ou"), [0.0],
                                                    TerminalHalfspace([1.0], 0.8), m=41), 5, 6),
}


def _peak_rows(run, dim):
    """Peak traced bytes of run() above those when it starts, in (ROWS, dim) float64 arrays."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / (ROWS * dim * 8)


def _step_rows(preset, a, tilted=False):
    """Peak row arrays of STEPS Euler steps after WARM_UP, plain at amplitude a or tilted by SHIFT."""
    model = kernel.preset_model(preset)
    shifts = np.full((N, model.dim), SHIFT) if tilted else None
    steps = scheme._euler_steps(model, np.zeros(model.dim), N, a, np.random.default_rng(1), ROWS, shifts)
    for _ in range(WARM_UP):
        next(steps)

    def run():
        for _ in range(STEPS):
            next(steps)

    return _peak_rows(run, model.dim)


def _call_rows(preset, call):
    """Peak row arrays of one call(model, x, alphas, rng) after one warm-up call; alphas are SHIFT throughout."""
    model = kernel.preset_model(preset)
    x, alphas = np.zeros(model.dim), np.full((N, model.dim), SHIFT)
    call(model, x, alphas, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    return _peak_rows(lambda: call(model, x, alphas, rng), model.dim)


def _martingale_rows(preset, a):
    def call(model, x, alphas, rng):
        return rare_event._martingale_rows(model, x, N, a, alphas, rng, ROWS)

    return _call_rows(preset, call)


def _tilted_rows(preset):
    event = TerminalHalfspace([1.0], 1.0)

    def call(model, x, alphas, rng):
        return rare_event._tilted_rows(model, x, N, event, alphas, rng, ROWS)

    return _call_rows(preset, call)


def _check(got, pin, case, table):
    if np.__version__ != PINNED_NUMPY:
        pytest.skip(f"row arrays pinned on numpy {PINNED_NUMPY}, this is numpy {np.__version__}")
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc already traces this process, so earlier arrays would count")
    got = round(got(), 1)
    assert got == pin, (f"{case}: {got} row arrays, pinned {pin}; "
                        f"re-pin {table} and say in CHANGES.md which pins moved and why")


@pytest.mark.parametrize("preset,a", [(p, a) for p in EULER_STEP_ROWS for a in (0.0, 0.5)])
def test_euler_step_peak_row_arrays(preset, a):
    _check(lambda: _step_rows(preset, a), EULER_STEP_ROWS[preset][a > 0.0], f"{preset} at a = {a}", "EULER_STEP_ROWS")


@pytest.mark.parametrize("preset", list(TILTED_STEP_ROWS))
def test_tilted_step_peak_row_arrays(preset):
    _check(lambda: _step_rows(preset, 0.0, tilted=True), TILTED_STEP_ROWS[preset], preset, "TILTED_STEP_ROWS")


@pytest.mark.parametrize("preset,a", [(p, a) for p in MARTINGALE_CALL_ROWS for a in (0.0, 0.5)])
def test_martingale_call_peak_row_arrays(preset, a):
    pin = MARTINGALE_CALL_ROWS[preset][a > 0.0]
    _check(lambda: _martingale_rows(preset, a), pin, f"{preset} at a = {a}", "MARTINGALE_CALL_ROWS")


@pytest.mark.parametrize("preset", list(TILTED_CALL_ROWS))
def test_tilted_call_peak_row_arrays(preset):
    _check(lambda: _tilted_rows(preset), TILTED_CALL_ROWS[preset], preset, "TILTED_CALL_ROWS")


@pytest.mark.parametrize("name", list(MINIMIZE_ITERATIONS))
def test_benchmark_minimize_iterations(name):
    if scipy.__version__ != PINNED_SCIPY:
        pytest.skip(f"iterations pinned on scipy {PINNED_SCIPY}, this is scipy {scipy.__version__}")
    problem, pin, _ = MINIMIZE_ITERATIONS[name]
    res = minimize_action(problem())
    assert res.converged
    assert res.iterations == pin, (f"{name}: {res.iterations} L-BFGS-B iterations, pinned {pin}; "
                                   "re-pin MINIMIZE_ITERATIONS and say in CHANGES.md which pins moved and why")


@pytest.mark.parametrize("name", list(MINIMIZE_ITERATIONS))
def test_benchmark_minimize_quadrature_passes(name, monkeypatch):
    # every pass is one batched conjugate solve; a memo that prices a point twice adds one
    if scipy.__version__ != PINNED_SCIPY:
        pytest.skip(f"passes pinned on scipy {PINNED_SCIPY}, this is scipy {scipy.__version__}")
    problem, _, pin = MINIMIZE_ITERATIONS[name]
    passes = []
    quadrature_pass = action._quadrature_pass

    def counted(*args, **kwargs):
        passes.append(args)
        return quadrature_pass(*args, **kwargs)

    monkeypatch.setattr(action, "_quadrature_pass", counted)
    assert minimize_action(problem()).converged
    assert len(passes) == pin, (f"{name}: {len(passes)} quadrature passes, pinned {pin}; "
                                "re-pin MINIMIZE_ITERATIONS and say in CHANGES.md which pins moved and why")


def test_long_path_minimize_iterations_do_not_grow_with_m():
    # gaussian-ou to the point 1.5 at m = 81, where the plain increments' Hessian has condition number about 2,600
    problem = ActionProblem(kernel.preset_model("gaussian-ou"), [0.0], TerminalPoint([1.5]), m=81)
    res = minimize_action(problem)
    assert res.converged
    assert res.iterations <= 10
