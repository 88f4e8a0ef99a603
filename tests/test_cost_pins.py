"""Exact pins of the work a step does, so a speed-up can show a count as well as a clock.

The Euler stepper's memory traffic is pinned as the peak of the bytes that
tracemalloc traces on this process over 5 steps of scheme._euler_steps, at
20,000 rows and n = 50, after two warm-up steps, above the traced bytes when
the five begin.  The unit is one (rows, d) float64 array, rounded to a tenth
so that small Python objects do not count.  A change that adds a row
temporary to a step moves its pin by a whole row.

Allocation counts can depend on numpy's version, so the pins hold for the
numpy they were measured on and are skipped, with the reason, elsewhere.  To
re-pin, run this module's _row_arrays for each case and write the values
here; CHANGES.md says which moved and why.
"""

import tracemalloc

import numpy as np
import pytest

from ldscheme import kernel, scheme

PINNED_NUMPY = "2.4.6"
ROWS, N, WARM_UP, STEPS = 20_000, 50, 2, 5

# preset -> peak row arrays per run of STEPS steps at a = 0 and at a = 0.5
EULER_STEP_ROWS = {
    "gaussian-free": (4.0, 5.0),
    "gaussian-ou": (5.0, 5.0),
    "logistic": (5.0, 5.0),
    "bernoulli-walk": (4.1, 5.0),
}


def _row_arrays(preset, a):
    """Peak traced bytes of STEPS Euler steps after WARM_UP, in (ROWS, d) float64 arrays."""
    model = kernel.preset_model(preset)
    steps = scheme._euler_steps(model, np.zeros(model.dim), N, a, np.random.default_rng(1), ROWS)
    for _ in range(WARM_UP):
        next(steps)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(STEPS):
            next(steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / (ROWS * model.dim * 8)


@pytest.mark.parametrize("preset,a", [(p, a) for p in EULER_STEP_ROWS for a in (0.0, 0.5)])
def test_euler_step_peak_row_arrays(preset, a):
    if np.__version__ != PINNED_NUMPY:
        pytest.skip(f"row arrays pinned on numpy {PINNED_NUMPY}, this is numpy {np.__version__}")
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc already traces this process, so earlier arrays would count")
    pin = EULER_STEP_ROWS[preset][a > 0.0]
    got = round(_row_arrays(preset, a), 1)
    assert got == pin, (f"{preset} at a = {a}: {got} row arrays over {STEPS} steps, pinned {pin}; "
                        "re-pin EULER_STEP_ROWS and say in CHANGES.md which pins moved and why")
