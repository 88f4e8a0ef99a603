import numpy as np
import pytest

from ldscheme import rare_event


@pytest.fixture
def crafted_rates(monkeypatch):
    """Make verify_rate's tilted estimates crafted ones, from a table keyed by n.

    Each entry is (rel_gap, rate_stderr), both in units of the predicted
    rate, or None for an estimate with no hit (p_hat 0).  The minimized plan
    is still computed, so predicted_rate and minimize_converged are real.
    """

    def install(table):
        def estimate(model, x, n, event, samples, seed, workers, plan):
            predicted = float(plan.action.value)
            p = stderr = 0.0
            if table[n] is not None:
                gap, rate_se = table[n]
                p = float(np.exp(-n * predicted * (1.0 + gap)))
                stderr = rate_se * predicted * p * n
            return rare_event._report(model, event, n, samples, seed[0], p, stderr, "tilted", predicted)

        monkeypatch.setattr(rare_event, "_tilted_estimate", estimate)

    return install
