"""Acceptance gate: eight end-to-end checks, one test each.

Every test prints a one-line summary of the measured quantities next to
its pinned tolerance, so `pytest -v tests/test_acceptance.py` reads as a
checklist.  Tolerances and seeds are frozen; the stochastic checks were
sized so a pass is expected with large margin under the frozen seed and
within 4 standard errors under any seed.
"""

import numpy as np
import pytest
from scipy.stats import norm

from ldscheme.action import (
    GRAD_TOL,
    ActionProblem,
    TerminalHalfspace,
    TerminalPoint,
    action,
    limit_ode,
    minimize_action,
    straight_line,
)
from ldscheme.conjugate import dominating_point_halfspace, perturbed_fenchel
from ldscheme.kernel import PRESETS, cgf, cgf_grad, preset_model
from ldscheme.rare_event import (
    martingale_check,
    tilted_mc_probability,
    verify_ode_convergence,
)
from ldscheme.scheme import (
    DualMeasure,
    coupled_perturbation_gaps,
    eval_path_many,
    phi_limit,
    phi_n,
    resample,
)


def test_acceptance_1_martingale_identity():
    # E exp[<Y, lam> - phi_n] = 1 for the mean-reverting Gaussian model,
    # n = 50, all four (a, alpha) combinations, 1e5 samples, 4 stderr.
    model = preset_model("gaussian-ou")
    worst = 0.0
    for a in (0.0, 0.5):
        for alpha in (0.5, 1.0):
            lam = DualMeasure.point_mass(1.0, alpha)
            chk = martingale_check(model, [1.0], 50, a, lam, 100_000, seed=101)
            z = abs(chk.mean - 1.0) / chk.stderr
            worst = max(worst, z)
            assert abs(chk.mean - 1.0) <= 4.0 * chk.stderr, (a, alpha, chk)
    print(f"acceptance 1: worst |mean-1|/stderr = {worst:.2f} (gate 4.0)")


def test_acceptance_2_scaling_limit():
    # n^-1 phi_n along the mean-flow polygon approaches the continuum
    # functional: decreasing over n in {100, 1000, 10000}, final <= 1e-3.
    model = preset_model("gaussian-ou")
    x = np.array([1.0])
    f = limit_ode(model, x, steps=100)
    lam = DualMeasure.point_mass(1.0, 1.0)
    lim = phi_limit(model, x, 0.0, f, lam)
    gaps = []
    for n in (100, 1000, 10000):
        fn = resample(f, n)
        val = phi_n(model, x, 0.0, fn, lam.scaled(n)) / n
        gaps.append(abs(val - lim))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 1e-3
    print(f"acceptance 2: gaps = {gaps[0]:.2e} > {gaps[1]:.2e} > {gaps[2]:.2e} (gate 1e-3)")


def test_acceptance_3_conjugate_correctness():
    # numeric conjugate vs hand closed forms (1e-6), the conjugate
    # inequality on random triples (-1e-9 floor), gradient vs central
    # differences (1e-5 relative).
    rng = np.random.default_rng(103)
    ou = preset_model("gaussian-ou")
    bern = preset_model("bernoulli-walk")

    worst_cf = 0.0
    for _ in range(100):
        y = rng.uniform(-2.0, 2.0, size=1)
        z = rng.uniform(-3.0, 3.0, size=1)
        got = perturbed_fenchel(ou, 0.0, y, z).value
        exact = 0.5 * float(z[0] + y[0]) ** 2
        worst_cf = max(worst_cf, abs(got - exact))
        assert abs(got - exact) <= 1e-6

        zb = rng.uniform(0.02, 0.98, size=1)
        got_b = perturbed_fenchel(bern, 0.0, y, zb).value
        p, q = 0.3, float(zb[0])
        exact_b = q * np.log(q / p) + (1 - q) * np.log((1 - q) / (1 - p))
        worst_cf = max(worst_cf, abs(got_b - exact_b))
        assert abs(got_b - exact_b) <= 1e-6

    worst_yf = 0.0
    for _ in range(1000):
        model = ou if rng.random() < 0.5 else bern
        y = rng.uniform(-2.0, 2.0, size=1)
        z = rng.uniform(0.05, 0.95, size=1) if model is bern else rng.uniform(-3.0, 3.0, size=1)
        alpha = rng.uniform(-3.0, 3.0, size=1)
        slack = perturbed_fenchel(model, 0.0, y, z).value + cgf(model, y, alpha) - float(z @ alpha)
        worst_yf = min(worst_yf, slack)
        assert slack >= -1e-9

    worst_fd = 0.0
    h = 1e-6
    for _ in range(50):
        model = ou if rng.random() < 0.5 else bern
        y = rng.uniform(-2.0, 2.0, size=1)
        alpha = rng.uniform(-2.0, 2.0, size=1)
        g = cgf_grad(model, y, alpha)[0]
        fd = (cgf(model, y, alpha + h) - cgf(model, y, alpha - h)) / (2 * h)
        rel = abs(g - fd) / max(1.0, abs(fd))
        worst_fd = max(worst_fd, rel)
        assert rel <= 1e-5
    print(
        f"acceptance 3: closed-form dev {worst_cf:.1e} (gate 1e-6), "
        f"inequality floor {worst_yf:.1e} (gate -1e-9), grad-FD {worst_fd:.1e} (gate 1e-5)"
    )


def test_acceptance_4_cramer_benchmark():
    # d=1 driftless unit-noise Gaussian model, event {Y(1) >= 1}: terminal
    # is N(0, 1/n), so P = Phibar(sqrt(n)) exactly.  Tilted estimator at
    # n=200 must cover the oracle within 4 stderr and land the rate
    # within 15% of the minimized path cost 0.5.
    oracle = 1.0442437918812278e-45
    assert norm.sf(np.sqrt(200)) == pytest.approx(oracle, rel=1e-12)
    model = preset_model("gaussian-free")
    rep = tilted_mc_probability(model, [0.0], 200, TerminalHalfspace([1.0], 1.0), 100_000, seed=104)
    assert rep.p_hat > 0.0
    assert abs(rep.p_hat - oracle) <= 4.0 * rep.stderr
    assert rep.predicted_rate == pytest.approx(0.5, abs=1e-9)
    rel_gap = abs(rep.empirical_rate - 0.5) / 0.5
    assert rel_gap <= 0.15
    print(
        f"acceptance 4: p_hat {rep.p_hat:.3e} vs oracle {oracle:.3e} "
        f"({abs(rep.p_hat - oracle) / rep.stderr:.2f} stderr, gate 4), rate gap {rel_gap:.3f} (gate 0.15)"
    )


def test_acceptance_5_minimum_action():
    # terminal point z=1 on the driftless model: straight line, cost 1/2;
    # half-space c=2: cost 2, matching the dominating-point level.
    model = preset_model("gaussian-free")
    res = minimize_action(ActionProblem(model=model, x=[0.0], terminal=TerminalPoint([1.0]), m=21))
    assert res.converged
    assert res.grad_norm <= GRAD_TOL
    line = straight_line(np.zeros(1), np.ones(1), 21)
    ts = np.linspace(0.0, 1.0, 201)
    dev = float(np.max(np.abs(eval_path_many(res.trajectory, ts) - eval_path_many(line, ts))))
    assert dev <= 1e-3
    assert res.action.value == pytest.approx(0.5, abs=1e-3)

    half = minimize_action(
        ActionProblem(model=model, x=[0.0], terminal=TerminalHalfspace([1.0], 2.0), m=21)
    )
    assert half.converged
    assert half.grad_norm <= GRAD_TOL
    assert half.action.value == pytest.approx(2.0, abs=1e-2)
    dom = dominating_point_halfspace(model, np.zeros(1), np.array([1.0]), 2.0)
    assert abs(half.action.value - dom.level) <= 1e-4
    print(
        f"acceptance 5: point value {res.action.value:.6f} (0.5 +/- 1e-3), sup dev {dev:.1e} (gate 1e-3); "
        f"half-space value {half.action.value:.6f} (2 +/- 1e-2), |value - level| {abs(half.action.value - dom.level):.1e} (gate 1e-4)"
    )


def test_acceptance_6_ode_limit():
    # P{sup deviation from the mean flow >= 0.5} collapses in n: strictly
    # decreasing over the hit-bearing grid points, fitted log-slope <= -0.05.
    model = preset_model("gaussian-ou")
    rep = verify_ode_convergence(model, [1.0], 0.5, [10, 20, 40, 80], 10_000, seed=106)
    live = [r["q"] for r in rep.rows if not r["censored"]]
    assert len(live) >= 2
    assert all(a > b for a, b in zip(live, live[1:]))
    assert rep.slope is not None and rep.slope <= -0.05
    qs = [r["q"] for r in rep.rows]
    print(f"acceptance 6: q = {qs}, slope {rep.slope:.3f} (gate -0.05)")


def test_acceptance_7_perturbation_coupling():
    # pathwise smoothing gap never exceeds its certificate (1000 runs,
    # zero violations) and its 0.99-quantile shrinks as a halves.
    model = preset_model("gaussian-ou")
    quantiles = []
    for a in (0.5, 0.25, 0.125):
        gaps, bounds = coupled_perturbation_gaps(model, [1.0], 100, a, seed=107, realizations=1000)
        assert int(np.sum(gaps > bounds)) == 0
        quantiles.append(float(np.quantile(gaps, 0.99)))
    assert quantiles[0] > quantiles[1] > quantiles[2]
    print(
        "acceptance 7: zero bound violations; q99 = "
        + " > ".join(f"{q:.4f}" for q in quantiles)
    )


def test_acceptance_8_zero_action_flow():
    # the mean-flow polygon has (numerically) zero path cost for every
    # shipped preset: <= 1e-6 at 400 integration steps.
    starts = {"gaussian-free": 0.3, "gaussian-ou": 1.0, "logistic": 0.2, "bernoulli-walk": 0.0}
    assert set(starts) == set(PRESETS)
    vals = {}
    for name, x in starts.items():
        model = preset_model(name)
        f = limit_ode(model, [x], steps=400)
        val = action(model, [x], 0.0, f)
        vals[name] = val.value
        assert np.isfinite(val.value)
        assert val.value <= 1e-6, (name, val.value)
    detail = ", ".join(f"{k} {v:.1e}" for k, v in vals.items())
    print(f"acceptance 8: flow action {detail} (gate 1e-6)")
