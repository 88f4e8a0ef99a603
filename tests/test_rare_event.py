import dataclasses
import json
import re
import sys

import numpy as np
import pytest
from numpy.random import default_rng
from scipy.stats import norm

from ldscheme import kernel
from ldscheme.action import ActionProblem, TerminalHalfspace, limit_ode, minimize_action
from ldscheme.errors import SimulationBlowup
from ldscheme.kernel import affine_model, gaussian_base, linear_drift, logistic_drift, preset_model
from ldscheme.rare_event import (
    BallEvent,
    CHUNK_SIZE,
    HalfspaceEvent,
    PathDeviationEvent,
    _chunk_sizes,
    _tilt_plan,
    _tilt_sequence,
    _tilted_rows,
    martingale_check,
    mc_probability,
    tilted_mc_probability,
    verify_ode_convergence,
    verify_rate,
)
from ldscheme.scheme import DualMeasure, Trajectory, _euler_steps, coupled_perturbation_gaps, resample, simulate


def test_event_normalization():
    assert HalfspaceEvent is TerminalHalfspace
    ev = TerminalHalfspace([2.0], 4.0)
    assert ev.normal[0] == pytest.approx(1.0)
    assert ev.level == pytest.approx(2.0)
    assert ev.record()["kind"] == "terminal-halfspace"
    with pytest.raises(ValueError):
        TerminalHalfspace([0.0], 1.0)
    with pytest.raises(ValueError):
        BallEvent([0.0], 0.0)
    with pytest.raises(ValueError):
        PathDeviationEvent(0.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: TerminalHalfspace([1.0], np.nan),
        lambda: TerminalHalfspace([np.inf], 1.0),
        lambda: BallEvent([np.nan], 1.0),
        lambda: BallEvent([0.0], np.nan),
        lambda: BallEvent([0.0], np.inf),
        lambda: PathDeviationEvent(np.nan),
        lambda: PathDeviationEvent(np.inf),
    ],
    ids=["level", "normal", "center", "radius-nan", "radius-inf", "epsilon-nan", "epsilon-inf"],
)
def test_events_reject_non_finite_parameters(make):
    with pytest.raises(ValueError, match="finite"):
        make()


@pytest.mark.parametrize(
    "run",
    [
        lambda m, lam: tilted_mc_probability(m, [0.0], 20, TerminalHalfspace([1.0], 1.0), 1, seed=0),
        lambda m, lam: verify_rate(m, [0.0], TerminalHalfspace([1.0], 1.0), [10, 20], 1, seed=0),
        lambda m, lam: martingale_check(m, [0.0], 20, 0.0, lam, 1, seed=0),
    ],
    ids=["tilted", "rate", "martingale"],
)
def test_weighted_estimators_need_two_samples(run, monkeypatch):
    # the check runs before anything is simulated or minimized
    import ldscheme.rare_event as rare_event

    def forbidden(*args, **kwargs):
        raise AssertionError("simulated before validating samples")

    monkeypatch.setattr(rare_event, "_map_chunks", forbidden)
    monkeypatch.setattr(rare_event, "_tilt_plan", forbidden)
    with pytest.raises(ValueError, match="samples must be an integer >= 2"):
        run(preset_model("gaussian-free"), DualMeasure.point_mass(1.0, 0.5))


@pytest.mark.parametrize(
    "run",
    [
        # a 2-D center used to broadcast against the (rows, 1) states and give p_hat 0.98
        lambda m: mc_probability(m, [0.0], 20, 0.0, BallEvent([0.0, 0.0], 0.5), 100, seed=0),
        # a 2-D reference broadcast the same way in the path fold
        lambda m: mc_probability(m, [0.0], 20, 0.0, PathDeviationEvent(0.5, Trajectory(np.zeros((3, 2)))), 100, seed=0),
        # a 2-D normal ended in a numpy shape error
        lambda m: mc_probability(m, [0.0], 20, 0.0, TerminalHalfspace([1.0, 0.0], 1.0), 100, seed=0),
        lambda m: tilted_mc_probability(m, [0.0], 20, TerminalHalfspace([1.0, 0.0], 1.0), 100, seed=0),
        lambda m: verify_rate(m, [0.0], TerminalHalfspace([1.0, 0.0], 1.0), [10, 20], 100, seed=0),
    ],
    ids=["ball", "path", "halfspace", "tilted", "rate"],
)
def test_estimators_reject_event_of_wrong_dimension(run, monkeypatch):
    # the check runs before anything is simulated or minimized
    import ldscheme.rare_event as rare_event

    def forbidden(*args, **kwargs):
        raise AssertionError("simulated before validating the event")

    monkeypatch.setattr(rare_event, "_map_chunks", forbidden)
    # the tilted estimators check the event inside _tilt_plan, ahead of its mean flow
    monkeypatch.setattr(rare_event, "limit_ode", forbidden)
    monkeypatch.setattr(rare_event, "minimize_action", forbidden)
    with pytest.raises(ValueError, match=r"event has shape \(2,\), the model dim is 1"):
        run(preset_model("gaussian-ou"))


def test_chunk_sizes():
    assert _chunk_sizes(5) == [5]
    assert _chunk_sizes(CHUNK_SIZE) == [CHUNK_SIZE]
    assert _chunk_sizes(45_000) == [CHUNK_SIZE, CHUNK_SIZE, 5_000]
    with pytest.raises(ValueError):
        _chunk_sizes(0)


def test_naive_mc_free_gaussian_halfspace_oracle():
    # terminal is N(0, 1/n): P{Y(1) >= c} = Phibar(c sqrt(n))
    m = preset_model("gaussian-free")
    n, c = 40, 0.3
    rep = mc_probability(m, [0.0], n, 0.0, TerminalHalfspace([1.0], c), 40_000, seed=11)
    oracle = norm.sf(c * np.sqrt(n))
    assert abs(rep.p_hat - oracle) < 4 * rep.stderr
    assert rep.method == "naive"
    assert rep.empirical_rate == pytest.approx(-np.log(rep.p_hat) / n)
    assert rep.predicted_rate is None


def test_naive_mc_ball_oracle():
    m = preset_model("gaussian-free")
    n, r = 25, 0.2
    rep = mc_probability(m, [0.0], n, 0.0, BallEvent([0.0], r), 40_000, seed=12)
    oracle = 1.0 - 2.0 * norm.sf(r * np.sqrt(n))
    assert abs(rep.p_hat - oracle) < 4 * rep.stderr


def test_naive_mc_zero_hits_censors_rate():
    m = preset_model("gaussian-free")
    rep = mc_probability(m, [0.0], 50, 0.0, TerminalHalfspace([1.0], 50.0), 2_000, seed=1)
    assert rep.p_hat == 0.0
    assert rep.empirical_rate is None


def test_naive_mc_worker_invariance():
    m = preset_model("gaussian-ou")
    ev = TerminalHalfspace([1.0], 0.2)
    a = mc_probability(m, [0.0], 30, 0.0, ev, 50_000, seed=7, workers=1)
    b = mc_probability(m, [0.0], 30, 0.0, ev, 50_000, seed=7, workers=4)
    assert a.p_hat == b.p_hat


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("run", ["halfspace", "ball", "martingale", "ode"])
def test_blowup_raises_on_every_path(run):
    # from x = -5 the logistic scheme leaves the finite range at step 14 of
    # n = 15; non-finite states must raise, never count as misses or NaN means
    m = preset_model("logistic")
    noisy = affine_model(1, logistic_drift(), 20.0, gaussian_base(), summary="noisy")
    calls = {
        "halfspace": lambda: mc_probability(m, [-5.0], 15, 0.0, TerminalHalfspace([1.0], 0.5), 2_000, seed=0),
        "ball": lambda: mc_probability(m, [-5.0], 15, 0.0, BallEvent([0.0], 1.0), 2_000, seed=0),
        "martingale": lambda: martingale_check(m, [-5.0], 15, 0.0, DualMeasure.point_mass(1.0, 0.5), 2_000, seed=0),
        # the mean flow from 0.5 stays finite; large noise blows the scheme up
        "ode": lambda: verify_ode_convergence(noisy, [0.5], 0.5, [15], 2_000, seed=0),
    }
    with pytest.raises(SimulationBlowup):
        calls[run]()


def test_path_deviation_event_explicit_reference():
    m = preset_model("gaussian-free")
    ref = Trajectory(np.zeros((41, 1)))
    ev = PathDeviationEvent(epsilon=1e9, reference=ref)
    rep = mc_probability(m, [0.0], 40, 0.0, ev, 1_000, seed=2)
    assert rep.p_hat == 0.0
    small = PathDeviationEvent(epsilon=1e-6, reference=ref)
    rep2 = mc_probability(m, [0.0], 40, 0.0, small, 1_000, seed=2)
    assert rep2.p_hat == 1.0


def test_path_deviation_checks_between_lattice_points():
    # reference knots live on a finer grid than the scheme: the deviation
    # is checked there too, catching a midpoint spike
    m = preset_model("gaussian-free")
    times = np.linspace(0, 1, 21)
    spike = np.where(np.isclose(times, 0.55), 100.0, 0.0)[:, None]
    ref = Trajectory(spike)
    ev = PathDeviationEvent(epsilon=50.0, reference=ref)
    rep = mc_probability(m, [0.0], 10, 0.0, ev, 200, seed=5)
    assert rep.p_hat == 1.0


@pytest.mark.parametrize("x, far", [(0.0, [0.0, 0.0, 1e200]), (1e200, [0.0, 0.0, 0.0])], ids=["step", "start"])
def test_path_deviation_too_large_to_square_is_a_hit(x, far):
    # the fold keeps squared deviations; one that overflows to inf is a hit,
    # at a step or at the start, and raises no overflow warning
    m = preset_model("gaussian-free")
    ref = Trajectory(np.array(far)[:, None])
    rep = mc_probability(m, [x], 2, 0.0, PathDeviationEvent(epsilon=1e300, reference=ref), 100, seed=5)
    assert rep.p_hat == 1.0


def test_mean_flow_reference_solved_once_per_n(monkeypatch):
    from ldscheme import rare_event

    calls, solve = [], rare_event.limit_ode

    def counting_limit_ode(model, x, steps):
        calls.append(steps)
        return solve(model, x, steps=steps)

    monkeypatch.setattr(rare_event, "limit_ode", counting_limit_ode)
    monkeypatch.setattr(rare_event, "CHUNK_SIZE", 100)  # five chunks per n
    m = preset_model("logistic")
    verify_ode_convergence(m, [0.5], 0.3, [5, 10], 500, seed=1, workers=2)
    assert calls == [5, 10]
    calls.clear()
    mc_probability(m, [0.5], 8, 0.0, PathDeviationEvent(epsilon=0.3), 500, seed=1)
    assert calls == [8]


def test_martingale_check_deterministic_exact():
    import ldscheme

    det = ldscheme.affine_model(
        1, ldscheme.linear_drift(np.array([[-1.0]])), 0.0, ldscheme.gaussian_base(), summary="det"
    )
    lam = DualMeasure.from_atoms([(0.4, [0.6]), (1.0, [-1.1])])
    chk = martingale_check(det, [1.0], 25, 0.0, lam, 500, seed=8)
    assert chk.mean == pytest.approx(1.0, rel=1e-12)
    assert chk.stderr < 1e-15


def test_martingale_check_stochastic():
    m = preset_model("gaussian-ou")
    lam = DualMeasure.point_mass(1.0, 0.7)
    chk = martingale_check(m, [1.0], 40, 0.5, lam, 40_000, seed=3)
    assert abs(chk.mean - 1.0) < 4 * chk.stderr
    assert chk.variation == pytest.approx(0.7)


def test_martingale_check_bernoulli_base():
    m = preset_model("bernoulli-walk")
    lam = DualMeasure.point_mass(1.0, 1.0)
    chk = martingale_check(m, [0.0], 30, 0.0, lam, 40_000, seed=13)
    assert abs(chk.mean - 1.0) < 4 * chk.stderr


def test_martingale_check_callable_sigma_matches_preset():
    # a callable sigma goes through the same vectorized cumulant rows as a constant one
    ou = affine_model(1, linear_drift([[-1.0]]), lambda y: np.eye(1), gaussian_base(), summary="ou-callable-sigma")
    lam = DualMeasure.point_mass(1.0, 0.5)
    ref = martingale_check(preset_model("gaussian-ou"), [1.0], 20, 0.0, lam, 1_000, seed=5)
    chk = martingale_check(ou, [1.0], 20, 0.0, lam, 1_000, seed=5)
    assert chk.mean == ref.mean
    assert chk.stderr == ref.stderr


def test_state_free_callable_sigma_is_not_called_per_step(monkeypatch):
    # a callable sigma that never reads its state is read once, when the model
    # is built, and then runs on the constant-sigma path
    import ldscheme.rare_event as rare_event

    calls = []

    def sigma(y):
        calls.append(type(y).__name__)
        return np.eye(1)

    ou = affine_model(1, linear_drift([[-1.0]]), sigma, gaussian_base())
    assert calls == ["_UnreadState", "ndarray"]
    assert np.array_equal(ou.sigma, np.eye(1))
    ref = preset_model("gaussian-ou")
    monkeypatch.setattr(rare_event, "CHUNK_SIZE", 1_000)  # four chunks
    n, ev, lam = 20, TerminalHalfspace([1.0], 0.3), DualMeasure.point_mass(1.0, 0.5)
    naive = mc_probability(ref, [0.0], n, 0.0, ev, 4_000, seed=3)
    check = martingale_check(ref, [1.0], n, 0.0, lam, 4_000, seed=5)
    for workers in (1, 2):
        calls.clear()
        rep = mc_probability(ou, [0.0], n, 0.0, ev, 4_000, seed=3, workers=workers)
        chk = martingale_check(ou, [1.0], n, 0.0, lam, 4_000, seed=5, workers=workers)
        assert calls == []
        assert (rep.p_hat, rep.stderr) == (naive.p_hat, naive.stderr)
        assert (chk.mean, chk.stderr) == (check.mean, check.stderr)
    tilt_ev = TerminalHalfspace([1.0], 0.8)
    tilt = tilted_mc_probability(ou, [0.0], 50, tilt_ev, 1_000, seed=7)
    tilt_ref = tilted_mc_probability(ref, [0.0], 50, tilt_ev, 1_000, seed=7)
    assert (tilt.p_hat, tilt.stderr) == (tilt_ref.p_hat, tilt_ref.stderr)


def test_tilted_rejects_state_dependent_sigma():
    m = affine_model(1, linear_drift([[-1.0]]), lambda ys: (1.0 + 0.1 * ys[:, :, None] ** 2), gaussian_base())
    with pytest.raises(ValueError, match="requires a constant sigma"):
        tilted_mc_probability(m, [0.0], 20, TerminalHalfspace([1.0], 0.8), 100, seed=0)


def test_martingale_check_variation_cap(monkeypatch):
    import ldscheme.rare_event as rare_event

    m = preset_model("gaussian-ou")
    lam = DualMeasure.point_mass(1.0, 5.0)
    with pytest.raises(ValueError, match="variation 5 exceeds the cap 2; scale the measure down"):
        martingale_check(m, [1.0], 10, 0.0, lam, 100, seed=0)
    chk = martingale_check(m, [1.0], 10, 0.0, lam.scaled(0.1), 100, seed=0)
    assert np.isfinite(chk.mean)
    monkeypatch.setattr(rare_event, "MAX_VARIATION", 0.4)
    with pytest.raises(ValueError, match="exceeds the cap 0.4"):
        martingale_check(m, [1.0], 10, 0.0, lam.scaled(0.1), 100, seed=0)


@pytest.mark.parametrize("model_dim, measure_dim", [(1, 2), (2, 1)])
def test_martingale_check_rejects_measure_of_another_dim(model_dim, measure_dim, monkeypatch):
    # a mismatch used to fail inside the stepper, after the first draws
    import ldscheme.rare_event as rare_event

    monkeypatch.setattr(rare_event, "_map_chunks", lambda *args: pytest.fail("simulated before the check"))
    m = affine_model(model_dim, linear_drift(-np.eye(model_dim)), 1.0, gaussian_base())
    lam = DualMeasure.point_mass(1.0, np.full(measure_dim, 0.5))
    with pytest.raises(ValueError, match=f"measure dim {measure_dim} does not match model dim {model_dim}"):
        martingale_check(m, np.zeros(model_dim), 10, 0.0, lam, 100, seed=0)


def test_tilted_free_gaussian_matches_exact_oracle():
    m = preset_model("gaussian-free")
    n = 100
    rep = tilted_mc_probability(m, [0.0], n, TerminalHalfspace([1.0], 1.0), 50_000, seed=31)
    oracle = norm.sf(np.sqrt(n))
    assert rep.method == "tilted"
    assert rep.p_hat > 0
    assert abs(rep.p_hat - oracle) < 4 * rep.stderr
    assert rep.stderr < 0.05 * rep.p_hat
    assert rep.predicted_rate == pytest.approx(0.5, abs=1e-9)


def test_tilted_weights_positive_and_finite():
    m = preset_model("gaussian-free")
    ev = TerminalHalfspace([1.0], 1.0)
    plan = _tilt_plan(m, np.zeros(1), ev)
    alphas = _tilt_sequence(m, plan.trajectory, 50)
    # state-independent model: the tilt collapses to the dominating point
    assert np.allclose(alphas, 1.0, atol=1e-6)
    vals = _tilted_rows(m, np.zeros(1), 50, ev, alphas, default_rng(0), 2_000)
    assert np.all(np.isfinite(vals))
    assert np.all(vals >= 0.0)
    assert np.any(vals > 0.0)
    # replay by hand: base draws shifted by sigma^T alpha_k, no smoothing draw
    rng = default_rng(0)
    state, logw = np.zeros((2_000, 1)), np.zeros(2_000)
    for alpha in alphas:
        shift = alpha @ m.sigma
        f = m.drift(state) + (rng.standard_normal(state.shape) + shift) @ m.sigma.T
        logw += (m.drift(state) @ alpha + 0.5 * np.sum(shift * shift)) - f @ alpha
        state = state + f / 50
    assert np.array_equal(vals, np.exp(logw) * (state[:, 0] >= 1.0))


def test_tilted_agrees_with_naive_on_moderate_event():
    m = preset_model("gaussian-free")
    n, c = 40, 0.3
    ev = TerminalHalfspace([1.0], c)
    naive = mc_probability(m, [0.0], n, 0.0, ev, 60_000, seed=41)
    tilt = tilted_mc_probability(m, [0.0], n, ev, 60_000, seed=42)
    assert naive.p_hat >= 1e-3
    joint = np.hypot(naive.stderr, tilt.stderr)
    assert abs(naive.p_hat - tilt.p_hat) < 4 * joint


def test_tilted_ou_benchmark_unbiased():
    # cross-check the state-dependent tilt path: naive vs tilted on an
    # OU event still reachable by naive sampling
    m = preset_model("gaussian-ou")
    n, c = 30, 0.35
    ev = TerminalHalfspace([1.0], c)
    naive = mc_probability(m, [0.0], n, 0.0, ev, 60_000, seed=51)
    tilt = tilted_mc_probability(m, [0.0], n, ev, 60_000, seed=52)
    assert naive.p_hat >= 1e-3
    joint = np.hypot(naive.stderr, tilt.stderr)
    assert abs(naive.p_hat - tilt.p_hat) < 4 * joint


def test_tilted_estimate_with_a_hand_written_row_drift_matches_preset():
    # the stepper evaluates drift through kernel.drift_rows, one call on all
    # rows; a drift written out for the rows gives the preset's estimate
    rows = affine_model(1, lambda ys: -ys, 1.0, gaussian_base(), summary="ou-rows")
    ev = TerminalHalfspace([1.0], 0.8)
    ref = tilted_mc_probability(preset_model("gaussian-ou"), [0.0], 50, ev, 4_000, seed=7)
    rep = tilted_mc_probability(rows, [0.0], 50, ev, 4_000, seed=7)
    assert rep.p_hat == ref.p_hat
    assert rep.stderr == ref.stderr


def _ou_2d():
    """2-D linear drift with a constant, non-identity, non-symmetric sigma, so sigma^T alpha != alpha."""
    sigma = [[1.0, 0.3], [-0.2, 0.7]]
    return affine_model(2, linear_drift([[-1.0, 0.5], [0.2, -0.8]]), sigma, gaussian_base())


@pytest.mark.parametrize("make", [lambda: preset_model("gaussian-ou"), _ou_2d], ids=["gaussian-ou", "ou-2d"])
def test_tilted_weight_matches_drift_form_with_one_drift_call_per_step(make):
    src = make()
    calls = []

    def counted(y):
        calls.append(1)
        return src.drift(y)

    m = dataclasses.replace(src, drift=counted)
    n, size, x = 40, 3_000, np.zeros(m.dim)
    alphas = default_rng(81).normal(0.3, 0.4, size=(n, m.dim))
    # every replica lands in this half-space, so the fold returns the bare weights
    everywhere = TerminalHalfspace(np.ones(m.dim), -1e6)
    vals = _tilted_rows(m, x, n, everywhere, alphas, default_rng(82), size)
    # the stepper evaluates drift once per step and the fold adds no call (it used to add n)
    assert len(calls) == n
    assert np.all(vals > 0.0)
    # replay the stepper and weigh with sum_k [cgf(X_{k-1}, alpha_k) - <F_k, alpha_k>]
    thetas = alphas @ src.sigma
    logw = np.zeros(size)
    for k, prev, xi, _ in _euler_steps(src, x, n, 0.0, default_rng(82), size, shifts=thetas):
        inc = src.drift(prev) + xi @ src.sigma.T
        logw += kernel.cgf_rows(src, prev, alphas[k - 1]) - inc @ alphas[k - 1]
    np.testing.assert_allclose(vals, np.exp(logw), rtol=1e-12)


def test_seeded_outputs_pinned():
    # values recorded when the smoothing noise moved to its own stream
    # (rng.spawn(1)[0], none drawn at a = 0); a stepper change that keeps the
    # draw discipline must not move any of them
    walk = mc_probability(preset_model("bernoulli-walk"), [0.0], 40, 0.0, TerminalHalfspace([1.0], 0.4), 5_000, seed=91)
    assert walk.p_hat * 5_000 == 575
    ou = mc_probability(preset_model("gaussian-ou"), [0.0], 40, 0.3, TerminalHalfspace([1.0], 0.15), 5_000, seed=92)
    assert ou.p_hat * 5_000 == 423
    ode = verify_ode_convergence(preset_model("logistic"), [0.1], 0.25, [10, 20, 40], 2_000, seed=93)
    assert [row["count"] for row in ode.rows] == [605, 263, 66]
    lam = DualMeasure.from_atoms([(0.5, [0.6]), (1.0, [-0.4])])
    # np.exp may differ in the last ulp across CPUs, hence rtol rather than equality
    chk = martingale_check(preset_model("gaussian-ou"), [1.0], 30, 0.5, lam, 5_000, seed=94)
    assert chk.mean == pytest.approx(0.9997735048844656, rel=1e-13)
    assert chk.stderr == pytest.approx(0.0009339450956936089, rel=1e-13)
    chk = martingale_check(preset_model("bernoulli-walk"), [0.0], 30, 0.0, lam, 5_000, seed=95)
    assert chk.mean == pytest.approx(0.9996553560804569, rel=1e-13)
    assert chk.stderr == pytest.approx(0.00036749115324241876, rel=1e-13)


def test_smoothed_mc_worker_invariance(monkeypatch):
    # every chunk spawns its own smoothing stream from its own generator, so
    # a > 0 estimates do not depend on the worker count either
    from ldscheme import rare_event

    monkeypatch.setattr(rare_event, "CHUNK_SIZE", 1_000)  # five chunks
    m = preset_model("gaussian-ou")
    ev = TerminalHalfspace([1.0], 0.2)
    a = mc_probability(m, [0.0], 30, 0.4, ev, 5_000, seed=7, workers=1)
    b = mc_probability(m, [0.0], 30, 0.4, ev, 5_000, seed=7, workers=4)
    assert 0.0 < a.p_hat < 1.0
    assert a.p_hat == b.p_hat


def test_martingale_check_worker_invariance(monkeypatch):
    # chunks draw from their own streams, so two concurrent workers give the
    # one-worker mean and stderr bit for bit
    from ldscheme import rare_event

    monkeypatch.setattr(rare_event, "CHUNK_SIZE", 1_000)  # four chunks
    m = preset_model("gaussian-ou")
    lam = DualMeasure.point_mass(1.0, [0.8])
    one = martingale_check(m, [0.5], 30, 0.5, lam, 3_500, seed=13, workers=1)
    two = martingale_check(m, [0.5], 30, 0.5, lam, 3_500, seed=13, workers=2)
    assert (one.mean, one.stderr) == (two.mean, two.stderr)


def _fresh_tilted_rows(model, x, n, event, alphas, rng, size):
    """The tilted fold with a fresh array per pass: the reference for _tilted_rows."""
    thetas = kernel._sigma_t_dot(model.sigma, alphas)
    logmgfs = model.base.logmgf(thetas)
    logw = np.zeros(size)
    for k, _, xi, state in _euler_steps(model, x, n, 0.0, rng, size, shifts=thetas):
        logw += logmgfs[k - 1] - kernel._rdot(xi, thetas[k - 1])
    return np.exp(logw) * (kernel._rdot(state, event.normal) >= event.level)


def _fresh_martingale_rows(model, x, n, a, alphas, rng, size):
    """The martingale fold with a fresh array per pass: the reference for _martingale_rows."""
    smoothing = 0.5 * a * a * np.sum(alphas * alphas, axis=1)
    acc = np.zeros(size)
    for k, prev, inc, _ in _euler_steps(model, x, n, a, rng, size):
        price = kernel.cgf_rows(model, prev, alphas[k - 1]) + smoothing[k - 1]
        acc += kernel._rdot(inc, alphas[k - 1]) - price
    return np.exp(acc)


def _fresh_deviation_rows(model, x, n, a, event, grid, rng, size):
    """The path-deviation fold with a fresh array per pass: the reference for _hit_rows."""
    ref_lattice, per_step = grid
    sq = lambda v: np.add.reduce(np.square(v), axis=-1)
    with np.errstate(over="ignore"):
        dev2 = sq(np.broadcast_to(x, (size, model.dim)) - ref_lattice[0])
        for k, prev, _, state in _euler_steps(model, x, n, a, rng, size):
            if per_step[k] is not None:
                fracs, refs = per_step[k]
                vals = prev[:, None, :] + fracs[None, :, None] * (state - prev)[:, None, :]
                dev2 = np.maximum(dev2, sq(vals - refs[None, :, :]).max(axis=1))
            dev2 = np.maximum(dev2, sq(state - ref_lattice[k]))
    return np.sqrt(dev2) >= event.epsilon


@pytest.mark.parametrize("make", [lambda: preset_model("gaussian-ou"), _ou_2d], ids=["gaussian-ou", "ou-2d"])
def test_in_place_folds_equal_their_fresh_references(make):
    from ldscheme import rare_event

    m = make()
    n, size, x = 30, 2_000, np.full(m.dim, 0.3)
    alphas = default_rng(71).normal(0.2, 0.3, size=(n, m.dim))
    half = TerminalHalfspace(np.ones(m.dim), 0.4)
    assert np.array_equal(
        _tilted_rows(m, x, n, half, alphas, default_rng(72), size),
        _fresh_tilted_rows(m, x, n, half, alphas, default_rng(72), size),
    )
    for a in [0.0, 0.5]:
        assert np.array_equal(
            rare_event._martingale_rows(m, x, n, a, alphas, default_rng(73), size),
            _fresh_martingale_rows(m, x, n, a, alphas, default_rng(73), size),
        )
    # the mean flow, and a reference on a finer grid, whose knots fall between lattice points
    fine = Trajectory(np.sin(np.linspace(0.0, 3.0, 3 * n + 1))[:, None] * np.ones(m.dim))
    for ev in [PathDeviationEvent(epsilon=0.25), PathDeviationEvent(epsilon=1.0, reference=fine)]:
        grid = rare_event._deviation_grid(ev, m, x, n)
        hits = rare_event._hit_rows(m, x, n, 0.5, ev, grid, default_rng(74), size)
        assert 0 < hits.sum() < size
        assert np.array_equal(hits, _fresh_deviation_rows(m, x, n, 0.5, ev, grid, default_rng(74), size))


@pytest.mark.parametrize("d", [1, 3])
def test_sq_norm_equals_the_numpy_reduction(d):
    # the d = 1 view must equal the reduction, overflowing squares included
    from ldscheme import rare_event

    rng = default_rng(80 + d)
    v = rng.standard_normal((4_000, d)) * 10.0 ** rng.uniform(-160.0, 170.0, (4_000, 1))
    with np.errstate(over="ignore", under="ignore"):
        ref = np.add.reduce(np.square(v), axis=-1)
        assert np.isinf(ref).any() and np.isfinite(ref).any()
        assert np.array_equal(rare_event._sq_norm(v.copy()), ref)
        assert np.array_equal(rare_event._sq_norm(v.reshape(40, 100, d).copy()), ref.reshape(40, 100))


def test_in_place_folds_equal_their_fresh_references_on_the_walk():
    from ldscheme import rare_event

    m = preset_model("bernoulli-walk")
    n, size, x = 30, 2_000, np.zeros(1)
    alphas = default_rng(75).normal(0.2, 0.3, size=(n, 1))
    assert np.array_equal(
        rare_event._martingale_rows(m, x, n, 0.0, alphas, default_rng(76), size),
        _fresh_martingale_rows(m, x, n, 0.0, alphas, default_rng(76), size),
    )
    ev = PathDeviationEvent(epsilon=0.1)
    grid = rare_event._deviation_grid(ev, m, x, n)
    assert np.array_equal(
        rare_event._hit_rows(m, x, n, 0.0, ev, grid, default_rng(77), size),
        _fresh_deviation_rows(m, x, n, 0.0, ev, grid, default_rng(77), size),
    )


_STRESS_RUNS = {
    "naive-walk": lambda w: mc_probability(
        preset_model("bernoulli-walk"), [0.0], 100, 0.0, TerminalHalfspace([1.0], 0.4), 16_000, seed=3, workers=w),
    "naive-ou-smoothed": lambda w: mc_probability(
        preset_model("gaussian-ou"), [0.0], 100, 0.4, TerminalHalfspace([1.0], 0.2), 16_000, seed=4, workers=w),
    "ball": lambda w: mc_probability(
        preset_model("gaussian-ou"), [0.5], 100, 0.0, BallEvent([0.0], 0.1), 16_000, seed=5, workers=w),
    "ode-logistic": lambda w: verify_ode_convergence(
        preset_model("logistic"), [0.1], 0.25, [50, 100], 16_000, seed=6, workers=w),
    "rate": lambda w: verify_rate(
        preset_model("gaussian-ou"), [0.0], TerminalHalfspace([1.0], 0.8), [50, 100], 16_000, seed=7, workers=w),
    "martingale": lambda w: martingale_check(
        preset_model("gaussian-ou"), [0.5], 100, 0.5, DualMeasure.point_mass(1.0, [0.8]), 16_000, seed=8, workers=w),
}


@pytest.mark.parametrize("name", sorted(_STRESS_RUNS))
def test_chunk_scratch_is_private_to_each_thread(name, monkeypatch):
    # every chunk's stepper owns its scratch array; four workers on threads
    # that switch every microsecond must give the one-worker report exactly
    from ldscheme import rare_event

    monkeypatch.setattr(rare_event, "CHUNK_SIZE", 1_000)  # 16 chunks per run
    run = _STRESS_RUNS[name]
    one = run(1).to_json_dict()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        four = run(4).to_json_dict()
    finally:
        sys.setswitchinterval(interval)
    assert four == one


def _no_blas(*args, **kwargs):
    raise AssertionError("a d = 1 hot-path product entered BLAS")


@pytest.mark.parametrize("preset", ["gaussian-ou", "bernoulli-walk"])
def test_d1_hot_path_makes_no_blas_call(preset, monkeypatch):
    # OpenBLAS's helper thread spins on the CPU a second chunk worker needs,
    # so one chunk of every estimator must run without np.dot or np.matmul
    from ldscheme import rare_event

    m = preset_model(preset)
    x = np.array([0.2])
    n, size = 20, 1_000
    half = TerminalHalfspace([1.0], 0.5)
    dev = PathDeviationEvent(epsilon=0.3)
    grid = rare_event._deviation_grid(dev, m, x, n)  # solves the mean flow, outside the chunk
    alphas = np.linspace(0.01, 0.2, n)[:, None]
    monkeypatch.setattr(np, "dot", _no_blas)
    monkeypatch.setattr(np, "matmul", _no_blas)
    assert rare_event._hit_rows(m, x, n, 0.5, half, None, default_rng(1), size).shape == (size,)
    assert rare_event._hit_rows(m, x, n, 0.5, dev, grid, default_rng(2), size).shape == (size,)
    assert _tilted_rows(m, x, n, half, alphas, default_rng(3), size).shape == (size,)
    assert rare_event._martingale_rows(m, x, n, 0.5, alphas, default_rng(4), size).shape == (size,)
    assert kernel.cgf_rows(m, np.full((size, 1), 0.2), alphas[-1]).shape == (size,)


def test_tilted_rejects_event_covering_mean():
    m = preset_model("gaussian-ou")
    with pytest.raises(ValueError, match="not rare"):
        tilted_mc_probability(m, [1.0], 20, TerminalHalfspace([1.0], 0.1), 100, seed=0)


def test_tilted_rejects_non_gaussian_base():
    m = preset_model("bernoulli-walk")
    with pytest.raises(ValueError, match="Gaussian"):
        tilted_mc_probability(m, [0.0], 20, TerminalHalfspace([1.0], 0.6), 100, seed=0)


def test_verify_rate_structure_and_trend():
    m = preset_model("gaussian-free")
    rep = verify_rate(m, [0.0], TerminalHalfspace([1.0], 1.0), [25, 50, 100], 20_000, seed=61)
    assert rep.predicted_rate == pytest.approx(0.5, abs=1e-9)
    assert rep.minimize_converged
    assert len(rep.estimates) == 3
    gaps = rep.rel_gaps
    assert all(g is not None for g in gaps)
    assert gaps[-1] < 0.15
    assert gaps[0] > gaps[-1]
    unexcused = [v for v in rep.trend_violations if not v["excused"]]
    assert not unexcused
    d = rep.to_json_dict()
    assert set(d["estimates"][0]) == {
        "model", "event", "n", "samples", "p_hat", "stderr",
        "empirical_rate", "predicted_rate", "method", "seed",
    }


def test_verify_rate_deterministic():
    m = preset_model("gaussian-free")
    a = verify_rate(m, [0.0], TerminalHalfspace([1.0], 1.0), [25, 50], 5_000, seed=62)
    b = verify_rate(m, [0.0], TerminalHalfspace([1.0], 1.0), [25, 50], 5_000, seed=62, workers=3)
    assert [r.p_hat for r in a.estimates] == [r.p_hat for r in b.estimates]


def test_verify_ode_censoring_and_fit():
    m = preset_model("gaussian-free")
    rep = verify_ode_convergence(m, [0.0], 0.5, [4, 8, 16, 2000], 2_000, seed=71)
    # the n=2000 point should be hitless and censored
    assert rep.rows[-1]["censored"]
    assert 2000 in rep.censored
    assert rep.slope is not None
    assert rep.slope < 0
    assert rep.monotone_ok


def test_verify_ode_all_censored():
    m = preset_model("gaussian-free")
    rep = verify_ode_convergence(m, [0.0], 1e9, [10, 20], 500, seed=72)
    assert all(r["censored"] for r in rep.rows)
    assert rep.slope is None
    assert rep.monotone_ok is None


@pytest.mark.parametrize(
    "epsilon, n_grid, message",
    [
        # an empty grid used to return a report with no rows, epsilon=nan included;
        # the grid is a run argument, so it is checked before epsilon
        (np.nan, [], "n_grid must be nonempty"),
        (0.5, [], "n_grid must be nonempty"),
        (np.nan, [10], "epsilon must be positive and finite"),
    ],
    ids=["nan-empty", "empty", "nan"],
)
def test_verify_ode_rejects_bad_epsilon_and_empty_grid(epsilon, n_grid, message, monkeypatch):
    import ldscheme.rare_event as rare_event

    monkeypatch.setattr(rare_event, "_map_chunks", lambda *args: pytest.fail("simulated before the check"))
    with pytest.raises(ValueError, match=message):
        verify_ode_convergence(preset_model("logistic"), [0.5], epsilon, n_grid, 100, seed=1)


def test_verify_ode_deterministic_model_never_deviates():
    import ldscheme

    det = ldscheme.affine_model(
        1, ldscheme.linear_drift(np.array([[-1.0]])), 0.0, ldscheme.gaussian_base(), summary="det"
    )
    # epsilon above the Euler discretization error of the mean flow
    rep = verify_ode_convergence(det, [1.0], 0.1, [10, 20], 300, seed=73)
    assert all(r["count"] == 0 for r in rep.rows)


# every run entry point, called with one resolution n (or, where it takes a
# grid, with the grid of n values)
_HALF = TerminalHalfspace([1.0], 0.8)
_RUNS = {
    "simulate": lambda m, n: simulate(m, [0.0], n, 0.0, 1),
    "coupled_perturbation_gaps": lambda m, n: coupled_perturbation_gaps(m, [0.0], n, 0.5, 1),
    "mc_probability": lambda m, n: mc_probability(m, [0.0], n, 0.0, _HALF, 50, seed=1),
    "mc_probability-deviation": lambda m, n: mc_probability(m, [0.0], n, 0.0, PathDeviationEvent(0.5), 50, seed=1),
    "tilted_mc_probability": lambda m, n: tilted_mc_probability(m, [0.0], n, _HALF, 50, seed=1),
    "martingale_check": lambda m, n: martingale_check(m, [0.0], n, 0.0, DualMeasure.point_mass(1.0, 0.5), 50, seed=1),
}
_GRID_RUNS = {
    "verify_rate": lambda m, grid: verify_rate(m, [0.0], _HALF, grid, 50, seed=1),
    "verify_ode_convergence": lambda m, grid: verify_ode_convergence(m, [0.0], 0.5, grid, 50, seed=1),
}
_BAD_N = {"zero": 0, "negative": -3, "float": 2.5, "bool": True}


def _refusing_ou():
    """gaussian-ou whose callbacks fail the test when anything calls them."""

    def refuse(*args):
        raise AssertionError("a model callback ran before the run arguments were checked")

    return dataclasses.replace(preset_model("gaussian-ou"), sampler=refuse, cgf=refuse, cgf_grad=refuse, cgf_hess=refuse)


def _bad_runs():
    for name, run in _RUNS.items():
        for label, n in _BAD_N.items():
            yield pytest.param(run, n, id=f"{name}-{label}")
    for name, run in _GRID_RUNS.items():
        for label, n in _BAD_N.items():
            yield pytest.param(run, [n], id=f"{name}-{label}")
        yield pytest.param(run, [10, 0], id=f"{name}-grid-10-0")


@pytest.mark.parametrize("run, n", _bad_runs())
def test_every_run_entry_point_rejects_a_bad_n_before_any_callback(run, n):
    # the refusing callbacks raise AssertionError, so a ValueError shows that
    # n was checked before any callback, minimization, limit_ode or draw
    with pytest.raises(ValueError, match=r"^n must be an integer >= 1, got "):
        run(_refusing_ou(), n)


def _same_result(u, v):
    if isinstance(u, Trajectory):
        return np.array_equal(u.knots, v.knots)
    if isinstance(u, tuple):
        return all(np.array_equal(p, q) for p, q in zip(u, v))
    return u == v


@pytest.mark.parametrize("name", sorted(_RUNS) + sorted(_GRID_RUNS))
def test_every_run_entry_point_takes_a_numpy_integer_n(name):
    m = preset_model("gaussian-ou")
    if name in _RUNS:
        got, want = _RUNS[name](m, np.int64(5)), _RUNS[name](m, 5)
    else:
        got, want = _GRID_RUNS[name](m, [np.int64(5)]), _GRID_RUNS[name](m, [5])
    assert _same_result(got, want)


# every estimator, called with `samples` replicas on `workers` threads from
# `seed`, and the least sample count it takes (two where it reports a ddof=1
# standard error)
_ESTIMATORS = {
    "mc_probability": (
        1, lambda m, s, w, seed=1: mc_probability(m, [0.0], 10, 0.0, _HALF, s, seed=seed, workers=w)),
    "mc_probability-deviation": (
        1, lambda m, s, w, seed=1: mc_probability(m, [0.0], 10, 0.0, PathDeviationEvent(0.5), s, seed=seed, workers=w)),
    "tilted_mc_probability": (
        2, lambda m, s, w, seed=1: tilted_mc_probability(m, [0.0], 10, _HALF, s, seed=seed, workers=w)),
    "martingale_check": (2, lambda m, s, w, seed=1: martingale_check(
        m, [0.0], 10, 0.0, DualMeasure.point_mass(1.0, 0.5), s, seed=seed, workers=w)),
    "verify_rate": (2, lambda m, s, w, seed=1: verify_rate(m, [0.0], _HALF, [10], s, seed=seed, workers=w)),
    "verify_ode_convergence": (
        1, lambda m, s, w, seed=1: verify_ode_convergence(m, [0.0], 0.5, [10], s, seed=seed, workers=w)),
}
_BAD_COUNTS = {"bool": True, "float": 2.5, "zero": 0, "negative": -1}


def _bad_replica_args():
    for name, (least, run) in _ESTIMATORS.items():
        bad = dict(_BAD_COUNTS, **({"one": 1} if least == 2 else {}))
        for label, v in bad.items():
            yield pytest.param(lambda m, run=run, v=v: run(m, v, 1), "samples", least, v, id=f"{name}-samples-{label}")
        for label, v in _BAD_COUNTS.items():
            yield pytest.param(lambda m, run=run, v=v: run(m, 50, v), "workers", 1, v, id=f"{name}-workers-{label}")


@pytest.mark.parametrize("call, arg, least, value", _bad_replica_args())
def test_every_estimator_rejects_bad_samples_and_workers_before_any_callback(call, arg, least, value):
    # the refusing callbacks raise AssertionError, so a ValueError shows that the
    # argument was checked before any callback, minimization, limit_ode or draw
    with pytest.raises(ValueError, match=rf"^{arg} must be an integer >= {least}, got {re.escape(repr(value))}$"):
        call(_refusing_ou())


@pytest.mark.parametrize("name", sorted(_ESTIMATORS))
def test_every_estimator_takes_numpy_integer_samples_and_workers(name):
    run = _ESTIMATORS[name][1]
    m = preset_model("gaussian-ou")
    got, want = run(m, np.int64(50), np.int64(1)), run(m, 50, 1)
    # json.dumps refuses a numpy integer, so the report must hold plain ints
    assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())


# the other integer arguments, each keyed by its case: the knot count of a path
# minimization, the steps of the mean flow, the realizations of a coupling, the
# lattice of a resampled path and the seed of every run entry point
_COUNTS = {
    "m": ("m", 2, lambda m, v: ActionProblem(model=m, x=[0.0], terminal=_HALF, m=v)),
    "resample": ("n", 1, lambda m, v: resample(Trajectory(np.array([[0.0], [0.5], [0.25]])), v)),
    "steps": ("steps", 1, lambda m, v: limit_ode(m, [0.0], v)),
    "realizations": ("realizations", 1, lambda m, v: coupled_perturbation_gaps(m, [0.0], 10, 0.5, 1, realizations=v)),
    "seed-simulate": ("seed", 0, lambda m, v: simulate(m, [0.0], 10, 0.0, v)),
    "seed-coupled_perturbation_gaps": ("seed", 0, lambda m, v: coupled_perturbation_gaps(m, [0.0], 10, 0.5, v)),
    **{f"seed-{name}": ("seed", 0, lambda m, v, run=run: run(m, 50, 1, v)) for name, (_, run) in _ESTIMATORS.items()},
}


def _bad_counts():
    for case, (arg, least, call) in _COUNTS.items():
        # a bool, a float, and each integer below least
        bad = {label: v for label, v in dict(_BAD_COUNTS, one=1).items() if type(v) is not int or v < least}
        for label, v in bad.items():
            yield pytest.param(call, arg, least, v, id=f"{case}-{label}")


@pytest.mark.parametrize("call, arg, least, value", _bad_counts())
def test_integer_arguments_reject_bools_floats_and_small_values_before_any_callback(call, arg, least, value):
    with pytest.raises(ValueError, match=rf"^{arg} must be an integer >= {least}, got {re.escape(repr(value))}$"):
        call(_refusing_ou(), value)


@pytest.mark.parametrize("case", sorted(_COUNTS))
def test_integer_arguments_take_a_numpy_integer(case):
    m = preset_model("gaussian-ou")
    call = _COUNTS[case][2]
    got, want = call(m, np.int64(5)), call(m, 5)
    if hasattr(got, "to_json_dict"):
        # json.dumps refuses a numpy integer, so the report must hold plain ints
        assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
    if case == "m":
        assert type(got.m) is int and got == want
        got, want = minimize_action(got), minimize_action(want)
        assert np.array_equal(got.trajectory.knots, want.trajectory.knots)
        assert (got.action.value, got.iterations, got.log) == (want.action.value, want.iterations, want.log)
    else:
        assert _same_result(got, want)
