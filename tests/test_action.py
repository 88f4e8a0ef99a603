import dataclasses

import numpy as np
import pytest
from numpy.random import default_rng
from scipy.integrate import quad_vec
from scipy.linalg import expm

from ldscheme import conjugate
from ldscheme.action import (
    GRAD_TOL,
    ActionProblem,
    MinimizeSettings,
    TerminalHalfspace,
    TerminalPoint,
    limit_ode,
    minimize_action,
    path_cost,
    straight_line,
)
from ldscheme.errors import InfeasibleProblemError, SimulationBlowup
from ldscheme.kernel import PRESETS, KernelModel, affine_model, gaussian_base, linear_drift, preset_model, zero_drift
from ldscheme.scheme import Trajectory
from test_conjugate import _bernoulli_entropy


def test_straight_line():
    t = straight_line([1.0], [3.0], 5)
    assert t.knots.shape == (5, 1)
    assert np.allclose(t.knots[:, 0], [1.0, 1.5, 2.0, 2.5, 3.0])


def test_action_free_gaussian_straight_line():
    m = preset_model("gaussian-free")
    f = straight_line([0.0], [1.0], 21)
    val = path_cost(m, [0.0], 0.0, f)
    # constant slope 1, conjugate 1/2 everywhere
    assert val.value == pytest.approx(0.5, abs=1e-10)
    assert len(val.segments) == 20
    assert np.allclose(val.segments, 0.5 / 20, atol=1e-12)
    assert val.feasible_start
    assert val.reason is None


def test_action_infeasible_start():
    m = preset_model("gaussian-free")
    f = straight_line([0.5], [1.0], 5)
    val = path_cost(m, [0.0], 0.0, f)
    assert val.value == np.inf
    assert not val.feasible_start
    assert val.reason == "initial condition"


def test_action_divergent_segment():
    m = preset_model("bernoulli-walk")
    # slope 2 cannot be produced by increments in [0, 1]
    f = straight_line([0.0], [2.0], 6)
    val = path_cost(m, [0.0], 0.0, f)
    assert val.value == np.inf
    assert val.divergent_segments
    assert "divergent segment" in val.reason


def test_action_slope_past_the_tolerance_range_is_divergent():
    # the conjugate solve's tolerance overflowed at this slope and certified alpha = 0: cost 0.0
    val = path_cost(preset_model("gaussian-ou"), [0.0], 0.0, Trajectory(np.array([[0.0], [1e300]])))
    assert val.value == np.inf
    assert val.divergent_segments == [0]
    assert val.reason == "divergent segment 0"


def test_action_smoothing_makes_divergent_path_finite():
    m = preset_model("bernoulli-walk")
    f = straight_line([0.0], [2.0], 6)
    val = path_cost(m, [0.0], 0.5, f)
    assert np.isfinite(val.value)
    assert not val.divergent_segments


def test_action_quadratic_integrand_matches_quadrature_exactly():
    # OU conjugate along f(t) = 1 - 0.2 t is a degree-2 polynomial in t,
    # integrated exactly by the order-5 rule
    m = preset_model("gaussian-ou")
    knots = 1.0 - 0.2 * np.linspace(0, 1, 9)
    val = path_cost(m, [1.0], 0.0, Trajectory(knots))

    def integrand(s):
        y = 1.0 - 0.2 * s
        return 0.5 * (-0.2 + y) ** 2

    from scipy.integrate import quad

    expect, _ = quad(integrand, 0.0, 1.0, epsabs=1e-13)
    assert val.value == pytest.approx(expect, abs=1e-12)


def test_action_smoothing_reduces_cost():
    m = preset_model("gaussian-free")
    f = straight_line([0.0], [1.0], 11)
    v0 = path_cost(m, [0.0], 0.0, f).value
    v1 = path_cost(m, [0.0], 1.0, f).value
    assert v1 == pytest.approx(0.25, abs=1e-9)
    assert v1 < v0


def test_limit_ode_ou_closed_form():
    m = preset_model("gaussian-ou")
    f = limit_ode(m, [1.0], steps=50)
    assert f.knots.shape == (51, 1)
    expect = np.exp(-f.times)
    assert np.max(np.abs(f.knots[:, 0] - expect)) < 1e-8


def test_limit_ode_bernoulli_mean_drift():
    m = preset_model("bernoulli-walk")
    f = limit_ode(m, [0.0], steps=20)
    # zero drift plus mean-0.3 increments: straight line to 0.3
    assert np.allclose(f.knots[:, 0], 0.3 * f.times, atol=1e-12)


def test_limit_ode_blowup():
    m = preset_model("logistic")
    with pytest.raises(SimulationBlowup):
        limit_ode(m, [1e8], steps=16)


def _counting_cgf_grad(model, calls):
    """model with its cgf_grad counting its calls in calls."""

    def cgf_grad(ys, alphas):
        calls.append(len(ys))
        return model.cgf_grad(ys, alphas)

    return dataclasses.replace(model, cgf_grad=cgf_grad)


@pytest.mark.parametrize("name", sorted(PRESETS) + ["linear-2d"])
def test_limit_ode_constant_sigma_field_is_the_cgf_grad_field_byte_for_byte(name):
    # a constant-sigma affine model takes drift + sigma grad_logmgf(0) with the noise mean computed
    # once; a plain KernelModel with the same callbacks takes cgf_grad(f, 0) on every stage
    m = _linear_2d_model() if name == "linear-2d" else preset_model(name)
    plain = KernelModel(dim=m.dim, sampler=m.sampler, cgf=m.cgf, cgf_grad=m.cgf_grad, cgf_hess=m.cgf_hess)
    x = np.linspace(0.3, -0.2, m.dim)
    calls = []
    fast = limit_ode(_counting_cgf_grad(m, calls), x, steps=64)
    assert calls == []
    assert fast.knots.tobytes() == limit_ode(plain, x, steps=64).knots.tobytes()


def test_limit_ode_state_reading_sigma_keeps_cgf_grad():
    m = affine_model(1, linear_drift([[-1.0]]), lambda ys: (1.0 + 0.1 * np.tanh(ys))[:, :, None], gaussian_base())
    calls = []
    f = limit_ode(_counting_cgf_grad(m, calls), [0.5], steps=8)
    assert calls == [1] * 32
    assert np.allclose(f.knots[:, 0], 0.5 * np.exp(-f.times), atol=1e-6)


def test_limit_ode_refuses_a_cgf_grad_of_the_wrong_shape():
    # a plain d = 2 model whose cgf_grad returns (m,) used to give a wrong mean flow with no error:
    # limit_ode(model, [1, 2], 4) ended at [0.368, 1.368], both coordinates driven by -y_0
    m = KernelModel(dim=2, sampler=lambda ys, rng: -ys, cgf=lambda ys, a: np.zeros(len(ys)),
                    cgf_grad=lambda ys, a: -ys[:, 0])
    with pytest.raises(ValueError, match=r"^cgf_grad must return shape \(1, 2\) on its rows, got \(1,\)$"):
        limit_ode(m, [1, 2], 4)


def _assert_certificate(res):
    # converged must mean the KKT residual at the returned knots is within GRAD_TOL
    assert not res.converged or res.grad_norm <= GRAD_TOL


def test_minimize_point_free_gaussian():
    m = preset_model("gaussian-free")
    res = minimize_action(ActionProblem(model=m, x=[0.0], terminal=TerminalPoint([1.0]), m=21))
    assert res.converged
    _assert_certificate(res)
    assert res.action.value == pytest.approx(0.5, abs=1e-6)
    line = straight_line([0.0], [1.0], 21)
    assert np.max(np.abs(res.trajectory.knots - line.knots)) < 1e-4


def test_minimize_point_ou_closed_form():
    m = preset_model("gaussian-ou")
    res = minimize_action(ActionProblem(model=m, x=[1.0], terminal=TerminalPoint([0.8]), m=21))
    expect = (0.8 - np.exp(-1.0)) ** 2 / (1.0 - np.exp(-2.0))
    assert res.converged
    _assert_certificate(res)
    assert res.action.value == pytest.approx(expect, rel=2e-3)


def test_minimize_halfspace_free_gaussian():
    m = preset_model("gaussian-free")
    res = minimize_action(ActionProblem(model=m, x=[0.0], terminal=TerminalHalfspace([1.0], 2.0), m=15))
    assert res.converged
    _assert_certificate(res)
    assert res.action.value == pytest.approx(2.0, abs=1e-8)
    assert res.trajectory.knots[-1, 0] == pytest.approx(2.0, abs=1e-8)


def test_minimize_halfspace_scale_invariance():
    # <y, 5> >= 10 is the half-space <y, 1> >= 2, so it has the same minimizer
    m = preset_model("gaussian-free")
    unit = minimize_action(ActionProblem(model=m, x=[0.0], terminal=TerminalHalfspace([1.0], 2.0), m=15))
    scaled = minimize_action(ActionProblem(model=m, x=[0.0], terminal=TerminalHalfspace([5.0], 10.0), m=15))
    assert scaled.action.value == pytest.approx(unit.action.value, abs=1e-12)
    assert np.allclose(scaled.trajectory.knots, unit.trajectory.knots, rtol=0.0, atol=1e-12)


def test_minimize_halfspace_ou():
    m = preset_model("gaussian-ou")
    res = minimize_action(ActionProblem(model=m, x=[0.0], terminal=TerminalHalfspace([1.0], 0.8), m=21))
    expect = 0.8**2 / (1.0 - np.exp(-2.0))
    assert res.converged
    _assert_certificate(res)
    assert res.action.value == pytest.approx(expect, rel=2e-3)
    assert res.trajectory.knots[-1, 0] == pytest.approx(0.8, abs=1e-8)


def test_minimize_halfspace_inactive_constraint():
    m = preset_model("gaussian-ou")
    # free flow from 1 ends at e^{-1} = 0.368, inside the target set
    res = minimize_action(ActionProblem(model=m, x=[1.0], terminal=TerminalHalfspace([1.0], 0.2), m=15))
    assert res.converged
    _assert_certificate(res)
    assert res.action.value < 1e-3
    assert res.trajectory.knots[-1, 0] == pytest.approx(np.exp(-1.0), abs=5e-3)


def test_minimize_halfspace_2d():
    m = affine_model(2, zero_drift(), 1.0, gaussian_base(), summary="free2")
    res = minimize_action(
        ActionProblem(model=m, x=[0.0, 0.0], terminal=TerminalHalfspace([1.0, 1.0], 2.0), m=9)
    )
    assert res.converged
    _assert_certificate(res)
    assert res.action.value == pytest.approx(1.0, abs=1e-8)
    assert np.allclose(res.trajectory.knots[-1], [1.0, 1.0], atol=1e-6)


def test_minimize_bernoulli_halfspace_entropy_rate():
    m = preset_model("bernoulli-walk")
    res = minimize_action(ActionProblem(model=m, x=[0.0], terminal=TerminalHalfspace([1.0], 0.6), m=13))
    expect = _bernoulli_entropy(0.6, 0.3)
    assert res.converged
    _assert_certificate(res)
    assert res.action.value == pytest.approx(expect, rel=1e-4)


def test_minimize_infeasible_target_raises():
    m = preset_model("bernoulli-walk")
    with pytest.raises(InfeasibleProblemError):
        minimize_action(ActionProblem(model=m, x=[0.0], terminal=TerminalPoint([2.0]), m=9))


@pytest.mark.parametrize(
    "make",
    [
        lambda: TerminalHalfspace([1.0], np.nan),
        lambda: TerminalHalfspace([np.nan], 1.0),
        lambda: TerminalPoint([np.nan]),
    ],
    ids=["level", "normal", "point"],
)
def test_terminal_constraints_reject_non_finite(make):
    with pytest.raises(ValueError, match="finite"):
        make()


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_iter", 0),
        ("max_iter", 2.0),
        ("max_iter", True),
    ],
)
def test_minimize_settings_validate_fields(field, value):
    with pytest.raises(ValueError, match=field):
        MinimizeSettings(**{field: value})


def test_minimize_gradient_consistency():
    # assembled gradient vs finite differences of the total cost
    from ldscheme.action import _quadrature_pass

    m = preset_model("gaussian-ou")
    rng = default_rng(4)
    knots = straight_line([1.0], [0.5], 7).knots + 0.05 * rng.normal(size=(7, 1))
    cost, grad = _quadrature_pass(m, 0.0, knots, gradient=True)
    assert not cost.divergent_segments
    total = cost.segments.sum()
    h = 1e-6
    for row in [2, 5]:
        bump = knots.copy()
        bump[row, 0] += h
        up = _quadrature_pass(m, 0.0, bump)[0].segments.sum()
        bump[row, 0] -= 2 * h
        dn = _quadrature_pass(m, 0.0, bump)[0].segments.sum()
        fd = (up - dn) / (2 * h)
        assert grad[row, 0] == pytest.approx(fd, rel=5e-4, abs=1e-7)


def test_minimize_smoothing_lowers_value():
    m = preset_model("gaussian-free")
    r0 = minimize_action(ActionProblem(model=m, x=[0.0], terminal=TerminalPoint([1.0]), m=11, a=0.0))
    r1 = minimize_action(ActionProblem(model=m, x=[0.0], terminal=TerminalPoint([1.0]), m=11, a=1.0))
    assert r1.action.value == pytest.approx(0.25, abs=1e-6)
    assert r1.action.value < r0.action.value
    _assert_certificate(r0)
    _assert_certificate(r1)


def test_minimize_writes_log():
    m = preset_model("gaussian-ou")
    res = minimize_action(ActionProblem(model=m, x=[1.0], terminal=TerminalPoint([0.8]), m=9))
    assert res.converged
    _assert_certificate(res)
    # rows are (iter, value, grad_norm, step), one per accepted iterate
    assert len(res.log) == res.iterations + 1
    assert [row[0] for row in res.log] == list(range(len(res.log)))
    assert all(len(row) == 4 for row in res.log)
    assert res.log[0][3] == 0.0
    assert res.log[-1][2] == res.grad_norm
    values = [row[1] for row in res.log]
    assert values == sorted(values, reverse=True)


def test_minimize_log_values_decrease():
    m = preset_model("gaussian-ou")
    res = minimize_action(ActionProblem(model=m, x=[1.0], terminal=TerminalPoint([0.5]), m=11))
    vals = [row[1] for row in res.log]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    _assert_certificate(res)


# linear-Gaussian oracle: for F(y) = A y + sigma Z, Z ~ N(0, I), the cheapest
# path from x = 0 to the point z costs z^T Q^-1 z / 2, and into the half-space
# <f(1), xi> >= c (unit xi) it costs c^2 / (2 xi^T Q xi), where Q is the
# controllability Gramian int_0^1 e^{As} sigma sigma^T e^{A^T s} ds
A_2D = np.array([[-1.0, 0.5], [0.0, -1.0]])


def _gramian(a, sigma=None):
    cov = np.eye(len(a)) if sigma is None else sigma @ sigma.T
    q, _ = quad_vec(lambda s: expm(a * s) @ cov @ expm(a.T * s), 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    return q


def _linear_2d_model():
    return affine_model(2, linear_drift(A_2D), np.eye(2), gaussian_base(), summary="linear-2d")


def test_minimize_point_2d_gramian_oracle():
    target = np.array([0.6, 0.4])
    exact = 0.5 * target @ np.linalg.solve(_gramian(A_2D), target)
    assert exact == pytest.approx(0.5059738, abs=1e-7)
    res = minimize_action(ActionProblem(model=_linear_2d_model(), x=[0.0, 0.0], terminal=TerminalPoint(target), m=21))
    assert res.converged
    _assert_certificate(res)
    assert res.action.value == pytest.approx(exact, rel=2e-4)


def test_minimize_halfspace_2d_gramian_oracle():
    xi = np.array([1.0, 1.0]) / np.sqrt(2.0)
    c = 1.0 / np.sqrt(2.0)
    exact = c * c / (2.0 * xi @ _gramian(A_2D) @ xi)
    assert exact == pytest.approx(0.4838533, abs=1e-7)
    res = minimize_action(
        ActionProblem(
            model=_linear_2d_model(),
            x=[0.0, 0.0],
            terminal=TerminalHalfspace([1.0, 1.0], 1.0),
            m=21,
            settings=MinimizeSettings(max_iter=200),
        )
    )
    assert res.converged
    _assert_certificate(res)
    assert res.action.value == pytest.approx(exact, abs=2e-4)


def test_minimize_max_iter_stop_is_not_converged():
    res = minimize_action(
        ActionProblem(
            model=_linear_2d_model(),
            x=[0.0, 0.0],
            terminal=TerminalHalfspace([1.0, 1.0], 1.0),
            m=21,
            settings=MinimizeSettings(max_iter=1),
        )
    )
    assert not res.converged
    assert res.iterations == 1
    assert res.grad_norm > GRAD_TOL
    assert any("ITERATIONS REACHED LIMIT" in w for w in res.warnings)


def test_minimize_warns_once_per_logged_iterate_whose_conjugate_solves_stop_at_max_iterations(monkeypatch):
    problem = ActionProblem(model=preset_model("gaussian-ou"), x=[0.0], terminal=TerminalPoint([0.8]), m=5)
    assert minimize_action(problem).warnings == []
    monkeypatch.setattr(conjugate, "MAX_ITER", 1)
    res = minimize_action(problem)
    # 4 segments of 5 nodes each, every one stopped after its single Newton iteration
    assert len(res.log) > 1
    assert res.warnings == ["conjugate solver hit max-iterations at 20 node(s)"] * len(res.log) + [
        "stopped without a stationarity certificate: the final pass's conjugate solver hit max-iterations at 20 node(s)"
    ]
    assert len(res.action.solver_warnings) == 20
    assert not res.converged


def test_minimize_certifies_no_final_pass_with_unsolved_nodes(monkeypatch):
    # a small gradient priced from unconverged conjugates is no stationarity certificate
    problem = ActionProblem(model=preset_model("bernoulli-walk"), x=[0.0], terminal=TerminalPoint([0.8]), m=5)
    assert minimize_action(problem).converged
    monkeypatch.setattr(conjugate, "MAX_ITER", 1)
    res = minimize_action(problem)
    assert res.grad_norm <= GRAD_TOL and res.action.solver_warnings
    assert not res.converged
    assert res.warnings[-1] == (
        "stopped without a stationarity certificate: the final pass's conjugate solver hit max-iterations"
        f" at {len(res.action.solver_warnings)} node(s)"
    )


def test_minimize_settings_store_a_numpy_integer_as_an_int():
    settings = MinimizeSettings(max_iter=np.int64(5))
    assert type(settings.max_iter) is int and settings.max_iter == 5

    def run(settings):
        terminal = TerminalHalfspace([1.0, 1.0], 1.0)
        return minimize_action(ActionProblem(model=_linear_2d_model(), x=[0.0, 0.0], terminal=terminal, m=21, settings=settings))

    got, want = run(settings), run(MinimizeSettings(max_iter=5))
    assert got.iterations == want.iterations == 5
    assert got.trajectory.knots.tobytes() == want.trajectory.knots.tobytes()
    assert (got.action.value, got.grad_norm, got.log) == (want.action.value, want.grad_norm, want.log)


# noise 20 times weaker along the second axis, so the path cost's Hessian is far
# from a multiple of the plain increments' one: coordinates that whiten only
# the increments, not the step covariance, can stop here short of GRAD_TOL
A_ANISO = np.array([[-1.0, 2.0], [0.0, -0.5]])
SIGMA_ANISO = np.diag([1.0, 0.05])


@pytest.mark.parametrize(
    "terminal", [TerminalHalfspace([0.3, 1.0], 0.5), TerminalPoint([0.4, 0.2])], ids=["halfspace", "point"]
)
def test_minimize_anisotropic_sigma_ends_certified(terminal):
    q = _gramian(A_ANISO, SIGMA_ANISO)
    if isinstance(terminal, TerminalPoint):
        exact = 0.5 * terminal.point @ np.linalg.solve(q, terminal.point)
    else:
        exact = terminal.level**2 / (2.0 * terminal.normal @ q @ terminal.normal)
    model = affine_model(2, linear_drift(A_ANISO), SIGMA_ANISO, gaussian_base(), summary="anisotropic")
    res = minimize_action(ActionProblem(model=model, x=[0.0, 0.0], terminal=terminal, m=21))
    assert res.converged
    _assert_certificate(res)
    assert res.action.value == pytest.approx(exact, rel=2e-4)


@pytest.mark.parametrize("max_iter", [1, 2, 3])
@pytest.mark.parametrize("sigma", [np.eye(2), SIGMA_ANISO], ids=["identity", "anisotropic"])
def test_minimize_halfspace_iterates_stay_in_the_half_space(sigma, max_iter):
    # the bound is on the last whitened coordinate alone, so every iterate keeps
    # <f(1), xi> >= c, up to the rounding of the frame's product frame @ w
    model = affine_model(2, linear_drift(A_2D), sigma, gaussian_base(), summary="linear-2d")
    terminal = TerminalHalfspace([1.0, 1.0], 1.0)
    settings = MinimizeSettings(max_iter=max_iter)
    res = minimize_action(ActionProblem(model=model, x=[0.0, 0.0], terminal=terminal, m=21, settings=settings))
    assert res.iterations == max_iter and len(res.log) == max_iter + 1
    assert res.trajectory.knots[-1] @ terminal.normal >= terminal.level - 1e-14


def test_minimize_with_no_free_coordinates_takes_no_iteration():
    # m = 2 to a point leaves both knots fixed: the straight line is the answer
    res = minimize_action(ActionProblem(model=preset_model("gaussian-ou"), x=[0.0], terminal=TerminalPoint([1.5]), m=2))
    assert res.iterations == 0 and res.converged and res.grad_norm == 0.0
    assert res.warnings == [] and len(res.log) == 1
    assert res.trajectory.knots.tolist() == [[0.0], [1.5]]
    assert res.action.value == path_cost(preset_model("gaussian-ou"), [0.0], 0.0, straight_line([0.0], [1.5], 2)).value


@pytest.mark.parametrize(
    "drift,sigma", [(linear_drift(-np.eye(2)), np.ones((2, 2))), (zero_drift(), 0.0)], ids=["rank-one", "zero"]
)
def test_minimize_degenerate_sigma_runs(drift, sigma):
    # a degenerate step covariance has no Cholesky factor; its floored
    # eigenvalues (all of them one when it is zero) still whiten, and the
    # minimizer returns a finite path no costlier than the straight line
    model = affine_model(2, drift, sigma, gaussian_base(), summary="degenerate")
    res = minimize_action(ActionProblem(model=model, x=[0.5, 0.5], terminal=TerminalPoint([0.5, 0.5]), m=11))
    line = path_cost(model, [0.5, 0.5], 0.0, straight_line([0.5, 0.5], [0.5, 0.5], 11)).value
    assert np.all(np.isfinite(res.trajectory.knots))
    assert res.action.value <= line
    _assert_certificate(res)


GRAMIAN_DRIFTS = [
    [[-1.0]],
    [[-1.0, 0.5], [0.0, -1.0]],
    [[-1.0, 0.5, 0.0], [0.0, -1.0, 0.3], [0.0, 0.0, -0.5]],
]


@pytest.mark.parametrize("kind", ["point", "halfspace"])
@pytest.mark.parametrize("drift", GRAMIAN_DRIFTS, ids=["d1", "d2", "d3"])
def test_minimize_gramian_oracle(drift, kind):
    a_mat = np.array(drift)
    d = len(a_mat)
    q = _gramian(a_mat)
    model = affine_model(d, linear_drift(a_mat), np.eye(d), gaussian_base(), summary=f"linear-{d}d")
    if kind == "point":
        z = np.array([0.8, -0.5, 0.3])[:d]
        terminal, exact = TerminalPoint(z), 0.5 * z @ np.linalg.solve(q, z)
    else:
        terminal = TerminalHalfspace(np.array([1.0, 2.0, -1.0])[:d], 1.0)
        xi, c = terminal.normal, terminal.level
        exact = c * c / (2.0 * xi @ q @ xi)
    res = minimize_action(ActionProblem(model=model, x=np.zeros(d), terminal=terminal, m=21))
    assert res.converged
    _assert_certificate(res)
    assert res.action.value == pytest.approx(exact, rel=2e-4)


def test_gradient_pass_callback_counts(monkeypatch):
    # one gradient pass on the benchmark's 2-D linear model at m = 21: one
    # batched solve of two Newton iterations (cgf at alpha = 0 and at the
    # accepted step, cgf_grad at each iterate, one Hessian) and, with its
    # constant sigma, one drift call for the envelope gradient; each cgf and
    # cgf_grad call makes one drift call of its own.  A trim that adds a model
    # evaluation fails here.  With a sigma that reads its state the envelope
    # gradient stays one whole cgf call.
    from ldscheme import conjugate
    from ldscheme.action import _quadrature_pass

    calls = {"fenchel_rows": 0, "cgf": 0, "cgf_grad": 0, "cgf_hess": 0, "drift": 0}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def state_sigma(ys):
        return (1.0 + 0.1 * np.tanh(ys[:, 0]))[:, None, None] * np.eye(2)

    drift = counted("drift", linear_drift(np.array([[-1.0, 0.5], [0.0, -1.0]])))
    monkeypatch.setattr(conjugate, "fenchel_rows", counted("fenchel_rows", conjugate.fenchel_rows))
    line = straight_line([0.0, 0.0], [0.6, 0.4], 21).knots
    bent = line.copy()
    bent[1:-1] += 0.02 * np.sin(np.arange(19 * 2)).reshape(19, 2)  # as the minimizer's iterates
    expected = [
        (np.eye(2), {"fenchel_rows": 1, "cgf": 2, "cgf_grad": 2, "cgf_hess": 1, "drift": 5}),
        (state_sigma, {"fenchel_rows": 1, "cgf": 3, "cgf_grad": 2, "cgf_hess": 1, "drift": 5}),
    ]
    for sigma, want in expected:
        src = affine_model(2, drift, sigma, gaussian_base())
        m = dataclasses.replace(src, **{k: counted(k, getattr(src, k)) for k in ("cgf", "cgf_grad", "cgf_hess")})
        for path in (line, bent):
            calls.update(dict.fromkeys(calls, 0))
            cost, grad = _quadrature_pass(m, 0.0, path, gradient=True)
            assert grad is not None and not cost.divergent_segments and not cost.solver_warnings
            assert calls == want


@pytest.mark.parametrize("s", [1.0, 10.0, 100.0])
def test_envelope_gradient_of_a_constant_sigma_differences_the_drift_alone(s):
    # on y -> A y with sigma = s I the y-gradient of cgf(y, alpha*) is exactly A^T alpha*.  The pass's
    # drift-only difference must land nearer the knot gradient built from it than the whole-cgf difference
    # that a plain KernelModel with the same callbacks takes, whose logmgf terms cancel only up to rounding
    from ldscheme import conjugate
    from ldscheme.action import _LEFT_NODES, _NODES, _WEIGHTS, _quadrature_pass

    a2 = np.array([[-1.0, 0.5], [0.0, -1.0]])
    model = affine_model(2, linear_drift(a2), s * np.eye(2), gaussian_base())
    plain = KernelModel(dim=2, sampler=model.sampler, cgf=model.cgf, cgf_grad=model.cgf_grad, cgf_hess=model.cgf_hess)
    knots = straight_line([0.0, 0.0], [0.6, 0.4], 21).knots
    knots[1:-1] += 0.3 * np.sin(np.arange(19 * 2)).reshape(19, 2)  # a zigzag: slopes far above the states
    m_seg, dt = 20, 1.0 / 20
    ys = (_LEFT_NODES[:, None] * knots[:-1, None, :] + _NODES[:, None] * knots[1:, None, :]).reshape(-1, 2)
    zs = np.repeat(np.diff(knots, axis=0) / dt, len(_NODES), axis=0)
    astar = conjugate.fenchel_rows(model, ys, zs).argmax.reshape(m_seg, len(_NODES), 2)
    cy = -astar @ a2  # rows of -A^T alpha*
    # the exact knot gradient, summed in the pass's order
    exact = np.zeros((m_seg + 1, 2))
    for q, (theta, w) in enumerate(zip(_NODES, _WEIGHTS)):
        exact[1:] += dt * w * theta * cy[:, q] + w * astar[:, q]
    for q, (theta, w) in enumerate(zip(_NODES, _WEIGHTS)):
        exact[:-1] += dt * w * (1.0 - theta) * cy[:, q] - w * astar[:, q]
    errors = []
    for m in (model, plain):
        cost, grad = _quadrature_pass(m, 0.0, knots, gradient=True)
        assert not cost.divergent_segments and not cost.solver_warnings
        errors.append(float(np.max(np.abs(grad - exact)) / np.max(np.abs(exact))))
    drift_only, whole = errors
    assert drift_only < whole and drift_only < 1e-13, errors


def test_vector_norm_is_numpys_norm_bit_for_bit():
    # the minimizer's residual and log steps use it in place of np.linalg.norm
    from ldscheme.action import _vector_norm

    rng = default_rng(8)
    vectors = [np.empty(0), np.array([-0.0]), np.array([3.0, -4.0]), np.array([1e200, 1e200]), np.array([1e-200, 3e-200])]
    vectors += [rng.standard_normal(k) * 10.0 ** rng.integers(-5, 5) for k in (1, 2, 7, 38, 40)]
    for v in vectors:
        with np.errstate(over="ignore"):  # [1e200, 1e200] overflows to inf on both sides
            got, want = _vector_norm(v), float(np.linalg.norm(v))
        assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()
