import numpy as np
import pytest
from numpy.random import default_rng
from scipy.integrate import quad_vec
from scipy.linalg import expm

from ldscheme.action import (
    GRAD_TOL,
    ActionProblem,
    MinimizeSettings,
    TerminalHalfspace,
    TerminalPoint,
    action,
    limit_ode,
    minimize_action,
    straight_line,
)
from ldscheme.errors import InfeasibleProblemError, SimulationBlowup
from ldscheme.kernel import affine_model, gaussian_base, linear_drift, preset_model, zero_drift
from ldscheme.scheme import Trajectory, eval_path_many
from test_conjugate import _bernoulli_entropy


def test_straight_line():
    t = straight_line([1.0], [3.0], 5)
    assert t.knots.shape == (5, 1)
    assert np.allclose(t.knots[:, 0], [1.0, 1.5, 2.0, 2.5, 3.0])


def test_action_free_gaussian_straight_line():
    m = preset_model("gaussian-free")
    f = straight_line([0.0], [1.0], 21)
    val = action(m, [0.0], 0.0, f)
    # constant slope 1, conjugate 1/2 everywhere
    assert val.value == pytest.approx(0.5, abs=1e-10)
    assert len(val.segments) == 20
    assert np.allclose(val.segments, 0.5 / 20, atol=1e-12)
    assert val.feasible_start
    assert val.reason is None


def test_action_infeasible_start():
    m = preset_model("gaussian-free")
    f = straight_line([0.5], [1.0], 5)
    val = action(m, [0.0], 0.0, f)
    assert val.value == np.inf
    assert not val.feasible_start
    assert val.reason == "initial condition"


def test_action_divergent_segment():
    m = preset_model("bernoulli-walk")
    # slope 2 cannot be produced by increments in [0, 1]
    f = straight_line([0.0], [2.0], 6)
    val = action(m, [0.0], 0.0, f)
    assert val.value == np.inf
    assert val.divergent_segments
    assert "divergent segment" in val.reason


def test_action_smoothing_makes_divergent_path_finite():
    m = preset_model("bernoulli-walk")
    f = straight_line([0.0], [2.0], 6)
    val = action(m, [0.0], 0.5, f)
    assert np.isfinite(val.value)
    assert not val.divergent_segments


def test_action_quadratic_integrand_matches_quadrature_exactly():
    # OU conjugate along f(t) = 1 - 0.2 t is a degree-2 polynomial in t,
    # integrated exactly by the order-5 rule
    m = preset_model("gaussian-ou")
    knots = 1.0 - 0.2 * np.linspace(0, 1, 9)
    val = action(m, [1.0], 0.0, Trajectory(knots))

    def integrand(s):
        y = 1.0 - 0.2 * s
        return 0.5 * (-0.2 + y) ** 2

    from scipy.integrate import quad

    expect, _ = quad(integrand, 0.0, 1.0, epsabs=1e-13)
    assert val.value == pytest.approx(expect, abs=1e-12)


def test_action_smoothing_reduces_cost():
    m = preset_model("gaussian-free")
    f = straight_line([0.0], [1.0], 11)
    v0 = action(m, [0.0], 0.0, f).value
    v1 = action(m, [0.0], 1.0, f).value
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
    seg, grad, divergent, _ = _quadrature_pass(m, 0.0, knots, gradient=True)
    assert not divergent
    total = seg.sum()
    h = 1e-6
    for row in [2, 5]:
        bump = knots.copy()
        bump[row, 0] += h
        up = _quadrature_pass(m, 0.0, bump)[0].sum()
        bump[row, 0] -= 2 * h
        dn = _quadrature_pass(m, 0.0, bump)[0].sum()
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


# linear-Gaussian oracle: for F(y) = A y + Z, Z ~ N(0, I), the cheapest path
# from x = 0 to the point z costs z^T Q^-1 z / 2, and into the half-space
# <f(1), xi> >= c (unit xi) it costs c^2 / (2 xi^T Q xi), where Q is the
# controllability Gramian int_0^1 e^{As} e^{A^T s} ds
A_2D = np.array([[-1.0, 0.5], [0.0, -1.0]])


def _gramian(a):
    q, _ = quad_vec(lambda s: expm(a * s) @ expm(a.T * s), 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
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
