import dataclasses
import json
import re
import sys

import numpy as np
import pytest
from numpy.random import default_rng
from scipy.stats import norm

from ldscheme import conjugate as conj_mod, kernel
from ldscheme.action import (
    ActionProblem,
    TerminalHalfspace,
    TerminalPoint,
    limit_ode,
    minimize_action,
    path_cost,
    straight_line,
)
from ldscheme.errors import SimulationBlowup, TiltUnreachableError
from ldscheme.kernel import KernelModel, affine_model, gaussian_base, linear_drift, logistic_drift, preset_model
from ldscheme.rare_event import (
    BallEvent,
    CHUNK_SIZE,
    EstimateReport,
    HalfspaceEvent,
    MartingaleCheck,
    OdeReport,
    PathDeviationEvent,
    RateReport,
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
from ldscheme.scheme import (
    DualMeasure,
    Trajectory,
    _euler_steps,
    coupled_perturbation_gaps,
    eval_path_many,
    phi_limit,
    phi_n,
    simulate,
)


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


@pytest.mark.parametrize("scale", [1e200, 1e-200], ids=["overflow", "underflow"])
@pytest.mark.parametrize("d", [1, 2])
def test_halfspace_normal_past_the_plain_norms_range_is_normalized(d, scale):
    # np.linalg.norm overflowed to inf past about 1.3e154: the normal became 0, the level 0, and every state hit
    normal = np.array([3.0, 4.0])[:d]
    unit = TerminalHalfspace(normal, 2.0)
    ev = TerminalHalfspace(scale * normal, scale * 2.0)
    assert np.allclose(ev.normal, unit.normal, rtol=1e-15, atol=0.0)
    assert ev.level == pytest.approx(unit.level, rel=1e-15)
    assert not ev.hits(np.zeros((1, d)))[0]


@pytest.mark.parametrize(
    "normal, level, error",
    [
        ([0.0], 1.0, "normal must have a finite nonzero norm, got 0.0"),
        ([1.5e308, 1.5e308], 1.0, "normal must have a finite nonzero norm, got inf"),
        ([1e-300], 1e10, "level / |normal| must be finite, got 10000000000.0 / 1e-300"),
    ],
    ids=["zero", "norm-overflow", "level-overflow"],
)
def test_halfspace_past_the_float_range_is_refused(normal, level, error):
    with pytest.raises(ValueError, match="^" + re.escape(error) + "$"):
        TerminalHalfspace(normal, level)


def test_halfspace_normal_below_the_overflow_is_normalized():
    ev = TerminalHalfspace([1e150, 0.0], 1.0)
    assert ev.normal.tolist() == [1.0, 0.0] and ev.level == 1e-150


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


_FLOAT_EDGES = [0.0, -0.0, 1e-300, -1e-300, 5e-324, 0.4, -0.4, 0.5, 1.0, 3.0, 4.0, 5.0, 1e150, -1e150, 1e300]


def _edge_rows(d):
    """Every d-tuple of the edge values, and 300 random rows."""
    grid = np.stack(np.meshgrid(*[_FLOAT_EDGES] * d, indexing="ij"), axis=-1).reshape(-1, d)
    return np.concatenate([grid, default_rng(d).normal(scale=2.0, size=(300, d))])


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("level", [0.4, 0.0, -0.0, -1.0])
def test_halfspace_hits_are_the_earlier_comparison_byte_for_byte(d, level):
    states = _edge_rows(d)
    for normal in (np.eye(d)[-1], default_rng(7).normal(size=d)):
        event = TerminalHalfspace(normal, level)
        with np.errstate(over="ignore", invalid="ignore"):
            got = event.hits(states)
            want = kernel._rdot(states, event.normal) >= event.level
        assert got.dtype == bool and got.shape == (len(states),)
        np.testing.assert_array_equal(got, want)
    event = TerminalHalfspace(np.eye(d)[-1] * 2.0, 2.0 * level)  # unit normal e_d, level unchanged
    # a row on the level hits, and so does a signed zero against a zero level; the next float below misses
    on = np.zeros((3, d))
    on[:, -1] = [event.level, np.nextafter(event.level, -np.inf), np.nextafter(event.level, np.inf)]
    assert event.hits(on).tolist() == [True, False, True]
    if level == 0.0:
        assert event.hits(np.full((2, d), [[0.0], [-0.0]])).tolist() == [True, True]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("center", [0.0, -0.0, 1.0])
def test_ball_hits_are_the_earlier_norm_byte_for_byte(d, center):
    event = BallEvent(np.full(d, center), 5.0)
    states = _edge_rows(d)
    with np.errstate(over="ignore"):
        got = event.hits(states)
        want = np.linalg.norm(states - event.center, axis=1) <= event.radius
    assert got.dtype == bool and got.shape == (len(states),)
    np.testing.assert_array_equal(got, want)
    # rows on the radius hit, as |(3, 4)| = 5 exactly; the next float beyond it misses
    on = np.full((2, d), center)
    if d == 1:
        on[:, 0] += [5.0, -5.0]
    else:
        on[0, :2] += [3.0, 4.0]
        on[1, :2] += [-4.0, 3.0]
    assert event.hits(on).all()
    beyond = np.full((1, d), center)
    beyond[0, 0] = np.nextafter(center + 5.0, np.inf)
    assert not event.hits(beyond).any()
    # signed zeros at the center are a distance of 0
    assert event.hits(np.array([[0.0], [-0.0]]) * np.ones(d) + center).all()


def test_both_folds_take_the_terminal_events_one_hit_test(monkeypatch):
    calls = []
    real = TerminalHalfspace.hits

    def counted(self, states):
        calls.append(len(states))
        return real(self, states)

    monkeypatch.setattr(TerminalHalfspace, "hits", counted)
    m = preset_model("gaussian-free")
    mc_probability(m, [0.0], 10, 0.0, TerminalHalfspace([1.0], 0.5), 30, seed=1)
    tilted_mc_probability(m, [0.0], 10, TerminalHalfspace([1.0], 1.0), 20, seed=1)
    assert calls == [30, 20]


def test_the_four_reports_share_one_json_rule():
    assert {cls.to_json_dict for cls in (EstimateReport, MartingaleCheck, RateReport, OdeReport)} == {
        EstimateReport.to_json_dict
    }


def _rate(rel_gaps, violations=(), converged=True):
    n_grid = [10 * 2**i for i in range(len(rel_gaps))]
    return RateReport("m", {}, n_grid, [], 0.5, list(rel_gaps), list(violations), converged)


def _violation(excused):
    return {"n_prev": 10, "n_next": 20, "gap_increase": 0.01, "excused": excused}


def _ode(slope, monotone_ok):
    return OdeReport("m", 0.5, [10, 20], [], slope, None if slope is None else 0.0, monotone_ok, [])


@pytest.mark.parametrize(
    "build, verdict",
    [
        # 1e-12 of slack absorbs the rounding of |mean - 1| at the gate
        (lambda: MartingaleCheck("m", 1.04, 0.01, 100, 10, 0.0, 0.5), {"tolerance_stderr": 4.0, "pass": True}),
        (lambda: MartingaleCheck("m", 0.9599, 0.01, 100, 10, 0.0, 0.5), {"tolerance_stderr": 4.0, "pass": False}),
        (lambda: _rate([0.2, 0.1]), {"max_rel_gap": 0.15, "final_rel_gap": 0.1, "pass": True}),
        (lambda: _rate([0.1, 0.2]), {"max_rel_gap": 0.15, "final_rel_gap": 0.2, "pass": False}),
        (lambda: _rate([0.1], converged=False), {"max_rel_gap": 0.15, "final_rel_gap": 0.1, "pass": False}),
        (lambda: _rate([0.1, 0.12], [_violation(True)]), {"max_rel_gap": 0.15, "final_rel_gap": 0.12, "pass": True}),
        (lambda: _rate([0.1, 0.12], [_violation(False)]),
         {"max_rel_gap": 0.15, "final_rel_gap": 0.12, "pass": False}),
        (lambda: _rate([0.1, 0.11, 0.12], [_violation(True)] * 2),
         {"max_rel_gap": 0.15, "final_rel_gap": 0.12, "pass": False}),
        (lambda: _rate([0.1, None]), {"max_rel_gap": 0.15, "final_rel_gap": 0.1, "pass": False}),
        (lambda: _rate([None, 0.1]), {"max_rel_gap": 0.15, "final_rel_gap": 0.1, "pass": False}),
        (lambda: _rate([None]), {"max_rel_gap": 0.15, "final_rel_gap": None, "pass": False}),
        (lambda: _ode(-0.1, True), {"max_slope": -0.05, "pass": True}),
        (lambda: _ode(-0.01, True), {"max_slope": -0.05, "pass": False}),
        (lambda: _ode(-0.1, False), {"max_slope": -0.05, "pass": False}),
        (lambda: _ode(None, None), {"max_slope": -0.05, "pass": False}),
    ],
    ids=["martingale-at-gate", "martingale-past-gate", "rate", "rate-gap", "rate-not-converged", "rate-excused",
         "rate-unexcused", "rate-two-violations", "rate-censored-last", "rate-censored-first", "rate-all-censored",
         "ode", "ode-slope", "ode-not-monotone", "ode-too-few-kept"],
)
def test_a_suite_report_judges_itself(build, verdict):
    report = build()
    assert report.passed is verdict["pass"]
    rec = report.to_json_dict()
    assert {key: rec[key] for key in verdict} == verdict
    # the verdict is written beside the fields but is none of them
    assert set(rec) - {field.name for field in dataclasses.fields(report)} == set(verdict)


def test_an_estimate_report_has_no_verdict():
    rep = mc_probability(preset_model("gaussian-free"), [0.0], 10, 0.0, _HALF, 50, seed=1)
    assert rep.to_json_dict() == dataclasses.asdict(rep)
    assert not hasattr(rep, "passed")


def test_every_suite_report_names_its_model():
    m = preset_model("gaussian-ou")
    assert martingale_check(m, [0.0], 10, 0.0, DualMeasure.point_mass(1.0, 0.5), 50, seed=1).model == m.summary
    assert [field.name for field in dataclasses.fields(MartingaleCheck)][0] == "model"


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


_WRONG_DIM = r"^event dim 2 does not match model dim 1$"


@pytest.mark.parametrize(
    "run, error",
    [
        # a 2-D center used to broadcast against the (rows, 1) states and give p_hat 0.98
        (lambda m: mc_probability(m, [0.0], 20, 0.0, BallEvent([0.0, 0.0], 0.5), 100, seed=0), _WRONG_DIM),
        # a 2-D reference broadcast the same way in the path fold
        (lambda m: mc_probability(m, [0.0], 20, 0.0, PathDeviationEvent(0.5, Trajectory(np.zeros((3, 2)))), 100, seed=0),
         _WRONG_DIM),
        # a 2-D normal ended in a numpy shape error
        (lambda m: mc_probability(m, [0.0], 20, 0.0, TerminalHalfspace([1.0, 0.0], 1.0), 100, seed=0), _WRONG_DIM),
        (lambda m: tilted_mc_probability(m, [0.0], 20, TerminalHalfspace([1.0, 0.0], 1.0), 100, seed=0), _WRONG_DIM),
        (lambda m: verify_rate(m, [0.0], TerminalHalfspace([1.0, 0.0], 1.0), [10, 20], 100, seed=0), _WRONG_DIM),
        # a terminal point ended in "AttributeError: 'TerminalPoint' object has no attribute 'reference'"
        (lambda m: mc_probability(m, [0.0], 20, 0.0, TerminalPoint([1.0]), 100, seed=0),
         r"^event must be a TerminalHalfspace or BallEvent or PathDeviationEvent, got TerminalPoint$"),
    ],
    ids=["ball", "path", "halfspace", "tilted", "rate", "point-kind"],
)
def test_estimators_reject_event_of_wrong_dimension(run, error, monkeypatch):
    # the check runs before anything is simulated or minimized
    import ldscheme.rare_event as rare_event

    def forbidden(*args, **kwargs):
        raise AssertionError("simulated before validating the event")

    monkeypatch.setattr(rare_event, "_map_chunks", forbidden)
    # the tilted estimators check the event inside _tilt_plan, ahead of its mean flow
    monkeypatch.setattr(rare_event, "limit_ode", forbidden)
    monkeypatch.setattr(rare_event, "minimize_action", forbidden)
    with pytest.raises(ValueError, match=error):
        run(_refusing_ou())


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


def test_martingale_check_refuses_a_scalar_cgf():
    # a plain model with gaussian-ou's callbacks but a cgf of one scalar used to read a mean of 1.032 here
    ou = preset_model("gaussian-ou")
    m = KernelModel(dim=1, sampler=ou.sampler, cgf=lambda ys, a: ou.cgf(ys, a)[0], cgf_grad=ou.cgf_grad,
                    cgf_hess=ou.cgf_hess)
    with pytest.raises(ValueError, match=r"^cgf must return shape \(4000,\) on its rows, got \(\)$"):
        martingale_check(m, [0.0], 20, 0.0, DualMeasure.point_mass(1.0, 0.5), 4000, seed=1)


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


# a linear-Gaussian model at d = 2: dY = A Y dt + dW, sigma = I
A_2D = np.array([[-1.0, 0.5], [0.0, -1.0]])


def _var_tail(x, n, event):
    """P{<X_n, normal> >= level} for the Euler chain of A_2D, exactly.

    The chain X_k = M X_{k-1} + Z_k / n, M = I + A/n, is a Gaussian vector
    autoregression: <X_n, normal> is normal with mean <M^n x, normal> and
    variance normal^T (sum_{j<n} M^j (M^j)^T / n^2) normal.
    """
    step = np.eye(2) + A_2D / n
    power, cov = np.eye(2), np.zeros((2, 2))
    for _ in range(n):
        cov += power @ power.T / n**2
        power = step @ power
    mean = event.normal @ power @ x
    return norm.sf((event.level - mean) / np.sqrt(event.normal @ cov @ event.normal))


def test_tilted_d2_linear_gaussian_matches_exact_oracle():
    m = affine_model(2, linear_drift(A_2D), np.eye(2), gaussian_base())
    event = TerminalHalfspace([1.0, 1.0], 1.0)
    exact = _var_tail(np.zeros(2), 50, event)
    assert exact == pytest.approx(2.3060e-12, rel=1e-4)
    rep = tilted_mc_probability(m, [0.0, 0.0], 50, event, 20_000, seed=1)
    assert rep.stderr < 0.05 * rep.p_hat
    assert abs(rep.p_hat - exact) <= 4 * rep.stderr


def test_naive_d2_linear_gaussian_matches_exact_oracle():
    m = affine_model(2, linear_drift(A_2D), np.eye(2), gaussian_base())
    event = TerminalHalfspace([1.0, 1.0], 0.3)
    exact = _var_tail(np.zeros(2), 50, event)
    assert exact == pytest.approx(1.8988e-2, rel=1e-4)
    rep = mc_probability(m, [0.0, 0.0], 50, 0.0, event, 20_000, seed=1)
    assert abs(rep.p_hat - exact) <= 4 * rep.stderr


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


def test_tilt_sequence_refuses_a_path_no_tilt_follows():
    # Bernoulli increments live in [0, 1], so slope 1.5 has no tilted mean: the solve diverges
    with pytest.raises(TiltUnreachableError, match=r"^tilt solve along the minimizing path failed at step 1 \(status divergent\)$"):
        _tilt_sequence(preset_model("bernoulli-walk"), straight_line([0.0], [1.5], 5), 10)


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

    m = affine_model(src.dim, counted, src.sigma, src.base)
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
        logw += src.cgf(prev, alphas[k - 1]) - inc @ alphas[k - 1]
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
        price = model.cgf(prev, alphas[k - 1]) + smoothing[k - 1]
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
    assert m.cgf(np.full((size, 1), 0.2), alphas[-1]).shape == (size,)


def test_tilted_rejects_event_covering_mean():
    m = preset_model("gaussian-ou")
    with pytest.raises(ValueError, match="not rare"):
        tilted_mc_probability(m, [1.0], 20, TerminalHalfspace([1.0], 0.1), 100, seed=0)


def test_tilted_rejects_non_gaussian_base():
    m = preset_model("bernoulli-walk")
    with pytest.raises(ValueError, match="Gaussian"):
        tilted_mc_probability(m, [0.0], 20, TerminalHalfspace([1.0], 0.6), 100, seed=0)


def test_tilted_steps_draw_through_the_base_law():
    # a Gaussian base built by hand, whose sampler counts its calls, gives the preset's bytes
    calls = []

    def sample(rng, size):
        calls.append(size)
        return rng.standard_normal(size)

    base = dataclasses.replace(gaussian_base(), sample=sample)
    m = affine_model(1, linear_drift([[-1.0]]), 1.0, base)
    ev = TerminalHalfspace([1.0], 0.8)
    got = tilted_mc_probability(m, [0.0], 25, ev, 300, seed=9)
    want = tilted_mc_probability(preset_model("gaussian-ou"), [0.0], 25, ev, 300, seed=9)
    assert (got.p_hat, got.stderr) == (want.p_hat, want.stderr)
    assert calls == [(300, 1)] * 25


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
        (np.nan, [], r"^n_grid: expected a nonempty list of integers, got \[\]$"),
        (0.5, [], r"^n_grid: expected a nonempty list of integers, got \[\]$"),
        (np.nan, [10], "epsilon: expected a finite number, got nan"),
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
_ATOM = DualMeasure.point_mass(1.0, 0.5)
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


def _refusing(model):
    """model with callbacks that fail the test when anything calls them."""

    def refuse(*args):
        raise AssertionError("a model callback ran before the run arguments were checked")

    return dataclasses.replace(model, sampler=refuse, cgf=refuse, cgf_grad=refuse, cgf_hess=refuse)


def _refusing_ou(dim=1):
    """gaussian-ou, or its dim-dimensional analogue, whose callbacks fail the test when anything calls them."""
    if dim == 1:
        return _refusing(preset_model("gaussian-ou"))
    return _refusing(affine_model(dim, linear_drift(-np.eye(dim)), 1.0, gaussian_base()))


def _bad_runs():
    for name, run in _RUNS.items():
        for label, n in _BAD_N.items():
            yield pytest.param(run, n, "n", id=f"{name}-{label}")
    # a grid entry is named by its index, as the config names config.n_grid[1]
    for name, run in _GRID_RUNS.items():
        for label, n in _BAD_N.items():
            yield pytest.param(run, [n], r"n_grid\[0\]", id=f"{name}-{label}")
        yield pytest.param(run, [10, 0], r"n_grid\[1\]", id=f"{name}-grid-10-0")


@pytest.mark.parametrize("run, n, name", _bad_runs())
def test_every_run_entry_point_rejects_a_bad_n_before_any_callback(run, n, name):
    # the refusing callbacks raise AssertionError, so a ValueError shows that
    # n was checked before any callback, minimization, limit_ode or draw
    with pytest.raises(ValueError, match=rf"^{name} must be an integer >= 1, got "):
        run(_refusing_ou(), n)


def test_terminals_and_events_state_their_dim():
    assert TerminalPoint([1.0, 2.0]).dim == TerminalHalfspace([1.0, 2.0], 1.0).dim == BallEvent([0.0, 0.0], 1.0).dim == 2
    assert PathDeviationEvent(0.5, Trajectory(np.zeros((3, 2)))).dim == 2
    # the mean-flow reference has no dimension of its own, so it suits every model
    assert PathDeviationEvent(0.5).dim is None


@pytest.mark.parametrize("model_dim", [1, 2])
@pytest.mark.parametrize(
    "make", [lambda d: TerminalHalfspace(np.ones(d), 1.0), lambda d: TerminalPoint(np.ones(d))], ids=["halfspace", "point"]
)
def test_action_problem_rejects_a_terminal_of_another_dim_before_any_callback(make, model_dim):
    # a half-space of another dim used to end minimize_action in numpy's "matmul: Input operand 1 has a mismatch ..."
    other = 3 - model_dim
    with pytest.raises(ValueError, match=rf"^terminal dim {other} does not match model dim {model_dim}$"):
        ActionProblem(model=_refusing_ou(model_dim), x=np.zeros(model_dim), terminal=make(other))


def test_action_problem_rejects_an_event_that_is_not_a_terminal_before_any_callback():
    # minimize_action raised "AttributeError: 'BallEvent' object has no attribute 'normal'"
    with pytest.raises(ValueError, match=r"^terminal must be a TerminalPoint or TerminalHalfspace, got BallEvent$"):
        ActionProblem(model=_refusing_ou(), x=[0.0], terminal=BallEvent([1.0], 0.5))


@pytest.mark.parametrize(
    "make, name",
    [(lambda v: TerminalHalfspace(v, 1.0), "normal"), (lambda v: BallEvent(v, 0.5), "center"),
     (TerminalPoint, "point")],
    ids=["normal", "center", "point"],
)
def test_a_matrix_is_refused_as_a_normal_center_or_point(make, name):
    # TerminalHalfspace([[1.0, 0.0]], 1.0) was accepted, and a 2-D minimize on it failed inside np.column_stack
    with pytest.raises(ValueError, match=rf"^{name} must have shape \(d,\), got \(1, 2\)$"):
        make([[1.0, 0.0]])


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


@pytest.mark.parametrize("name", sorted(_GRID_RUNS))
@pytest.mark.parametrize("grid", [(5, 10), np.array([5, 10])], ids=["tuple", "numpy"])
def test_a_tuple_or_numpy_grid_gives_the_lists_report(name, grid):
    m = preset_model("gaussian-ou")
    got, want = _GRID_RUNS[name](m, grid), _GRID_RUNS[name](m, [5, 10])
    assert got.to_json_dict() == want.to_json_dict()
    assert [type(n) for n in got.n_grid] == [int, int]


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
# basis of a measure's integrals and the seed of every run entry point
_COUNTS = {
    "basis_integrals": ("n", 1, lambda m, v: _ATOM.basis_integrals(v).tobytes()),
    "m": ("m", 2, lambda m, v: ActionProblem(model=m, x=[0.0], terminal=_HALF, m=v)),
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


# the real arguments, each keyed by its case: the smoothing amplitude of the
# stepper, of an estimator, of a path minimization, of the path cost, of the
# discrete and limit dual functionals and of the conjugate solve, the level of a half-space event, the ball radius and path-deviation
# epsilon, and the factor of a scaled measure; each call returns what shows its result bit for bit
_REALS = {
    "factor": ("factor", lambda m, v: _ATOM.scaled(v).weights.tobytes()),
    "a-simulate": ("a", lambda m, v: simulate(m, [0.0], 10, v, 1).knots.tobytes()),
    "a-mc_probability": ("a", lambda m, v: json.dumps(
        mc_probability(m, [0.0], 10, v, _HALF, 50, seed=1).to_json_dict())),
    "a-martingale_check": ("a", lambda m, v: json.dumps(
        martingale_check(m, [0.0], 10, v, DualMeasure.point_mass(1.0, 0.5), 50, seed=1).to_json_dict())),
    "a-ActionProblem": ("a", lambda m, v: repr(ActionProblem(model=m, x=[0.0], terminal=_HALF, a=v).a)),
    "a-action": ("a", lambda m, v: path_cost(m, [0.0], v, straight_line([0.0], [0.8], 4)).segments.tobytes()),
    "a-phi_n": ("a", lambda m, v: repr(phi_n(m, [0.0], v, straight_line([0.0], [0.8], 4), _ATOM))),
    "a-phi_limit": ("a", lambda m, v: repr(phi_limit(m, [0.0], v, straight_line([0.0], [0.8], 4), _ATOM))),
    "a-fenchel_rows": ("a", lambda m, v: conj_mod.fenchel_rows(m, [[0.0]], [[0.5]], v).argmax.tobytes()),
    "level": ("level", lambda m, v: repr(TerminalHalfspace([2.0], v))),
    "radius": ("radius", lambda m, v: repr(BallEvent([0.0], v))),
    "epsilon": ("epsilon", lambda m, v: repr(PathDeviationEvent(v))),
}


@pytest.mark.parametrize("case", sorted(_REALS))
@pytest.mark.parametrize("value", [True, "0.5"], ids=["bool", "str"])
def test_real_arguments_reject_bools_and_strings_before_any_callback(case, value):
    # a = True used to run at a = 1 and a = "0.5" at 0.5; the events stored a
    # bool, and a string level raised TypeError
    arg, call = _REALS[case]
    with pytest.raises(ValueError, match=rf"^{arg}: expected a number, got {re.escape(repr(value))}$"):
        call(_refusing_ou(), value)


@pytest.mark.parametrize("case", sorted(_REALS))
@pytest.mark.parametrize("value", [np.float64(0.5), np.int64(1)], ids=["float64", "int64"])
def test_real_arguments_take_a_numpy_scalar(case, value):
    # the value is stored as a plain float, so the reprs match too
    call = _REALS[case][1]
    m = preset_model("gaussian-ou")
    assert call(m, value) == call(m, value.item())


# the array arguments, each keyed by its case: (the name its errors give, a good value, a value of the wrong
# shape, the call).  The good values are integers, so an int32 or a float32 array holds them exactly; each call
# returns what shows its result bit for bit
_LINE = Trajectory([[0.0], [1.0]])
_ARRAYS = {
    "x-simulate": ("x", [0.0], [[0.0]], lambda m, v: simulate(m, v, 10, 0.0, 1).knots.tobytes()),
    "x-coupled_perturbation_gaps": ("x", [0.0], [0.0, 0.0], lambda m, v: b"".join(
        g.tobytes() for g in coupled_perturbation_gaps(m, v, 10, 0.5, 1))),
    "x-mc_probability": ("x", [0.0], [[0.0]], lambda m, v: json.dumps(
        mc_probability(m, v, 10, 0.0, _HALF, 50, seed=1).to_json_dict())),
    "x-tilted_mc_probability": ("x", [0.0], [[0.0]], lambda m, v: json.dumps(
        tilted_mc_probability(m, v, 10, _HALF, 50, seed=1).to_json_dict())),
    "x-martingale_check": ("x", [0.0], [[0.0]], lambda m, v: json.dumps(
        martingale_check(m, v, 10, 0.0, _ATOM, 50, seed=1).to_json_dict())),
    "x-verify_rate": ("x", [0.0], [[0.0]], lambda m, v: json.dumps(
        verify_rate(m, v, _HALF, [10], 50, seed=1).to_json_dict())),
    "x-verify_ode_convergence": ("x", [0.0], [[0.0]], lambda m, v: json.dumps(
        verify_ode_convergence(m, v, 0.5, [10], 50, seed=1).to_json_dict())),
    "x-ActionProblem": ("x", [0.0], [[0.0]], lambda m, v: ActionProblem(model=m, x=v, terminal=_HALF).x.tobytes()),
    "x-action": ("x", [0.0], [[0.0]], lambda m, v: path_cost(m, v, 0.0, straight_line([0.0], [0.8], 4)).segments.tobytes()),
    "x-phi_n": ("x", [0.0], [[0.0]], lambda m, v: repr(phi_n(m, v, 0.0, straight_line([0.0], [0.8], 4), _ATOM))),
    "x-phi_limit": ("x", [0.0], [[0.0]], lambda m, v: repr(phi_limit(m, v, 0.0, straight_line([0.0], [0.8], 4), _ATOM))),
    "x-limit_ode": ("x", [1.0], [[1.0]], lambda m, v: limit_ode(m, v, 4).knots.tobytes()),
    "ys": ("ys", [[0.0]], [[0.0, 0.0]], lambda m, v: conj_mod.fenchel_rows(m, v, [[1.0]]).argmax.tobytes()),
    "zs": ("zs", [[1.0]], [[1.0], [1.0]], lambda m, v: conj_mod.fenchel_rows(m, [[0.0]], v).argmax.tobytes()),
    "y": ("y", [0.0], [[0.0]], lambda m, v: conj_mod.perturbed_fenchel(m, 0.0, v, [1.0]).argmax.tobytes()),
    "z": ("z", [1.0], [[1.0]], lambda m, v: conj_mod.perturbed_fenchel(m, 0.0, [0.0], v).argmax.tobytes()),
    "knots": ("knots", [[0.0], [1.0], [2.0]], [[[0.0]], [[1.0]]], lambda m, v: Trajectory(v).knots.tobytes()),
    "times": ("atom times", [1.0], [[1.0]], lambda m, v: DualMeasure(v, [[2.0]]).times.tobytes()),
    "weights": ("atom weights", [[2.0]], [[[2.0]]], lambda m, v: DualMeasure([1.0], v).weights.tobytes()),
    "point": ("point", [1.0], [[1.0]], lambda m, v: TerminalPoint(v).point.tobytes()),
    "normal": ("normal", [2.0], [[2.0]], lambda m, v: TerminalHalfspace(v, 1.0).normal.tobytes()),
    "center": ("center", [1.0], [[1.0]], lambda m, v: BallEvent(v, 0.5).center.tobytes()),
    "x-straight_line": ("x", [0.0], [[0.0]], lambda m, v: straight_line(v, [1.0], 3).knots.tobytes()),
    "z-straight_line": ("z", [1.0], [1.0, 1.0], lambda m, v: straight_line([0.0], v, 3).knots.tobytes()),
    "ts": ("ts", [0.0, 1.0], [[0.0, 1.0]], lambda m, v: eval_path_many(_LINE, v).tobytes()),
    "sigma": ("constant sigma", [[1.0]], [[1.0, 0.0]], lambda m, v: affine_model(
        1, kernel.zero_drift(), v, gaussian_base()).sigma.tobytes()),
    "constant_drift": ("constant drift", [1.0], [[1.0]], lambda m, v: kernel.constant_drift(v)(np.zeros((1, 1))).tobytes()),
    "matrix": ("drift matrix", [[-1.0]], [[-1.0, 2.0]], lambda m, v: linear_drift(v)(np.ones((1, 1))).tobytes()),
    "offset": ("drift offset", [1.0], [1.0, 1.0], lambda m, v: linear_drift([[-1.0]], v)(np.ones((1, 1))).tobytes()),
}
# the cases whose argument is a vector, where a bare number is a 1-vector (a bare sigma is sigma times I)
_BARE = sorted(set(_ARRAYS) - {"ys", "zs", "knots", "weights", "matrix"})


def _counting_ou():
    """gaussian-ou built from a drift, with every callback counting its calls into the list returned beside it."""
    calls = []

    def counted(name, f):
        def call(*args):
            calls.append(name)
            return f(*args)

        return call

    m = affine_model(1, counted("drift", linear_drift([[-1.0]])), 1.0, gaussian_base())
    return dataclasses.replace(m, **{k: counted(k, getattr(m, k)) for k in ("sampler", "cgf", "cgf_grad", "cgf_hess")}), calls


def _bad_arrays():
    for case, (arg, good, wrong, call) in _ARRAYS.items():
        nan = np.array(good, dtype=np.float64)
        nan.flat[0] = np.nan
        bad = {"bool": np.full(np.shape(good), True).tolist(), "str": np.array(good).astype(str).tolist(),
               "shape": wrong, "nan": nan.tolist()}
        for label, v in bad.items():
            message = {"bool": f"{arg}: expected an array of numbers, got dtype bool",
                       "str": f"{arg}: expected an array of numbers, got dtype <U",
                       "shape": f"{arg} must have shape (", "nan": f"{arg} must be finite"}[label]
            yield pytest.param(call, message, v, id=f"{case}-{label}")


@pytest.mark.parametrize("call, message, value", _bad_arrays())
def test_array_arguments_reject_bools_strings_shapes_and_nans_before_any_callback(call, message, value):
    # simulate(model, ["0.5"], ...) used to start at 0.5, TerminalHalfspace([True], 0.5) had normal [1.0],
    # fenchel_rows(model, [["0.1"]], [[0.3]]) priced 0.08, a short linear_drift offset or straight_line z was
    # broadcast, and eval_path_many(traj, [[0.5]]) returned a (1, 1, 1) array
    m, calls = _counting_ou()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        call(m, value)
    assert calls == []


@pytest.mark.parametrize("case", sorted(_ARRAYS))
@pytest.mark.parametrize("dtype", [np.int32, np.float32])
def test_array_arguments_take_int32_and_float32_arrays(case, dtype):
    good, call = _ARRAYS[case][1], _ARRAYS[case][3]
    m = preset_model("gaussian-ou")
    assert call(m, np.array(good, dtype=dtype)) == call(m, good)


@pytest.mark.parametrize("case", _BARE)
def test_vector_arguments_take_a_bare_number(case):
    good, call = _ARRAYS[case][1], _ARRAYS[case][3]
    m = preset_model("gaussian-ou")
    value = np.ravel(good)[0].item()
    assert call(m, value) == call(m, [[value]] if case == "sigma" else [value])


def test_verify_rate_censors_an_estimate_without_hits(crafted_rates):
    crafted_rates({10: (0.05, 0.01), 20: None, 40: (0.03, 0.01)})
    rep = verify_rate(preset_model("gaussian-free"), [0.0], TerminalHalfspace([1.0], 1.0), [10, 20, 40], 50, seed=1)
    assert rep.estimates[1].p_hat == 0.0 and rep.estimates[1].empirical_rate is None
    assert rep.rel_gaps == [pytest.approx(0.05), None, pytest.approx(0.03)]
    # a pair with a censored n is not compared, so neither pair counts
    assert rep.trend_violations == []


@pytest.mark.parametrize("rate_se, excused", [(0.0107, True), (0.0105, False)], ids=["excused", "unexcused"])
def test_verify_rate_excuses_a_gap_increase_within_two_combined_stderrs(crafted_rates, rate_se, excused):
    # the absolute gap grows by 0.03 predicted rates, against two combined
    # standard errors of 2 sqrt(2) rate_se = 0.0303 or 0.0297 predicted rates
    crafted_rates({10: (0.05, rate_se), 20: (0.08, rate_se)})
    rep = verify_rate(preset_model("gaussian-free"), [0.0], TerminalHalfspace([1.0], 1.0), [10, 20], 50, seed=1)
    assert rep.trend_violations == [
        {"n_prev": 10, "n_next": 20, "gap_increase": pytest.approx(0.03 * rep.predicted_rate), "excused": excused}
    ]
