import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.random import default_rng

from ldscheme.errors import SimulationBlowup
from ldscheme.kernel import affine_model, gaussian_base, linear_drift, preset_model, zero_drift
from ldscheme.scheme import (
    DualMeasure,
    Trajectory,
    _euler_steps,
    coupled_perturbation_gaps,
    eval_path_many,
    gauss_legendre_01,
    load_trajectory,
    phi_limit,
    phi_n,
    resample,
    save_trajectory,
    simulate,
)


def test_gauss_legendre_weights():
    nodes, weights = gauss_legendre_01()
    assert weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all((nodes > 0) & (nodes < 1))
    # order 5 integrates degree-9 polynomials exactly
    assert weights @ nodes**9 == pytest.approx(0.1, abs=1e-14)


def test_trajectory_validation():
    t = Trajectory([0.0, 0.5, 1.0])
    assert t.knots.shape == (3, 1)
    assert t.n == 2
    assert np.allclose(t.times, [0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        Trajectory(np.array([1.0]))


def test_basis_phi_ramp():
    # a unit atom at t reads off phi_{n,i}(t) in row i-1: ramp i covers
    # ((i-1)/n, i/n] and saturates afterwards
    def phi(n, i, t):
        return DualMeasure.point_mass(t, 1.0).basis_integrals(n)[i - 1, 0]

    assert phi(4, 2, 0.25) == 0.0
    assert phi(4, 2, 0.375) == pytest.approx(0.5)
    assert phi(4, 2, 0.5) == 1.0
    assert phi(4, 2, 1.0) == 1.0
    assert np.array_equal(DualMeasure.point_mass(0.375, 1.0).basis_integrals(4)[:, 0], [1.0, 0.5, 0.0, 0.0])


def test_eval_path_reproduces_every_knot():
    rng = default_rng(5)
    for n in [1, 2, 3, 7, 29, 40, 49, 58]:
        traj = Trajectory(rng.normal(size=(n + 1, 2)))
        for k in range(n + 1):
            assert np.array_equal(eval_path_many(traj, [k / n])[0], traj.knots[k]), (n, k)


def test_eval_path_interpolates():
    traj = Trajectory(np.array([[0.0], [1.0], [0.0]]))
    assert eval_path_many(traj, [0.25])[0][0] == pytest.approx(0.5)
    assert eval_path_many(traj, [0.75])[0][0] == pytest.approx(0.5)


def test_eval_path_many_matches_scalar():
    rng = default_rng(8)
    traj = Trajectory(rng.normal(size=(11, 3)))
    ts = rng.uniform(0, 1, size=40)
    many = eval_path_many(traj, ts)
    for i, t in enumerate(ts):
        assert np.allclose(many[i], eval_path_many(traj, [t])[0], atol=1e-15)
    for t in (-0.1, 1.1, np.nan):
        with pytest.raises(ValueError):
            eval_path_many(traj, [t])


@settings(max_examples=50, deadline=None)
@given(t=st.floats(0, 1), seed=st.integers(0, 10_000))
def test_eval_path_stays_in_hull(t, seed):
    traj = Trajectory(default_rng(seed).normal(size=(6, 1)))
    v = eval_path_many(traj, [t])[0][0]
    assert traj.knots.min() - 1e-12 <= v <= traj.knots.max() + 1e-12


def test_resample_nested_lattice_exact():
    rng = default_rng(2)
    coarse = Trajectory(rng.normal(size=(11, 1)))
    fine = resample(coarse, 50)
    assert fine.n == 50
    for k in range(11):
        assert np.allclose(fine.knots[5 * k], coarse.knots[k], atol=1e-15)
    # the refined path is the same function
    ts = rng.uniform(0, 1, 30)
    assert np.allclose(eval_path_many(fine, ts), eval_path_many(coarse, ts), atol=1e-12)


def test_dual_measure_basics():
    lam = DualMeasure.from_atoms([(1.0, [2.0]), (0.25, [-1.0])])
    assert np.allclose(lam.times, [0.25, 1.0])
    assert np.allclose(lam.total_mass(), [1.0])
    assert lam.variation() == pytest.approx(3.0)
    assert np.allclose(lam.scaled(2.0).weights, 2.0 * lam.weights)


def test_dual_measure_validation():
    with pytest.raises(ValueError):
        DualMeasure(np.array([1.5]), np.array([[1.0]]))
    with pytest.raises(ValueError):
        DualMeasure(np.array([0.5]), np.array([[np.inf]]))
    z = DualMeasure.zero(3)
    assert z.variation() == 0.0
    assert np.allclose(z.total_mass(), np.zeros(3))


def test_basis_integrals_against_direct_sum():
    lam = DualMeasure.from_atoms([(0.3, [1.0]), (0.8, [-2.0]), (1.0, [0.5])])
    n = 5
    out = lam.basis_integrals(n)
    for i in range(1, n + 1):
        direct = sum(w[0] * min(max(n * t - (i - 1), 0.0), 1.0) for t, w in zip(lam.times, lam.weights))
        assert out[i - 1, 0] == pytest.approx(direct, abs=1e-14)


def test_simulate_seeded_and_shapes():
    m = preset_model("gaussian-ou")
    t1, t2 = simulate(m, [1.0], 30, 0.25, 4), simulate(m, [1.0], 30, 0.25, 4)
    assert np.array_equal(t1.knots, t2.knots)
    assert t1.knots.shape == (31, 1)
    assert t1.knots[0, 0] == 1.0


def test_draw_discipline_splits_model_and_smoothing_streams():
    # replay the streams by hand: each step draws the model increment from the
    # run's generator; at a > 0 the smoothing gaussian comes from its child
    # rng.spawn(1)[0], and at a = 0 no child is spawned and nothing is drawn
    m = preset_model("gaussian-free")
    n, seed = 12, 99
    for a in [0.0, 0.5]:
        rng = default_rng(seed)
        smooth = rng.spawn(1)[0]
        state = np.zeros(1)
        expect = [state.copy()]
        for _ in range(n):
            inc = m.base.sample(rng, 1)
            if a > 0.0:
                inc = inc + a * smooth.standard_normal(1)
            state = state + inc / n
            expect.append(state.copy())
        traj = simulate(m, [0.0], n, a, seed)
        assert np.array_equal(traj.knots, np.array(expect))


def test_smoothing_changes_path_but_shares_model_draws():
    m = preset_model("gaussian-free")
    t0 = simulate(m, [0.0], 20, 0.0, 1)
    t1 = simulate(m, [0.0], 20, 0.5, 1)
    assert not np.array_equal(t0.knots, t1.knots)
    # shared model draws mean the gap is the smoothing term alone: replay g
    # from the smoothing stream
    smooth = default_rng(1).spawn(1)[0]
    gs = [smooth.standard_normal(1) for _ in range(20)]
    gap = t1.knots - t0.knots
    assert np.allclose(gap[1:], 0.5 / 20 * np.cumsum(gs, axis=0), atol=1e-15)


def _model_draws_only(m, n, rows, seed):
    """A generator that has made exactly the n model draws of a `rows`-row run from seed."""
    rng = default_rng(seed)
    for _ in range(n):
        m.base.sample(rng, (rows, m.dim))
    return rng


@pytest.mark.parametrize("preset", ["gaussian-ou", "bernoulli-walk"])
def test_zero_amplitude_run_draws_only_model_noise(preset):
    m = preset_model(preset)
    x = np.zeros(1)
    for a, spawned in [(0.0, 0), (0.5, 1)]:
        rng = default_rng(17)
        for _ in _euler_steps(m, x, 10, a, rng, 3):
            pass
        # the run's generator made the model draws and nothing else; a > 0
        # spawned one smoothing child, a = 0 none
        assert rng.bit_generator.state == _model_draws_only(m, 10, 3, 17).bit_generator.state
        assert rng.bit_generator.seed_seq.n_children_spawned == spawned
    # a tilted run spawns no child either
    rng = default_rng(17)
    for _ in _euler_steps(preset_model("gaussian-ou"), x, 10, 0.5, rng, 3, shifts=np.ones((10, 1))):
        pass
    assert rng.bit_generator.seed_seq.n_children_spawned == 0


def _stepper_knots(m, x, n, a, rows, rng):
    knots = [np.broadcast_to(np.asarray(x, dtype=np.float64), (rows, m.dim))]
    for k, prev, inc, state in _euler_steps(m, np.asarray(x, dtype=np.float64), n, a, rng, rows):
        assert np.array_equal(prev, knots[-1])
        assert np.array_equal(state, prev + inc / n)
        knots.append(state)
    return np.stack(knots, axis=1)


def _replay_ou(m, x, n, a, rows, seed):
    """Knots of a `rows`-row OU run replayed from the model stream and the smoothing stream."""
    rng = default_rng(seed)
    smooth = rng.spawn(1)[0]
    state = np.full((rows, 1), float(x))
    knots = [state]
    for _ in range(n):
        f = m.drift(state) + m.base.sample(rng, state.shape) @ m.sigma.T
        if a > 0.0:
            f = f + a * smooth.standard_normal(state.shape)
        state = state + f / n
        knots.append(state)
    return np.stack(knots, axis=1)


def test_euler_steps_one_row_matches_simulate():
    m = preset_model("gaussian-ou")
    out = _stepper_knots(m, [1.0], 25, 0.5, 1, default_rng(6))
    ref = simulate(m, [1.0], 25, 0.5, 6)
    assert np.array_equal(out[0], ref.knots)
    big = _stepper_knots(m, [1.0], 25, 0.5, 7, default_rng(6))
    assert big.shape == (7, 26, 1)
    again = _stepper_knots(m, [1.0], 25, 0.5, 7, default_rng(6))
    assert np.array_equal(big, again)
    # replay by hand: each step draws the model noise of all rows from the
    # run's generator and the smoothing noise of all rows from its child
    assert np.array_equal(big, _replay_ou(m, 1.0, 25, 0.5, 7, 6))


def test_runs_at_every_amplitude_share_every_model_draw():
    # one seed, three amplitudes: every run takes the same model draws, and
    # the smoothed runs the same smoothing draws, so each replays from the
    # two streams of that one seed
    m = preset_model("gaussian-ou")
    for a in [0.0, 0.25, 0.5]:
        out = _stepper_knots(m, [0.3], 15, a, 4, default_rng(31))
        assert np.array_equal(out, _replay_ou(m, 0.3, 15, a, 4, 31))


def _ou_2d():
    return affine_model(2, linear_drift([[-1.0, 0.5], [0.2, -0.8]]), [[1.0, 0.3], [-0.2, 0.7]], gaussian_base())


@pytest.mark.parametrize(
    "make, a, tilted",
    [
        (lambda: preset_model("bernoulli-walk"), 0.0, False),
        (lambda: preset_model("logistic"), 0.0, False),
        (lambda: preset_model("gaussian-ou"), 0.5, False),
        (lambda: preset_model("gaussian-ou"), 0.0, True),
        (_ou_2d, 0.5, False),
        (_ou_2d, 0.0, True),
    ],
    ids=["plain", "plain-sigma-half", "smoothed", "tilted", "smoothed-2d", "tilted-2d"],
)
def test_yielded_arrays_are_never_written_after_their_step(make, a, tilted):
    # simulate and _stepper_knots keep what the stepper yields, so no later
    # step may write into an array it has handed out
    m = make()
    n, rows = 12, 50
    shifts = default_rng(3).normal(size=(n, m.dim)) if tilted else None
    kept = []
    for k, prev, inc, state in _euler_steps(m, np.full(m.dim, 0.2), n, a, default_rng(4), rows, shifts=shifts):
        if kept:
            assert prev is kept[-1][0][2]  # this step starts from the last state yielded
        arrays = (prev, inc, state)
        kept.append((arrays, tuple(v.copy() for v in arrays)))
    assert len(kept) == n
    for arrays, copies in kept:
        for v, c in zip(arrays, copies):
            assert np.array_equal(v, c)


def test_simulate_blowup_raises_with_step():
    m = preset_model("logistic")
    with pytest.raises(SimulationBlowup) as exc:
        simulate(m, [1e8], 12, 0.0, 0)
    assert exc.value.step >= 1


def _pair(traj, lam):
    """<path, lam> = sum_j <path(t_j), alpha_j>."""
    return float(np.sum(eval_path_many(traj, lam.times) * lam.weights))


def test_dual_pairing_point_masses():
    traj = Trajectory(np.array([[0.0], [2.0]]))
    lam = DualMeasure.from_atoms([(0.5, [3.0]), (1.0, [1.0])])
    assert _pair(traj, lam) == pytest.approx(3.0 * 1.0 + 1.0 * 2.0)


def test_phi_n_free_gaussian_closed_form():
    # b=0, sigma=1: phi_n = x lam_tot + sum_i |beta_i/n|^2 / 2
    m = preset_model("gaussian-free")
    traj = Trajectory(np.zeros((11, 1)))
    lam = DualMeasure.point_mass(1.0, 0.8)
    n = 10
    beta = lam.basis_integrals(n) / n
    expect = float(np.sum(beta**2) / 2)
    assert phi_n(m, [0.0], 0.0, traj, lam) == pytest.approx(expect, abs=1e-13)
    # smoothing adds a^2 |beta/n|^2 / 2 per step
    expect_a = expect + 0.25 * float(np.sum(beta**2) / 2)
    assert phi_n(m, [0.0], 0.5, traj, lam) == pytest.approx(expect_a, abs=1e-13)


def test_phi_n_martingale_exponent_deterministic_model():
    # sigma = 0: exp(<Y, lam> - phi_n) = 1 for every path the scheme can make
    det = affine_model(1, linear_drift(np.array([[-1.0]])), 0.0, gaussian_base(), summary="det")
    traj = simulate(det, [1.0], 17, 0.0, 0)
    lam = DualMeasure.from_atoms([(0.3, [0.4]), (1.0, [-0.9])])
    assert _pair(traj, lam) - phi_n(det, [1.0], 0.0, traj, lam) == pytest.approx(0.0, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    ts=st.lists(st.floats(0, 1), min_size=1, max_size=4),
    ws=st.lists(st.floats(-1.5, 1.5), min_size=4, max_size=4),
    seed=st.integers(0, 1000),
)
def test_phi_n_martingale_exponent_property(ts, ws, seed):
    det = affine_model(1, linear_drift(np.array([[-0.7]])), 0.0, gaussian_base(), summary="det")
    lam = DualMeasure.from_atoms([(t, [w]) for t, w in zip(ts, ws)])
    traj = simulate(det, [0.8], 9, 0.0, seed)
    assert _pair(traj, lam) - phi_n(det, [0.8], 0.0, traj, lam) == pytest.approx(0.0, abs=1e-10)


def test_phi_limit_free_gaussian_terminal_atom():
    m = preset_model("gaussian-free")
    f = Trajectory(np.zeros((21, 1)))
    lam = DualMeasure.point_mass(1.0, 0.8)
    # <x, lam> + int_0^1 (0.8)^2/2 ds
    assert phi_limit(m, [0.5], 0.0, f, lam) == pytest.approx(0.5 * 0.8 + 0.32, abs=1e-12)
    # interior atom: the tail vanishes past it
    lam_half = DualMeasure.point_mass(0.5, 0.8)
    assert phi_limit(m, [0.5], 0.0, f, lam_half) == pytest.approx(0.5 * 0.8 + 0.16, abs=1e-12)


def test_phi_limit_ou_against_closed_form():
    from ldscheme.action import limit_ode

    m = preset_model("gaussian-ou")
    f = limit_ode(m, [1.0], steps=2000)
    alpha = 0.6
    lam = DualMeasure.point_mass(1.0, alpha)
    # cgf(f(s), alpha) = -alpha e^{-s} + alpha^2/2 along the flow
    expect = 1.0 * alpha + (-alpha * (1 - np.exp(-1.0)) + 0.5 * alpha**2)
    assert phi_limit(m, [1.0], 0.0, f, lam) == pytest.approx(expect, abs=1e-7)


@pytest.mark.parametrize("fn", [phi_n, phi_limit], ids=["phi_n", "phi_limit"])
@pytest.mark.parametrize(
    "model_dim, path_dim, measure_dim, message",
    [
        # a 2-D path used to give the value of its first coordinate alone
        (1, 2, 1, "path dim 2 does not match model dim 1"),
        # a 1-D path used to fail in numpy with "shapes not aligned"
        (2, 1, 2, "path dim 1 does not match model dim 2"),
        (1, 1, 2, "measure dim 2 does not match model dim 1"),
    ],
    ids=["path-2-on-1", "path-1-on-2", "measure-2-on-1"],
)
def test_dual_functionals_reject_path_or_measure_of_another_dim(fn, model_dim, path_dim, measure_dim, message):
    m = affine_model(model_dim, linear_drift(-np.eye(model_dim)), 1.0, gaussian_base())
    traj = Trajectory(np.zeros((11, path_dim)))
    lam = DualMeasure.point_mass(1.0, np.full(measure_dim, 0.5))
    with pytest.raises(ValueError, match=message):
        fn(m, np.ones(model_dim), 0.0, traj, lam)


def test_coupling_gap_bound_holds_per_realization():
    m = preset_model("gaussian-ou")
    gaps, bounds = coupled_perturbation_gaps(m, [1.0], 50, 0.5, seed=3, realizations=200)
    assert gaps.shape == bounds.shape == (200,)
    assert np.all(gaps <= bounds + 1e-12)
    assert np.all(gaps > 0)


@pytest.mark.parametrize("preset", ["gaussian-free", "gaussian-ou", "logistic", "bernoulli-walk"])
def test_coupling_gap_is_simulates_gap(preset):
    # the coupled chains are stepper runs from one seed at a and at 0, so at
    # one realization the gap is the sup gap between simulate's two paths
    m = preset_model(preset)
    gaps, bounds = coupled_perturbation_gaps(m, [0.2], 10, 0.5, seed=3)
    t_a = simulate(m, [0.2], 10, 0.5, 3)
    t_0 = simulate(m, [0.2], 10, 0.0, 3)
    assert gaps[0] == np.max(np.linalg.norm(t_a.knots - t_0.knots, axis=1))
    if preset == "gaussian-free":
        assert gaps[0] == pytest.approx(0.2545, abs=5e-5)
    # and the certificate holds on every row of a many-row run
    gaps, bounds = coupled_perturbation_gaps(m, [0.2], 50, 0.5, seed=3, realizations=200)
    assert np.all(gaps <= bounds)


def test_coupling_gap_linear_in_amplitude_for_linear_drift():
    m = preset_model("gaussian-ou")
    g1, _ = coupled_perturbation_gaps(m, [1.0], 40, 0.5, seed=9, realizations=50)
    g2, _ = coupled_perturbation_gaps(m, [1.0], 40, 0.25, seed=9, realizations=50)
    assert np.allclose(g1, 2.0 * g2, rtol=1e-9)


def test_coupling_gap_single_realization():
    m = preset_model("gaussian-ou")
    gaps, bounds = coupled_perturbation_gaps(m, [1.0], 30, 0.5, seed=2)
    assert gaps.shape == bounds.shape == (1,)
    assert 0 < gaps[0] <= bounds[0]


def test_coupling_rejects_non_affine():
    src = preset_model("gaussian-free")
    from ldscheme.kernel import KernelModel

    plain = KernelModel(dim=1, sampler=src.sampler, cgf=src.cgf, cgf_grad=src.cgf_grad, summary="plain")
    with pytest.raises(TypeError):
        coupled_perturbation_gaps(plain, [0.0], 10, 0.5, seed=0, realizations=3)


def test_save_load_roundtrip(tmp_path):
    rng = default_rng(12)
    traj = Trajectory(rng.normal(size=(9, 2)))
    path = tmp_path / "traj.csv"
    save_trajectory(traj, path)
    back = load_trajectory(path)
    assert np.array_equal(back.knots, traj.knots)
    header = path.read_text().splitlines()[0]
    assert header == "t,x1,x2"


def test_load_rejects_bad_files(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("time,x1\n0.0,1.0\n1.0,2.0\n")
    with pytest.raises(ValueError):
        load_trajectory(p)
    p2 = tmp_path / "nonuniform.csv"
    p2.write_text("t,x1\n0.0,1.0\n0.3,2.0\n1.0,3.0\n")
    with pytest.raises(ValueError):
        load_trajectory(p2)


def test_package_exports_each_name_once():
    import ldscheme

    names = ldscheme.__all__
    assert len(names) == len(set(names)) == 58
    assert [name for name in names if not hasattr(ldscheme, name)] == []
    assert "SchemeRun" not in names and not hasattr(ldscheme, "SchemeRun")
