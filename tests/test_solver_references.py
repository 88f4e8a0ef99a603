"""The compacted conjugate solve and the quadrature pass against their row-mask references.

_masked_fenchel_rows and _looped_quadrature_pass are the earlier forms of
conjugate.fenchel_rows and action._quadrature_pass: the solve re-indexed
every live row from the full arrays on each iteration and wrote each status
mask into the result, and the pass took one pair of cgf_rows calls per
coordinate of the y-gradient and classified every node's status on every
call.  Both rewrites keep every floating-point operation with its operands
and order, so every field must match bit for bit: the floats are compared as
their raw bytes, which tells -0.0 from 0.0 (the NaN argmax rows of divergent
rows are the same np.nan on both sides).  The ou-signed-zero-gradient case
ends rows at raw gradient entries of -0.0, which the gradient's a = 0 term
- aa * alpha turns into +0.0; its outputs must match the reference's bytes
with that term kept on both sides.
"""

import numpy as np
import pytest
from numpy.random import default_rng

from ldscheme import conjugate, kernel
from ldscheme.action import _NODES, _WEIGHTS, Y_FD_STEP, _quadrature_pass
from ldscheme.conjugate import CONVERGED, DIVERGENT, MAX_ITERATIONS, ConjugateRows, fenchel_rows
from ldscheme.kernel import KernelModel, affine_model, gaussian_base, linear_drift, preset_model


def _masked_fenchel_rows(model, ys, zs, a=0.0):
    amp = kernel.perturbation_amplitude(a)
    aa = amp * amp
    ys = kernel._as_rows(ys, model.dim, "ys")
    zs = kernel._as_rows(zs, model.dim, "zs")
    n, d = zs.shape
    tol = conjugate.GRAD_TOL_SCALE * (1.0 + np.linalg.norm(zs, axis=1))
    _dot_rows = conjugate._dot_rows

    def objective(rows, alpha):
        return (_dot_rows(zs[rows], alpha) - kernel.cgf_rows(model, ys[rows], alpha)
                - 0.5 * aa * _dot_rows(alpha, alpha))

    def gradient(rows, alpha):
        return zs[rows] - kernel.cgf_grad_rows(model, ys[rows], alpha) - aa * alpha

    every = np.arange(n)
    alpha = np.zeros((n, d))
    h = objective(every, alpha)
    h[~np.isfinite(h)] = 0.0
    best_val = np.where(h > 0.0, h, 0.0)
    best_arg = np.zeros((n, d))
    rising = np.zeros(n, dtype=np.int64)
    out = ConjugateRows(
        value=best_val.copy(),
        argmax=best_arg.copy(),
        status=np.full(n, MAX_ITERATIONS),
        iterations=np.full(n, conjugate.MAX_ITER),
        grad_norm=np.zeros(n),
    )

    def finish(rows, status, it, gnorm, value=None, argmax=None):
        out.status[rows] = status
        out.iterations[rows] = it
        out.grad_norm[rows] = gnorm
        out.value[rows] = best_val[rows] if value is None else value
        out.argmax[rows] = best_arg[rows] if argmax is None else argmax

    live = every
    for it in range(1, conjugate.MAX_ITER + 1):
        if live.size == 0:
            break
        al = alpha[live]
        grad = gradient(live, al)
        gnorm = np.linalg.norm(grad, axis=1)
        done = gnorm <= tol[live]
        finish(live[done], CONVERGED, it, gnorm[done], h[live[done]], al[done])
        live, al, grad, gnorm = live[~done], al[~done], grad[~done], gnorm[~done]
        if live.size == 0:
            break

        hess = kernel.cgf_hess_rows(model, ys[live], al)
        if aa > 0.0:
            hess = hess + aa * np.eye(d)
        p = conjugate._ascent_directions(hess, grad)
        with np.errstate(over="ignore"):
            pnorm = np.linalg.norm(p, axis=1)
        blown = ~np.isfinite(pnorm)
        p[blown] = grad[blown] * (conjugate.MAX_STEP / gnorm[blown])[:, None]
        long_ = ~blown & (pnorm > conjugate.MAX_STEP)
        p[long_] = p[long_] * (conjugate.MAX_STEP / pnorm[long_])[:, None]

        slope = _dot_rows(grad, p)
        accepted = np.zeros(live.size, dtype=bool)
        new_al = al.copy()
        new_h = h[live]
        pending = np.arange(live.size)
        step = 1.0
        for _ in range(40):
            cand = al[pending] + step * p[pending]
            moved = np.any(cand != al[pending], axis=1)
            pending, cand = pending[moved], cand[moved]
            if pending.size == 0:
                break
            h_cand = objective(live[pending], cand)
            ok = np.isfinite(h_cand) & (h_cand >= h[live[pending]] + 1e-4 * step * slope[pending])
            accepted[pending[ok]] = True
            new_al[pending[ok]] = cand[ok]
            new_h[pending[ok]] = h_cand[ok]
            pending = pending[~ok]
            step *= 0.5
        finish(live[~accepted], MAX_ITERATIONS, it, gnorm[~accepted])
        live, new_al, new_h, gnorm = live[accepted], new_al[accepted], new_h[accepted], gnorm[accepted]

        rising[live] = np.where(new_h > h[live], rising[live] + 1, 0)
        alpha[live] = new_al
        h[live] = new_h
        better = new_h > best_val[live]
        best_val[live[better]] = new_h[better]
        best_arg[live[better]] = new_al[better]
        if amp == 0.0:
            capped = np.linalg.norm(new_al, axis=1) > conjugate.NORM_CAP
            window = min(it + 1, conjugate.WINDOW + 1) - 1
            divergent = capped & (rising[live] >= window)
            finish(live[divergent], DIVERGENT, it, gnorm[divergent], np.inf, np.nan)
            finish(live[capped & ~divergent], MAX_ITERATIONS, it, gnorm[capped & ~divergent])
            live = live[~capped]

    if live.size:
        finish(live, MAX_ITERATIONS, conjugate.MAX_ITER, np.linalg.norm(gradient(live, alpha[live]), axis=1))
    return out


def _looped_quadrature_pass(model, a, knots, gradient=False):
    nodes, weights = _NODES, _WEIGHTS
    m_seg = knots.shape[0] - 1
    d = knots.shape[1]
    n_q = len(nodes)
    dt = 1.0 / m_seg
    left, right = knots[:-1], knots[1:]
    slopes = (right - left) / dt
    ys = ((1.0 - nodes)[None, :, None] * left[:, None, :] + nodes[None, :, None] * right[:, None, :]).reshape(-1, d)
    zs = np.repeat(slopes, n_q, axis=0)
    res = _masked_fenchel_rows(model, ys, zs, a=a)

    status = res.status.reshape(m_seg, n_q)
    values = res.value.reshape(m_seg, n_q)
    is_div = status == DIVERGENT
    first_div = np.where(is_div.any(axis=1), is_div.argmax(axis=1), n_q)
    late = np.arange(n_q)[None, :] >= first_div[:, None]
    divergent = [int(k) for k in np.flatnonzero(first_div < n_q)]
    warnings = [(int(k), int(q)) for k, q in zip(*np.nonzero((status == MAX_ITERATIONS) & ~late))]

    acc = np.zeros(m_seg)
    for q in range(n_q):
        acc += weights[q] * values[:, q]
    seg_values = dt * acc
    seg_values[divergent] = np.inf
    if not gradient or divergent:
        return seg_values, None, divergent, warnings

    astar = res.argmax
    h = Y_FD_STEP
    cy = np.empty((m_seg * n_q, d))
    for i in range(d):
        up, dn = ys.copy(), ys.copy()
        up[:, i] += h
        dn[:, i] -= h
        cy[:, i] = -(kernel.cgf_rows(model, up, astar) - kernel.cgf_rows(model, dn, astar)) / (2.0 * h)
    cy = cy.reshape(m_seg, n_q, d)
    astar = astar.reshape(m_seg, n_q, d)
    grad = np.zeros((m_seg + 1, d))
    for q, (theta, w) in enumerate(zip(nodes, weights)):
        grad[1:] += dt * w * theta * cy[:, q] + w * astar[:, q]
    for q, (theta, w) in enumerate(zip(nodes, weights)):
        grad[:-1] += dt * w * (1.0 - theta) * cy[:, q] - w * astar[:, q]
    return seg_values, grad, divergent, warnings


def _linear_model(d, seed):
    rng = default_rng(seed)
    matrix = -np.eye(d) + 0.3 * rng.standard_normal((d, d))
    sigma = np.eye(d) + 0.2 * rng.standard_normal((d, d))
    return affine_model(d, linear_drift(matrix, 0.1 * rng.standard_normal(d)), sigma, gaussian_base())


def _stalling_model():
    """cgf alpha^2 / 2 whose reported gradient is off by y.

    A row with y != 0 heads for z - y, past the true maximizer z, so its line
    search stalls once no step along the reported gradient raises h; rows with
    y = 0 converge.  It has no cgf_hess, so its Hessian is the finite
    difference one.
    """
    return KernelModel(
        dim=1,
        sampler=lambda ys, rng: rng.standard_normal(ys.shape),
        cgf=lambda ys, alphas: 0.5 * np.sum(np.square(alphas), axis=-1),
        cgf_grad=lambda ys, alphas: alphas + ys,
        summary="stalls",
    )


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _assert_bits_equal(got, want):
    assert got.shape == want.shape and np.array_equal(_bits(got), _bits(want))


def _assert_rows_equal(got, want):
    _assert_bits_equal(got.value, want.value)
    _assert_bits_equal(got.argmax, want.argmax)
    assert np.array_equal(got.status, want.status)
    assert np.array_equal(got.iterations, want.iterations)
    _assert_bits_equal(got.grad_norm, want.grad_norm)
    assert got.status.dtype == want.status.dtype and got.iterations.dtype == want.iterations.dtype


def _walk_rows():
    rng = default_rng(3)
    zs = np.concatenate([[0.3, 1.5, 0.05, 0.6, 1.0, 0.0, -0.5, 0.9, 0.999], rng.uniform(-0.5, 1.5, 40)])[:, None]
    return np.zeros_like(zs), zs


def _batches():
    rng = default_rng(11)
    ou = preset_model("gaussian-ou")
    ys1, zs1 = rng.normal(size=(60, 1)), 2.0 * rng.normal(size=(60, 1))
    walk_ys, walk_zs = _walk_rows()
    cases = {
        "gaussian-ou": (ou, ys1, zs1, 0.0),
        "walk-in-and-out-of-support": (preset_model("bernoulli-walk"), walk_ys, walk_zs, 0.0),
        "walk-a-0.3": (preset_model("bernoulli-walk"), walk_ys, walk_zs, 0.3),
        "ou-a-0.3": (ou, ys1, zs1, 0.3),
        "stalls": (_stalling_model(), np.array([[0.0], [2.0], [0.0], [5.0], [-1.0]]), np.array([[0.5], [0.5], [1.0], [-1.0], [0.2]]), 0.0),
    }
    for d in (2, 3):
        cases[f"linear-{d}d"] = (_linear_model(d, d), rng.normal(size=(50, d)), 1.5 * rng.normal(size=(50, d)), 0.0)
    cases["linear-3d-a-0.3"] = (_linear_model(3, 3), rng.normal(size=(50, 3)), 1.5 * rng.normal(size=(50, 3)), 0.3)
    # the maximizer is exactly the drift -y, where z - cgf_grad is -0.0
    signed_ys = np.array([[-0.5], [-0.25], [-1.0], [-3.0], [0.0], [0.5]])
    cases["ou-signed-zero-gradient"] = (ou, signed_ys, np.full_like(signed_ys, -0.0), 0.0)
    return cases


@pytest.mark.parametrize("max_iter", [200, 15, 1])
@pytest.mark.parametrize("case", sorted(_batches()))
def test_compacted_solve_equals_the_row_mask_reference(case, max_iter, monkeypatch):
    monkeypatch.setattr(conjugate, "MAX_ITER", max_iter)
    model, ys, zs, a = _batches()[case]
    got = fenchel_rows(model, ys, zs, a=a)
    _assert_rows_equal(got, _masked_fenchel_rows(model, ys, zs, a=a))
    if case == "walk-in-and-out-of-support":
        expected = {200: {CONVERGED, DIVERGENT}, 15: {CONVERGED, DIVERGENT, MAX_ITERATIONS}, 1: {CONVERGED, MAX_ITERATIONS}}
        assert set(got.status) == expected[max_iter]
    if case == "stalls" and max_iter == 200:
        # row 1 stalls on its first line search, rows 3 and 4 on their second
        assert got.status.tolist() == [CONVERGED, MAX_ITERATIONS, CONVERGED, MAX_ITERATIONS, MAX_ITERATIONS]
        assert got.iterations.tolist() == [2, 1, 2, 2, 2]
        assert got.argmax[3, 0] == pytest.approx(-1.5)
    if case == "ou-signed-zero-gradient":
        # every row ends with a raw gradient of -0.0; where the argmax is negative the
        # gradient's term - aa * alpha = -(-0.0) turns it into +0.0
        g = zs - kernel.cgf_grad_rows(model, ys, got.argmax)
        assert np.signbit(g).all() and (got.argmax < 0.0).sum() == 4
        assert np.array_equal(np.signbit(g - 0.0 * got.argmax), got.argmax >= 0.0)


def _paths():
    rng = default_rng(5)
    ou, walk = preset_model("gaussian-ou"), preset_model("bernoulli-walk")
    # the walk's middle knots leave the slope range [0, 1] on some segments
    walk_knots = np.cumsum(np.concatenate([[0.0], rng.uniform(0.0, 1.0, 10) / 10]))[:, None]
    steep = walk_knots.copy()
    steep[4:] += 0.2
    return {
        "ou-1d": (ou, 0.0, np.cumsum(rng.normal(scale=0.3, size=(12, 1)), axis=0)),
        "ou-1d-a-0.3": (ou, 0.3, np.cumsum(rng.normal(scale=0.3, size=(12, 1)), axis=0)),
        "walk-1d": (walk, 0.0, walk_knots),
        "walk-1d-divergent": (walk, 0.0, steep),
        "linear-2d": (_linear_model(2, 2), 0.0, np.cumsum(rng.normal(scale=0.3, size=(11, 2)), axis=0)),
        "linear-3d": (_linear_model(3, 3), 0.0, np.cumsum(rng.normal(scale=0.3, size=(9, 3)), axis=0)),
    }


@pytest.mark.parametrize("max_iter", [200, 3])
@pytest.mark.parametrize("gradient", [False, True])
@pytest.mark.parametrize("case", sorted(_paths()))
def test_stacked_pass_equals_the_per_coordinate_reference(case, gradient, max_iter, monkeypatch):
    # three Newton iterations leave some nodes at max-iterations, which the pass reports as warnings
    monkeypatch.setattr(conjugate, "MAX_ITER", max_iter)
    solved = []

    def recording(*args, **kwargs):
        res = fenchel_rows(*args, **kwargs)
        solved.append(res.status.copy())
        return res

    monkeypatch.setattr(conjugate, "fenchel_rows", recording)
    model, a, knots = _paths()[case]
    seg, grad, divergent, warnings = _quadrature_pass(model, a, knots, gradient=gradient)
    ref_seg, ref_grad, ref_divergent, ref_warnings = _looped_quadrature_pass(model, a, knots, gradient=gradient)
    _assert_bits_equal(seg, ref_seg)
    assert divergent == ref_divergent and warnings == ref_warnings
    if ref_grad is None:
        assert grad is None
    else:
        _assert_bits_equal(grad, ref_grad)
    # the steep walk segment takes 12 iterations to prove divergent
    assert bool(divergent) == (case == "walk-1d-divergent" and max_iter == 200)
    assert bool(warnings) == (max_iter == 3 and case.startswith("walk"))
    # the walk cases with a node left unconverged classify the statuses; every other case skips that
    (status,) = solved
    unconverged = bool((status != CONVERGED).any())
    assert unconverged == (case == "walk-1d-divergent" or (max_iter == 3 and case.startswith("walk")))
