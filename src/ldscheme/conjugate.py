"""Convex conjugates of increment cumulant functions.

The central object is the pointwise conjugate

    conj(y, z) = sup_alpha [ <z, alpha> - cgf(y, alpha) ]

which prices the local cost of moving with velocity z from state y.
fenchel_rows computes it for a stack of (y_i, z_i) rows in one damped
Newton ascent on the concave objectives (stacked linear solves, Armijo
backtracking by row mask).  Every row ends with its own status, iteration
count and gradient norm, classified exactly as one of three outcomes:
converged (finite value and an interior maximizer), divergent (the
objective increases without bound, so the conjugate is +inf), and
max-iterations (neither certificate reached).  Rows share no solver state,
so the rows solved alongside one cannot change its outcome;
perturbed_fenchel is the one-row case, and a = 0 gives the plain conjugate.

Every solve runs one fixed configuration, the module constants
GRAD_TOL_SCALE, MAX_ITER, NORM_CAP, MAX_STEP and WINDOW, starting from
alpha = 0; dominating_point_halfspace brackets its tilt below BRACKET_CAP.
Hessians of models without cgf_hess use kernel.HESS_FD_STEP.

Smoothing the cumulant with a Gaussian term (amplitude a > 0) makes the
conjugate finite everywhere with the explicit quadratic ceiling
(|z| + D)^2 / (2 a^2), D any bound on the increment mean norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import TiltUnreachableError
from . import kernel
from .kernel import KernelModel, perturbation_amplitude

CONVERGED = "converged"
DIVERGENT = "divergent"
MAX_ITERATIONS = "max-iterations"

# Newton ascent controls.  Convergence is declared at gradient norm
# <= GRAD_TOL_SCALE * (1 + |z|), after at most MAX_ITER iterations, with
# steps capped at MAX_STEP.  Iterates are capped at norm NORM_CAP; hitting
# the cap while the objective has been strictly increasing over the
# trailing WINDOW iterations classifies the problem as divergent, otherwise
# the solve ends as max-iterations.  dominating_point_halfspace brackets
# its tilt below BRACKET_CAP.
GRAD_TOL_SCALE = 1e-10
MAX_ITER = 200
NORM_CAP = 1e3
MAX_STEP = 100.0
WINDOW = 20
BRACKET_CAP = 1e3


@dataclass
class ConjugateResult:
    value: float
    argmax: Optional[np.ndarray]
    status: str
    iterations: int
    grad_norm: float


@dataclass
class ConjugateRows:
    """Per-row results of fenchel_rows, as arrays over the N rows.

    status holds CONVERGED, DIVERGENT or MAX_ITERATIONS for each row;
    divergent rows have value +inf and a NaN argmax row.
    """

    value: np.ndarray
    argmax: np.ndarray
    status: np.ndarray
    iterations: np.ndarray
    grad_norm: np.ndarray

    def row(self, i: int) -> ConjugateResult:
        status = str(self.status[i])
        argmax = None if status == DIVERGENT else self.argmax[i].copy()
        return ConjugateResult(float(self.value[i]), argmax, status, int(self.iterations[i]), float(self.grad_norm[i]))


@dataclass
class DominatingPointResult:
    """Boundary point and tilt for a half-space target.

    point is the tilted mean on the boundary, multiplier the tilt vector
    along the outward normal, and level the conjugate cost at point.
    """

    point: np.ndarray
    multiplier: np.ndarray
    level: float
    t: float


def _solve_ascent(hess, grad):
    """Newton direction for maximizing; falls back to gradient ascent."""
    d = len(grad)
    ridge = 0.0
    scale = max(np.trace(hess) / d, 1e-8)
    for _ in range(6):
        try:
            p = np.linalg.solve(hess + ridge * np.eye(d), grad)
        except np.linalg.LinAlgError:
            p = None
        if p is not None and np.all(np.isfinite(p)) and float(p @ grad) > 0.0:
            return p
        ridge = scale * 1e-8 if ridge == 0.0 else ridge * 100.0
    return grad.copy()


def _ascent_directions(hess, grad):
    """Stacked Newton directions; rows whose plain solve fails get _solve_ascent."""
    try:
        p = np.linalg.solve(hess, grad[..., None])[..., 0]
    except np.linalg.LinAlgError:  # some row is singular: redo every row on its own
        p = np.full_like(grad, np.nan)
    ok = np.all(np.isfinite(p), axis=1) & (_dot_rows(p, grad) > 0.0)
    for i in np.flatnonzero(~ok):
        p[i] = _solve_ascent(hess[i], grad[i])
    return p


def _dot_rows(u, v):
    return np.einsum("ij,ij->i", u, v)


def fenchel_rows(model: KernelModel, ys, zs, a=0.0) -> ConjugateRows:
    """Conjugates of cgf_a(y_i, .) at z_i for every row, by one damped Newton ascent.

    Maximizes h_i(alpha) = <z_i, alpha> - cgf(y_i, alpha) - a^2 |alpha|^2 / 2
    on all rows at once: stacked Newton solves, steps capped at max_step,
    and Armijo backtracking run by row mask.  Each row keeps its own
    tolerance, best-so-far value, trailing-window divergence test and
    status.  Every row starts at alpha = 0.  For d = 1 a row's result is bit
    for bit its one-row solve; for d > 1 the stacked matrix products may
    round differently in the last bit.

    The live rows' state is kept compacted, in row order, and the model's
    callbacks get those arrays; a row is written to the result when it ends.
    """
    amp = perturbation_amplitude(a)
    aa = amp * amp
    ys = kernel._as_rows(ys, model.dim, "ys")
    zs = kernel._as_rows(zs, model.dim, "zs")
    if ys.shape != zs.shape:
        raise ValueError(f"ys and zs must have the same shape, got {ys.shape} and {zs.shape}")
    n, d = zs.shape
    tol = GRAD_TOL_SCALE * (1.0 + np.linalg.norm(zs, axis=1))

    def objective(y, z, alpha):
        h = _dot_rows(z, alpha) - kernel.cgf_rows(model, y, alpha)
        # at a = 0 the smoothing term is +0.0 (|alpha| stays below NORM_CAP + MAX_STEP),
        # and subtracting +0.0 changes no value, -0.0 included
        if aa > 0.0:
            h = h - 0.5 * aa * _dot_rows(alpha, alpha)
        return h

    def gradient(y, z, alpha):
        return z - kernel.cgf_grad_rows(model, y, alpha) - aa * alpha

    ys, zs = ys.copy(), zs.copy()  # the callbacks never see the caller's arrays
    alpha = np.zeros((n, d))
    h = objective(ys, zs, alpha)
    h[~np.isfinite(h)] = 0.0
    best_val = np.where(h > 0.0, h, 0.0)
    out = ConjugateRows(
        value=best_val.copy(),
        argmax=np.zeros((n, d)),
        status=np.full(n, MAX_ITERATIONS),
        iterations=np.full(n, MAX_ITER),
        grad_norm=np.zeros(n),
    )

    def finish(rows, status, it, gnorm, value, argmax):
        out.status[rows] = status
        out.iterations[rows] = it
        out.grad_norm[rows] = gnorm
        out.value[rows] = value
        out.argmax[rows] = argmax

    # live rows: result row, y, z, tolerance, alpha, h, trailing run of
    # strict increases of h, best value and its alpha
    live = [np.arange(n), ys, zs, tol, alpha, h, np.zeros(n, dtype=np.int64), best_val, np.zeros((n, d))]
    for it in range(1, MAX_ITER + 1):
        row, y, z, tl, al, hv, run, bv, ba = live
        if row.size == 0:
            break
        grad = gradient(y, z, al)
        gnorm = np.linalg.norm(grad, axis=1)
        done = gnorm <= tl
        if done.all():  # no row is left to compact
            finish(row, CONVERGED, it, gnorm, hv, al)
            live = [v[:0] for v in live]
            break
        if done.any():
            finish(row[done], CONVERGED, it, gnorm[done], hv[done], al[done])
            live, grad, gnorm = [v[~done] for v in live], grad[~done], gnorm[~done]
            row, y, z, tl, al, hv, run, bv, ba = live

        hess = kernel.cgf_hess_rows(model, y, al)
        if aa > 0.0:
            hess = hess + aa * np.eye(d)
        p = _ascent_directions(hess, grad)
        with np.errstate(over="ignore"):
            pnorm = np.linalg.norm(p, axis=1)
        # a Newton direction that overflowed (flat Hessian) becomes the
        # longest admissible gradient step
        blown = ~np.isfinite(pnorm)
        if blown.any():
            p[blown] = grad[blown] * (MAX_STEP / gnorm[blown])[:, None]
        long_ = ~blown & (pnorm > MAX_STEP)
        if long_.any():
            p[long_] = p[long_] * (MAX_STEP / pnorm[long_])[:, None]

        # backtracking line search on the concave objectives, by row mask;
        # pending rows: index into the live rows, y, z, alpha, p, h, slope
        slope = _dot_rows(grad, p)
        accepted = np.zeros(row.size, dtype=bool)
        new_al, new_h = al.copy(), hv.copy()
        pending = [np.arange(row.size), y, z, al, p, hv, slope]
        step = 1.0
        for _ in range(40):
            at, py, pz, pa, pp, ph, ps = pending
            cand = pa + step * pp
            moved = np.any(cand != pa, axis=1)
            if not moved.all():
                pending, cand = [v[moved] for v in pending], cand[moved]
                at, py, pz, pa, pp, ph, ps = pending
            if at.size == 0:
                break
            h_cand = objective(py, pz, cand)
            ok = np.isfinite(h_cand) & (h_cand >= ph + 1e-4 * step * ps)
            if at.size == row.size and ok.all():  # every row takes this step
                accepted, new_al, new_h = ok, cand, h_cand
                break
            accepted[at[ok]] = True
            new_al[at[ok]] = cand[ok]
            new_h[at[ok]] = h_cand[ok]
            pending = [v[~ok] for v in pending]
            step *= 0.5
        # a stalled line search ends the row where it stands
        if not accepted.all():
            stalled = ~accepted
            finish(row[stalled], MAX_ITERATIONS, it, gnorm[stalled], bv[stalled], ba[stalled])
            live, new_al, new_h, gnorm = [v[accepted] for v in live], new_al[accepted], new_h[accepted], gnorm[accepted]
            row, y, z, tl, al, hv, run, bv, ba = live

        run = np.where(new_h > hv, run + 1, 0)
        better = new_h > bv
        bv = np.where(better, new_h, bv)
        ba = np.where(better[:, None], new_al, ba)
        live = [row, y, z, tl, new_al, new_h, run, bv, ba]
        # |alpha| <= d max_i |alpha_i|, so no row is capped while that bound stays at NORM_CAP / 2
        if amp == 0.0 and d * np.abs(new_al).max(initial=0.0) > 0.5 * NORM_CAP:
            capped = np.linalg.norm(new_al, axis=1) > NORM_CAP
            # divergent when h rose strictly over the whole trailing window
            window = min(it + 1, WINDOW + 1) - 1
            divergent = capped & (run >= window)
            stuck = capped & ~divergent
            finish(row[divergent], DIVERGENT, it, gnorm[divergent], np.inf, np.nan)
            finish(row[stuck], MAX_ITERATIONS, it, gnorm[stuck], bv[stuck], ba[stuck])
            live = [v[~capped] for v in live]

    row, y, z, _, al, _, _, bv, ba = live
    if row.size:
        finish(row, MAX_ITERATIONS, MAX_ITER, np.linalg.norm(gradient(y, z, al), axis=1), bv, ba)
    return out


def perturbed_fenchel(model: KernelModel, a, y, z) -> ConjugateResult:
    """Conjugate of the Gaussian-smoothed cumulant at z: fenchel_rows on one row.

    a = 0 gives the plain conjugate of cgf(y, .).  value >= 0 (alpha = 0 is
    feasible), finite for every z when a > 0; converged results satisfy
    |z - cgf_grad(y, argmax)| <= tolerance.
    """
    y = kernel._as_vector(y, model.dim, "y")
    z = kernel._as_vector(z, model.dim, "z")
    return fenchel_rows(model, y[None], z[None], a=a).row(0)


def dominating_point_halfspace(model: KernelModel, y, xi, c) -> DominatingPointResult:
    """Cheapest boundary point of {<z, xi> >= c} under the local cost at y.

    Solves <cgf_grad(y, t xi), xi> = c for t >= 0 (monotone in t by
    convexity), then reports the tilted mean x0 = cgf_grad(y, t* xi), the
    tilt t* xi, and the cost level <x0, t* xi> - cgf(y, t* xi), which equals
    perturbed_fenchel(model, 0.0, y, x0).value.

    The normal is normalized to unit length (c rescaled accordingly), which
    leaves the half-space unchanged.  Requires the increment mean at y to
    lie strictly outside the half-space; raises TiltUnreachableError when no
    tilt below the bracket cap reaches level c.
    """
    from scipy.optimize import brentq

    y = kernel._as_vector(y, model.dim, "y")
    xi = kernel._as_vector(xi, model.dim, "xi")
    norm = float(np.linalg.norm(xi))
    if norm <= 0.0:
        raise ValueError("xi must be nonzero")
    xi = xi / norm
    c = float(c) / norm

    mean = kernel.cgf_grad(model, y, np.zeros(model.dim))
    if float(mean @ xi) >= c:
        raise ValueError(
            f"half-space covers the increment mean (<mean, xi> = {float(mean @ xi):.6g} >= {c:.6g}); "
            "the target is not rare from this state"
        )

    def g(t):
        return float(kernel.cgf_grad(model, y, t * xi) @ xi) - c

    hi = 1.0
    while g(hi) < 0.0:
        hi *= 2.0
        if hi > BRACKET_CAP:
            raise TiltUnreachableError(
                f"no tilt below {BRACKET_CAP:g} reaches level {c:g}; "
                "the boundary value is unreachable by tilting"
            )
    t_star = brentq(g, 0.0, hi, xtol=1e-12, maxiter=200)
    tilt = t_star * xi
    point = kernel.cgf_grad(model, y, tilt)
    level = float(point @ tilt) - kernel.cgf(model, y, tilt)
    return DominatingPointResult(point=point, multiplier=tilt, level=level, t=float(t_star))
