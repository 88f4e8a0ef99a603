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
alpha = 0.
Hessians of models without cgf_hess use kernel.HESS_FD_STEP.

Smoothing the cumulant with a Gaussian term (amplitude a > 0) makes the
conjugate finite everywhere with the explicit quadratic ceiling
(|z| + D)^2 / (2 a^2), D any bound on the increment mean norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernel
from .kernel import KernelModel

CONVERGED = "converged"
DIVERGENT = "divergent"
MAX_ITERATIONS = "max-iterations"
STATUSES = (CONVERGED, DIVERGENT, MAX_ITERATIONS)
# ConjugateRows.status holds each row's outcome as an int8 index into STATUSES
_CONVERGED_CODE, _DIVERGENT_CODE, _MAX_ITERATIONS_CODE = range(len(STATUSES))

# Newton ascent controls.  Convergence is declared at gradient norm
# <= GRAD_TOL_SCALE * (1 + |z|), after at most MAX_ITER iterations, with
# steps capped at MAX_STEP.  Iterates are capped at norm NORM_CAP; hitting
# the cap while the objective has been strictly increasing over the
# trailing WINDOW iterations classifies the problem as divergent, otherwise
# the solve ends as max-iterations.
GRAD_TOL_SCALE = 1e-10
MAX_ITER = 200
NORM_CAP = 1e3
MAX_STEP = 100.0
WINDOW = 20


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

    status holds each row's outcome as an int8 code, its index in STATUSES:
    0 converged, 1 divergent, 2 max-iterations, so np.bincount(status,
    minlength=3) counts them.  Divergent rows have value +inf and a NaN
    argmax row.  row(i) gives the outcome by name.
    """

    value: np.ndarray
    argmax: np.ndarray
    status: np.ndarray
    iterations: np.ndarray
    grad_norm: np.ndarray

    def row(self, i: int) -> ConjugateResult:
        status = STATUSES[self.status[i]]
        argmax = None if status == DIVERGENT else self.argmax[i].copy()
        return ConjugateResult(float(self.value[i]), argmax, status, int(self.iterations[i]), float(self.grad_norm[i]))


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
        if p is not None and np.isfinite(p).all() and float(p @ grad) > 0.0:
            return p
        ridge = scale * 1e-8 if ridge == 0.0 else ridge * 100.0
    return grad.copy()


def _ascent_directions(hess, grad):
    """Stacked Newton directions and their slopes <grad, p>; rows whose plain solve fails get _solve_ascent."""
    try:
        p = np.linalg.solve(hess, grad[..., None])[..., 0]
    except np.linalg.LinAlgError:  # some row is singular: redo every row on its own
        p = np.full_like(grad, np.nan)
    slope = kernel._dot_rows(grad, p)
    ok = np.isfinite(p).all(axis=1) & (slope > 0.0)
    if not ok.all():
        for i in np.flatnonzero(~ok):
            p[i] = _solve_ascent(hess[i], grad[i])
        slope = kernel._dot_rows(grad, p)
    return p, slope


def _unfilled_rows(n: int, d: int) -> ConjugateRows:
    """A ConjugateRows for n rows whose entries the solve writes as the rows end."""
    return ConjugateRows(
        value=np.empty(n),
        argmax=np.empty((n, d)),
        status=np.empty(n, dtype=np.int8),
        iterations=np.empty(n, dtype=int),
        grad_norm=np.empty(n),
    )


def fenchel_rows(model: KernelModel, ys, zs, a=0.0) -> ConjugateRows:
    """Conjugates of cgf_a(y_i, .) at z_i for every row, by one damped Newton ascent.

    Maximizes h_i(alpha) = <z_i, alpha> - cgf(y_i, alpha) - a^2 |alpha|^2 / 2
    on all rows at once: stacked Newton solves, steps capped at max_step,
    and Armijo backtracking run by row mask.  Each row keeps its own
    tolerance, best-so-far value, trailing-window divergence test and
    status.  Every row starts at alpha = 0.  For d = 1 a row's result is bit
    for bit its one-row solve; for d > 1 the stacked matrix products may
    round differently in the last bit.

    A row with |z_i| beyond about 1.3e154 ends divergent (value +inf, a NaN
    argmax, 0 iterations and gradient norm +inf) before the first step: its
    tolerance overflows, and an infinite tolerance would certify any
    gradient.  Divergent there means out of the solve's range, not a
    conjugate shown to be +inf.

    The live rows' state is kept compacted, in row order, and the model's
    callbacks get those arrays.  The first cgf value and the first cgf_grad
    value of the call, and every cgf_hess value, must have the shapes (m,),
    (m, d) and (m, d, d) of their m rows: any other shape, a scalar
    included, is a ValueError naming the callback.  When every row ends
    converged at the same gradient test, the live arrays are the result,
    with status np.zeros(N, np.int8); otherwise each row is written to the
    result when it ends.
    """
    amp = kernel._as_real(a, "a", 0)
    aa = amp * amp
    ys = kernel._as_reals(ys, "ys", ("N", model.dim))
    zs = kernel._as_reals(zs, "zs", ys.shape)
    n, d = zs.shape
    with np.errstate(over="ignore"):
        tol = GRAD_TOL_SCALE * (1.0 + kernel._row_norms(zs))

    def objective(y, z, alpha, first=False):
        c = model.cgf(y, alpha)
        if first:  # the first value of each callback is checked for its (m,) shape
            c = kernel._block("cgf", c, y.shape[:1])
        h = kernel._dot_rows(z, alpha) - c
        # at a = 0 the smoothing term is +0.0 (|alpha| stays below NORM_CAP + MAX_STEP),
        # and subtracting +0.0 changes no value, -0.0 included
        if aa > 0.0:
            h = h - 0.5 * aa * kernel._dot_rows(alpha, alpha)
        return h

    def gradient(y, z, alpha, first=False):
        g = model.cgf_grad(y, alpha)
        if first:
            g = kernel._block("cgf_grad", g, y.shape)
        return z - g - aa * alpha

    out = None

    def finish(rows, status, it, gnorm, value, argmax):
        nonlocal out
        if out is None:
            out = _unfilled_rows(n, d)
        out.status[rows] = status
        out.iterations[rows] = it
        out.grad_norm[rows] = gnorm
        out.value[rows] = value
        out.argmax[rows] = argmax

    row = np.arange(n)
    ys, zs = ys.copy(), zs.copy()  # the callbacks never see the caller's arrays
    if not np.isfinite(tol).all():
        huge = ~np.isfinite(tol)
        finish(row[huge], _DIVERGENT_CODE, 0, np.inf, np.inf, np.nan)
        row, ys, zs, tol = row[~huge], ys[~huge], zs[~huge], tol[~huge]
    alpha = np.zeros(zs.shape)
    h = objective(ys, zs, alpha, first=True)
    finite = np.isfinite(h)
    if not finite.all():
        h[~finite] = 0.0

    # live rows: result row, y, z, tolerance, alpha, h, trailing run of
    # strict increases of h, best value and its alpha
    best_val = np.where(h > 0.0, h, 0.0)
    live = [row, ys, zs, tol, alpha, h, np.zeros(row.size, dtype=np.int64), best_val, np.zeros(zs.shape)]
    for it in range(1, MAX_ITER + 1):
        row, y, z, tl, al, hv, run, bv, ba = live
        if row.size == 0:
            break
        grad = gradient(y, z, al, first=it == 1)
        gnorm = kernel._row_norms(grad)
        done = gnorm <= tl
        if done.all():  # no row is left to compact
            if out is None:  # every row ends here, in row order
                status = np.zeros(n, np.int8)
                return ConjugateRows(value=hv, argmax=al, status=status, iterations=np.full(n, it), grad_norm=gnorm)
            finish(row, _CONVERGED_CODE, it, gnorm, hv, al)
            return out
        if done.any():
            finish(row[done], _CONVERGED_CODE, it, gnorm[done], hv[done], al[done])
            live, grad, gnorm = [v[~done] for v in live], grad[~done], gnorm[~done]
            row, y, z, tl, al, hv, run, bv, ba = live

        hess = kernel.cgf_hess_rows(model, y, al)
        if aa > 0.0:
            hess = hess + aa * np.eye(d)
        p, slope = _ascent_directions(hess, grad)
        with np.errstate(over="ignore"):
            pnorm = kernel._row_norms(p)
        # a Newton direction that overflowed (flat Hessian) becomes the
        # longest admissible gradient step; a NaN or inf norm fails the test
        if not (pnorm <= MAX_STEP).all():
            blown = ~np.isfinite(pnorm)
            if blown.any():
                p[blown] = grad[blown] * (MAX_STEP / gnorm[blown])[:, None]
            long_ = ~blown & (pnorm > MAX_STEP)
            if long_.any():
                p[long_] = p[long_] * (MAX_STEP / pnorm[long_])[:, None]
            slope = kernel._dot_rows(grad, p)

        # backtracking line search on the concave objectives, by row mask;
        # pending rows: index into the live rows, y, z, alpha, p, h, slope.
        # The accepted mask and the new alpha and h are made when some row
        # needs a shorter step, as copies of the row's start.
        accepted = None
        pending = [np.arange(row.size), y, z, al, p, hv, slope]
        step = 1.0
        for _ in range(40):
            at, py, pz, pa, pp, ph, ps = pending
            cand = pa + step * pp
            moved = (cand != pa).any(axis=1)
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
            if accepted is None:
                accepted, new_al, new_h = np.zeros(row.size, dtype=bool), al.copy(), hv.copy()
            accepted[at[ok]] = True
            new_al[at[ok]] = cand[ok]
            new_h[at[ok]] = h_cand[ok]
            pending = [v[~ok] for v in pending]
            step *= 0.5
        if accepted is None:  # no row moved at the full step
            accepted, new_al, new_h = np.zeros(row.size, dtype=bool), al, hv
        # a stalled line search ends the row where it stands
        if not accepted.all():
            stalled = ~accepted
            finish(row[stalled], _MAX_ITERATIONS_CODE, it, gnorm[stalled], bv[stalled], ba[stalled])
            live, new_al, new_h, gnorm = [v[accepted] for v in live], new_al[accepted], new_h[accepted], gnorm[accepted]
            row, y, z, tl, al, hv, run, bv, ba = live

        run = np.where(new_h > hv, run + 1, 0)
        better = new_h > bv
        bv = np.where(better, new_h, bv)
        ba = np.where(better[:, None], new_al, ba)
        live = [row, y, z, tl, new_al, new_h, run, bv, ba]
        # |alpha| <= d max_i |alpha_i|, so no row is capped while that bound stays at NORM_CAP / 2
        if amp == 0.0 and d * np.abs(new_al).max(initial=0.0) > 0.5 * NORM_CAP:
            capped = kernel._row_norms(new_al) > NORM_CAP
            # divergent when h rose strictly over the whole trailing window
            window = min(it + 1, WINDOW + 1) - 1
            divergent = capped & (run >= window)
            stuck = capped & ~divergent
            finish(row[divergent], _DIVERGENT_CODE, it, gnorm[divergent], np.inf, np.nan)
            finish(row[stuck], _MAX_ITERATIONS_CODE, it, gnorm[stuck], bv[stuck], ba[stuck])
            live = [v[~capped] for v in live]

    row, y, z, _, al, _, _, bv, ba = live
    if row.size:
        finish(row, _MAX_ITERATIONS_CODE, MAX_ITER, kernel._row_norms(gradient(y, z, al)), bv, ba)
    return out if out is not None else _unfilled_rows(0, d)


def perturbed_fenchel(model: KernelModel, a, y, z) -> ConjugateResult:
    """Conjugate of the Gaussian-smoothed cumulant at z: fenchel_rows on one row.

    a = 0 gives the plain conjugate of cgf(y, .).  value >= 0 (alpha = 0 is
    feasible), finite for every z when a > 0; converged results satisfy
    |z - cgf_grad(y, argmax)| <= tolerance.
    """
    y = kernel._as_reals(y, "y", (model.dim,))
    z = kernel._as_reals(z, "z", (model.dim,))
    return fenchel_rows(model, y[None], z[None], a=a).row(0)
