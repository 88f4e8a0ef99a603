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
so the rows solved alongside one cannot change its outcome; fenchel and
perturbed_fenchel are the one-row case.

Smoothing the cumulant with a Gaussian term (amplitude a > 0) makes the
conjugate finite everywhere with the explicit quadratic ceiling
(|z| + D)^2 / (2 a^2), D any bound on the increment mean norm; see
perturbed_conjugate_bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import brentq

from .errors import SingularSigmaError, TiltUnreachableError
from . import kernel
from .kernel import AffineNoiseModel, KernelModel, perturbation_amplitude

CONVERGED = "converged"
DIVERGENT = "divergent"
MAX_ITERATIONS = "max-iterations"


@dataclass(frozen=True)
class ConjugateSettings:
    """Newton ascent controls.

    Convergence is declared at gradient norm <= grad_tol_scale * (1 + |z|).
    Iterates are capped at norm_cap; hitting the cap while the objective has
    been strictly increasing over the trailing window classifies the problem
    as divergent, otherwise the solve ends as max-iterations.
    """

    grad_tol_scale: float = 1e-10
    max_iter: int = 200
    norm_cap: float = 1e3
    max_step: float = 100.0
    window: int = 20
    hess_fd_step: float = 1e-6
    bracket_cap: float = 1e3


DEFAULT_SETTINGS = ConjugateSettings()


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


def fenchel_rows(model: KernelModel, ys, zs, a=0.0, settings: ConjugateSettings = None, x0=None) -> ConjugateRows:
    """Conjugates of cgf_a(y_i, .) at z_i for every row, by one damped Newton ascent.

    Maximizes h_i(alpha) = <z_i, alpha> - cgf(y_i, alpha) - a^2 |alpha|^2 / 2
    on all rows at once: stacked Newton solves, steps capped at max_step,
    and Armijo backtracking run by row mask.  Each row keeps its own
    tolerance, best-so-far value, trailing-window divergence test and
    status.  For d = 1 a row's result is bit for bit its one-row solve; for
    d > 1 the stacked matrix products may round differently in the last
    bit.  x0 is an optional start, one row or one per row.
    """
    settings = settings or DEFAULT_SETTINGS
    amp = perturbation_amplitude(a)
    aa = amp * amp
    ys = kernel._as_rows(ys, model.dim, "ys")
    zs = kernel._as_rows(zs, model.dim, "zs")
    if ys.shape != zs.shape:
        raise ValueError(f"ys and zs must have the same shape, got {ys.shape} and {zs.shape}")
    n, d = zs.shape
    tol = settings.grad_tol_scale * (1.0 + np.linalg.norm(zs, axis=1))

    def objective(rows, alpha):
        return (_dot_rows(zs[rows], alpha) - kernel.cgf_rows(model, ys[rows], alpha)
                - 0.5 * aa * _dot_rows(alpha, alpha))

    def gradient(rows, alpha):
        return zs[rows] - kernel.cgf_grad_rows(model, ys[rows], alpha) - aa * alpha

    every = np.arange(n)
    alpha = np.zeros((n, d)) if x0 is None else np.array(np.broadcast_to(np.asarray(x0, dtype=np.float64), (n, d)))
    h = objective(every, alpha)
    bad = ~np.isfinite(h)
    alpha[bad] = 0.0
    h[bad] = 0.0
    best_val = np.where(h > 0.0, h, 0.0)
    best_arg = np.where((h > 0.0)[:, None], alpha, 0.0)
    rising = np.zeros(n, dtype=np.int64)  # trailing run of strict increases of h

    out = ConjugateRows(
        value=best_val.copy(),
        argmax=best_arg.copy(),
        status=np.full(n, MAX_ITERATIONS),
        iterations=np.full(n, settings.max_iter),
        grad_norm=np.zeros(n),
    )

    def finish(rows, status, it, gnorm, value=None, argmax=None):
        out.status[rows] = status
        out.iterations[rows] = it
        out.grad_norm[rows] = gnorm
        out.value[rows] = best_val[rows] if value is None else value
        out.argmax[rows] = best_arg[rows] if argmax is None else argmax

    live = every
    for it in range(1, settings.max_iter + 1):
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

        hess = kernel.cgf_hess_rows(model, ys[live], al, settings.hess_fd_step)
        if aa > 0.0:
            hess = hess + aa * np.eye(d)
        p = _ascent_directions(hess, grad)
        with np.errstate(over="ignore"):
            pnorm = np.linalg.norm(p, axis=1)
        # a Newton direction that overflowed (flat Hessian) becomes the
        # longest admissible gradient step
        blown = ~np.isfinite(pnorm)
        p[blown] = grad[blown] * (settings.max_step / gnorm[blown])[:, None]
        long_ = ~blown & (pnorm > settings.max_step)
        p[long_] = p[long_] * (settings.max_step / pnorm[long_])[:, None]

        # backtracking line search on the concave objectives, by row mask
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
        # a stalled line search ends the row where it stands
        finish(live[~accepted], MAX_ITERATIONS, settings.max_iter, gnorm[~accepted])
        live, new_al, new_h, gnorm = live[accepted], new_al[accepted], new_h[accepted], gnorm[accepted]

        rising[live] = np.where(new_h > h[live], rising[live] + 1, 0)
        alpha[live] = new_al
        h[live] = new_h
        better = new_h > best_val[live]
        best_val[live[better]] = new_h[better]
        best_arg[live[better]] = new_al[better]
        if amp == 0.0:
            capped = np.linalg.norm(new_al, axis=1) > settings.norm_cap
            # divergent when h rose strictly over the whole trailing window
            window = min(it + 1, settings.window + 1) - 1
            divergent = capped & (rising[live] >= window)
            finish(live[divergent], DIVERGENT, it, gnorm[divergent], np.inf, np.nan)
            finish(live[capped & ~divergent], MAX_ITERATIONS, it, gnorm[capped & ~divergent])
            live = live[~capped]

    if live.size:
        finish(live, MAX_ITERATIONS, settings.max_iter, np.linalg.norm(gradient(live, alpha[live]), axis=1))
    return out


def fenchel(model: KernelModel, y, z, settings: ConjugateSettings = None, x0=None) -> ConjugateResult:
    """Conjugate of cgf(y, .) at z by Newton ascent: fenchel_rows on one row.

    Returns value >= 0 always (alpha = 0 is feasible with objective 0);
    converged results satisfy |z - cgf_grad(y, argmax)| <= tolerance.
    """
    return perturbed_fenchel(model, 0.0, y, z, settings=settings, x0=x0)


def perturbed_fenchel(model: KernelModel, a, y, z, settings: ConjugateSettings = None, x0=None) -> ConjugateResult:
    """Conjugate of the Gaussian-smoothed cumulant; finite for every z when a > 0."""
    y = kernel._as_vector(y, model.dim, "y")
    z = kernel._as_vector(z, model.dim, "z")
    return fenchel_rows(model, y[None], z[None], a=a, settings=settings, x0=x0).row(0)


def perturbed_conjugate_bound(a, z, mean_norm_bound: float) -> float:
    """Quadratic ceiling (|z| + D)^2 / (2 a^2) for the smoothed conjugate."""
    amp = perturbation_amplitude(a)
    if amp <= 0.0:
        raise ValueError("the quadratic ceiling requires a > 0")
    r = float(np.linalg.norm(z)) + float(mean_norm_bound)
    return r * r / (2.0 * amp * amp)


def mean_norm_bound(model: KernelModel, states, headroom: float = 1.1) -> float:
    """Bound on |increment mean| over the supplied states, with headroom."""
    ys = kernel._as_rows(np.atleast_2d(np.asarray(states, dtype=np.float64)), model.dim, "states")
    means = kernel.cgf_grad_rows(model, ys, np.zeros_like(ys))
    return headroom * float(np.max(np.linalg.norm(means, axis=1)))


def fenchel_closed_form_affine(model: AffineNoiseModel, y, z) -> float:
    """Closed-form conjugate for affine models with invertible sigma(y).

    Equals base_conjugate(sigma(y)^{-1} (z - drift(y))); raises
    SingularSigmaError when sigma(y) cannot be inverted, in which case the
    numeric fenchel solver is the way to go.
    """
    if not isinstance(model, AffineNoiseModel):
        raise TypeError("closed form requires an affine model")
    if model.base.conjugate is None:
        raise ValueError(f"base law {model.base.kind!r} has no closed-form conjugate")
    y = kernel._as_vector(y, model.dim, "y")
    z = kernel._as_vector(z, model.dim, "z")
    s = np.asarray(model.sigma_fn(y), dtype=np.float64)
    rhs = z - np.asarray(model.drift(y), dtype=np.float64)
    try:
        v = np.linalg.solve(s, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSigmaError(
            "sigma(y) is singular; no closed form here, use the numeric fenchel solver"
        ) from exc
    if not np.all(np.isfinite(v)):
        raise SingularSigmaError(
            "sigma(y) is numerically singular; use the numeric fenchel solver"
        )
    return float(model.base.conjugate(v))


def dominating_point_halfspace(model: KernelModel, y, xi, c, settings: ConjugateSettings = None) -> DominatingPointResult:
    """Cheapest boundary point of {<z, xi> >= c} under the local cost at y.

    Solves <cgf_grad(y, t xi), xi> = c for t >= 0 (monotone in t by
    convexity), then reports the tilted mean x0 = cgf_grad(y, t* xi), the
    tilt t* xi, and the cost level <x0, t* xi> - cgf(y, t* xi), which equals
    fenchel(model, y, x0).value.

    The normal is normalized to unit length (c rescaled accordingly), which
    leaves the half-space unchanged.  Requires the increment mean at y to
    lie strictly outside the half-space; raises TiltUnreachableError when no
    tilt below the bracket cap reaches level c.
    """
    settings = settings or DEFAULT_SETTINGS
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
        if hi > settings.bracket_cap:
            raise TiltUnreachableError(
                f"no tilt below {settings.bracket_cap:g} reaches level {c:g}; "
                "the boundary value is unreachable by tilting"
            )
    t_star = brentq(g, 0.0, hi, xtol=1e-12, maxiter=200)
    tilt = t_star * xi
    point = kernel.cgf_grad(model, y, tilt)
    level = float(point @ tilt) - kernel.cgf(model, y, tilt)
    return DominatingPointResult(point=point, multiplier=tilt, level=level, t=float(t_star))
