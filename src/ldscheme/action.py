"""Path cost functionals and their minimization.

The cost of an absolutely continuous path f started at x is the integral of
the local conjugate along the path,

    cost(f) = int_0^1 conj_a(f(s), f'(s)) ds,

and +inf when f(0) != x; path_cost evaluates it.  On the piecewise-linear
paths used everywhere in this package the slope is constant per segment, so
each segment contributes an order-5 Gauss-Legendre quadrature of
s -> conj_a(f(s), slope), by phi_limit's rule (scheme._GL_NODES, _GL_WEIGHTS).
One quadrature pass prices every node of every segment with a single
batched conjugate solve (conjugate.fenchel_rows).
The cost vanishes exactly on the solution of the mean flow
f' = cgf_grad(f, 0), which is what limit_ode integrates.

minimize_action hands the interior knots (plus, for a half-space target,
the terminal knot in a frame whose last axis is the normal, so that the
constraint is one bound) to scipy's L-BFGS-B, in coordinates that whiten
the cost's kinetic term: an upper-triangular S = L^-T, L L^T that term's
Hessian, so that the iterations no longer grow with the knot count and the
bound stays one bound.  The value, the gradient, the stationarity
certificate and the log stay in knot coordinates.  Gradients come from the
envelope identities: d conj/d z at the maximizer alpha* is alpha* itself,
and d conj/d y is -grad_y cgf_a(y, alpha*), taken in the same pass as
central differences over all nodes at once: of the model's cgf, or, for an
affine model with a constant sigma, whose logmgf(sigma^T alpha) term has no
y, of <drift(y), alpha*> alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from .errors import InfeasibleProblemError, SimulationBlowup
from . import conjugate as conj_mod
from . import kernel
from .kernel import AffineNoiseModel, KernelModel
from .scheme import Trajectory, _GL_NODES as _NODES, _GL_WEIGHTS as _WEIGHTS

BARRIER = 1e12
# stationarity tolerance of the KKT residual, and the central-difference step
# in y of the envelope gradient
GRAD_TOL = 1e-6
Y_FD_STEP = 1e-5

_LEFT_NODES = 1.0 - _NODES  # each node's weight on its segment's left knot


@dataclass(frozen=True)
class TerminalPoint:
    """Fixed endpoint constraint f(1) = point."""

    point: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", kernel._as_reals(self.point, "point", ("d",)))

    @property
    def dim(self) -> int:
        return self.point.shape[0]


@dataclass(frozen=True)
class TerminalHalfspace:
    """Endpoint constraint <f(1), normal> >= level, with unit normal.

    Also the terminal event {<Y(1), normal> >= level} of the estimators.
    A normal whose plain norm over- or underflows (past about 1.3e154 or
    below about 1e-154) is normalized by the rescaled norm s |normal / s|,
    s = max |normal_i|; a zero normal, or one whose norm or rescaled level
    is past the float range, is refused.
    """

    normal: np.ndarray
    level: float

    def __post_init__(self):
        xi = kernel._as_reals(self.normal, "normal", ("d",))
        level = kernel._as_real(self.level, "level")
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(xi))
        if not 0.0 < norm < np.inf:
            s = float(np.abs(xi).max())
            norm = s * float(np.linalg.norm(xi / s)) if s > 0.0 else 0.0
        if not 0.0 < norm < np.inf:
            raise ValueError(f"normal must have a finite nonzero norm, got {norm!r}")
        if not np.isfinite(level / norm):
            raise ValueError(f"level / |normal| must be finite, got {level!r} / {norm!r}")
        object.__setattr__(self, "normal", xi / norm)
        object.__setattr__(self, "level", level / norm)

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    def hits(self, states: np.ndarray) -> np.ndarray:
        """Whether each (m, d) row of states lies in the half-space, shape (m,)."""
        return kernel._rdot(states, self.normal) >= self.level

    def record(self) -> dict:
        """The half-space as the terminal event of an estimate report."""
        return {
            "kind": "terminal-halfspace",
            "normal": [float(v) for v in self.normal],
            "level": float(self.level),
        }


TerminalSpec = Union[TerminalPoint, TerminalHalfspace]


@dataclass(frozen=True)
class MinimizeSettings:
    """L-BFGS-B iteration cap, an integer >= 1."""

    max_iter: int = 500

    def __post_init__(self):
        object.__setattr__(self, "max_iter", kernel._as_count(self.max_iter, "max_iter", 1))


@dataclass(frozen=True)
class ActionProblem:
    model: KernelModel
    x: np.ndarray
    terminal: TerminalSpec
    m: int = 21
    a: float = 0.0
    settings: MinimizeSettings = field(default_factory=MinimizeSettings)

    def __post_init__(self):
        object.__setattr__(self, "x", kernel._as_reals(self.x, "x", (self.model.dim,)))
        kernel._require_kind("terminal", self.terminal, (TerminalPoint, TerminalHalfspace), self.model.dim)
        object.__setattr__(self, "m", kernel._as_count(self.m, "m", 2))
        object.__setattr__(self, "a", kernel._as_real(self.a, "a", 0))


@dataclass
class ActionValue:
    """Cost of one path: total, per-segment pieces, and solve diagnostics."""

    value: float
    segments: np.ndarray
    feasible_start: bool = True
    divergent_segments: List[int] = field(default_factory=list)
    solver_warnings: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def reason(self) -> Optional[str]:
        if not self.feasible_start:
            return "initial condition"
        if self.divergent_segments:
            return f"divergent segment {self.divergent_segments[0]}"
        return None


@dataclass
class MinimizeResult:
    trajectory: Trajectory
    action: ActionValue
    converged: bool
    grad_norm: float
    iterations: int
    warnings: List[str]
    log: List[Tuple[int, float, float, float]]


def _vector_norm(v: np.ndarray) -> float:
    """np.linalg.norm(v) of a float vector, bit for bit: the dot and square root it runs, without its checks."""
    return math.sqrt(v.dot(v))


def straight_line(x, z, m: int) -> Trajectory:
    """The path of m >= 2 uniform knots from x to z, two vectors of one length (a number is a 1-vector)."""
    x = kernel._as_reals(x, "x", ("d",))
    z = kernel._as_reals(z, "z", x.shape)
    frac = np.linspace(0.0, 1.0, kernel._as_count(m, "m", 2))[:, None]
    return Trajectory((1.0 - frac) * x + frac * z)


def _slopes(knots: np.ndarray) -> np.ndarray:
    """Each segment's slope of the (m, d) knots, shape (m - 1, d): its increment over dt = 1 / (m - 1)."""
    return (knots[1:] - knots[:-1]) / (1.0 / (knots.shape[0] - 1))


def _quadrature_pass(model, a, knots, gradient: bool = False):
    """The path's ActionValue, and its knot gradient if asked for, from one batched solve.

    All m_seg x 5 Gauss-Legendre nodes go through a single fenchel_rows
    call.  Returns (cost, grad): cost.divergent_segments lists the segments
    where some node's conjugate is +inf, which make the value +inf, and
    cost.solver_warnings the (segment, node) pairs that ended as
    max-iterations ahead of the segment's first divergent node; grad is None
    unless gradient is true and every segment is finite.  Y_FD_STEP is the
    central-difference step in y of the envelope gradient.  That difference is one call of the
    model's cgf on the 2 d shifted copies of the rows, or, for an affine
    model with a constant sigma, one call of its drift: the cgf's logmgf term
    has no y, and differencing it only adds its rounding.
    """
    m_seg = knots.shape[0] - 1
    d = knots.shape[1]
    n_q = len(_NODES)
    dt = 1.0 / m_seg
    left, right = knots[:-1], knots[1:]
    slopes = _slopes(knots)
    # row k * n_q + q holds node q of segment k
    ys = (_LEFT_NODES[:, None] * left[:, None, :] + _NODES[:, None] * right[:, None, :]).reshape(-1, d)
    zs = np.repeat(slopes, n_q, axis=0)
    res = conj_mod.fenchel_rows(model, ys, zs, a=a)

    divergent, warnings = [], []
    if res.status.any():  # some node did not converge (code 0)
        status = res.status.reshape(m_seg, n_q)
        is_div = status == conj_mod._DIVERGENT_CODE
        first_div = np.where(is_div.any(axis=1), is_div.argmax(axis=1), n_q)
        late = np.arange(n_q)[None, :] >= first_div[:, None]
        divergent = [int(k) for k in np.flatnonzero(first_div < n_q)]
        warnings = [(int(k), int(q)) for k, q in zip(*np.nonzero((status == conj_mod._MAX_ITERATIONS_CODE) & ~late))]

    # sum the nodes in node order, from +0.0: a running sum (np.add.accumulate) is sequential by definition,
    # where a numpy reduction may sum pairwise
    weighted = np.zeros((m_seg, n_q + 1))
    np.multiply(res.value.reshape(m_seg, n_q), _WEIGHTS, out=weighted[:, 1:])
    seg_values = dt * np.add.accumulate(weighted, axis=1)[:, -1]
    if divergent:
        seg_values[divergent] = np.inf
    cost = ActionValue(np.inf if divergent else float(np.sum(seg_values)), seg_values, True, divergent, warnings)
    if not gradient or divergent:
        return cost, None

    # envelope identities: d conj/dz = alpha*, d conj/dy = -grad_y cgf(y, alpha*),
    # the latter by central differences in y (the smoothing term has no y)
    astar = res.argmax
    h = Y_FD_STEP
    # all 2 d shifted copies of the rows in one call: [sign, i, row] holds y_row +- h e_i
    shifted = np.empty((2, d) + ys.shape)
    shifted[...] = ys
    for i in range(d):
        shifted[0, i, :, i] += h
        shifted[1, i, :, i] -= h
    if isinstance(model, AffineNoiseModel) and not callable(model.sigma):
        # <drift(y + h e_i) - drift(y - h e_i), alpha*>
        b = kernel.drift_rows(model, shifted.reshape(-1, d)).reshape(2, -1, d)
        dc = kernel._dot_rows(b[0] - b[1], np.concatenate((astar,) * d)).reshape(d, -1)
    else:
        c = model.cgf(shifted.reshape(-1, d), np.concatenate((astar,) * (2 * d))).reshape(2, d, -1)
        dc = c[0] - c[1]
    cy = (-dc / (2.0 * h)).T.reshape(m_seg, n_q, d)
    astar = astar.reshape(m_seg, n_q, d)
    right_w, left_w = dt * _WEIGHTS * _NODES, dt * _WEIGHTS * _LEFT_NODES
    # each knot's terms in summation order, after a +0.0: the right-end terms of the segment on its left,
    # then the left-end terms of the segment on its right.  A knot without such a segment has +0.0 terms
    # there, which change no sum that starts from +0.0
    terms = np.zeros((m_seg + 1, 2 * n_q + 1, d))
    right_t, left_t = terms[1:, 1 : n_q + 1], terms[:-1, n_q + 1 :]
    dz = _WEIGHTS[:, None] * astar
    np.multiply(right_w[:, None], cy, out=right_t)
    right_t += dz
    np.multiply(left_w[:, None], cy, out=left_t)
    left_t -= dz
    return cost, np.add.accumulate(terms, axis=1)[:, -1]


def path_cost(model: KernelModel, x, a, f: Trajectory) -> ActionValue:
    """Cost of the piecewise-linear path f from start x at smoothing level a.

    +inf with feasible_start=False when f(0) misses x beyond 1e-12; +inf
    with the segment recorded when any segment slope is priced at +inf.
    Conjugate solves that end as max-iterations are reported as warnings,
    not silently treated as +inf.
    """
    amp = kernel._as_real(a, "a", 0)
    x = kernel._as_reals(x, "x", (model.dim,))
    kernel._require_dim("path", f.dim, model.dim)
    if float(np.max(np.abs(f.knots[0] - x))) > 1e-12:
        return ActionValue(np.inf, np.empty(0), feasible_start=False)
    return _quadrature_pass(model, amp, f.knots)[0]


def limit_ode(model: KernelModel, x, steps: int) -> Trajectory:
    """Mean flow f' = cgf_grad(f, 0) by classical Runge-Kutta, f(0) = x.

    Takes `steps` uniform RK steps and returns the sampled polygon with
    steps + 1 knots.  For an affine model with a constant sigma the field is
    drift(f) + sigma grad_logmgf(0), its cgf_grad(f, 0) bit for bit, with the
    noise mean computed once by the calls cgf_grad makes.
    """
    steps = kernel._as_count(steps, "steps", 1)
    x = kernel._as_reals(x, "x", (model.dim,))
    zero = np.zeros((1, model.dim))

    if isinstance(model, AffineNoiseModel) and not callable(model.sigma):
        sig = model.sigma
        grad0 = model.base.logmgf_grad(kernel._sigma_t_dot(sig, zero))
        noise_mean = kernel._rdot(grad0, np.ascontiguousarray(sig.T))[0]

        def field_(y):
            return kernel.drift_rows(model, y[None])[0] + noise_mean
    else:
        def field_(y):
            return kernel._block("cgf_grad", model.cgf_grad(y[None], zero), zero.shape)[0]

    h = 1.0 / steps
    knots = np.empty((steps + 1, model.dim))
    knots[0] = x
    y = x.copy()
    for k in range(1, steps + 1):
        k1 = field_(y)
        k2 = field_(y + 0.5 * h * k1)
        k3 = field_(y + 0.5 * h * k2)
        k4 = field_(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise SimulationBlowup(k, f"mean flow left the finite range at step {k}")
        knots[k] = y
    return Trajectory(knots)


def minimize_action(problem: ActionProblem) -> MinimizeResult:
    """Minimize the path cost over knots subject to the terminal constraint.

    One scipy L-BFGS-B run, started at the straight line to the target (its
    foot on a half-space).  The free coordinates v are the interior knots
    and, for a half-space, the terminal knot w in the orthonormal frame
    [null_space(normal), normal], where the constraint is the single bound
    w_last >= level.

    L-BFGS-B runs on whitened coordinates u, v = v0 + S u.  The path cost's
    Hessian in v is in the main its kinetic term m B^T (I kron cov^-1) B
    (a Gaussian step law's has m - 1 in place of m), whose condition number
    grows as m^2: B maps v to the m - 1 segment increments, and cov is the
    step covariance at x, the cgf's alpha-Hessian at alpha = 0 plus a^2 I,
    its eigenvalues floored at 1e-8 of the largest (all one if cov is
    zero).  S = L^-T, with L the Cholesky factor of that term, makes it the
    identity in u.  S is upper triangular, so the half-space bound stays one
    bound, on u_last.  Each evaluation is one quadrature pass with the
    envelope gradient g in v, and scipy gets S^T g; a pass with a divergent
    segment is priced at BARRIER with a zero gradient, so the line search
    steps back into the finite domain.

    `converged` certifies a fully solved stationary point in v: every
    conjugate solve of the final pass converged or diverged (its
    solver_warnings are empty), and the 2-norm of the projected gradient
    (the KKT residual; the bound component is dropped while the terminal
    sits on the boundary and the gradient points outward) is at most
    GRAD_TOL at the returned knots.  scipy's gtol is GRAD_TOL over
    sqrt(len(v)) times 2 sqrt(m / lambda_min(cov)), the closed-form bound on
    |L|_2, so that its stop implies the certificate.  Each log row is (iter,
    value, grad_norm, step), where step is the length of the accepted move
    in v (0 on the row for iteration 0).  An uncertified stop adds a warning:
    the final pass's count of max-iterations nodes if it has any, else
    scipy's stop message.
    """
    from scipy import optimize
    from scipy.linalg import null_space, solve_triangular

    model, x, terminal = problem.model, problem.x, problem.terminal
    m, a, settings = problem.m, problem.a, problem.settings
    d = model.dim
    n_int = (m - 2) * d

    if isinstance(terminal, TerminalPoint):
        target, frame = terminal.point, None
        v0 = straight_line(x, target, m).knots[1:-1].ravel()
    else:
        xi, c = terminal.normal, terminal.level
        frame = np.column_stack([null_space(xi[None, :]), xi])
        w_end = frame.T @ x
        w_end[-1] = max(float(x @ xi), c)
        v0 = np.concatenate([straight_line(x, frame @ w_end, m).knots[1:-1].ravel(), w_end])
    nfree = len(v0)

    def knots_of(v):
        """The (m, d) knots of the free coordinates v, or a stack of them for a stack of rows v."""
        kn = np.empty(v.shape[:-1] + (m, d))
        kn[..., 0, :] = x
        kn[..., 1:-1, :] = v[..., :n_int].reshape(v.shape[:-1] + (m - 2, d))
        kn[..., -1, :] = target if frame is None else (frame @ v[..., n_int:].T).T
        return kn

    last = {}

    def evaluate(v):
        """One quadrature pass at v, memoized so that fun, jac and the callback share it."""
        if "v" not in last or not (last["v"] == v).all():
            cost, grad = _quadrature_pass(model, a, knots_of(v), gradient=True)
            if cost.divergent_segments:
                f, g = BARRIER, np.zeros(nfree)
            else:
                f = cost.value
                g = grad[1:-1].ravel() if frame is None else np.concatenate([grad[1:-1].ravel(), frame.T @ grad[-1]])
            last.update(v=v.copy(), f=f, g=g, cost=cost)
        return last

    def residual():
        """KKT residual at the last evaluation."""
        pg = last["g"].copy()
        if frame is not None and last["v"][-1] - c <= 1e-9 * (1.0 + abs(c)) and pg[-1] > 0.0:
            pg[-1] = 0.0
        return _vector_norm(pg)

    warnings: List[str] = []
    log: List[Tuple[int, float, float, float]] = []
    accepted = [v0]

    def record(v):
        warn = evaluate(v)["cost"].solver_warnings
        if warn:
            warnings.append(f"conjugate solver hit max-iterations at {len(warn)} node(s)")
        log.append((len(log), last["f"], residual(), _vector_norm(v - accepted[-1])))
        accepted.append(last["v"])

    if evaluate(v0)["cost"].divergent_segments:
        raise InfeasibleProblemError(f"straight-line candidate has infinite cost ({last['cost'].reason})")
    record(v0)
    it, message = 0, "no free coordinates"
    if nfree:
        cov = kernel.cgf_hess_rows(model, x[None], np.zeros((1, d)))[0] + a * a * np.eye(d)
        lam, Q = np.linalg.eigh(cov)
        lam = np.maximum(lam, 1e-8 * lam[-1]) if lam[-1] > 0.0 else np.ones(d)
        # row j of G: the segment increments of a unit move of v_j, times W^T, where W^T W = cov^-1
        increments = np.diff(knots_of(np.eye(nfree)) - knots_of(np.zeros(nfree)), axis=-2)
        G = (increments @ (Q / np.sqrt(lam))).reshape(nfree, -1)
        S = solve_triangular(np.linalg.cholesky(m * (G @ G.T)), np.eye(nfree), trans="T", lower=True)
        res = optimize.minimize(
            lambda u: evaluate(v0 + S @ u)["f"],
            np.zeros(nfree),
            jac=lambda u: S.T @ evaluate(v0 + S @ u)["g"],
            method="L-BFGS-B",
            bounds=None if frame is None else [(None, None)] * (nfree - 1) + [((c - v0[-1]) / S[-1, -1], None)],
            callback=lambda u: record(v0 + S @ u),
            options={
                "maxiter": settings.max_iter,
                # |L|_2 <= 2 sqrt(m) |W|_2 = 2 sqrt(m / lam[0]), so a stop on gtol certifies |g|_2 <= GRAD_TOL
                "gtol": GRAD_TOL * np.sqrt(lam[0]) / (np.sqrt(nfree) * 2.0 * np.sqrt(m)),
                "ftol": 0.0,
            },
        )
        it, message = res.nit, res.message
        evaluate(v0 + S @ res.x)
    final = last["cost"]
    grad_norm = residual()
    converged = grad_norm <= GRAD_TOL and not final.solver_warnings
    if final.solver_warnings:
        message = f"the final pass's conjugate solver hit max-iterations at {len(final.solver_warnings)} node(s)"
    if not converged:
        warnings.append(f"stopped without a stationarity certificate: {message}")
    return MinimizeResult(Trajectory(knots_of(last["v"])), final, converged, grad_norm, it, warnings, log)
