"""Path cost functionals and their minimization.

The cost of an absolutely continuous path f started at x is the integral of
the local conjugate along the path,

    cost(f) = int_0^1 conj_a(f(s), f'(s)) ds,

and +inf when f(0) != x.  On the piecewise-linear paths used everywhere in
this package the slope is constant per segment, so each segment contributes
a Gauss-Legendre quadrature of s -> conj_a(f(s), slope).  One quadrature
pass prices every node of every segment with a single batched conjugate
solve (conjugate.fenchel_rows).  The cost vanishes exactly on the solution
of the mean flow f' = cgf_grad(f, 0), which is what limit_ode integrates.

minimize_action hands the interior knots (plus, for a half-space target,
the terminal knot in a frame whose first axis is the normal, so that the
constraint is one bound) to scipy's L-BFGS-B.  Gradients come from the
envelope identities: d conj/d z at the maximizer alpha* is alpha* itself,
and d conj/d y is -grad_y cgf_a(y, alpha*), taken in the same pass as
central differences of cgf_rows over all nodes at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from .errors import InfeasibleProblemError, SimulationBlowup
from . import conjugate as conj_mod
from . import kernel
from .kernel import KernelModel, perturbation_amplitude
from .scheme import Trajectory, gauss_legendre_01

BARRIER = 1e12
# stationarity tolerance of the KKT residual, and the central-difference step
# in y of the envelope gradient
GRAD_TOL = 1e-6
Y_FD_STEP = 1e-5

_NODES, _WEIGHTS = gauss_legendre_01()


@dataclass(frozen=True)
class TerminalPoint:
    """Fixed endpoint constraint f(1) = point."""

    point: np.ndarray

    def __post_init__(self):
        point = np.atleast_1d(np.asarray(self.point, dtype=np.float64))
        if not np.all(np.isfinite(point)):
            raise ValueError("point must be finite")
        object.__setattr__(self, "point", point)


@dataclass(frozen=True)
class TerminalHalfspace:
    """Endpoint constraint <f(1), normal> >= level, with unit normal.

    Also the terminal event {<Y(1), normal> >= level} of the estimators.
    """

    normal: np.ndarray
    level: float

    def __post_init__(self):
        xi = np.atleast_1d(np.asarray(self.normal, dtype=np.float64))
        if not (np.all(np.isfinite(xi)) and np.isfinite(self.level)):
            raise ValueError("normal and level must be finite")
        nrm = float(np.linalg.norm(xi))
        if nrm <= 0.0:
            raise ValueError("normal must be nonzero")
        object.__setattr__(self, "normal", xi / nrm)
        object.__setattr__(self, "level", float(self.level) / nrm)

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
        kernel._as_count(self.max_iter, "max_iter", 1)


@dataclass(frozen=True)
class ActionProblem:
    model: KernelModel
    x: np.ndarray
    terminal: TerminalSpec
    m: int = 21
    a: float = 0.0
    settings: MinimizeSettings = field(default_factory=MinimizeSettings)

    def __post_init__(self):
        object.__setattr__(self, "x", kernel._as_vector(self.x, self.model.dim, "x"))
        object.__setattr__(self, "m", kernel._as_count(self.m, "m", 2))
        object.__setattr__(self, "a", perturbation_amplitude(self.a))


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


def straight_line(x, z, m: int) -> Trajectory:
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    frac = np.linspace(0.0, 1.0, m)[:, None]
    return Trajectory((1.0 - frac) * x + frac * z)


def _quadrature_pass(model, a, knots, gradient: bool = False):
    """Segment costs, and the knot gradient if asked for, from one batched solve.

    All m_seg x 5 Gauss-Legendre nodes go through a single fenchel_rows
    call.  Returns (seg_values, grad, divergent, warnings): divergent lists
    the segments where some node's conjugate is +inf, warnings the
    (segment, node) pairs that ended as max-iterations ahead of the
    segment's first divergent node, and grad is None unless gradient is
    true and every segment is finite.  Y_FD_STEP is the central-difference
    step in y of the envelope gradient.
    """
    m_seg = knots.shape[0] - 1
    d = knots.shape[1]
    n_q = len(_NODES)
    dt = 1.0 / m_seg
    left, right = knots[:-1], knots[1:]
    slopes = (right - left) / dt
    # row k * n_q + q holds node q of segment k
    ys = ((1.0 - _NODES)[None, :, None] * left[:, None, :] + _NODES[None, :, None] * right[:, None, :]).reshape(-1, d)
    zs = np.repeat(slopes, n_q, axis=0)
    res = conj_mod.fenchel_rows(model, ys, zs, a=a)

    divergent, warnings = [], []
    if (res.status != conj_mod.CONVERGED).any():
        status = res.status.reshape(m_seg, n_q)
        is_div = status == conj_mod.DIVERGENT
        first_div = np.where(is_div.any(axis=1), is_div.argmax(axis=1), n_q)
        late = np.arange(n_q)[None, :] >= first_div[:, None]
        divergent = [int(k) for k in np.flatnonzero(first_div < n_q)]
        warnings = [(int(k), int(q)) for k, q in zip(*np.nonzero((status == conj_mod.MAX_ITERATIONS) & ~late))]

    # sum the nodes column by column, in node order: a numpy reduction would pick its own order
    weighted = res.value.reshape(m_seg, n_q) * _WEIGHTS
    acc = np.zeros(m_seg)
    for q in range(n_q):
        acc += weighted[:, q]
    seg_values = dt * acc
    seg_values[divergent] = np.inf
    if not gradient or divergent:
        return seg_values, None, divergent, warnings

    # envelope identities: d conj/dz = alpha*, d conj/dy = -grad_y cgf(y, alpha*),
    # the latter by central differences in y (the smoothing term has no y)
    astar = res.argmax
    h = Y_FD_STEP
    # all 2 d shifted copies of the rows in one cgf_rows call: [sign, i, row] holds y_row +- h e_i
    shifted = np.broadcast_to(ys, (2, d) + ys.shape).copy()
    for i in range(d):
        shifted[0, i, :, i] += h
        shifted[1, i, :, i] -= h
    c = kernel.cgf_rows(model, shifted.reshape(-1, d), np.broadcast_to(astar, shifted.shape).reshape(-1, d)).reshape(2, d, -1)
    cy = (-(c[0] - c[1]) / (2.0 * h)).T.reshape(m_seg, n_q, d)
    astar = astar.reshape(m_seg, n_q, d)
    right_w, left_w = dt * _WEIGHTS * _NODES, dt * _WEIGHTS * (1.0 - _NODES)
    # each node's terms for the knots at the right and left ends of its segment
    right_t = right_w[:, None] * cy
    right_t += _WEIGHTS[:, None] * astar
    left_t = left_w[:, None] * cy
    left_t -= _WEIGHTS[:, None] * astar
    grad = np.zeros((m_seg + 1, d))
    for q in range(n_q):
        grad[1:] += right_t[:, q]
    for q in range(n_q):
        grad[:-1] += left_t[:, q]
    return seg_values, grad, divergent, warnings


def action(model: KernelModel, x, a, f: Trajectory) -> ActionValue:
    """Cost of the piecewise-linear path f from start x at smoothing level a.

    +inf with feasible_start=False when f(0) misses x beyond 1e-12; +inf
    with the segment recorded when any segment slope is priced at +inf.
    Conjugate solves that end as max-iterations are reported as warnings,
    not silently treated as +inf.
    """
    amp = perturbation_amplitude(a)
    x = kernel._as_vector(x, model.dim, "x")
    kernel._require_dim("path", f.dim, model.dim)
    if float(np.max(np.abs(f.knots[0] - x))) > 1e-12:
        return ActionValue(np.inf, np.empty(0), feasible_start=False)
    seg, _, divergent, warnings = _quadrature_pass(model, amp, f.knots)
    value = float(np.sum(seg)) if not divergent else np.inf
    return ActionValue(value, seg, True, divergent, warnings)


def limit_ode(model: KernelModel, x, steps: int) -> Trajectory:
    """Mean flow f' = cgf_grad(f, 0) by classical Runge-Kutta, f(0) = x.

    Takes `steps` uniform RK steps and returns the sampled polygon with
    steps + 1 knots.
    """
    steps = kernel._as_count(steps, "steps", 1)
    x = kernel._as_vector(x, model.dim, "x")
    zero = np.zeros((1, model.dim))

    def field_(y):
        return np.asarray(model.cgf_grad(y[None], zero)[0], dtype=np.float64)

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

    One scipy L-BFGS-B run over the free coordinates, started at the
    straight line to the target (its foot on a half-space).  The free
    coordinates are the interior knots and, for a half-space, the terminal
    knot w in the orthonormal frame [normal, null_space(normal)], where the
    constraint is the single bound w_0 >= level.  Each evaluation is one
    quadrature pass with the envelope gradient; a pass with a divergent
    segment is priced at BARRIER with a zero gradient, so the line search
    steps back into the finite domain.

    `converged` certifies stationarity: the 2-norm of the projected gradient
    (the KKT residual; the bound component is dropped while the terminal
    sits on the boundary and the gradient points outward) is at most
    GRAD_TOL at the returned knots.  Each log row is (iter, value,
    grad_norm, step), where step is the length of the accepted move in free
    coordinates (0 on the row for iteration 0).  An uncertified stop adds
    scipy's stop message to `warnings`.
    """
    from scipy import optimize
    from scipy.linalg import null_space

    model, x, terminal = problem.model, problem.x, problem.terminal
    m, a, settings = problem.m, problem.a, problem.settings
    d = model.dim
    n_int = (m - 2) * d

    if isinstance(terminal, TerminalPoint):
        target = kernel._as_vector(terminal.point, d, "terminal.point")
        frame = None
        v0 = straight_line(x, target, m).knots[1:-1].ravel()
    else:
        xi, c = terminal.normal, terminal.level
        frame = np.column_stack([xi, null_space(xi[None, :])])
        w_end = frame.T @ x
        w_end[0] = max(float(x @ xi), c)
        v0 = np.concatenate([straight_line(x, frame @ w_end, m).knots[1:-1].ravel(), w_end])
    nfree = len(v0)

    def knots_of(v):
        kn = np.empty((m, d))
        kn[0] = x
        kn[1:-1] = v[:n_int].reshape(m - 2, d)
        kn[-1] = target if frame is None else frame @ v[n_int:]
        return kn

    last = {}

    def evaluate(v):
        """One quadrature pass at v, memoized so the callback reuses it."""
        if last.get("v") is None or not np.array_equal(last["v"], v):
            seg, grad, divergent, warn = _quadrature_pass(model, a, knots_of(v), gradient=True)
            if divergent:
                f, g = BARRIER, np.zeros(nfree)
            else:
                f = float(np.sum(seg))
                g = grad[1:-1].ravel() if frame is None else np.concatenate([grad[1:-1].ravel(), frame.T @ grad[-1]])
            last.update(v=v.copy(), f=f, g=g, seg=seg, divergent=divergent, warn=warn)
        return last

    def residual():
        """KKT residual at the last evaluation."""
        pg = last["g"].copy()
        if frame is not None and last["v"][n_int] - c <= 1e-9 * (1.0 + abs(c)) and pg[n_int] > 0.0:
            pg[n_int] = 0.0
        return float(np.linalg.norm(pg))

    warnings: List[str] = []
    log: List[Tuple[int, float, float, float]] = []
    accepted = [v0]

    def record(v):
        warn = evaluate(v)["warn"]
        if warn:
            warnings.append(f"conjugate solver hit max-iterations at {len(warn)} node(s)")
        log.append((len(log), last["f"], residual(), float(np.linalg.norm(v - accepted[-1]))))
        accepted.append(last["v"])

    if evaluate(v0)["divergent"]:
        raise InfeasibleProblemError(
            f"straight-line candidate has infinite cost (divergent segment {last['divergent'][0]})"
        )
    record(v0)
    it, message = 0, "no free coordinates"
    if nfree:
        res = optimize.minimize(
            lambda v: (evaluate(v)["f"], last["g"].copy()),
            v0,
            jac=True,
            method="L-BFGS-B",
            bounds=None if frame is None else [(c, None) if i == n_int else (None, None) for i in range(nfree)],
            callback=record,
            options={
                "maxiter": settings.max_iter,
                "maxcor": nfree,
                "gtol": GRAD_TOL / np.sqrt(nfree),
                "ftol": 0.0,
            },
        )
        it, message = res.nit, res.message
        evaluate(res.x)
    grad_norm = residual()
    converged = grad_norm <= GRAD_TOL
    if not converged:
        warnings.append(f"stopped without a stationarity certificate: {message}")

    value = np.inf if last["divergent"] else last["f"]
    final = ActionValue(value, last["seg"], True, last["divergent"], last["warn"])
    return MinimizeResult(Trajectory(knots_of(last["v"])), final, converged, grad_norm, it, warnings, log)
