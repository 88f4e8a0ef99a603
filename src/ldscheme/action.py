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

minimize_action searches over the interior knots (plus the terminal knot,
projected, for half-space targets) with BFGS descent.  Gradients come from
the envelope identities: d conj/d z at the maximizer alpha* is alpha*
itself, and d conj/d y is -grad_y cgf_a(y, alpha*), taken in the same pass
as central differences of cgf_rows over all nodes at once.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np
from scipy.linalg import null_space

from .errors import InfeasibleProblemError, SimulationBlowup
from . import conjugate as conj_mod
from . import kernel
from .kernel import KernelModel, perturbation_amplitude
from .scheme import Trajectory, gauss_legendre_01

BARRIER = 1e12

_NODES, _WEIGHTS = gauss_legendre_01(5)


@dataclass(frozen=True)
class TerminalPoint:
    """Fixed endpoint constraint f(1) = point (tolerance is report metadata)."""

    point: np.ndarray
    tolerance: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "point", np.atleast_1d(np.asarray(self.point, dtype=np.float64)))
        if self.tolerance < 0.0:
            raise ValueError("tolerance must be >= 0")


@dataclass(frozen=True)
class TerminalHalfspace:
    """Endpoint constraint <f(1), normal> >= level, with unit normal.

    Also the terminal event {<Y(1), normal> >= level} of the estimators.
    """

    normal: np.ndarray
    level: float

    def __post_init__(self):
        xi = np.atleast_1d(np.asarray(self.normal, dtype=np.float64))
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
    max_iter: int = 500
    grad_tol: float = 1e-6
    y_fd_step: float = 1e-5
    armijo: float = 1e-4
    max_halvings: int = 40
    log_path: Optional[str] = None


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
        if self.m < 2:
            raise ValueError(f"knot count m must be >= 2, got {self.m}")
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


def _quadrature_pass(model, a, knots, settings, need_grad):
    """Segment costs, and optionally the knot gradient, from one batched solve.

    All m_seg x 5 Gauss-Legendre nodes go through a single fenchel_rows
    call.  Returns (seg_values, grad, divergent, warnings): divergent lists
    the segments where some node's conjugate is +inf, warnings the
    (segment, node) pairs that ended as max-iterations ahead of the
    segment's first divergent node, and grad is None unless requested and
    every segment is finite.
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

    status = res.status.reshape(m_seg, n_q)
    values = res.value.reshape(m_seg, n_q)
    is_div = status == conj_mod.DIVERGENT
    first_div = np.where(is_div.any(axis=1), is_div.argmax(axis=1), n_q)
    late = np.arange(n_q)[None, :] >= first_div[:, None]
    divergent = [int(k) for k in np.flatnonzero(first_div < n_q)]
    warnings = [(int(k), int(q)) for k, q in zip(*np.nonzero((status == conj_mod.MAX_ITERATIONS) & ~late))]

    acc = np.zeros(m_seg)
    for q in range(n_q):
        acc += _WEIGHTS[q] * values[:, q]
    seg_values = dt * acc
    seg_values[divergent] = np.inf
    if not need_grad or divergent:
        return seg_values, None, divergent, warnings

    # envelope identities: d conj/dz = alpha*, d conj/dy = -grad_y cgf(y, alpha*),
    # the latter by central differences in y (the smoothing term has no y)
    astar = res.argmax
    h = settings.y_fd_step
    cy = np.empty((m_seg * n_q, d))
    for i in range(d):
        up, dn = ys.copy(), ys.copy()
        up[:, i] += h
        dn[:, i] -= h
        cy[:, i] = -(kernel.cgf_rows(model, up, astar) - kernel.cgf_rows(model, dn, astar)) / (2.0 * h)
    cy = cy.reshape(m_seg, n_q, d)
    astar = astar.reshape(m_seg, n_q, d)
    grad = np.zeros((m_seg + 1, d))
    for q, (theta, w) in enumerate(zip(_NODES, _WEIGHTS)):
        grad[1:] += dt * w * theta * cy[:, q] + w * astar[:, q]
    for q, (theta, w) in enumerate(zip(_NODES, _WEIGHTS)):
        grad[:-1] += dt * w * (1.0 - theta) * cy[:, q] - w * astar[:, q]
    return seg_values, grad, divergent, warnings


def action(model: KernelModel, x, a, f: Trajectory, settings: MinimizeSettings = None) -> ActionValue:
    """Cost of the piecewise-linear path f from start x at smoothing level a.

    +inf with feasible_start=False when f(0) misses x beyond 1e-12; +inf
    with the segment recorded when any segment slope is priced at +inf.
    Conjugate solves that end as max-iterations are reported as warnings,
    not silently treated as +inf.
    """
    settings = settings or MinimizeSettings()
    amp = perturbation_amplitude(a)
    x = kernel._as_vector(x, model.dim, "x")
    if f.dim != model.dim:
        raise ValueError(f"path dim {f.dim} does not match model dim {model.dim}")
    if float(np.max(np.abs(f.knots[0] - x))) > 1e-12:
        return ActionValue(np.inf, np.empty(0), feasible_start=False)
    seg, _, divergent, warnings = _quadrature_pass(model, amp, f.knots, settings, need_grad=False)
    value = float(np.sum(seg)) if not divergent else np.inf
    return ActionValue(value, seg, True, divergent, warnings)


def limit_ode(model: KernelModel, x, steps: int) -> Trajectory:
    """Mean flow f' = cgf_grad(f, 0) by classical Runge-Kutta, f(0) = x.

    Takes `steps` uniform RK steps and returns the sampled polygon with
    steps + 1 knots.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    x = kernel._as_vector(x, model.dim, "x")
    zero = np.zeros(model.dim)

    def field_(y):
        return np.asarray(model.cgf_grad(y, zero), dtype=np.float64)

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


def _project_terminal(knots, terminal):
    if isinstance(terminal, TerminalHalfspace):
        xi, c = terminal.normal, terminal.level
        viol = c - float(knots[-1] @ xi)
        if viol > 0.0:
            knots[-1] = knots[-1] + viol * xi
    return knots


def _projected_grad(g_knots, terminal, knots):
    """Stationarity residual over the movable knots.

    The start row is reported as is (callers drop it), a point-constrained
    terminal contributes nothing, and at an active half-space boundary only
    the tangential part of the terminal gradient counts.
    """
    pg = g_knots.copy()
    if isinstance(terminal, TerminalPoint):
        pg[-1] = 0.0
    else:
        xi, c = terminal.normal, terminal.level
        slack = float(knots[-1] @ xi) - c
        if slack <= 1e-9 * (1.0 + abs(c)):
            gn = float(pg[-1] @ xi)
            if gn > 0.0:
                pg[-1] = pg[-1] - gn * xi
    return pg


def _null_basis(xi: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to xi, shape (d, d-1)."""
    d = len(xi)
    if d == 1:
        return np.zeros((1, 0))
    return null_space(xi[None, :])


def minimize_action(problem: ActionProblem) -> MinimizeResult:
    """Minimize the path cost over knots subject to the terminal constraint.

    BFGS over the free knots, initialized at the straight line to the
    target (its nearest boundary point for a half-space).  The half-space
    constraint is handled by an active set: while the terminal sits on the
    boundary with a positive multiplier it is pinned there and only its
    tangential coordinates stay free; the BFGS memory is reset whenever the
    active set flips or a trial step had to be projected back to the
    feasible side.  Segments priced at +inf during the search are replaced
    by a large finite barrier so backtracking can step back into the
    finite domain.  The returned result certifies stationarity through the
    projected gradient norm.
    """
    model, x, terminal = problem.model, problem.x, problem.terminal
    m, a, settings = problem.m, problem.a, problem.settings
    d = model.dim
    m_seg = m - 1

    if isinstance(terminal, TerminalPoint):
        target = kernel._as_vector(terminal.point, d, "terminal.point")
        init = straight_line(x, target, m)
        free_terminal = False
        xi = c = tangent = None
    else:
        xi, c = terminal.normal, terminal.level
        tangent = _null_basis(xi)
        foot = x + max(0.0, c - float(x @ xi)) * xi
        init = straight_line(x, foot, m)
        free_terminal = True

    start_val = action(model, x, a, init, settings)
    if not np.isfinite(start_val.value):
        raise InfeasibleProblemError(
            "straight-line candidate has infinite cost"
            + (f" ({start_val.reason})" if start_val.reason else "")
        )

    knots = init.knots.copy()
    knots_template = knots.copy()
    n_int = (m_seg - 1) * d

    def pack(kn, active):
        parts = [kn[1:m_seg].ravel()]
        if free_terminal:
            parts.append(tangent.T @ kn[m_seg] if active else kn[m_seg])
        return np.concatenate(parts)

    def pack_grad(g_kn, active):
        parts = [g_kn[1:m_seg].ravel()]
        if free_terminal:
            parts.append(tangent.T @ g_kn[m_seg] if active else g_kn[m_seg])
        return np.concatenate(parts)

    def unpack(vec, active):
        kn = knots_template.copy()
        kn[1:m_seg] = vec[:n_int].reshape(m_seg - 1, d)
        if free_terminal:
            kn[m_seg] = c * xi + tangent @ vec[n_int:] if active else vec[n_int:]
        return kn

    def want_active(kn, g_kn):
        if not free_terminal:
            return False
        slack = float(kn[m_seg] @ xi) - c
        return slack <= 1e-9 * (1.0 + abs(c)) and float(g_kn[m_seg] @ xi) > 0.0

    def evaluate(kn):
        seg, grad, divergent, warn = _quadrature_pass(model, a, kn, settings, need_grad=True)
        if divergent:
            return BARRIER, None, warn
        return float(np.sum(seg)), grad, warn

    warnings: List[str] = []
    log: List[Tuple[int, float, float, float]] = []

    f_cur, g_knots, warn = evaluate(knots)
    if g_knots is None:
        raise InfeasibleProblemError("initial candidate priced at the barrier; no finite descent start")
    if warn:
        warnings.append(f"conjugate solver hit max-iterations at {len(warn)} node(s)")

    active = want_active(knots, g_knots)
    v = pack(knots, active)
    g = pack_grad(g_knots, active)
    nfree = len(v)
    h_inv = np.eye(nfree)
    converged = False
    it = 0
    pg_norm = float(np.linalg.norm(_projected_grad(g_knots, terminal, knots)[1:]))
    log.append((0, f_cur, pg_norm, 0.0))

    if nfree == 0:
        final = action(model, x, a, Trajectory(knots), settings)
        return MinimizeResult(Trajectory(knots), final, True, pg_norm, 0, warnings, log)

    for it in range(1, settings.max_iter + 1):
        if pg_norm <= settings.grad_tol:
            converged = True
            break
        p = -h_inv @ g
        if float(p @ g) >= 0.0:
            p = -g
        step = 1.0
        accepted = False
        projected = False
        for _ in range(settings.max_halvings):
            raw_knots = unpack(v + step * p, active)
            cand_knots = _project_terminal(raw_knots.copy(), terminal)
            projected = bool(np.any(cand_knots[m_seg] != raw_knots[m_seg])) if free_terminal else False
            move = pack(cand_knots, active) - v
            if float(np.linalg.norm(move)) == 0.0:
                break
            f_new, g_new_knots, warn = evaluate(cand_knots)
            decrease_ref = settings.armijo * float(g @ move)
            if g_new_knots is not None and f_new <= f_cur + min(decrease_ref, 0.0):
                accepted = True
                break
            step *= 0.5
        if not accepted:
            warnings.append(f"line search stalled at iteration {it}")
            break
        if warn:
            warnings.append(f"conjugate solver hit max-iterations at {len(warn)} node(s)")
        new_active = want_active(cand_knots, g_new_knots)
        if new_active == active and not projected:
            cand_v = pack(cand_knots, active)
            g_new = pack_grad(g_new_knots, active)
            s_vec = cand_v - v
            y_vec = g_new - g
            sy = float(s_vec @ y_vec)
            if sy > 1e-12 * float(np.linalg.norm(s_vec)) * float(np.linalg.norm(y_vec)):
                rho = 1.0 / sy
                outer = np.outer(s_vec, y_vec)
                h_inv = (np.eye(nfree) - rho * outer) @ h_inv @ (np.eye(nfree) - rho * outer.T)
                h_inv += rho * np.outer(s_vec, s_vec)
            v, g = cand_v, g_new
        else:
            active = new_active
            v = pack(cand_knots, active)
            g = pack_grad(g_new_knots, active)
            nfree = len(v)
            h_inv = np.eye(nfree)
        f_cur, knots, g_knots = f_new, cand_knots, g_new_knots
        pg_norm = float(np.linalg.norm(_projected_grad(g_knots, terminal, knots)[1:]))
        log.append((it, f_cur, pg_norm, step))
    else:
        it = settings.max_iter

    if pg_norm <= settings.grad_tol:
        converged = True

    traj = Trajectory(knots)
    final = action(model, x, a, traj, settings)
    if settings.log_path:
        with open(settings.log_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "value", "grad_norm", "step"])
            for row in log:
                writer.writerow([row[0]] + [repr(float(val)) for val in row[1:]])
    return MinimizeResult(traj, final, converged, pg_norm, it, warnings, log)
