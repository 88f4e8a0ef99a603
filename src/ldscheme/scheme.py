"""Euler recursions on [0, 1] and their duality bookkeeping.

The scheme advances n uniform steps of size 1/n,

    X_k = X_{k-1} + (F_k(X_{k-1}) + a g_k) / n,

with F_k drawn from the model's increment law at the current state and g_k
fresh standard Gaussians scaled by the smoothing amplitude a.  The knots are
read as a piecewise-linear path on [0, 1] through the tent basis

    phi_{n,i}(t) = clip(n t - (i - 1), 0, 1),

so that path(t) = x + sum_i (X_i - X_{i-1}) phi_{n,i}(t).

Against an atomic vector measure lam = sum_j alpha_j delta_{t_j} the scheme
satisfies an exact exponential normalization: with

    dual_functional_n(path, lam)
        = <x, lam([0,1])> + sum_i cgf_a(X_{i-1}, beta_i / n),
    beta_i = sum_j alpha_j phi_{n,i}(t_j),

the mean of exp[<path, lam> - dual_functional_n(path, lam)] over runs is
exactly 1.  Its n -> inf limit is

    dual_functional_limit(f, lam)
        = <x, lam([0,1])> + int_0^1 cgf_a(f(s), lam([s, 1])) ds,

approached at rate O(1/n) after rescaling lam by n (see scaling tests).
phi_n and phi_limit evaluate the two as one sum over nodes, _dual_functional.

Draw discipline: every simulation in the package runs one batched stepper
over rows of replicas; a single path is its one-row case.  Each step draws
the model increments for all rows from the run's generator rng
(model.sampler).  A run with a > 0 draws its Gaussian smoothing noise
from the child stream rng.spawn(1)[0]; at a = 0 nothing is spawned or
drawn.  So runs at every amplitude share the model draws of a seed and
couple pathwise.  Tilted runs draw the base noise (model.base.sample),
shift its mean and take no smoothing draw.  The stepper raises
SimulationBlowup(k) at the first step k whose state is not finite, so
every caller fails alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import SimulationBlowup
from . import kernel
from .kernel import AffineNoiseModel, KernelModel

if TYPE_CHECKING:  # numpy.random loads on first use, not at import
    from numpy.random import Generator

_SNAP = 1e-12


# Order-5 Gauss-Legendre nodes and weights on [0, 1], read-only and shared (weights sum to 1).  The literals are the
# exact values of 0.5 * (leggauss(5)[0] + 1.0) and 0.5 * leggauss(5)[1], so importing loads no numpy.polynomial.
_GL_NODES = np.array([0.04691007703066802, 0.23076534494715845, 0.5, 0.7692346550528415, 0.9530899229693319])
_GL_WEIGHTS = np.array([0.11846344252809464, 0.23931433524968315, 0.28444444444444433, 0.23931433524968315,
                        0.11846344252809464])
_GL_NODES.flags.writeable = _GL_WEIGHTS.flags.writeable = False


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-linear path with n + 1 uniformly spaced knots on [0, 1]; 1-D knots make a 1-D path."""

    knots: np.ndarray

    def __post_init__(self):
        k = kernel._as_reals(self.knots, "knots", lambda ndim: ("N",) if ndim == 1 else ("N", "d"))
        if k.ndim == 1:
            k = k[:, None]
        if k.shape[0] < 2:
            raise ValueError(f"knots must be (n+1, d) with n >= 1, got shape {np.shape(self.knots)}")
        object.__setattr__(self, "knots", k)

    @property
    def n(self) -> int:
        return self.knots.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.knots.shape[1]

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n + 1) / self.n


def eval_path_many(traj: Trajectory, ts: np.ndarray) -> np.ndarray:
    """Evaluate the path at times in [0, 1], shape (m,) -> (m, d), a number being one time; knots come back exactly."""
    ts = kernel._as_reals(ts, "ts", ("N",))
    if not np.all((ts >= 0.0) & (ts <= 1.0)):
        raise ValueError("all times must lie in [0, 1]")
    n = traj.n
    kf = ts * n
    k = np.minimum(np.floor(kf).astype(np.int64), n - 1)
    theta = kf - k
    # snap to the lattice so t = k/n returns the knot bit for bit
    theta = np.where(theta < _SNAP, 0.0, theta)
    theta = np.where(theta > 1.0 - _SNAP, 1.0, theta)
    return (1.0 - theta)[:, None] * traj.knots[k] + theta[:, None] * traj.knots[k + 1]


@dataclass(frozen=True)
class DualMeasure:
    """Atomic vector measure sum_j alpha_j delta_{t_j} on [0, 1].

    weights is (len(times), d), or 1-D: one scalar weight per atom when it is as long as times, else the d-vector of
    a single atom.  A bare number is one atom time, never a weight; any other shape is a ValueError naming the weights.
    """

    times: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        t = kernel._as_reals(self.times, "atom times", ("N",))
        w = kernel._as_reals(self.weights, "atom weights", lambda ndim: ("d",) if ndim == 1 else (len(t), "d"))
        if w.ndim == 1:
            w = w[:, None] if len(t) == len(w) else w[None, :]
        if w.shape[0] != len(t):
            raise ValueError(f"times {t.shape} and weights {w.shape} do not align")
        if len(t) and (t.min() < 0.0 or t.max() > 1.0):
            raise ValueError("atom times must lie in [0, 1]")
        order = np.argsort(t, kind="stable")
        object.__setattr__(self, "times", t[order])
        object.__setattr__(self, "weights", w[order])

    @classmethod
    def zero(cls, dim: int) -> "DualMeasure":
        return cls(np.empty(0), np.empty((0, dim)))

    @classmethod
    def point_mass(cls, t: float, weight) -> "DualMeasure":
        """The atom weight delta_t; weight is a d-vector or, for d = 1, a number."""
        return cls([t], [weight])

    @classmethod
    def from_atoms(cls, atoms: Iterable) -> "DualMeasure":
        atoms = list(atoms)
        if not atoms:
            raise ValueError("from_atoms needs at least one atom; use zero(dim) for the empty measure")
        return cls([a[0] for a in atoms], [a[1] for a in atoms])

    @property
    def dim(self) -> int:
        return self.weights.shape[1]

    def total_mass(self) -> np.ndarray:
        """lam([0, 1]), the vector sum of all atom weights."""
        return self.weights.sum(axis=0)

    def variation(self) -> float:
        return float(np.sum(kernel._row_norms(self.weights)))

    def scaled(self, factor: float) -> "DualMeasure":
        return DualMeasure(self.times.copy(), kernel._as_real(factor, "factor") * self.weights)

    def basis_integrals(self, n: int) -> np.ndarray:
        """Row i-1 holds int phi_{n,i} d lam = sum_j alpha_j phi_{n,i}(t_j)."""
        n = kernel._as_count(n, "n", 1)
        i = np.arange(1, n + 1)[:, None]
        phi = np.clip(n * self.times[None, :] - (i - 1), 0.0, 1.0)
        return phi @ self.weights


def _run_args(model: KernelModel, x, a, seed, samples=1, workers=1, min_samples=1):
    """The checked arguments of a run: (x, a, seed, samples, workers).

    x must be a finite vector of the model's dimension, a finite and >= 0,
    seed an integer >= 0, samples an integer >= min_samples (2 where a
    ddof=1 standard error is reported) and workers an integer >= 1.  A
    numpy integer is returned as a plain int; a bool or a float is refused.
    Every run entry point reads its n (kernel._as_count) or its n_grid
    (kernel._as_counts) and then calls this, so a bad argument fails before
    any model callback, plan, reference solve or draw.
    """
    x = kernel._as_reals(x, "x", (model.dim,))
    return (x, kernel._as_real(a, "a", 0), kernel._as_count(seed, "seed", 0),
            kernel._as_count(samples, "samples", min_samples), kernel._as_count(workers, "workers", 1))


def _euler_steps(model: KernelModel, x: np.ndarray, n: int, a: float, rng: Generator, rows: int, shifts=None):
    """Run `rows` replicas of the scheme from x; yield (k, prev, inc, state) per step.

    inc = F_k + a g_k is the full increment, so state = prev + inc / n.
    Each step draws the model increments of all rows from rng (model.sampler,
    whose draw must be exactly (rows, d)); at a > 0 the smoothing Gaussians
    come from rng.spawn(1)[0], spawned once per run.  With shifts, an (n, d)
    array, the run is tilted: it yields the base draw xi_k (model.base.sample)
    plus shifts[k - 1] in place of inc; sigma must be constant and nothing is
    spawned.  That is the tilted law of a Gaussian base only, which the tilted
    estimator's plan requires.  Raises SimulationBlowup(k) at the first
    non-finite step.

    Every array yielded is new at its step and never written afterwards, so
    a caller may keep prev, inc (or xi) and state across steps.  The other
    row passes of a step write into one scratch array owned by this call.
    Callers check n with kernel._as_count first.
    """
    state = np.broadcast_to(x, (rows, model.dim)).copy()
    smooth = rng.spawn(1)[0] if a > 0.0 and shifts is None else None
    scratch = np.empty_like(state)
    for k in range(1, n + 1):
        if shifts is None:
            inc = kernel._block("sampler", model.sampler(state, rng), state.shape)
            if smooth is not None:
                g = smooth.standard_normal(state.shape)
                g *= a
                inc = np.add(inc, g, out=g)
        else:
            xi = np.require(model.base.sample(rng, state.shape), np.float64, "W")
            xi += shifts[k - 1]
            inc = kernel._affine_rows(model, state, xi, scratch)
        prev, state = state, state + np.divide(inc, n, out=scratch)
        if not np.isfinite(state).all():
            raise SimulationBlowup(k)
        yield k, prev, inc if shifts is None else xi, state


def simulate(model: KernelModel, x, n: int, a, seed: int) -> Trajectory:
    """Simulate one path of the scheme from default_rng(seed); bit-reproducible.

    Raises SimulationBlowup with the offending step index if the state
    leaves the representable range.
    """
    n = kernel._as_count(n, "n", 1)
    x, amp, seed, _, _ = _run_args(model, x, a, seed)
    knots = np.empty((n + 1, model.dim))
    knots[0] = x
    for k, _, _, state in _euler_steps(model, x, n, amp, np.random.default_rng(seed), 1):
        knots[k] = state[0]
    return Trajectory(knots)


def _dual_functional(model: KernelModel, x, a, path: Trajectory, lam: DualMeasure, ys, alphas, weights=None) -> float:
    """<x, lam([0,1])> + sum_j w_j cgf_a(ys_j, alphas_j): phi_n's nodes with unit weights, or phi_limit's quadrature."""
    amp = kernel._as_real(a, "a", 0)
    x = kernel._as_reals(x, "x", (model.dim,))
    kernel._require_dim("path", path.dim, model.dim)
    kernel._require_dim("measure", lam.dim, model.dim)
    vals = kernel._block("cgf", model.cgf(ys, alphas), (len(ys),))
    if amp > 0.0:
        vals = vals + 0.5 * amp * amp * kernel._sq_norm(alphas)
    return float(x @ lam.total_mass()) + float(np.sum(vals) if weights is None else weights @ vals)


def phi_n(model: KernelModel, x, a, traj: Trajectory, lam: DualMeasure) -> float:
    """Discrete dual functional of the scheme at resolution traj.n.

    <x, lam([0,1])> + sum_i cgf_a(knots[i-1], beta_i / n) with beta_i the
    tent-basis integrals of lam.
    """
    return _dual_functional(model, x, a, traj, lam, traj.knots[:-1], lam.basis_integrals(traj.n) / traj.n)


def phi_limit(model: KernelModel, x, a, f: Trajectory, lam: DualMeasure) -> float:
    """Continuum dual functional <x, lam([0,1])> + int cgf_a(f(s), lam([s,1])) ds.

    The tail lam([s, 1]) is piecewise constant between atoms, so the
    integral is assembled piecewise with the order-5 Gauss-Legendre rule
    (_GL_NODES, _GL_WEIGHTS) between consecutive breakpoints (knots of f
    plus atom times).
    """
    breaks = np.unique(np.concatenate([f.times, lam.times, [0.0, 1.0]]))
    u, h = breaks[:-1, None], np.diff(breaks)[:, None]
    tails = np.array([lam.weights[lam.times > s].sum(axis=0) for s in breaks[:-1]])
    ys = eval_path_many(f, (u + _GL_NODES * h).ravel())
    alphas = np.repeat(tails, len(_GL_NODES), axis=0)
    return _dual_functional(model, x, a, f, lam, ys, alphas, (_GL_WEIGHTS * h).ravel())


def coupled_perturbation_gaps(
    model, x, n: int, a, seed: int, realizations: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Pathwise gap between smoothed and unsmoothed runs, with its certificate.

    The runs at a and at 0 are two stepper runs from default_rng(seed) in
    lockstep, so they share every model draw Z_k; the smoothing draws g_k
    are replayed from default_rng(seed).spawn(1)[0], which gives the
    smoothed run's F_k(y_k) = inc_k - a g_k.  At realizations=1 the two
    chains are simulate's paths at a and at 0 for the same seed.  The
    certificate

        bound = (a / n) * sum_j |g_j| * exp( (1/n) * sum_i H_i ),
        H_i = |F_i(y_i) - F_i(y'_i)| / |y_i - y'_i|   (0 when states agree),

    dominates the realized sup-norm gap realization by realization.  Returns
    arrays of shape (realizations,).
    """
    n = kernel._as_count(n, "n", 1)
    x, amp, seed, _, _ = _run_args(model, x, a, seed)
    b = kernel._as_count(realizations, "realizations", 1)
    if not isinstance(model, AffineNoiseModel):
        raise ValueError("model must be an AffineNoiseModel: pathwise coupling needs the affine structure to share draws")
    plain = _euler_steps(model, x, n, 0.0, np.random.default_rng(seed), b)
    smooth = _euler_steps(model, x, n, amp, np.random.default_rng(seed), b)
    g_stream = np.random.default_rng(seed).spawn(1)[0]
    gaps = np.zeros(b)
    ratio_sum = np.zeros(b)
    g_norm_sum = np.zeros(b)
    for (_, prev_p, f_p, state_p), (_, prev_s, inc_s, state_s) in zip(plain, smooth):
        g = g_stream.standard_normal(state_s.shape)
        diff_state = kernel._row_norms(prev_s - prev_p)
        diff_f = kernel._row_norms(inc_s - amp * g - f_p)
        with np.errstate(invalid="ignore", divide="ignore"):
            h = np.where(diff_state > 0.0, diff_f / diff_state, 0.0)
        ratio_sum += h
        g_norm_sum += kernel._row_norms(g)
        gaps = np.maximum(gaps, kernel._row_norms(state_s - state_p))
    bounds = (amp / n) * g_norm_sum * np.exp(ratio_sum / n)
    return gaps, bounds


# ---------------------------------------------------------------------------
# trajectory serialization: CSV with header t,x1,...,xd

def _write_csv(path, header, rows) -> None:
    """The header, then each row, a float (numpy's too) written as repr(float(v)), which reads back bit for bit."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row])


def save_trajectory(traj: Trajectory, path) -> None:
    _write_csv(path, ["t"] + [f"x{i + 1}" for i in range(traj.dim)], np.column_stack([traj.times, traj.knots]))


def load_trajectory(path) -> Trajectory:
    import csv

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "t" or len(header) < 2:
            raise ValueError(f"{path}: expected header t,x1,...,xd, got {header}")
        rows = []
        for row in filter(None, reader):
            where = f"{path}, line {reader.line_num}"
            if len(row) != len(header):
                raise ValueError(f"{where}: expected {len(header)} fields, as in the header, got {len(row)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least two knot rows")
    data = np.asarray(rows, dtype=np.float64)
    times, knots = data[:, 0], data[:, 1:]
    n = len(times) - 1
    if not np.all(np.abs(times - np.arange(n + 1) / n) <= 1e-9):  # a NaN time fails too
        raise ValueError(f"{path}: knot times must form the uniform lattice k/n")
    return Trajectory(knots)
