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

Draw discipline: every simulation in the package runs one batched stepper
over rows of replicas; a single path is its one-row case.  Each step draws
the model increments for all rows from the run's generator rng
(kernel.sample_rows).  A run with a > 0 draws its Gaussian smoothing noise
from the child stream rng.spawn(1)[0]; at a = 0 nothing is spawned or
drawn.  So runs at every amplitude share the model draws of a seed and
couple pathwise.  Tilted runs draw the Gaussian base noise with a shifted
mean and take no smoothing draw.  The stepper raises SimulationBlowup(k)
at the first step k whose state is not finite, so every caller fails alike.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.random import Generator, default_rng

from .errors import SimulationBlowup
from . import kernel
from .kernel import AffineNoiseModel, KernelModel, perturbation_amplitude

_SNAP = 1e-12


def gauss_legendre_01():
    """Order-5 Gauss-Legendre nodes and weights on [0, 1]; weights sum to 1."""
    x, w = leggauss(5)
    return 0.5 * (x + 1.0), 0.5 * w


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-linear path with n + 1 uniformly spaced knots on [0, 1]."""

    knots: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.knots, dtype=np.float64)
        if k.ndim == 1:
            k = k[:, None]
        if k.ndim != 2 or k.shape[0] < 2:
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
    """Evaluate the path at times in [0, 1], shape (m,) -> (m, d); knot times reproduce knots exactly."""
    ts = np.asarray(ts, dtype=np.float64)
    if not np.all((ts >= 0.0) & (ts <= 1.0)):  # NaN fails both comparisons
        raise ValueError("all times must lie in [0, 1]")
    n = traj.n
    kf = ts * n
    k = np.minimum(np.floor(kf).astype(np.int64), n - 1)
    theta = kf - k
    # snap to the lattice so t = k/n returns the knot bit for bit
    theta = np.where(theta < _SNAP, 0.0, theta)
    theta = np.where(theta > 1.0 - _SNAP, 1.0, theta)
    return (1.0 - theta)[:, None] * traj.knots[k] + theta[:, None] * traj.knots[k + 1]


def resample(traj: Trajectory, n: int) -> Trajectory:
    """Re-knot the path on the uniform n-lattice (exact when grids nest)."""
    n = kernel._as_count(n, "n", 1)
    return Trajectory(eval_path_many(traj, np.arange(n + 1) / n))


@dataclass(frozen=True)
class DualMeasure:
    """Atomic vector measure sum_j alpha_j delta_{t_j} on [0, 1]."""

    times: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.times, dtype=np.float64))
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim == 1:
            w = w[:, None] if len(t) == len(w) else w[None, :]
        if t.ndim != 1 or w.shape[0] != t.shape[0]:
            raise ValueError(f"times {t.shape} and weights {w.shape} do not align")
        if len(t) and (t.min() < 0.0 or t.max() > 1.0):
            raise ValueError("atom times must lie in [0, 1]")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(w))):
            raise ValueError("atoms must be finite")
        order = np.argsort(t, kind="stable")
        object.__setattr__(self, "times", t[order])
        object.__setattr__(self, "weights", w[order])

    @classmethod
    def zero(cls, dim: int) -> "DualMeasure":
        return cls(np.empty(0), np.empty((0, dim)))

    @classmethod
    def point_mass(cls, t: float, weight) -> "DualMeasure":
        w = np.atleast_1d(np.asarray(weight, dtype=np.float64))
        return cls(np.array([t]), w[None, :])

    @classmethod
    def from_atoms(cls, atoms: Iterable) -> "DualMeasure":
        atoms = list(atoms)
        if not atoms:
            raise ValueError("from_atoms needs at least one atom; use zero(dim) for the empty measure")
        ts = np.array([a[0] for a in atoms], dtype=np.float64)
        ws = np.stack([np.atleast_1d(np.asarray(a[1], dtype=np.float64)) for a in atoms])
        return cls(ts, ws)

    @property
    def dim(self) -> int:
        return self.weights.shape[1]

    def total_mass(self) -> np.ndarray:
        """lam([0, 1]), the vector sum of all atom weights."""
        return self.weights.sum(axis=0) if len(self.times) else np.zeros(self.dim)

    def variation(self) -> float:
        return float(np.sum(np.linalg.norm(self.weights, axis=1))) if len(self.times) else 0.0

    def scaled(self, factor: float) -> "DualMeasure":
        return DualMeasure(self.times.copy(), factor * self.weights)

    def basis_integrals(self, n: int) -> np.ndarray:
        """Row i-1 holds int phi_{n,i} d lam = sum_j alpha_j phi_{n,i}(t_j)."""
        if not len(self.times):
            return np.zeros((n, self.dim))
        i = np.arange(1, n + 1)[:, None]
        phi = np.clip(n * self.times[None, :] - (i - 1), 0.0, 1.0)
        return phi @ self.weights


def _run_args(model: KernelModel, x, n_grid, a, seed, samples=1, workers=1, min_samples=1):
    """The checked arguments of a run: (x, a, n_grid, seed, samples, workers).

    x must be a finite vector of the model's dimension, n_grid a nonempty
    list of integers n >= 1, a finite and >= 0, seed an integer >= 0,
    samples an integer >= min_samples (2 where a ddof=1 standard error is
    reported) and workers an integer >= 1.  A numpy integer is returned as
    a plain int; a bool or a float is refused.  Every run entry point calls
    this first, so a bad argument fails before any model callback, plan,
    reference solve or draw.
    """
    x = kernel._as_vector(x, model.dim, "x")
    n_grid = [kernel._as_count(n, "n", 1) for n in n_grid]
    if not n_grid:
        raise ValueError("n_grid must be nonempty")
    return (x, perturbation_amplitude(a), n_grid, kernel._as_count(seed, "seed", 0),
            kernel._as_count(samples, "samples", min_samples), kernel._as_count(workers, "workers", 1))


def _check_finite(states: np.ndarray, k: int) -> None:
    if not np.isfinite(states).all():
        raise SimulationBlowup(k)


def _euler_steps(model: KernelModel, x: np.ndarray, n: int, a: float, rng: Generator, rows: int, shifts=None):
    """Run `rows` replicas of the scheme from x; yield (k, prev, inc, state) per step.

    inc = F_k + a g_k is the full increment, so state = prev + inc / n.
    Each step draws the model increments of all rows from rng
    (kernel.sample_rows); at a > 0 the smoothing Gaussians come from
    rng.spawn(1)[0], spawned once per run.  With shifts, an (n, d) array,
    the run is tilted: it yields the base draw xi_k, of mean shifts[k - 1],
    in place of inc; sigma must be constant and nothing is spawned.
    Raises SimulationBlowup(k) at the first non-finite step.

    Every array yielded is new at its step and never written afterwards, so
    a caller may keep prev, inc (or xi) and state across steps.  The other
    row passes of a step write into one scratch array owned by this call.
    Callers check n with _run_args first.
    """
    state = np.broadcast_to(x, (rows, model.dim)).copy()
    smooth = rng.spawn(1)[0] if a > 0.0 and shifts is None else None
    scratch = np.empty_like(state)
    for k in range(1, n + 1):
        if shifts is None:
            inc = kernel.sample_rows(model, state, rng)
            if smooth is not None:
                g = smooth.standard_normal(state.shape)
                g *= a
                inc = np.add(inc, g, out=g)
        else:
            xi = rng.standard_normal(state.shape)
            xi += shifts[k - 1]
            inc = kernel._affine_rows(model, state, xi, scratch)
        prev, state = state, state + np.divide(inc, n, out=scratch)
        _check_finite(state, k)
        yield k, prev, inc if shifts is None else xi, state


def simulate(model: KernelModel, x, n: int, a, seed: int) -> Trajectory:
    """Simulate one path of the scheme from default_rng(seed); bit-reproducible.

    Raises SimulationBlowup with the offending step index if the state
    leaves the representable range.
    """
    x, amp, (n,), seed, _, _ = _run_args(model, x, [n], a, seed)
    knots = np.empty((n + 1, model.dim))
    knots[0] = x
    for k, _, _, state in _euler_steps(model, x, n, amp, default_rng(seed), 1):
        knots[k] = state[0]
    return Trajectory(knots)


def phi_n(model: KernelModel, x, a, traj: Trajectory, lam: DualMeasure) -> float:
    """Discrete dual functional of the scheme at resolution traj.n.

    <x, lam([0,1])> + sum_i cgf_a(knots[i-1], beta_i / n) with beta_i the
    tent-basis integrals of lam.
    """
    amp = perturbation_amplitude(a)
    x = kernel._as_vector(x, model.dim, "x")
    kernel._require_dim("path", traj.dim, model.dim)
    kernel._require_dim("measure", lam.dim, model.dim)
    n = traj.n
    alphas = lam.basis_integrals(n) / n
    ys = traj.knots[:-1]
    total = float(x @ lam.total_mass())
    total += float(np.sum(kernel.cgf_rows(model, ys, alphas)))
    if amp > 0.0:
        total += 0.5 * amp * amp * float(np.sum(alphas * alphas))
    return total


def phi_limit(model: KernelModel, x, a, f: Trajectory, lam: DualMeasure) -> float:
    """Continuum dual functional <x, lam([0,1])> + int cgf_a(f(s), lam([s,1])) ds.

    The tail lam([s, 1]) is piecewise constant between atoms, so the
    integral is assembled piecewise with order-5 Gauss-Legendre quadrature
    between consecutive breakpoints (knots of f plus atom times).
    """
    amp = perturbation_amplitude(a)
    x = kernel._as_vector(x, model.dim, "x")
    kernel._require_dim("path", f.dim, model.dim)
    kernel._require_dim("measure", lam.dim, model.dim)
    breaks = np.unique(np.concatenate([f.times, lam.times, [0.0, 1.0]]))
    nodes, weights = gauss_legendre_01()

    ss, als, ws = [], [], []
    for u, v in zip(breaks[:-1], breaks[1:]):
        if v <= u:
            continue
        tail = lam.weights[lam.times > u].sum(axis=0) if len(lam.times) else np.zeros(lam.dim)
        for q, w in zip(nodes, weights):
            ss.append(u + q * (v - u))
            als.append(tail)
            ws.append(w * (v - u))
    ss = np.asarray(ss)
    als = np.asarray(als)
    ws = np.asarray(ws)
    ys = eval_path_many(f, ss)
    vals = kernel.cgf_rows(model, ys, als)
    if amp > 0.0:
        vals = vals + 0.5 * amp * amp * np.sum(als * als, axis=1)
    return float(x @ lam.total_mass()) + float(ws @ vals)


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
    x, amp, (n,), seed, _, _ = _run_args(model, x, [n], a, seed)
    b = kernel._as_count(realizations, "realizations", 1)
    if not isinstance(model, AffineNoiseModel):
        raise TypeError("pathwise coupling needs the affine structure to share draws")
    plain = _euler_steps(model, x, n, 0.0, default_rng(seed), b)
    smooth = _euler_steps(model, x, n, amp, default_rng(seed), b)
    g_stream = default_rng(seed).spawn(1)[0]
    gaps = np.zeros(b)
    ratio_sum = np.zeros(b)
    g_norm_sum = np.zeros(b)
    for (_, prev_p, f_p, state_p), (_, prev_s, inc_s, state_s) in zip(plain, smooth):
        g = g_stream.standard_normal(state_s.shape)
        diff_state = np.linalg.norm(prev_s - prev_p, axis=1)
        diff_f = np.linalg.norm(inc_s - amp * g - f_p, axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            h = np.where(diff_state > 0.0, diff_f / diff_state, 0.0)
        ratio_sum += h
        g_norm_sum += np.linalg.norm(g, axis=1)
        gaps = np.maximum(gaps, np.linalg.norm(state_s - state_p, axis=1))
    bounds = (amp / n) * g_norm_sum * np.exp(ratio_sum / n)
    return gaps, bounds


# ---------------------------------------------------------------------------
# trajectory serialization: CSV with header t,x1,...,xd

def save_trajectory(traj: Trajectory, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x{i + 1}" for i in range(traj.dim)])
        for t, row in zip(traj.times, traj.knots):
            writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])


def load_trajectory(path) -> Trajectory:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "t" or len(header) < 2:
            raise ValueError(f"{path}: expected header t,x1,...,xd, got {header}")
        rows = [[float(v) for v in row] for row in reader if row]
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least two knot rows")
    data = np.asarray(rows, dtype=np.float64)
    times, knots = data[:, 0], data[:, 1:]
    n = len(times) - 1
    if np.max(np.abs(times - np.arange(n + 1) / n)) > 1e-9:
        raise ValueError(f"{path}: knot times must form the uniform lattice k/n")
    return Trajectory(knots)
