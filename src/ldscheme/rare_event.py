"""Monte Carlo estimators for rare events of the Euler scheme.

Three event families are supported: the terminal state entering a
half-space, the terminal state entering a closed ball, and the whole path
straying from a reference trajectory by at least epsilon in sup norm.

Naive estimation averages indicators.  For half-space targets under a
Gaussian-base affine model there is an exponentially tilted estimator: the
minimum-cost path into the half-space is computed first, each step of the
simulation then draws its noise with the mean shifted along that path, and
every sample carries the exact likelihood-ratio weight

    w = exp( sum_k [ cgf(X_{k-1}, alpha_k) - <F_k, alpha_k> ] )
      = exp( sum_k [ logmgf(sigma^T alpha_k) - <xi_k, sigma^T alpha_k> ] ),

with xi_k the step's tilted base draw, so drift is evaluated once per step,
by the stepper.  The weighted average is unbiased for any deterministic tilt
sequence alpha_k, here the conjugate maximizers along the minimizing path;
for state-independent drifts they collapse to the single dominating point.

Replication is chunked: replicas are processed in fixed blocks of
CHUNK_SIZE, block c drawing from the derived stream default_rng([seed, c])
(suites with an n-grid use [seed, grid_index, c]).  Results are therefore
bit-identical for a given seed no matter how many workers execute the
blocks.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import List, Optional, Tuple, Union

import numpy as np
from numpy.random import default_rng

from .errors import TiltUnreachableError
from . import conjugate as conj_mod
from . import kernel
from .action import ActionProblem, TerminalHalfspace, limit_ode, minimize_action
from .kernel import AffineNoiseModel, KernelModel
from .scheme import DualMeasure, Trajectory, _euler_steps, _run_args, eval_path_many

CHUNK_SIZE = 20_000
MINIMIZE_KNOTS = 21  # knot count of the minimum-cost path that plans a tilt
MAX_VARIATION = 2.0  # martingale_check's cap on the total variation of its measure

# The terminal event {<Y(1), normal> >= level} is the minimizer's half-space
# constraint type; HalfspaceEvent names it for callers of this module.
HalfspaceEvent = TerminalHalfspace


@dataclass(frozen=True)
class BallEvent:
    """Terminal event {|Y(1) - center| <= radius}."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=np.float64))
        if not np.all(np.isfinite(center)):
            raise ValueError("center must be finite")
        object.__setattr__(self, "center", center)
        if not 0.0 < self.radius < np.inf:
            raise ValueError(f"radius must be positive and finite, got {self.radius}")

    def record(self) -> dict:
        return {
            "kind": "terminal-ball",
            "center": [float(v) for v in self.center],
            "radius": float(self.radius),
        }


@dataclass(frozen=True)
class PathDeviationEvent:
    """Path event {sup_t |Y(t) - ref(t)| >= epsilon}.

    reference = None means the mean flow from the run's start, integrated
    at the run's own resolution.
    """

    epsilon: float
    reference: Optional[Trajectory] = None

    def __post_init__(self):
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")

    def record(self) -> dict:
        return {
            "kind": "sup-distance-from-path",
            "epsilon": float(self.epsilon),
            "reference": "mean-flow" if self.reference is None else "explicit",
        }


EventSpec = Union[TerminalHalfspace, BallEvent, PathDeviationEvent]


@dataclass
class EstimateReport:
    model: str
    event: dict
    n: int
    samples: int
    p_hat: float
    stderr: float
    empirical_rate: Optional[float]
    predicted_rate: Optional[float]
    method: str
    seed: int

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass
class MartingaleCheck:
    mean: float
    stderr: float
    samples: int
    n: int
    a: float
    variation: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def _require_event_dim(event: EventSpec, dim: int) -> None:
    """Reject an event whose normal, center or reference path is not in the model's dimension."""
    if isinstance(event, TerminalHalfspace):
        shape = event.normal.shape
    elif isinstance(event, BallEvent):
        shape = event.center.shape
    elif event.reference is not None:
        shape = (event.reference.dim,)
    else:
        return
    if shape != (dim,):
        raise ValueError(f"{event.record()['kind']} event has shape {shape}, the model dim is {dim}")


def _mean_stderr(vals: np.ndarray) -> Tuple[float, float]:
    """Sample mean and its ddof=1 standard error; the weighted estimators check samples >= 2 for it."""
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(len(vals)))


def _chunk_sizes(samples: int) -> List[int]:
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    full, rest = divmod(samples, CHUNK_SIZE)
    return [CHUNK_SIZE] * full + ([rest] if rest else [])


def _map_chunks(worker, samples: int, workers: int, rng_key) -> np.ndarray:
    """Run worker(rng, size) over fixed-size chunks and join the rows in chunk order.

    rng_key is the seed prefix; chunk c draws from default_rng([*rng_key, c]),
    so the result does not depend on the worker count.
    """
    jobs = list(enumerate(_chunk_sizes(samples)))

    def run(job):
        c, size = job
        return worker(default_rng(list(rng_key) + [c]), size)

    if workers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return np.concatenate(list(pool.map(run, jobs)))
    return np.concatenate([run(job) for job in jobs])


def _report(model, event: EventSpec, n, samples, seed, p, stderr, method, predicted=None) -> EstimateReport:
    """EstimateReport of p_hat = p; empirical_rate = -log(p) / n is None when p is 0."""
    rate = float(-np.log(p) / n) if p > 0.0 else None
    return EstimateReport(
        model=model.summary, event=event.record(), n=n, samples=samples, p_hat=p, stderr=stderr,
        empirical_rate=rate, predicted_rate=predicted, method=method, seed=seed,
    )


# ---------------------------------------------------------------------------
# event folds: each runs one chunk of the scheme stepper (scheme._euler_steps)
# and folds its per-step output into one value per replica

def _deviation_grid(event: EventSpec, model, x, n: int):
    """Union of the scheme lattice and the reference knots, grouped by step.

    Returns (ref_on_lattice, per_step) where per_step[k] is a (fracs, refs)
    pair for the off-lattice times inside ((k-1)/n, k/n], or None for a
    terminal event.  The mean-flow reference is solved here, once per n.
    """
    if not isinstance(event, PathDeviationEvent):
        return None
    ref = event.reference if event.reference is not None else limit_ode(model, x, steps=n)
    lattice = np.arange(n + 1) / n
    extra = np.setdiff1d(ref.times, lattice)
    ref_lattice = eval_path_many(ref, lattice)
    per_step: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [None] * (n + 1)
    refs = eval_path_many(ref, extra)
    steps = np.minimum(np.ceil(extra * n - 1e-12).astype(np.int64), n)
    for k in np.unique(steps):
        mask = steps == k
        per_step[k] = (extra[mask] * n - (k - 1), refs[mask])
    return ref_lattice, per_step


def _sq_norm(v: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm over the last axis: the sum that np.linalg.norm takes the root of.

    v is overwritten with its squares; at d = 1 the result is a view of v,
    which skips np.add.reduce's slow loop per row.
    """
    sq = np.square(v, out=v)
    return sq[..., 0] if sq.shape[-1] == 1 else np.add.reduce(sq, axis=-1)


def _hit_rows(model, x, n, a, event, grid, rng, size) -> np.ndarray:
    """Event indicators for `size` replicas; grid is _deviation_grid(event, model, x, n)."""
    steps = _euler_steps(model, x, n, a, rng, size)
    if grid is None:
        for _, _, _, state in steps:  # terminal events read the last state only
            pass
        if isinstance(event, TerminalHalfspace):
            return kernel._rdot(state, event.normal) >= event.level
        return np.linalg.norm(state - event.center, axis=1) <= event.radius
    # fold squared deviations, one root at the end: sqrt is monotone and
    # correctly rounded, so every hit is that of a per-step norm; a finite
    # state too large to square has an inf deviation, which is a hit
    ref_lattice, per_step = grid
    with np.errstate(over="ignore"):
        dev2 = _sq_norm(np.broadcast_to(x, (size, model.dim)) - ref_lattice[0])
    for k, prev, _, state in steps:
        with np.errstate(over="ignore"):
            extras = per_step[k]
            if extras is not None:
                fracs, refs = extras
                vals = prev[:, None, :] + fracs[None, :, None] * (state - prev)[:, None, :]
                np.maximum(dev2, _sq_norm(vals - refs[None, :, :]).max(axis=1), out=dev2)
            np.maximum(dev2, _sq_norm(state - ref_lattice[k]), out=dev2)
    return np.sqrt(dev2) >= event.epsilon


def _hits(model, x, n, a, event, samples, workers, rng_key) -> np.ndarray:
    """Event indicators of `samples` replicas, chunked under rng_key."""
    grid = _deviation_grid(event, model, x, n)
    worker = lambda rng, size: _hit_rows(model, x, n, a, event, grid, rng, size)
    return _map_chunks(worker, samples, workers, rng_key)


def mc_probability(model: KernelModel, x, n: int, a, event: EventSpec, samples: int, seed: int, workers: int = 1) -> EstimateReport:
    """Plain Monte Carlo estimate of the event probability.

    p_hat is the indicator average, stderr the binomial standard error
    sqrt(p (1 - p) / samples); empirical_rate = -log(p_hat) / n is None
    when no hit was observed.
    """
    x, amp, (n,), seed, samples, workers = _run_args(model, x, [n], a, seed, samples, workers)
    _require_event_dim(event, model.dim)
    p = float(np.mean(_hits(model, x, n, amp, event, samples, workers, (seed,))))
    return _report(model, event, n, samples, seed, p, float(np.sqrt(p * (1.0 - p) / samples)), "naive")


# ---------------------------------------------------------------------------
# tilted estimation

def _tilt_plan(model, x, event: TerminalHalfspace):
    """Minimum-cost path into the half-space and its cost (the predicted rate).

    The event and the model are checked first, before the mean flow is solved.
    """
    if not isinstance(event, TerminalHalfspace):
        raise ValueError("tilted estimation only covers terminal half-space events")
    if not (isinstance(model, AffineNoiseModel) and model.base.kind == "gaussian"):
        raise ValueError("tilted estimation requires an affine model with Gaussian base noise")
    if callable(model.sigma):
        raise ValueError("tilted estimation requires a constant sigma")
    _require_event_dim(event, model.dim)
    flow = limit_ode(model, x, steps=256)
    drift_terminal = float(flow.knots[-1] @ event.normal)
    if drift_terminal >= event.level:
        raise ValueError(
            f"event covers the mean flow terminal (<f(1), xi> = {drift_terminal:.6g} "
            f">= {event.level:.6g}); the event is not rare, use mc_probability"
        )
    return minimize_action(ActionProblem(model=model, x=x, terminal=event, m=MINIMIZE_KNOTS, a=0.0))


def _tilt_sequence(model, path: Trajectory, n: int) -> np.ndarray:
    """Conjugate maximizers along the path, one per scheme step, from one batched solve."""
    m_seg = path.n
    ts = np.arange(n) / n
    seg = np.minimum(np.floor(ts * m_seg).astype(np.int64), m_seg - 1)
    slopes = (path.knots[seg + 1] - path.knots[seg]) * m_seg
    res = conj_mod.fenchel_rows(model, eval_path_many(path, ts), slopes)
    failed = np.flatnonzero(res.status != conj_mod.CONVERGED)
    if failed.size:
        k = int(failed[0])
        raise TiltUnreachableError(
            f"tilt solve along the minimizing path failed at step {k + 1} (status {res.status[k]})"
        )
    return res.argmax


def _tilted_rows(model, x, n, event: TerminalHalfspace, alphas, rng, size) -> np.ndarray:
    """Weighted indicators w * 1_A for `size` tilted replicas."""
    thetas = kernel._sigma_t_dot(model.sigma, alphas)  # row k holds sigma^T alpha_k
    logmgfs = model.base.logmgf(thetas)
    logw = np.zeros(size)
    for k, _, xi, state in _euler_steps(model, x, n, 0.0, rng, size, shifts=thetas):
        pairing = kernel._rdot(xi, thetas[k - 1])
        logw += np.subtract(logmgfs[k - 1], pairing, out=pairing)
    hits = kernel._rdot(state, event.normal) >= event.level
    return np.exp(logw) * hits


def _tilted_estimate(model, x, n, event, samples, seed, workers, plan) -> EstimateReport:
    alphas = _tilt_sequence(model, plan.trajectory, n)
    worker = lambda rng, size: _tilted_rows(model, x, n, event, alphas, rng, size)
    p, stderr = _mean_stderr(_map_chunks(worker, samples, workers, seed))
    return _report(model, event, n, samples, seed[0], p, stderr, "tilted", float(plan.action.value))


def tilted_mc_probability(
    model: KernelModel,
    x,
    n: int,
    event: TerminalHalfspace,
    samples: int,
    seed: int,
    workers: int = 1,
) -> EstimateReport:
    """Importance-sampled estimate of a rare half-space terminal event.

    The noise mean is shifted along the minimum-cost path into the target
    and each sample carries the exact likelihood-ratio weight, so the
    estimate is unbiased whatever the tilt quality.  Requires a Gaussian
    base and an event whose half-space excludes the mean flow terminal.
    """
    x, _, (n,), seed, samples, workers = _run_args(model, x, [n], 0.0, seed, samples, workers, min_samples=2)
    plan = _tilt_plan(model, x, event)
    return _tilted_estimate(model, x, n, event, samples, (seed,), workers, plan)


# ---------------------------------------------------------------------------
# exponential normalization check

def _martingale_rows(model, x, n, a, alphas, rng, size) -> np.ndarray:
    """exp of sum_k [<F_k + a g_k, alpha_k> - cgf_a(X_{k-1}, alpha_k)] for `size` replicas."""
    smoothing = 0.5 * a * a * np.sum(alphas * alphas, axis=1)
    acc = np.zeros(size)
    for k, prev, inc, _ in _euler_steps(model, x, n, a, rng, size):
        alpha = alphas[k - 1]
        price = kernel.cgf_rows(model, prev, alpha) + smoothing[k - 1]
        pairing = kernel._rdot(inc, alpha)
        acc += np.subtract(pairing, price, out=pairing)
    return np.exp(acc)


def martingale_check(
    model: KernelModel,
    x,
    n: int,
    a,
    lam: DualMeasure,
    samples: int,
    seed: int,
    workers: int = 1,
) -> MartingaleCheck:
    """Empirical mean and stderr of exp[<path, lam> - dual_functional_n].

    The population mean is exactly 1 for every model, resolution, smoothing
    level, and atomic lam.  Large measures make the integrand heavy tailed,
    so the total variation of lam is capped at MAX_VARIATION.
    """
    x, amp, (n,), seed, samples, workers = _run_args(model, x, [n], a, seed, samples, workers, min_samples=2)
    kernel._require_dim("measure", lam.dim, model.dim)
    variation = lam.variation()
    if variation > MAX_VARIATION:
        raise ValueError(
            f"dual measure variation {variation:.3g} exceeds the cap {MAX_VARIATION:.3g}; "
            "scale the measure down"
        )
    alphas = lam.basis_integrals(n) / n
    worker = lambda rng, size: _martingale_rows(model, x, n, amp, alphas, rng, size)
    mean, stderr = _mean_stderr(_map_chunks(worker, samples, workers, (seed,)))
    return MartingaleCheck(mean=mean, stderr=stderr, samples=samples, n=n, a=amp, variation=variation)


# ---------------------------------------------------------------------------
# verification suites

@dataclass
class RateReport:
    model: str
    event: dict
    n_grid: List[int]
    estimates: List[EstimateReport]
    predicted_rate: float
    rel_gaps: List[Optional[float]]
    trend_violations: List[dict]
    minimize_converged: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def verify_rate(
    model: KernelModel,
    x,
    event: TerminalHalfspace,
    n_grid: List[int],
    samples: int,
    seed: int,
    workers: int = 1,
) -> RateReport:
    """Compare -log(p_n)/n against the minimized path cost across an n-grid.

    Uses the tilted estimator at every n (one shared minimizing path).
    Trend accounting: the absolute gap should shrink as n doubles; an
    increase is recorded as a violation, excused when it sits within two
    combined standard errors of the rates involved.
    """
    x, _, n_grid, seed, samples, workers = _run_args(model, x, n_grid, 0.0, seed, samples, workers, min_samples=2)
    plan = _tilt_plan(model, x, event)
    predicted = float(plan.action.value)
    estimates = []
    for idx, n in enumerate(n_grid):
        estimates.append(_tilted_estimate(model, x, n, event, samples, (seed, idx), workers, plan))
    rel_gaps = []
    rate_ses = []
    for rep in estimates:
        if rep.empirical_rate is None:
            rel_gaps.append(None)
            rate_ses.append(None)
        else:
            rel_gaps.append(abs(rep.empirical_rate - predicted) / abs(predicted))
            rate_ses.append(rep.stderr / (rep.p_hat * rep.n))
    violations = []
    for i in range(len(n_grid) - 1):
        if rel_gaps[i] is None or rel_gaps[i + 1] is None:
            continue
        if rel_gaps[i + 1] > rel_gaps[i]:
            combined = np.hypot(rate_ses[i], rate_ses[i + 1])
            increase = (rel_gaps[i + 1] - rel_gaps[i]) * abs(predicted)
            violations.append(
                {
                    "n_prev": n_grid[i],
                    "n_next": n_grid[i + 1],
                    "gap_increase": float(increase),
                    "excused": bool(increase <= 2.0 * combined),
                }
            )
    return RateReport(
        model=model.summary,
        event=event.record(),
        n_grid=n_grid,
        estimates=estimates,
        predicted_rate=predicted,
        rel_gaps=rel_gaps,
        trend_violations=violations,
        minimize_converged=plan.converged,
    )


@dataclass
class OdeReport:
    model: str
    epsilon: float
    n_grid: List[int]
    rows: List[dict]
    slope: Optional[float]
    intercept: Optional[float]
    monotone_ok: Optional[bool]
    censored: List[int]

    def to_json_dict(self) -> dict:
        return asdict(self)


def verify_ode_convergence(
    model: KernelModel,
    x,
    epsilon: float,
    n_grid: List[int],
    samples: int,
    seed: int,
    workers: int = 1,
) -> OdeReport:
    """Estimate q_n = P{sup |Y_n - mean flow| >= epsilon} across an n-grid.

    Grid points with zero hits are censored: they are reported but excluded
    from the log-linear fit and the monotonicity verdict.  slope is the
    least-squares slope of log q_n against n over the surviving points
    (None when fewer than two survive).
    """
    x, _, n_grid, seed, samples, workers = _run_args(model, x, n_grid, 0.0, seed, samples, workers)
    event = PathDeviationEvent(epsilon=epsilon)
    rows = []
    for idx, n in enumerate(n_grid):
        count = int(np.sum(_hits(model, x, n, 0.0, event, samples, workers, (seed, idx))))
        rows.append({"n": n, "samples": samples, "count": count, "q": count / samples, "censored": count == 0})
    kept = [r for r in rows if not r["censored"]]
    slope = intercept = monotone_ok = None
    if len(kept) >= 2:
        qs = [r["q"] for r in kept]
        slope, intercept = map(float, np.polyfit([float(r["n"]) for r in kept], np.log(qs), 1))
        monotone_ok = all(b < a for a, b in zip(qs, qs[1:]))
    return OdeReport(
        model=model.summary,
        epsilon=float(epsilon),
        n_grid=n_grid,
        rows=rows,
        slope=slope,
        intercept=intercept,
        monotone_ok=monotone_ok,
        censored=[r["n"] for r in rows if r["censored"]],
    )
