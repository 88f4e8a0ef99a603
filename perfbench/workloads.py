"""The benchmark's workloads: fixed task lists, each task checked against an exact answer.

A task is prepared outside the timed region (config files, models), its
call is timed, and its output is assessed afterwards.  Every ldscheme
function is looked up through its module at call time, so the tracer's
rebinding reaches it.  CLI tasks call `ldscheme.cli.main` in-process.

Assessment separates two kinds of trouble.  A failed check (an exception,
a nonzero exit, a value outside its oracle tolerance, a verification
suite's `pass` false) means the output is wrong.  An unmet success flag
(`converged` false where convergence is expected) means the output could
not be certified; it counts as a task failure in `task_fail_ratio` but
does not make the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import oracles
from models import A2, OU, layer as _mod, linear_2d_model, ou_callable_sigma_model

# The 2-D half-space minimization does not converge at m=21 (a known
# defect).  It is capped below the library default of 500 iterations so
# that a traced run of this workload stays well inside the per-run time
# limit; at the cap it is still unconverged, so the defect shows.
HALFSPACE_2D_MAX_ITER = 200

COST_RTOL = 2e-4  # quadrature error of the m=21..41 knot paths is ~5e-5
Z_LIMIT = 5.0  # estimates must sit within this many standard errors of the exact answer


@dataclass
class Env:
    """What a task may depend on: its scratch directory, seed and worker count."""

    workdir: Path
    seed: int
    workers: int = 1
    small: bool = False  # tiny sizes for the benchmark's own tests; oracles then fail


@dataclass
class Assessment:
    checks: list = field(default_factory=list)  # (name, ok, detail): output is right
    flags: list = field(default_factory=list)  # (name, ok): success certified
    replica_steps: int = 0
    relvar: Optional[float] = None  # squared relative error of the least precise estimate
    digest: str = ""
    bytes_written: int = 0

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    def near(self, name, value, exact, rtol=COST_RTOL):
        self.check(name, abs(value - exact) <= rtol * abs(exact), f"{value:.8g} vs exact {exact:.8g}")

    def within_z(self, name, z):
        self.check(name, abs(z) <= Z_LIMIT, f"z = {z:+.2f}")


@dataclass(frozen=True)
class Task:
    name: str
    role: str  # "minimize" or "mc"
    prepare: Callable[[Env], Callable[[], Any]]
    assess: Callable[[Any], Assessment]
    estimate: bool = False  # contributes to time_to_1pct_s


# ---------------------------------------------------------------------------
# CLI tasks

def _cli_task(name, command, config, assess, role="mc", estimate=False):
    """config(env) -> dict; the call runs `ldscheme <command>` on it in-process."""

    def prepare(env: Env):
        base = env.workdir / name
        out = base / "out"
        out.mkdir(parents=True)
        cfg_path = base / "config.json"
        cfg_path.write_text(json.dumps(config(env)))
        argv = [command, "--config", str(cfg_path), "--out", str(out), "--workers", str(env.workers)]
        return lambda: (_mod("cli").main(argv), out)

    def assess_cli(result):
        rc, out = result
        files = sorted(p for p in out.iterdir() if p.is_file())
        h = hashlib.sha256()
        for p in files:
            h.update(p.name.encode() + b"\0" + p.read_bytes())
        a = Assessment(digest=h.hexdigest()[:16], bytes_written=sum(p.stat().st_size for p in files))
        a.check("exit code", rc == 0, f"exit {rc}")
        report = next((p for p in files if p.name.endswith("_report.json")), None)
        if report is not None:
            assess(json.loads(report.read_text()), a)
        else:
            a.check("report", False, "no report written")
        return a

    return Task(name, role, prepare, assess_cli, estimate)


def _samples(env: Env, full: int) -> int:
    return max(200, full // 100) if env.small else full


def _max_iter(env: Env, full: int) -> int:
    return 3 if env.small else full


def _rate_ou_tasks():
    event = {"kind": "terminal-halfspace", "normal": [1.0], "level": 0.8}
    n_grid = [25, 50, 100, 200]
    exact_cost = oracles.halfspace_cost(OU, [0.0], [1.0], 0.8)

    def minimize_cfg(env):
        return {
            "model": {"preset": "gaussian-ou"},
            "x": [0.0],
            "terminal": {"kind": "halfspace", "normal": [1.0], "level": 0.8},
            "m": 41,
            "settings": {"max_iter": _max_iter(env, 500)},
        }

    def minimize_assess(rep, a):
        a.near("cost vs c^2/(1-e^-2)", rep["value"], exact_cost)
        a.flags.append(("converged", rep["converged"] is True))

    def rate_cfg(env):
        return {
            "model": {"preset": "gaussian-ou"},
            "x": [0.0],
            "event": event,
            "n_grid": n_grid,
            "samples": _samples(env, 100_000),
            "seed": env.seed,
        }

    def rate_assess(rep, a):
        a.check("verify-rate pass", rep["pass"] is True)
        a.near("predicted rate vs c^2/(1-e^-2)", rep["predicted_rate"], exact_cost)
        relvars = []
        for est in rep["estimates"]:
            exact = oracles.ar1_tail(est["n"], 0.0, 0.8)
            a.within_z(f"p_hat(n={est['n']}) vs AR(1) tail", (est["p_hat"] - exact) / est["stderr"])
            a.replica_steps += est["samples"] * est["n"]
            relvars.append((est["stderr"] / est["p_hat"]) ** 2)
        a.relvar = max(relvars)

    return [
        _cli_task("minimize-ou-halfspace", "minimize", minimize_cfg, minimize_assess, role="minimize"),
        _cli_task("verify-rate-ou", "verify-rate", rate_cfg, rate_assess, estimate=True),
    ]


def _naive_mc_tasks():
    walk_n, walk_level = 100, 0.45
    exact_walk = oracles.walk_tail(walk_n, 0.3, walk_level)
    ode_grid = [10, 20, 40, 80]

    def ode_cfg(env):
        return {
            "model": {"preset": "logistic"},
            "x": [0.5],
            "epsilon": 0.3,
            "n_grid": ode_grid,
            "samples": _samples(env, 200_000),
            "seed": env.seed,
        }

    def ode_assess(rep, a):
        a.check("verify-ode pass", rep["pass"] is True)
        a.replica_steps += sum(r["samples"] * r["n"] for r in rep["rows"])

    def walk_cfg(env):
        return {
            "model": {"preset": "bernoulli-walk"},
            "x": [0.0],
            "n": walk_n,
            "event": {"kind": "terminal-halfspace", "normal": [1.0], "level": walk_level},
            "samples": _samples(env, 200_000),
            "seed": env.seed,
            "method": "naive",
        }

    def walk_assess(rep, a):
        samples = rep["samples"]
        a.within_z("p_hat vs binomial tail", oracles.binomial_z(rep["p_hat"], exact_walk, samples))
        a.replica_steps += samples * rep["n"]
        # an indicator average has exactly binomial variance
        a.relvar = (1.0 - exact_walk) / (samples * exact_walk)

    def mart_cfg(env):
        return {
            "model": {"preset": "gaussian-ou"},
            "x": [0.0],
            "n": 100,
            "a": 0.5,
            "measure": {"atoms": [{"t": 0.5, "weight": 0.6}, {"t": 1.0, "weight": 0.4}]},
            "samples": _samples(env, 200_000),
            "seed": env.seed,
        }

    def mart_assess(rep, a):
        a.check("verify-martingale pass", rep["pass"] is True)
        a.replica_steps += rep["samples"] * rep["n"]
        a.relvar = (rep["stderr"] / rep["mean"]) ** 2

    return [
        _cli_task("verify-ode-logistic", "verify-ode", ode_cfg, ode_assess),
        _cli_task("estimate-walk-naive", "estimate", walk_cfg, walk_assess, estimate=True),
        _cli_task("verify-martingale-ou", "verify-martingale", mart_cfg, mart_assess, estimate=True),
    ]


# ---------------------------------------------------------------------------
# library tasks (models the CLI cannot express, or d > 1)

def _minimize_digest(res) -> str:
    h = hashlib.sha256(np.ascontiguousarray(res.trajectory.knots).tobytes())
    h.update(repr((res.action.value, res.iterations, res.converged, res.grad_norm, res.log)).encode())
    return h.hexdigest()[:16]


def _minimize_task(name, terminal, exact, max_iter=500):
    def prepare(env: Env):
        act = _mod("action")
        problem = act.ActionProblem(
            model=linear_2d_model(),
            x=[0.0, 0.0],
            terminal=terminal(act),
            m=21,
            settings=act.MinimizeSettings(max_iter=_max_iter(env, max_iter)),
        )
        return lambda: _mod("action").minimize_action(problem)

    def assess(res):
        a = Assessment(digest=_minimize_digest(res))
        a.near("cost vs Gramian oracle", res.action.value, exact)
        a.flags.append(("converged", bool(res.converged)))
        return a

    return Task(name, "minimize", prepare, assess)


def _library_tasks():
    mc_n, mc_level = 50, 0.2
    exact_mc = oracles.ar1_tail(mc_n, 0.0, mc_level)

    def mc_prepare(env: Env):
        re = _mod("rare_event")
        model = ou_callable_sigma_model()
        event = re.HalfspaceEvent([1.0], mc_level)
        samples = _samples(env, 4000)
        return lambda: _mod("rare_event").mc_probability(
            model, [0.0], mc_n, 0.0, event, samples, env.seed, workers=env.workers)

    def mc_assess(rep):
        a = Assessment(digest=hashlib.sha256(json.dumps(rep.to_json_dict(), sort_keys=True).encode()).hexdigest()[:16])
        a.within_z("p_hat vs AR(1) tail", oracles.binomial_z(rep.p_hat, exact_mc, rep.samples))
        a.replica_steps = rep.samples * rep.n
        a.relvar = (1.0 - exact_mc) / (rep.samples * exact_mc)
        return a

    return [
        _minimize_task("minimize-2d-point", lambda act: act.TerminalPoint([0.6, 0.4]),
                       oracles.point_cost(A2, [0.0, 0.0], [0.6, 0.4])),
        _minimize_task("minimize-2d-halfspace", lambda act: act.TerminalHalfspace([1.0, 1.0], 1.0),
                       oracles.halfspace_cost(A2, [0.0, 0.0], [1.0, 1.0], 1.0),
                       max_iter=HALFSPACE_2D_MAX_ITER),
        Task("mc-ou-callable-sigma", "mc", mc_prepare, mc_assess, estimate=True),
    ]


WORKLOADS = {
    "rate-ou": _rate_ou_tasks,
    "naive-mc": _naive_mc_tasks,
    "library-custom": _library_tasks,
}


def tasks(workload: str) -> list:
    return WORKLOADS[workload]()


def task_seeds(seed: int, pass_index: int, count: int) -> list:
    """Per-task seeds derived from the benchmark seed and the pass number."""
    return [int(s) for s in np.random.SeedSequence([seed, pass_index]).generate_state(count)]


def predictions(workload: str, m: dict) -> list:
    """Each workload's focus, as (statement, holds) pairs over the traced per-layer metrics."""
    share = lambda *keys: sum(m[k] for k in keys) / m["trace.wall_s"]
    checks = {
        "rate-ou": [("conjugate.self_s is more than half of the traced pass "
                     f"({share('conjugate.self_s'):.2f})", share("conjugate.self_s") > 0.5)],
        "naive-mc": [("conjugate.calls is 0", m["conjugate.calls"] == 0)],
        "library-custom": [("action.minimize.self_s + conjugate.self_s is more than half of the traced pass "
                            f"({share('action.minimize.self_s', 'conjugate.self_s'):.2f})",
                            share("action.minimize.self_s", "conjugate.self_s") > 0.5)],
    }[workload]
    on_lib = workload == "library-custom"
    checks.append((f"scheme.simulate.calls is {'above 0' if on_lib else '0'}",
                   (m["scheme.simulate.calls"] > 0) == on_lib))
    return checks
