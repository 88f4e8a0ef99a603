"""Command line front end.

Every subcommand reads a strict JSON config (unknown keys are errors,
reported with their full path) and writes its outputs plus the fully
resolved config, defaults included, into the --out directory.  Identical
configs produce byte-identical outputs; seeds are explicit wherever
randomness is involved.

Subcommands:
  simulate           one trajectory -> trajectory.csv
  action             path cost of a stored trajectory -> action_report.json
  minimize           minimum-cost path to a terminal constraint
  estimate           rare-event probability, naive or tilted
  verify-martingale  exponential normalization check
  verify-rate        decay-rate comparison across an n-grid
  verify-ode         small-noise collapse onto the mean flow

Exit codes: 0 success, 1 verification suite failed its assertion,
2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import kernel
from .kernel import (
    ModelConfigError,
    _as_array,
    _as_dict,
    _as_float,
    _as_int,
    _as_int_from,
    _as_int_list,
    _as_knots,
    _as_list,
    _as_str,
    _Conf,
)
from .action import (
    ActionProblem,
    MinimizeSettings,
    TerminalHalfspace,
    TerminalPoint,
    action,
    minimize_action,
)
from .errors import NumericalFailure
from .rare_event import (
    BallEvent,
    PathDeviationEvent,
    martingale_check,
    mc_probability,
    tilted_mc_probability,
    verify_ode_convergence,
    verify_rate,
)
from .scheme import (
    DualMeasure,
    SchemeRun,
    Trajectory,
    load_trajectory,
    save_trajectory,
    simulate,
)

# Verdict gates of the verification suites, echoed in their reports.
TOLERANCE_STDERR = 4.0  # verify-martingale: |mean - 1| <= TOLERANCE_STDERR * stderr
MAX_REL_GAP = 0.15  # verify-rate: largest relative gap of the last finite rate
MAX_ODE_SLOPE = -0.05  # verify-ode: largest fitted slope of log q_n against n


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        value = float(value)
        if np.isnan(value):
            return "nan"
        if np.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _model_from(c: _Conf):
    # the raw record is echoed to resolved_config.json; model_from_config checks it
    return kernel.model_from_config(c.take("model", _as_dict), path=f"{c.path}.model")


def _terminal_from(c: _Conf, dim: int):
    t = c.sub("terminal")
    kind = t.take("kind", _as_str)
    if kind == "point":
        point = t.take("point", _as_array((dim,)))
        t.close()
        return TerminalPoint(point=point)
    if kind == "halfspace":
        normal = t.take("normal", _as_array((dim,)))
        level = t.take("level", _as_float)
        t.close()
        return TerminalHalfspace(normal=normal, level=level)
    raise ModelConfigError(f"{t.path}.kind: unknown terminal kind {kind!r}")


def _event_from(c: _Conf, dim: int):
    e = c.sub("event")
    kind = e.take("kind", _as_str)
    if kind == "terminal-halfspace":
        normal = e.take("normal", _as_array((dim,)))
        level = e.take("level", _as_float)
        e.close()
        return TerminalHalfspace(normal=normal, level=level)
    if kind == "terminal-ball":
        center = e.take("center", _as_array((dim,)))
        radius = e.take("radius", _as_float)
        e.close()
        return BallEvent(center=center, radius=radius)
    if kind == "sup-distance-from-path":
        epsilon = e.take("epsilon", _as_float)
        ref_file = e.take("reference_file", _as_str, None)
        e.close()
        ref = load_trajectory(ref_file) if ref_file else None
        if ref is not None and ref.dim != dim:
            raise ModelConfigError(f"{e.path}.reference_file: expected a path of dim {dim}, got dim {ref.dim}")
        return PathDeviationEvent(epsilon=epsilon, reference=ref)
    raise ModelConfigError(f"{e.path}.kind: unknown event kind {kind!r}")


def _measure_from(c: _Conf, dim: int) -> DualMeasure:
    m = c.sub("measure")
    atoms = m.take("atoms", _as_list)
    m.close()
    if not atoms:
        return DualMeasure.zero(dim)
    pairs = []
    for j, rec in enumerate(atoms):
        a = _Conf(rec, f"{m.path}.atoms[{j}]")
        pairs.append((a.take("t", _as_float), a.take("weight", _as_array((dim,)))))
        a.close()
    return DualMeasure.from_atoms(pairs)


def _minimize_settings_from(c: _Conf) -> MinimizeSettings:
    s = c.sub("settings", default={})
    settings = MinimizeSettings(max_iter=s.take("max_iter", _as_int, MinimizeSettings().max_iter))
    s.close()
    return settings


# ---------------------------------------------------------------------------
# subcommands

def _cmd_simulate(cfg, out, workers):
    c = _Conf(cfg, "config")
    model = _model_from(c)
    x = c.take("x", _as_array((model.dim,)))
    n = c.take("n", _as_int_from(1))
    a = c.take("a", _as_float, 0.0)
    seed = c.take("seed", _as_int_from(0))
    c.close()
    _write_json(os.path.join(out, "resolved_config.json"), {"command": "simulate", **c.resolved})
    traj = simulate(SchemeRun(model=model, x=x, n=n, a=a, seed=seed))
    save_trajectory(traj, os.path.join(out, "trajectory.csv"))
    return 0


def _cmd_action(cfg, out, workers):
    c = _Conf(cfg, "config")
    model = _model_from(c)
    x = c.take("x", _as_array((model.dim,)))
    a = c.take("a", _as_float, 0.0)
    traj_file = c.take("trajectory_file", _as_str, None)
    knots = c.take("knots", _as_knots(model.dim), None)
    c.close()
    if (traj_file is None) == (knots is None):
        raise ModelConfigError("config: give exactly one of 'trajectory_file' and 'knots'")
    _write_json(os.path.join(out, "resolved_config.json"), {"command": "action", **c.resolved})
    traj = load_trajectory(traj_file) if traj_file else Trajectory(knots)
    val = action(model, x, a, traj)
    report = {
        "value": val.value,
        "finite": bool(np.isfinite(val.value)),
        "reason": val.reason,
        "segments": list(val.segments),
        "feasible_start": val.feasible_start,
        "divergent_segments": val.divergent_segments,
        "solver_warnings": len(val.solver_warnings),
        "a": a,
        "model": model.summary,
    }
    _write_json(os.path.join(out, "action_report.json"), report)
    return 0


def _cmd_minimize(cfg, out, workers):
    c = _Conf(cfg, "config")
    model = _model_from(c)
    x = c.take("x", _as_array((model.dim,)))
    a = c.take("a", _as_float, 0.0)
    m = c.take("m", _as_int_from(2), 21)
    terminal = _terminal_from(c, model.dim)
    settings = _minimize_settings_from(c)
    c.close()
    _write_json(os.path.join(out, "resolved_config.json"), {"command": "minimize", **c.resolved})
    res = minimize_action(ActionProblem(model=model, x=x, terminal=terminal, m=m, a=a, settings=settings))
    save_trajectory(res.trajectory, os.path.join(out, "minimized_trajectory.csv"))
    _write_csv(
        os.path.join(out, "minimize_log.csv"),
        ["iter", "value", "grad_norm", "step"],
        res.log,
    )
    terminal_rec = (
        {"kind": "point", "point": list(terminal.point)}
        if isinstance(terminal, TerminalPoint)
        else {"kind": "halfspace", "normal": list(terminal.normal), "level": terminal.level}
    )
    report = {
        "value": res.action.value,
        "converged": res.converged,
        "grad_norm": res.grad_norm,
        "iterations": res.iterations,
        "warnings": res.warnings,
        "terminal": terminal_rec,
        "m": m,
        "a": a,
        "model": model.summary,
    }
    _write_json(os.path.join(out, "minimize_report.json"), report)
    return 0


def _cmd_estimate(cfg, out, workers):
    c = _Conf(cfg, "config")
    model = _model_from(c)
    x = c.take("x", _as_array((model.dim,)))
    n = c.take("n", _as_int_from(1))
    a = c.take("a", _as_float, 0.0)
    event = _event_from(c, model.dim)
    method = c.take("method", _as_str, "naive")
    samples = c.take("samples", _as_int_from(2 if method == "tilted" else 1))  # a weighted estimate needs 2
    seed = c.take("seed", _as_int_from(0))
    c.close()
    if method not in ("naive", "tilted"):
        raise ModelConfigError(f"config.method: expected 'naive' or 'tilted', got {method!r}")
    if method == "tilted":
        if a != 0.0:
            raise ModelConfigError("config.a: the tilted estimator runs the unsmoothed scheme; set a to 0")
        if not isinstance(event, TerminalHalfspace):
            raise ModelConfigError("config.event.kind: the tilted estimator needs 'terminal-halfspace'")
    _write_json(os.path.join(out, "resolved_config.json"), {"command": "estimate", **c.resolved})
    if method == "naive":
        report = mc_probability(model, x, n, a, event, samples, seed, workers=workers)
    else:
        report = tilted_mc_probability(model, x, n, event, samples, seed, workers=workers)
    _write_json(os.path.join(out, "estimate_report.json"), report.to_json_dict())
    return 0


def _cmd_verify_martingale(cfg, out, workers):
    c = _Conf(cfg, "config")
    model = _model_from(c)
    x = c.take("x", _as_array((model.dim,)))
    n = c.take("n", _as_int_from(1))
    a = c.take("a", _as_float, 0.0)
    lam = _measure_from(c, model.dim)
    samples = c.take("samples", _as_int_from(2))
    seed = c.take("seed", _as_int_from(0))
    c.close()
    _write_json(os.path.join(out, "resolved_config.json"), {"command": "verify-martingale", **c.resolved})
    check = martingale_check(model, x, n, a, lam, samples, seed, workers=workers)
    ok = abs(check.mean - 1.0) <= TOLERANCE_STDERR * check.stderr + 1e-12
    report = {
        **check.to_json_dict(),
        "model": model.summary,
        "tolerance_stderr": TOLERANCE_STDERR,
        "pass": ok,
    }
    _write_json(os.path.join(out, "martingale_report.json"), report)
    return 0 if ok else 1


def _cmd_verify_rate(cfg, out, workers):
    c = _Conf(cfg, "config")
    model = _model_from(c)
    x = c.take("x", _as_array((model.dim,)))
    event = _event_from(c, model.dim)
    n_grid = c.take("n_grid", _as_int_list)
    samples = c.take("samples", _as_int_from(2))
    seed = c.take("seed", _as_int_from(0))
    c.close()
    if not isinstance(event, TerminalHalfspace):
        raise ModelConfigError("config.event.kind: rate verification needs 'terminal-halfspace'")
    _write_json(os.path.join(out, "resolved_config.json"), {"command": "verify-rate", **c.resolved})
    report = verify_rate(model, x, event, n_grid, samples, seed, workers=workers)
    final_gap = next((g for g in reversed(report.rel_gaps) if g is not None), None)
    unexcused = [v for v in report.trend_violations if not v["excused"]]
    ok = (
        report.minimize_converged
        and final_gap is not None
        and final_gap <= MAX_REL_GAP
        and not unexcused
        and len(report.trend_violations) <= 1
    )
    payload = {**report.to_json_dict(), "max_rel_gap": MAX_REL_GAP, "final_rel_gap": final_gap, "pass": ok}
    _write_json(os.path.join(out, "rate_report.json"), payload)
    _write_csv(
        os.path.join(out, "rate_estimates.csv"),
        ["n", "samples", "p_hat", "stderr", "empirical_rate", "predicted_rate"],
        [
            [r.n, r.samples, r.p_hat, r.stderr,
             "" if r.empirical_rate is None else r.empirical_rate, r.predicted_rate]
            for r in report.estimates
        ],
    )
    return 0 if ok else 1


def _cmd_verify_ode(cfg, out, workers):
    c = _Conf(cfg, "config")
    model = _model_from(c)
    x = c.take("x", _as_array((model.dim,)))
    epsilon = c.take("epsilon", _as_float)
    n_grid = c.take("n_grid", _as_int_list)
    samples = c.take("samples", _as_int_from(1))
    seed = c.take("seed", _as_int_from(0))
    c.close()
    _write_json(os.path.join(out, "resolved_config.json"), {"command": "verify-ode", **c.resolved})
    report = verify_ode_convergence(model, x, epsilon, n_grid, samples, seed, workers=workers)
    ok = (
        report.slope is not None
        and report.slope <= MAX_ODE_SLOPE
        and report.monotone_ok is not False
    )
    payload = {**report.to_json_dict(), "max_slope": MAX_ODE_SLOPE, "pass": ok}
    _write_json(os.path.join(out, "ode_report.json"), payload)
    _write_csv(
        os.path.join(out, "ode_rows.csv"),
        ["n", "samples", "count", "q", "censored"],
        [[r["n"], r["samples"], r["count"], r["q"], r["censored"]] for r in report.rows],
    )
    return 0 if ok else 1


_COMMANDS = {
    "simulate": (_cmd_simulate, "simulate one trajectory and write it as CSV"),
    "action": (_cmd_action, "evaluate the path cost of a stored trajectory"),
    "minimize": (_cmd_minimize, "minimize the path cost under a terminal constraint"),
    "estimate": (_cmd_estimate, "estimate a rare-event probability (naive or tilted)"),
    "verify-martingale": (_cmd_verify_martingale, "check the exponential normalization identity"),
    "verify-rate": (_cmd_verify_rate, "compare empirical decay rates with the minimized cost"),
    "verify-ode": (_cmd_verify_ode, "check the small-noise collapse onto the mean flow"),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ldscheme",
        description="Euler scheme simulation, path costs, and rare-event estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="path to the JSON config")
        sp.add_argument("--out", default=".", help="output directory (default: current)")
        sp.add_argument("--workers", type=int, default=1, help="threads running replica chunks at once; outputs do not depend on it")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # bad JSON, or an integer literal too long to convert
        print(f"config error: cannot parse {args.config}: {exc}", file=sys.stderr)
        return 2
    if args.workers < 1:
        print("config error: --workers must be >= 1", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    handler = _COMMANDS[args.command][0]
    try:
        return handler(cfg, args.out, args.workers)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
