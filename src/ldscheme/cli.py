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
import json
import os
import sys

import numpy as np

from . import kernel
from .kernel import (
    _as_count,
    _as_counts,
    _as_dict,
    _as_knots,
    _as_list,
    _as_real,
    _as_reals,
    _as_str,
    _Conf,
)
from .action import (
    ActionProblem,
    MinimizeSettings,
    TerminalHalfspace,
    TerminalPoint,
    minimize_action,
    path_cost,
)
from .errors import NumericalFailure
from .rare_event import (
    BallEvent,
    PathDeviationEvent,
    _capped_variation,
    martingale_check,
    mc_probability,
    tilted_mc_probability,
    verify_ode_convergence,
    verify_rate,
)
from .scheme import (
    DualMeasure,
    Trajectory,
    _write_csv,
    load_trajectory,
    save_trajectory,
    simulate,
)

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


def _echo(c: _Conf, command: str, out: str) -> None:
    """Refuse the config's unknown keys, then make out and write resolved_config.json there, defaults included."""
    c.close()
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:  # out names a file, or cannot be made
        raise ValueError(f"--out: cannot make directory {out!r}: {exc}") from exc
    _write_json(os.path.join(out, "resolved_config.json"), {"command": command, **c.resolved})


def _trajectory_from(path: str, key: str, dim: int) -> Trajectory:
    """load_trajectory, with a missing, unreadable or malformed file, or a path not of dim, a config error naming key."""
    try:
        traj = load_trajectory(path)
        kernel._require_dim("path", traj.dim, dim)
        return traj
    except (OSError, ValueError) as exc:
        raise ValueError(f"{key}: cannot load {path!r}: {exc}") from exc


def _halfspace_from(h: _Conf, dim: int) -> TerminalHalfspace:
    normal = h.take("normal", _as_reals, shape=(dim,))
    level = h.take("level", _as_real)
    h.close()
    try:
        return TerminalHalfspace(normal=normal, level=level)
    except ValueError as exc:  # a normal or level past the float range once normalized
        raise ValueError(f"{h.path}.{exc}") from exc


def _terminal_from(c: _Conf, dim: int):
    t = c.sub("terminal")
    kind = t.take("kind", _as_str)
    if kind == "point":
        point = t.take("point", _as_reals, shape=(dim,))
        t.close()
        return TerminalPoint(point=point)
    if kind == "halfspace":
        return _halfspace_from(t, dim)
    raise ValueError(f"{t.path}.kind: unknown terminal kind {kind!r}")


def _event_from(c: _Conf, dim: int):
    e = c.sub("event")
    kind = e.take("kind", _as_str)
    if kind == "terminal-halfspace":
        return _halfspace_from(e, dim)
    if kind == "terminal-ball":
        center = e.take("center", _as_reals, shape=(dim,))
        radius = e.take("radius", _as_real, least=0, strict=True)
        e.close()
        return BallEvent(center=center, radius=radius)
    if kind == "sup-distance-from-path":
        epsilon = e.take("epsilon", _as_real, least=0, strict=True)
        ref_file = e.take("reference_file", _as_str, None)
        e.close()
        ref = _trajectory_from(ref_file, f"{e.path}.reference_file", dim) if ref_file else None
        return PathDeviationEvent(epsilon=epsilon, reference=ref)
    raise ValueError(f"{e.path}.kind: unknown event kind {kind!r}")


def _measure_from(c: _Conf, dim: int) -> DualMeasure:
    m = c.sub("measure")
    atoms = m.take("atoms", _as_list)
    m.close()
    pairs = []
    for j, rec in enumerate(atoms):
        a = _Conf(rec, f"{m.path}.atoms[{j}]")
        pairs.append((a.take("t", _as_real), a.take("weight", _as_reals, shape=(dim,))))
        a.close()
    try:
        lam = DualMeasure.from_atoms(pairs) if pairs else DualMeasure.zero(dim)
    except ValueError as exc:  # an atom time outside [0, 1]
        raise ValueError(f"{m.path}.atoms: {exc}") from exc
    try:
        _capped_variation(lam)
    except ValueError as exc:  # a measure whose integrand is too heavy tailed to check
        raise ValueError(f"{m.path}: {exc}") from exc
    return lam


def _minimize_settings_from(c: _Conf) -> MinimizeSettings:
    s = c.sub("settings", default={})
    settings = MinimizeSettings(max_iter=s.take("max_iter", _as_count, MinimizeSettings().max_iter, least=1))
    s.close()
    return settings


# ---------------------------------------------------------------------------
# subcommands

def _cmd_simulate(c, model, x, out, workers):
    n = c.take("n", _as_count, least=1)
    a = c.take("a", _as_real, 0.0, least=0)
    seed = c.take("seed", _as_count, least=0)
    _echo(c, "simulate", out)
    traj = simulate(model, x, n, a, seed)
    save_trajectory(traj, os.path.join(out, "trajectory.csv"))
    return 0


def _cmd_action(c, model, x, out, workers):
    a = c.take("a", _as_real, 0.0, least=0)
    traj_file = c.take("trajectory_file", _as_str, None)
    knots = c.take("knots", _as_knots, None, dim=model.dim)
    if (traj_file is None) == (knots is None):
        raise ValueError("config: give exactly one of 'trajectory_file' and 'knots'")
    traj = _trajectory_from(traj_file, "config.trajectory_file", model.dim) if traj_file else Trajectory(knots)
    _echo(c, "action", out)
    val = path_cost(model, x, a, traj)
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


def _cmd_minimize(c, model, x, out, workers):
    a = c.take("a", _as_real, 0.0, least=0)
    m = c.take("m", _as_count, 21, least=2)
    terminal = _terminal_from(c, model.dim)
    settings = _minimize_settings_from(c)
    _echo(c, "minimize", out)
    res = minimize_action(ActionProblem(model=model, x=x, terminal=terminal, m=m, a=a, settings=settings))
    save_trajectory(res.trajectory, os.path.join(out, "minimized_trajectory.csv"))
    _write_csv(
        os.path.join(out, "minimize_log.csv"),
        ["iter", "value", "grad_norm", "step"],
        res.log,
    )
    if isinstance(terminal, TerminalPoint):
        terminal_rec = {"kind": "point", "point": list(terminal.point)}
    else:
        terminal_rec = {"kind": "halfspace", "normal": list(terminal.normal), "level": terminal.level}
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


def _cmd_estimate(c, model, x, out, workers):
    n = c.take("n", _as_count, least=1)
    a = c.take("a", _as_real, 0.0, least=0)
    event = _event_from(c, model.dim)
    method = c.take("method", _as_str, "naive")
    samples = c.take("samples", _as_count, least=2 if method == "tilted" else 1)  # a weighted estimate needs 2
    seed = c.take("seed", _as_count, least=0)
    if method not in ("naive", "tilted"):
        raise ValueError(f"config.method: expected 'naive' or 'tilted', got {method!r}")
    if method == "tilted":
        if a != 0.0:
            raise ValueError("config.a: the tilted estimator runs the unsmoothed scheme; set a to 0")
        if not isinstance(event, TerminalHalfspace):
            raise ValueError("config.event.kind: the tilted estimator needs 'terminal-halfspace'")
    _echo(c, "estimate", out)
    if method == "naive":
        report = mc_probability(model, x, n, a, event, samples, seed, workers=workers)
    else:
        report = tilted_mc_probability(model, x, n, event, samples, seed, workers=workers)
    _write_json(os.path.join(out, "estimate_report.json"), report.to_json_dict())
    return 0


def _cmd_verify_martingale(c, model, x, out, workers):
    n = c.take("n", _as_count, least=1)
    a = c.take("a", _as_real, 0.0, least=0)
    lam = _measure_from(c, model.dim)
    samples = c.take("samples", _as_count, least=2)
    seed = c.take("seed", _as_count, least=0)
    _echo(c, "verify-martingale", out)
    report = martingale_check(model, x, n, a, lam, samples, seed, workers=workers)
    _write_json(os.path.join(out, "martingale_report.json"), report.to_json_dict())
    return 0 if report.passed else 1


def _cmd_verify_rate(c, model, x, out, workers):
    event = _event_from(c, model.dim)
    n_grid = c.take("n_grid", _as_counts, least=1)
    samples = c.take("samples", _as_count, least=2)
    seed = c.take("seed", _as_count, least=0)
    if not isinstance(event, TerminalHalfspace):
        raise ValueError("config.event.kind: rate verification needs 'terminal-halfspace'")
    _echo(c, "verify-rate", out)
    report = verify_rate(model, x, event, n_grid, samples, seed, workers=workers)
    _write_json(os.path.join(out, "rate_report.json"), report.to_json_dict())
    _write_csv(
        os.path.join(out, "rate_estimates.csv"),
        ["n", "samples", "p_hat", "stderr", "empirical_rate", "predicted_rate"],
        [
            [r.n, r.samples, r.p_hat, r.stderr,
             "" if r.empirical_rate is None else r.empirical_rate, r.predicted_rate]
            for r in report.estimates
        ],
    )
    return 0 if report.passed else 1


def _cmd_verify_ode(c, model, x, out, workers):
    epsilon = c.take("epsilon", _as_real, least=0, strict=True)
    n_grid = c.take("n_grid", _as_counts, least=1)
    samples = c.take("samples", _as_count, least=1)
    seed = c.take("seed", _as_count, least=0)
    _echo(c, "verify-ode", out)
    report = verify_ode_convergence(model, x, epsilon, n_grid, samples, seed, workers=workers)
    _write_json(os.path.join(out, "ode_report.json"), report.to_json_dict())
    _write_csv(
        os.path.join(out, "ode_rows.csv"),
        ["n", "samples", "count", "q", "censored"],
        [[r["n"], r["samples"], r["count"], r["q"], r["censored"]] for r in report.rows],
    )
    return 0 if report.passed else 1


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
    handler = _COMMANDS[args.command][0]
    try:
        workers = _as_count(args.workers, "--workers", 1)
        c = _Conf(cfg, "config")
        # the raw model record is echoed to resolved_config.json; model_from_config checks it
        model = kernel.model_from_config(c.take("model", _as_dict), path="config.model")
        x = c.take("x", _as_reals, shape=(model.dim,))
        return handler(c, model, x, args.out, workers)
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
