import json

import numpy as np
import pytest

from ldscheme.action import TerminalHalfspace, TerminalPoint
from ldscheme.cli import _jsonable, main
from ldscheme.kernel import affine_model, gaussian_base, linear_drift, model_from_config, preset_model, zero_drift
from ldscheme.rare_event import (
    BallEvent,
    PathDeviationEvent,
    martingale_check,
    mc_probability,
    verify_ode_convergence,
    verify_rate,
)
from ldscheme.scheme import DualMeasure, Trajectory, load_trajectory, simulate


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _run(tmp_path, name, config, sub="out", extra=()):
    cfg = _write(tmp_path / f"{name}.json", config)
    out = tmp_path / sub
    code = main([name, "--config", cfg, "--out", str(out), *extra])
    return code, out


OU = {"preset": "gaussian-ou"}
FREE = {"preset": "gaussian-free"}


def test_simulate_writes_trajectory_and_resolved_config(tmp_path):
    code, out = _run(tmp_path, "simulate", {"model": OU, "x": [1.0], "n": 8, "seed": 5})
    assert code == 0
    assert (out / "trajectory.csv").exists()
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["command"] == "simulate"
    assert resolved["a"] == 0.0  # default echoed back
    assert resolved["seed"] == 5


def test_simulate_reruns_byte_identical(tmp_path):
    cfg = {"model": OU, "x": [0.5], "n": 16, "a": 0.3, "seed": 9}
    _, out1 = _run(tmp_path, "simulate", cfg, sub="out1")
    _, out2 = _run(tmp_path, "simulate", cfg, sub="out2")
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


def test_simulate_deterministic_model_is_euler_polygon(tmp_path):
    model = {
        "dim": 1,
        "drift": {"kind": "linear", "matrix": [[-1.0]]},
        "sigma": {"kind": "zero"},
        "base": {"kind": "gaussian"},
    }
    code, out = _run(tmp_path, "simulate", {"model": model, "x": [1.0], "n": 4, "seed": 0})
    assert code == 0
    lines = (out / "trajectory.csv").read_text().strip().splitlines()
    assert lines[0] == "t,x1"
    assert len(lines) == 6
    vals = np.array([float(row.split(",")[1]) for row in lines[1:]])
    expect = [1.0]
    for _ in range(4):
        expect.append(expect[-1] * (1 - 0.25))
    assert np.allclose(vals, expect, atol=1e-15)


def test_missing_required_key_names_it(tmp_path, capsys):
    code, _ = _run(tmp_path, "simulate", {"model": OU, "x": [1.0], "seed": 5})
    assert code == 2
    assert "config.n" in capsys.readouterr().err


def test_unknown_key_is_an_error(tmp_path, capsys):
    code, _ = _run(
        tmp_path, "simulate", {"model": OU, "x": [1.0], "n": 4, "seed": 5, "nsteps": 4}
    )
    assert code == 2
    assert "nsteps" in capsys.readouterr().err


def test_bad_json_and_missing_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "o"
    out.mkdir()
    assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 2
    assert main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(out)]) == 2


def test_action_inline_knots(tmp_path):
    code, out = _run(
        tmp_path,
        "action",
        {"model": FREE, "x": [0.0], "knots": [[0.0], [0.5], [1.0]]},
    )
    assert code == 0
    rep = json.loads((out / "action_report.json").read_text())
    assert rep["finite"]
    assert rep["value"] == pytest.approx(0.5, abs=1e-9)
    assert rep["reason"] is None


def test_action_flat_knots_for_a_1d_model(tmp_path):
    code, out = _run(tmp_path, "action", {"model": FREE, "x": [0.0], "knots": [0, 0.5, 1]})
    assert code == 0
    assert json.loads((out / "action_report.json").read_text())["value"] == pytest.approx(0.5, abs=1e-9)
    assert json.loads((out / "resolved_config.json").read_text())["knots"] == [0.0, 0.5, 1.0]


@pytest.mark.parametrize(
    "knots, error",
    [
        ([[0.0], ["0.5"], [True]], "config.knots: expected an array of numbers, got dtype <U32"),  # accepted, exit 0
        # wrote resolved_config.json, then failed with "ys must be finite"
        ([[0.0], [float("nan")], [1.0]], "config.knots must be finite"),
        # numpy's "inhomogeneous shape"
        ([[0.0], [0.5, 0.5], [1.0]], "config.knots: expected an array of numbers, got a ragged nesting"),
    ],
    ids=["str-and-bool", "nan", "ragged"],
)
def test_action_bad_knots_exit_2(tmp_path, capsys, knots, error):
    code, out = _run(tmp_path, "action", {"model": FREE, "x": [0.0], "knots": knots})
    assert code == 2
    assert capsys.readouterr().err == f"config error: {error}\n"
    assert not (out / "resolved_config.json").exists()


def test_action_infeasible_start_reports_inf(tmp_path):
    code, out = _run(
        tmp_path,
        "action",
        {"model": FREE, "x": [0.0], "knots": [[1.0], [1.0]]},
    )
    assert code == 0  # a divergent cost is a result, not a failure
    rep = json.loads((out / "action_report.json").read_text())
    assert rep["value"] == "inf"
    assert not rep["finite"]
    assert "initial condition" in rep["reason"]


def test_action_slope_past_the_tolerance_range_reports_inf(tmp_path):
    # reported value 0.0 and finite true: the conjugate solve's tolerance overflowed at slope 1e300
    code, out = _run(tmp_path, "action", {"model": OU, "x": [0.0], "knots": [0.0, 1e300]})
    assert code == 0
    rep = json.loads((out / "action_report.json").read_text())
    assert rep["value"] == "inf"
    assert not rep["finite"]
    assert rep["reason"] == "divergent segment 0"


def test_action_from_trajectory_file(tmp_path):
    _, sim_out = _run(tmp_path, "simulate", {"model": OU, "x": [1.0], "n": 10, "seed": 3}, sub="sim")
    code, out = _run(
        tmp_path,
        "action",
        {"model": OU, "x": [1.0], "trajectory_file": str(sim_out / "trajectory.csv")},
        sub="act",
    )
    assert code == 0
    rep = json.loads((out / "action_report.json").read_text())
    assert rep["finite"]
    assert rep["segments"] and len(rep["segments"]) == 10


def test_action_requires_exactly_one_source(tmp_path):
    code, _ = _run(tmp_path, "action", {"model": FREE, "x": [0.0]})
    assert code == 2


def test_minimize_halfspace(tmp_path):
    code, out = _run(
        tmp_path,
        "minimize",
        {
            "model": FREE,
            "x": [0.0],
            "m": 11,
            "terminal": {"kind": "halfspace", "normal": [1.0], "level": 2.0},
        },
    )
    assert code == 0
    rep = json.loads((out / "minimize_report.json").read_text())
    assert rep["converged"]
    assert rep["value"] == pytest.approx(2.0, abs=1e-6)
    traj_lines = (out / "minimized_trajectory.csv").read_text().strip().splitlines()
    assert len(traj_lines) == 12
    log_lines = (out / "minimize_log.csv").read_text().strip().splitlines()
    assert log_lines[0] == "iter,value,grad_norm,step"
    assert len(log_lines) >= 2


def test_minimize_point_settings_override(tmp_path):
    code, out = _run(
        tmp_path,
        "minimize",
        {
            "model": OU,
            "x": [1.0],
            "m": 9,
            "terminal": {"kind": "point", "point": [0.0]},
            "settings": {"max_iter": 200},
        },
    )
    assert code == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["settings"] == {"max_iter": 200}
    report = json.loads((out / "minimize_report.json").read_text())
    assert report["terminal"] == {"kind": "point", "point": [0.0]}


def test_minimize_point_tolerance_is_unknown_key(tmp_path, capsys):
    # the key was report metadata that constrained nothing
    terminal = {"kind": "point", "point": [0.0], "tolerance": 0.1}
    code, _ = _run(tmp_path, "minimize", {"model": OU, "x": [1.0], "m": 9, "terminal": terminal})
    assert code == 2
    assert "unknown key 'config.terminal.tolerance'" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["armijo", "max_halvings"])
def test_minimize_rejects_line_search_settings(tmp_path, key):
    cfg = {"model": OU, "x": [1.0], "m": 9, "terminal": {"kind": "point", "point": [0.0]}, "settings": {key: 1}}
    code, _ = _run(tmp_path, "minimize", cfg)
    assert code == 2


def test_estimate_naive_report_keys(tmp_path):
    code, out = _run(
        tmp_path,
        "estimate",
        {
            "model": FREE,
            "x": [0.0],
            "n": 20,
            "event": {"kind": "terminal-halfspace", "normal": [1.0], "level": 0.2},
            "samples": 2000,
            "seed": 17,
        },
    )
    assert code == 0
    rep = json.loads((out / "estimate_report.json").read_text())
    assert set(rep) == {
        "model", "event", "n", "samples", "p_hat", "stderr",
        "empirical_rate", "predicted_rate", "method", "seed",
    }
    assert rep["method"] == "naive"
    assert rep["predicted_rate"] is None


def test_estimate_tilted(tmp_path):
    code, out = _run(
        tmp_path,
        "estimate",
        {
            "model": FREE,
            "x": [0.0],
            "n": 60,
            "event": {"kind": "terminal-halfspace", "normal": [1.0], "level": 1.0},
            "samples": 4000,
            "seed": 18,
            "method": "tilted",
        },
    )
    assert code == 0
    rep = json.loads((out / "estimate_report.json").read_text())
    assert rep["method"] == "tilted"
    assert rep["predicted_rate"] == pytest.approx(0.5, abs=1e-6)
    assert rep["p_hat"] > 0


def test_estimate_tilted_rejects_smoothing_and_ball(tmp_path):
    base = {
        "model": FREE,
        "x": [0.0],
        "n": 20,
        "samples": 100,
        "seed": 0,
        "method": "tilted",
    }
    code, out = _run(
        tmp_path,
        "estimate",
        {**base, "a": 0.5, "event": {"kind": "terminal-halfspace", "normal": [1.0], "level": 1.0}},
    )
    assert code == 2
    assert not (out / "resolved_config.json").exists()
    code, out = _run(
        tmp_path,
        "estimate",
        {**base, "event": {"kind": "terminal-ball", "center": [2.0], "radius": 0.1}},
        sub="out2",
    )
    assert code == 2
    assert not (out / "resolved_config.json").exists()


@pytest.mark.parametrize(
    "event, error",
    [
        ({"kind": "terminal-halfspace", "normal": [1.0], "level": float("nan")}, "level: expected a finite number"),
        ({"kind": "terminal-halfspace", "normal": [1.0], "level": float("inf")}, "level: expected a finite number"),
        ({"kind": "terminal-halfspace", "normal": [float("inf")], "level": 1.0}, "normal must be finite\n"),
        ({"kind": "terminal-ball", "center": [0.0], "radius": float("nan")}, "radius: expected a finite number"),
        ({"kind": "terminal-ball", "center": [float("nan")], "radius": 1.0}, "center must be finite\n"),
        ({"kind": "sup-distance-from-path", "epsilon": float("nan")}, "epsilon: expected a finite number"),
        ({"kind": "sup-distance-from-path", "epsilon": float("inf")}, "epsilon: expected a finite number"),
    ],
    ids=["halfspace", "halfspace-level-inf", "halfspace-normal", "ball", "ball-center", "path", "path-inf"],
)
def test_estimate_non_finite_event_is_config_error(tmp_path, capsys, event, error):
    # json reads NaN; a NaN parameter used to give p_hat 0 and exit 0.  Every
    # event parameter now fails when the config is read.
    cfg = {"model": FREE, "x": [0.0], "n": 10, "event": event, "samples": 100, "seed": 1}
    code, out = _run(tmp_path, "estimate", cfg)
    assert code == 2
    assert f"config error: config.event.{error}" in capsys.readouterr().err
    assert not (out / "resolved_config.json").exists()


def test_minimize_non_finite_terminal_is_config_error(tmp_path):
    # a NaN level used to minimize to converged=True
    terminal = {"kind": "halfspace", "normal": [1.0], "level": float("nan")}
    code, out = _run(tmp_path, "minimize", {"model": OU, "x": [0.0], "m": 9, "terminal": terminal})
    assert code == 2
    assert not (out / "minimize_report.json").exists()


@pytest.mark.parametrize(
    "command, extra",
    [
        ("estimate", {"n": 20, "method": "tilted"}),
        ("verify-rate", {"n_grid": [10, 20]}),
        ("verify-martingale", {"n": 20, "measure": {"atoms": [{"t": 1.0, "weight": [0.5]}]}}),
    ],
    ids=["tilted", "rate", "martingale"],
)
def test_weighted_estimators_with_one_sample_exit_2(tmp_path, capsys, command, extra):
    halfspace = {"kind": "terminal-halfspace", "normal": [1.0], "level": 1.0}
    cfg = {"model": FREE, "x": [0.0], "samples": 1, "seed": 0, **extra}
    if command != "verify-martingale":
        cfg["event"] = halfspace
    code, _ = _run(tmp_path, command, cfg)
    assert code == 2
    assert "config.samples must be an integer >= 2, got 1" in capsys.readouterr().err


_MARTINGALE = {
    "model": OU,
    "x": [1.0],
    "n": 10,
    "measure": {"atoms": [{"t": 1.0, "weight": [0.5]}]},
    "samples": 200,
    "seed": 3,
}
_RATE = {
    "model": FREE,
    "x": [0.0],
    "event": {"kind": "terminal-halfspace", "normal": [1.0], "level": 1.0},
    "n_grid": [10],
    "samples": 200,
    "seed": 3,
}
_ODE = {"model": OU, "x": [1.0], "epsilon": 0.35, "n_grid": [10, 20], "samples": 200, "seed": 3}
_MINIMIZE = {"model": OU, "x": [0.0], "terminal": {"kind": "halfspace", "normal": [1.0], "level": 1.0}}


def _library_report(command, config):
    """The library's report of a verification config, called with the config's values."""
    model, x = model_from_config(config["model"]), config["x"]
    run = {"samples": config["samples"], "seed": config["seed"]}
    if command == "verify-martingale":
        lam = DualMeasure.from_atoms([(atom["t"], atom["weight"]) for atom in config["measure"]["atoms"]])
        return martingale_check(model, x, config["n"], config.get("a", 0.0), lam, **run)
    if command == "verify-rate":
        event = TerminalHalfspace(config["event"]["normal"], config["event"]["level"])
        return verify_rate(model, x, event, config["n_grid"], **run)
    return verify_ode_convergence(model, x, config["epsilon"], config["n_grid"], **run)


@pytest.mark.parametrize(
    "command, config, error",
    [
        # a NaN or infinite gate is refused before anything runs: the gates
        # are fixed constants, so a config giving one names an unknown key
        ("verify-martingale", {**_MARTINGALE, "max_variation": float("nan")}, "unknown key 'config.max_variation'"),
        ("verify-martingale", {**_MARTINGALE, "max_variation": float("inf")}, "unknown key 'config.max_variation'"),
        ("verify-martingale", {**_MARTINGALE, "tolerance_stderr": float("nan")},
         "unknown key 'config.tolerance_stderr'"),
        ("verify-rate", {**_RATE, "max_rel_gap": float("nan")}, "unknown key 'config.max_rel_gap'"),
        ("verify-ode", {**_ODE, "max_slope": float("nan")}, "unknown key 'config.max_slope'"),
        ("verify-rate", {**_RATE, "max_rel_gap": float("inf")}, "unknown key 'config.max_rel_gap'"),
        # the amplitude and an atom time fail when read
        ("verify-martingale", {**_MARTINGALE, "a": float("inf")}, "config.a: expected a finite number"),
        # an integer beyond the float range used to crash with an OverflowError
        ("verify-martingale", {**_MARTINGALE, "a": 10**400}, "config.a: expected a finite number"),
        ("verify-martingale", {**_MARTINGALE, "measure": {"atoms": [{"t": float("nan"), "weight": [0.5]}]}},
         "config.measure.atoms[0].t: expected a finite number"),
    ],
    ids=["variation-nan", "variation-inf", "tolerance-nan", "rel-gap-nan", "slope-nan", "rel-gap-inf",
         "a-inf", "a-overflow", "atom-t-nan"],
)
def test_verification_non_finite_cap_is_config_error(tmp_path, capsys, command, config, error):
    code, out = _run(tmp_path, command, config)
    assert code == 2
    assert error in capsys.readouterr().err
    assert not (out / "resolved_config.json").exists()


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("verify-martingale", _MARTINGALE, "max_variation"),
        ("verify-martingale", _MARTINGALE, "tolerance_stderr"),
        ("verify-rate", _RATE, "max_rel_gap"),
        ("verify-ode", _ODE, "max_slope"),
    ],
    ids=["max_variation", "tolerance_stderr", "max_rel_gap", "max_slope"],
)
def test_verification_gate_key_is_unknown_key(tmp_path, capsys, command, config, key):
    # the gates are fixed constants; giving one in a config is an error
    code, out = _run(tmp_path, command, {**config, key: 1.0})
    assert code == 2
    assert f"unknown key 'config.{key}'" in capsys.readouterr().err
    assert not (out / "resolved_config.json").exists()


@pytest.mark.parametrize(
    "command, config, constant, value, report, key",
    [
        ("verify-martingale", _MARTINGALE, "TOLERANCE_STDERR", 0.5, "martingale_report.json", "tolerance_stderr"),
        ("verify-rate", _RATE, "MAX_REL_GAP", 0.5, "rate_report.json", "max_rel_gap"),
        ("verify-ode", _ODE, "MAX_ODE_SLOPE", -0.2, "ode_report.json", "max_slope"),
    ],
    ids=["martingale", "rate", "ode"],
)
def test_verification_verdict_reads_gate_constant(tmp_path, monkeypatch, command, config, constant, value, report, key):
    from ldscheme import rare_event

    code, _ = _run(tmp_path, command, config, sub="fixed")
    monkeypatch.setattr(rare_event, constant, value)
    patched, out = _run(tmp_path, command, config, sub="patched")
    assert {code, patched} == {0, 1}
    rep = json.loads((out / report).read_text())
    assert rep[key] == value
    assert rep["pass"] is (patched == 0)
    assert _library_report(command, config).passed is rep["pass"]


def _explicit(drift=None, sigma=None, base=None, dim=1):
    return {
        "dim": dim,
        "drift": drift or {"kind": "zero"},
        "sigma": sigma or {"kind": "identity"},
        "base": base or {"kind": "gaussian"},
    }


# an integer literal beyond Python's 4,300-digit limit for converting strings
_HUGE = "1" + "0" * 4999


@pytest.mark.parametrize(
    "model, error",
    [
        # each record used to be read by a looser parser than the rest of the config
        (_explicit(dim=True), "config.model.dim must be an integer >= 1, got True"),  # a traceback, exit 1
        (_explicit(sigma={"kind": "identity", "scale": float("nan")}), "config.model.sigma.scale: expected"),  # exit 3
        (_explicit(sigma={"kind": "identity", "scale": True}), "config.model.sigma.scale: expected"),  # accepted
        (_explicit(sigma={"kind": "identity", "scale": "2"}), "config.model.sigma.scale: expected"),  # accepted
        (_explicit(base={"kind": "bernoulli", "p": "0.3"}), "config.model.base.p: expected"),  # accepted
        (_explicit(base={"kind": "bernoulli", "p": 1.0}), "config.model.base.p must lie in (0, 1), got 1.0"),
        # warned, then exited 2 with "ys must be finite" after writing resolved_config.json
        (_explicit(drift={"kind": "linear", "matrix": [[float("inf")]]}), "config.model.drift.matrix must be finite\n"),
        (_explicit(sigma={"kind": "constant", "matrix": [["1"]]}),
         "config.model.sigma.matrix: expected an array of numbers, got dtype <U1\n"),  # accepted
        # the JSON reader refuses it, so the error names the file; a traceback, exit 1
        (_explicit(dim=_HUGE), None),
    ],
    ids=["dim-true", "scale-nan", "scale-true", "scale-str", "p-str", "p-one", "matrix-inf", "matrix-str", "huge-int"],
)
def test_bad_model_record_exits_2(tmp_path, capsys, model, error):
    cfg = tmp_path / "simulate.json"
    cfg.write_text(json.dumps({"model": model, "x": [1.0], "n": 4, "seed": 0}).replace(f'"{_HUGE}"', _HUGE))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert (error or str(cfg)) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        # exited 0 with converged true after 0 iterations at the straight-line cost 1.1667
        ("grad_tol", float("inf")),
        # warned and then failed with "ys must be finite"
        ("y_fd_step", 0),
        # ran anyway and reported 1 iteration; later failed in MinimizeSettings without the config path
        ("max_iter", 0),
    ],
)
def test_minimize_bad_settings_exit_2(tmp_path, capsys, key, value):
    code, out = _run(tmp_path, "minimize", {**_MINIMIZE, "settings": {key: value}})
    assert code == 2
    assert f"config.settings.{key}" in capsys.readouterr().err
    assert not (out / "resolved_config.json").exists()


@pytest.mark.parametrize(
    "event, error",
    [
        # exited 0 with p_hat 0.98375: the center broadcast against the (rows, 1) states
        ({"kind": "terminal-ball", "center": [0.0, 0.0], "radius": 0.5},
         "config.event.center must have shape (1,), got (2,)\n"),
        # these two wrote resolved_config.json, then failed in the library without the config path
        ({"kind": "terminal-halfspace", "normal": [1.0, 0.0], "level": 1.0},
         "config.event.normal must have shape (1,), got (2,)\n"),
        ({"kind": "sup-distance-from-path", "epsilon": 0.5, "reference_file": "ref2.csv"},
         "config.event.reference_file: cannot load 'ref2.csv': path dim 2 does not match model dim 1"),
    ],
    ids=["ball", "halfspace", "path"],
)
def test_estimate_event_of_wrong_dimension_exits_2(tmp_path, monkeypatch, capsys, event, error):
    (tmp_path / "ref2.csv").write_text("t,x1,x2\n0.0,0.0,0.0\n1.0,1.0,1.0\n")
    monkeypatch.chdir(tmp_path)
    cfg = {"model": OU, "x": [0.0], "n": 20, "event": event, "samples": 4000, "seed": 3}
    code, out = _run(tmp_path, "estimate", cfg)
    assert code == 2
    assert error in capsys.readouterr().err
    assert not (out / "resolved_config.json").exists()


def test_action_trajectory_file_of_wrong_dimension_exits_2(tmp_path, monkeypatch, capsys):
    # wrote resolved_config.json, then exited 2 with "path dim 2 does not match model dim 1", naming no key
    (tmp_path / "traj2.csv").write_text("t,x1,x2\n0.0,0.0,0.0\n1.0,1.0,1.0\n")
    monkeypatch.chdir(tmp_path)
    code, out = _run(tmp_path, "action", {"model": OU, "x": [0.0], "trajectory_file": "traj2.csv"})
    assert code == 2
    err = capsys.readouterr().err
    assert "config error: config.trajectory_file: cannot load 'traj2.csv': path dim 2 does not match model dim 1" in err
    assert not out.exists()


def test_action_trajectory_file_whose_rows_miss_a_header_coordinate_exits_2(tmp_path, monkeypatch, capsys):
    # loaded as a 1-D path although the header names two coordinates
    (tmp_path / "traj.csv").write_text("t,x1,x2\n0.0,0.0\n0.5,0.5\n1.0,1.0\n")
    monkeypatch.chdir(tmp_path)
    code, out = _run(tmp_path, "action", {"model": OU, "x": [0.0], "trajectory_file": "traj.csv"})
    assert code == 2
    err = capsys.readouterr().err
    assert "config error: config.trajectory_file: cannot load 'traj.csv': traj.csv, line 2: expected 3 fields" in err
    assert not out.exists()


@pytest.mark.parametrize("what", ["missing", "directory"])
@pytest.mark.parametrize(
    "command, config, key",
    [
        ("action", {"model": OU, "x": [0.0], "trajectory_file": "traj.csv"}, "config.trajectory_file"),
        ("estimate", {"model": OU, "x": [0.0], "n": 20, "samples": 200, "seed": 3,
                      "event": {"kind": "sup-distance-from-path", "epsilon": 0.5, "reference_file": "traj.csv"}},
         "config.event.reference_file"),
    ],
    ids=["trajectory-file", "reference-file"],
)
def test_unloadable_file_is_config_error(tmp_path, monkeypatch, capsys, command, config, key, what):
    # a missing file used to end in a FileNotFoundError traceback, after the echo for action
    monkeypatch.chdir(tmp_path)
    if what == "directory":
        (tmp_path / "traj.csv").mkdir()
    code, out = _run(tmp_path, command, config)
    assert code == 2
    assert f"config error: {key}: cannot load 'traj.csv'" in capsys.readouterr().err
    assert not (out / "resolved_config.json").exists()


@pytest.mark.parametrize(
    "command, config, key",
    [
        # wrote resolved_config.json, then exited 2 with "ys must be finite" and no key
        ("action", {"model": OU, "x": [0.0], "trajectory_file": "traj.csv"}, "config.trajectory_file"),
        # exited 0 with p_hat 0.0 and a RuntimeWarning
        ("estimate", {"model": OU, "x": [0.0], "n": 20, "samples": 200, "seed": 3,
                      "event": {"kind": "sup-distance-from-path", "epsilon": 0.5, "reference_file": "traj.csv"}},
         "config.event.reference_file"),
    ],
    ids=["trajectory-file", "reference-file"],
)
@pytest.mark.parametrize(
    "rows, error",
    [
        ("0.0,0.0\n0.5,nan\n1.0,1.0\n", "knots must be finite"),
        ("0.0,0.0\n0.5,inf\n1.0,1.0\n", "knots must be finite"),
        # loaded as if the time lay on the lattice k/n
        ("nan,0.0\n0.5,0.5\n1.0,1.0\n", "traj.csv: knot times must form the uniform lattice k/n"),
    ],
    ids=["nan", "inf", "nan-time"],
)
def test_non_finite_knot_in_a_file_is_config_error(tmp_path, monkeypatch, capsys, command, config, key, rows, error):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "traj.csv").write_text("t,x1\n" + rows)
    code, out = _run(tmp_path, command, config)
    assert code == 2
    assert f"config error: {key}: cannot load 'traj.csv': {error}" in capsys.readouterr().err
    assert not out.exists()


def test_zero_workers_exits_2_before_any_output(tmp_path, capsys):
    cfg = _write(tmp_path / "simulate.json", {"model": OU, "x": [1.0], "n": 4, "seed": 0})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--workers", "0"]) == 2
    # the library's words for workers
    assert capsys.readouterr().err == "config error: --workers must be an integer >= 1, got 0\n"
    assert not out.exists()


_ESTIMATE = {
    "model": OU,
    "x": [0.0],
    "n": 20,
    "event": {"kind": "terminal-halfspace", "normal": [1.0], "level": 1.0},
    "samples": 200,
    "seed": 3,
}
_SIMULATE = {"model": OU, "x": [1.0], "n": 4, "seed": 0}


@pytest.mark.parametrize("sub", ["taken", "taken/out"], ids=["file", "under-a-file"])
def test_out_naming_a_file_exits_2_and_writes_nothing(tmp_path, capsys, sub):
    # os.makedirs used to raise FileExistsError (NotADirectoryError under a file) with a traceback and exit 1
    (tmp_path / "taken").write_text("kept")
    code, _ = _run(tmp_path, "simulate", _SIMULATE, sub=sub)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: --out: cannot make directory '{tmp_path / sub}'") and "Traceback" not in err
    assert (tmp_path / "taken").read_text() == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["simulate.json", "taken"]


@pytest.mark.parametrize(
    "command, config, error",
    [
        # each used to write resolved_config.json, then fail in the library
        ("verify-ode", {**_ODE, "n_grid": [10, 0]}, "config.n_grid[1] must be an integer >= 1, got 0"),  # "steps must be >= 1"
        ("simulate", {**_SIMULATE, "seed": -1}, "config.seed must be an integer >= 0, got -1"),  # numpy's "non-negative"
        ("simulate", {**_SIMULATE, "n": 0}, "config.n must be an integer >= 1, got 0"),
        ("estimate", {**_ESTIMATE, "samples": 0}, "config.samples must be an integer >= 1, got 0"),
        ("estimate", {**_ESTIMATE, "method": "tilted", "samples": 1}, "config.samples must be an integer >= 2, got 1"),
        ("minimize", {**_MINIMIZE, "m": 1}, "config.m must be an integer >= 2, got 1"),
        ("verify-rate", {**_RATE, "samples": 1}, "config.samples must be an integer >= 2, got 1"),
        ("verify-martingale", {**_MARTINGALE, "samples": 1}, "config.samples must be an integer >= 2, got 1"),
        ("verify-martingale", {**_MARTINGALE, "x": [0.0, 1.0]}, "config.x must have shape (1,), got (2,)\n"),
        ("minimize", {**_MINIMIZE, "terminal": {"kind": "point", "point": [1.0, 1.0]}},
         "config.terminal.point must have shape (1,), got (2,)\n"),
        ("simulate", {**_SIMULATE, "model": {**_explicit(), "dim": 0}}, "config.model.dim must be an integer >= 1, got 0"),
        # the float ranges: each used to write resolved_config.json, then fail in the library without the key
        ("simulate", {**_SIMULATE, "a": -1.0}, "config.a must be >= 0, got -1.0"),
        ("action", {"model": OU, "x": [0.0], "knots": [0.0, 1.0], "a": -0.5}, "config.a must be >= 0, got -0.5"),
        ("minimize", {**_MINIMIZE, "a": -1}, "config.a must be >= 0, got -1.0"),
        ("estimate", {**_ESTIMATE, "a": -1.0}, "config.a must be >= 0, got -1.0"),
        ("verify-martingale", {**_MARTINGALE, "a": -1.0}, "config.a must be >= 0, got -1.0"),
        ("verify-ode", {**_ODE, "epsilon": 0.0}, "config.epsilon must be > 0, got 0.0"),
        ("estimate", {**_ESTIMATE, "event": {"kind": "sup-distance-from-path", "epsilon": -0.5}},
         "config.event.epsilon must be > 0, got -0.5"),
        # exited 2 with "radius must be > 0, got -1.0", which named no key
        ("estimate", {**_ESTIMATE, "event": {"kind": "terminal-ball", "center": [0.0], "radius": -1.0}},
         "config.event.radius must be > 0, got -1.0"),
        ("estimate", {**_ESTIMATE, "method": "bogus"}, "config.method: expected 'naive' or 'tilted', got 'bogus'"),
        ("estimate", {**_ESTIMATE, "event": {"kind": "terminal-halfspace", "normal": [0.0], "level": 1.0}},
         "config.event.normal must have a finite nonzero norm, got 0.0"),
        ("estimate", {**_ESTIMATE, "event": {"kind": "terminal-halfspace", "normal": [1e-300], "level": 1e10}},
         "config.event.level / |normal| must be finite, got 10000000000.0 / 1e-300"),
        # wrote resolved_config.json, then exited 2 with the library's words, which named no key
        ("verify-martingale", {**_MARTINGALE, "measure": {"atoms": [{"t": 1.0, "weight": [5.0]}]}},
         "config.measure: dual measure variation 5 exceeds the cap 2; scale the measure down"),
        # exited 2 with "atom times must lie in [0, 1]", which named no key
        ("verify-martingale", {**_MARTINGALE, "measure": {"atoms": [{"t": 1.5, "weight": [0.5]}]}},
         "config.measure.atoms: atom times must lie in [0, 1]"),
    ],
    ids=["ode-n-grid", "seed", "n", "samples", "tilted-samples", "m", "rate-samples", "martingale-samples", "x-dim",
         "point-dim", "model-dim", "simulate-a", "action-a", "minimize-a", "estimate-a", "martingale-a",
         "ode-epsilon", "path-epsilon", "ball-radius", "estimate-method", "halfspace-zero-normal", "halfspace-level-overflow",
         "martingale-variation", "atom-time-range"],
)
def test_config_out_of_range_exits_2_before_the_echo(tmp_path, capsys, command, config, error):
    code, out = _run(tmp_path, command, config)
    assert code == 2
    assert error in capsys.readouterr().err
    assert not out.exists()  # --out is made only for an accepted config


@pytest.mark.parametrize(
    "command, config, error",
    [
        ("minimize", {**_MINIMIZE, "terminal": {"kind": "ball"}}, "config.terminal.kind: unknown terminal kind 'ball'"),
        ("estimate", {**_ESTIMATE, "event": {"kind": "bogus"}}, "config.event.kind: unknown event kind 'bogus'"),
        ("verify-rate", {**_RATE, "event": {"kind": "terminal-ball", "center": [0.0], "radius": 0.5}},
         "config.event.kind: rate verification needs 'terminal-halfspace'"),
        ("simulate", {**_SIMULATE, "model": {"preset": 3}}, "config.model.preset: expected a string, got 3"),
        ("verify-martingale", {**_MARTINGALE, "measure": {"atoms": 5}}, "config.measure.atoms: expected a list, got 5"),
        ("simulate", {**_SIMULATE, "model": []}, "config.model: expected an object, got []"),
        ("action", {"model": OU, "x": [0.0], "knots": [0.0]}, "config.knots: expected at least two knots, got [0.0]"),
        ("simulate", {**_SIMULATE, "x": [1.0, 1.0], "model": _explicit(drift={"kind": "logistic"}, dim=2)},
         "config.model.drift: logistic drift requires dim=1, got dim=2"),
        ("simulate", {**_SIMULATE, "model": _explicit(sigma={"kind": "diagonal"})},
         "config.model.sigma.kind must be one of zero|identity|constant, got 'diagonal'"),
        ("simulate", {**_SIMULATE, "model": _explicit(base={"kind": "laplace"})},
         "config.model.base.kind must be gaussian or bernoulli, got 'laplace'"),
    ],
    ids=["terminal-kind", "event-kind", "rate-ball", "preset-number", "atoms-number", "model-list", "one-knot",
         "logistic-2d", "sigma-kind", "base-kind"],
)
def test_a_refused_config_prints_its_words_and_writes_nothing(tmp_path, capsys, command, config, error):
    code, _ = _run(tmp_path, command, config)
    assert code == 2
    assert capsys.readouterr().err == f"config error: {error}\n"
    assert [p.name for p in tmp_path.iterdir()] == [f"{command}.json"]


@pytest.mark.parametrize("reference", [None, "ref/trajectory.csv"], ids=["mean-flow", "file"])
def test_estimate_path_deviation_event_is_the_librarys_estimate(tmp_path, monkeypatch, reference):
    monkeypatch.chdir(tmp_path)
    assert _run(tmp_path, "simulate", {"model": OU, "x": [1.0], "n": 10, "seed": 4}, sub="ref")[0] == 0
    event = {"kind": "sup-distance-from-path", "epsilon": 0.4}
    if reference:
        event["reference_file"] = reference
    code, out = _run(tmp_path, "estimate", {"model": OU, "x": [1.0], "n": 20, "event": event, "samples": 2000, "seed": 6})
    assert code == 0
    rep = json.loads((out / "estimate_report.json").read_text())
    assert rep["event"] == {"kind": "sup-distance-from-path", "epsilon": 0.4,
                            "reference": "explicit" if reference else "mean-flow"}
    lib_event = PathDeviationEvent(0.4, load_trajectory(reference) if reference else None)
    lib = mc_probability(preset_model("gaussian-ou"), [1.0], 20, 0.0, lib_event, 2000, 6)
    assert 0.0 < rep["p_hat"] < 1.0
    assert rep["p_hat"] == lib.p_hat and rep["stderr"] == lib.stderr


def test_jsonable_writes_nan_numpy_integers_and_numpy_bools_as_json_values():
    got = _jsonable({"nan": np.float64("nan"), "count": np.int64(7), "flag": np.bool_(True), "list": (np.int32(2),)})
    assert got == {"nan": "nan", "count": 7, "flag": True, "list": [2]}
    assert type(got["count"]) is int and type(got["flag"]) is bool and type(got["list"][0]) is int
    assert json.loads(json.dumps(got)) == got


def test_estimate_normal_past_the_plain_norms_range_reports_as_its_unit_normal(tmp_path):
    # exited 0 with p_hat 1.0 and stderr 0.0: the normal's norm overflowed, so every state hit
    huge = {"kind": "terminal-halfspace", "normal": [1e200], "level": 1e200}
    code, out = _run(tmp_path, "estimate", {**_ESTIMATE, "event": huge}, sub="huge")
    assert code == 0
    _, unit = _run(tmp_path, "estimate", _ESTIMATE, sub="unit")
    rep = json.loads((out / "estimate_report.json").read_text())
    assert rep == json.loads((unit / "estimate_report.json").read_text())
    assert rep["p_hat"] < 1.0


def test_bare_number_vector_echoes_as_a_list(tmp_path):
    event = {"kind": "terminal-halfspace", "normal": 1, "level": 1.0}
    code, out = _run(tmp_path, "estimate", {**_ESTIMATE, "x": 0.5, "event": event})
    assert code == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["x"] == [0.5]
    assert resolved["event"]["normal"] == [1.0]


_D2 = {"dim": 2, "drift": {"kind": "zero"}, "sigma": {"kind": "identity"}, "base": {"kind": "gaussian"}}


@pytest.mark.parametrize(
    "command, config, echoed",
    [
        ("action", {"model": FREE, "x": 0, "knots": [0, 1, 2]},
         {"x": [0.0], "knots": [0.0, 1.0, 2.0], "a": 0.0, "trajectory_file": None}),
        ("action", {"model": _D2, "x": [0, 1], "knots": [[0, 1], [2, 3]]},
         {"x": [0.0, 1.0], "knots": [[0.0, 1.0], [2.0, 3.0]], "a": 0.0, "trajectory_file": None}),
        ("minimize", {"model": OU, "x": 0, "m": 3, "terminal": {"kind": "point", "point": [1]}},
         {"x": [0.0], "terminal": {"kind": "point", "point": [1.0]}, "a": 0.0, "m": 3, "settings": {"max_iter": 500}}),
        ("estimate", {"model": OU, "x": [0], "n": 4, "event": {"kind": "terminal-halfspace", "normal": 2, "level": 1},
                      "samples": 10, "seed": 1},
         {"x": [0.0], "event": {"kind": "terminal-halfspace", "normal": [2.0], "level": 1.0}, "n": 4, "a": 0.0,
          "method": "naive", "samples": 10, "seed": 1}),
        ("estimate", {"model": _D2, "x": [0, 0], "n": 4, "event": {"kind": "terminal-ball", "center": [1, 2], "radius": 1},
                      "samples": 10, "seed": 1},
         {"x": [0.0, 0.0], "event": {"kind": "terminal-ball", "center": [1.0, 2.0], "radius": 1.0}, "n": 4, "a": 0.0,
          "method": "naive", "samples": 10, "seed": 1}),
    ],
    ids=["bare-x-flat-knots", "nested-knots", "point", "bare-normal", "center"],
)
def test_integer_and_bare_array_entries_echo_as_lists_of_floats(tmp_path, command, config, echoed):
    code, out = _run(tmp_path, command, config)
    assert code == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved == {"command": command, "model": config["model"], **echoed}


def _with_last(value, entry):
    """The nested list value with its last number replaced by entry."""
    return value[:-1] + [_with_last(value[-1], entry)] if isinstance(value, list) else entry


# each array of a config, on a 2-D model: (the library's name for it, a good value, the library call, the config)
_CONFIG_ARRAYS = {
    "x": ("x", [0.0, 1.0], lambda v: simulate(model_from_config(_D2), v, 4, 0.0, 1),
          lambda v: ("simulate", {"model": _D2, "x": v, "n": 4, "seed": 1})),
    "knots": ("knots", [[0.0, 0.0], [1.0, 1.0]], lambda v: Trajectory(v),
              lambda v: ("action", {"model": _D2, "x": [0.0, 0.0], "knots": v})),
    "event.normal": ("normal", [0.0, 1.0], lambda v: TerminalHalfspace(v, 1.0),
                     lambda v: ("estimate", {"model": _D2, "x": [0.0, 0.0], "n": 4, "samples": 10, "seed": 1,
                                             "event": {"kind": "terminal-halfspace", "normal": v, "level": 1.0}})),
    "event.center": ("center", [0.0, 1.0], lambda v: BallEvent(v, 0.5),
                     lambda v: ("estimate", {"model": _D2, "x": [0.0, 0.0], "n": 4, "samples": 10, "seed": 1,
                                             "event": {"kind": "terminal-ball", "center": v, "radius": 0.5}})),
    "terminal.point": ("point", [0.0, 1.0], lambda v: TerminalPoint(v),
                       lambda v: ("minimize", {"model": _D2, "x": [0.0, 0.0], "m": 3,
                                               "terminal": {"kind": "point", "point": v}})),
    "model.drift.offset": ("drift offset", [0.0, 1.0], lambda v: linear_drift(-np.eye(2), v),
                           lambda v: ("simulate", {"model": {**_D2, "drift": {
                               "kind": "linear", "matrix": [[-1.0, 0.0], [0.0, -1.0]], "offset": v}},
                               "x": [0.0, 0.0], "n": 4, "seed": 1})),
    "model.sigma.matrix": ("constant sigma", [[1.0, 0.0], [0.0, 1.0]],
                           lambda v: affine_model(2, zero_drift(), v, gaussian_base()),
                           lambda v: ("simulate", {"model": {**_D2, "sigma": {"kind": "constant", "matrix": v}},
                                                   "x": [0.0, 0.0], "n": 4, "seed": 1})),
}
# each kind of bad value, built from a good one, and the words after the name that refuse it
_BAD_VALUES = {
    "bool": (lambda good: np.full(np.shape(good), True).tolist(), ": expected an array of numbers, got dtype bool"),
    "str": (lambda good: np.array(good).astype(str).tolist(), ": expected an array of numbers, got dtype <U"),
    "bool-beside-a-number": (lambda good: _with_last(good, True), ": expected an array of numbers, got a bool among them"),
    "nan": (lambda good: _with_last(good, float("nan")), " must be finite"),
    "ragged": (lambda good: _with_last(good, [1.0]), ": expected an array of numbers, got a ragged nesting"),
    "shape": (lambda good: good + good[-1:], " must have shape ("),
}
# the library states a free axis where the config knows the model's dimension, so only fixed shapes share words
_SHAPE_FIXED = {"x", "model.drift.offset", "model.sigma.matrix"}


@pytest.mark.parametrize(
    "key, kind", [(key, kind) for key in _CONFIG_ARRAYS for kind in _BAD_VALUES if kind != "shape" or key in _SHAPE_FIXED]
)
def test_a_bad_array_gets_the_librarys_words_on_the_cli(tmp_path, capsys, key, kind):
    # a bool beside a number, such as the normal [0.0, true], was refused by the config but read as 1.0 by the library
    name, good, library, cli = _CONFIG_ARRAYS[key]
    make, words = _BAD_VALUES[kind]
    with pytest.raises(ValueError) as refused:
        library(make(good))
    message = str(refused.value)
    assert message.startswith(name + words)
    command, config = cli(make(good))
    code, out = _run(tmp_path, command, config)
    assert code == 2
    assert capsys.readouterr().err == f"config error: config.{key}{message[len(name):]}\n"
    assert not out.exists()


# each bad n_grid, and the words after the name with which the library and the CLI refuse it
_BAD_GRIDS = {
    "int": (5, ": expected a nonempty list of integers, got 5"),  # a TypeError in the library
    "str": ("ab", ": expected a nonempty list of integers, got 'ab'"),  # walked by character in the library
    "empty": ([], ": expected a nonempty list of integers, got []"),
    "zero": ([10, 0], "[1] must be an integer >= 1, got 0"),
    "bool": ([10, True], "[1] must be an integer >= 1, got True"),
    "float": ([10, 2.0], "[1] must be an integer >= 1, got 2.0"),
}
# each command taking an n_grid: (its library call on a grid, its config)
_GRID_COMMANDS = {
    "verify-rate": (lambda grid: verify_rate(model_from_config(FREE), [0.0], TerminalHalfspace([1.0], 1.0), grid,
                                             200, seed=3), _RATE),
    "verify-ode": (lambda grid: verify_ode_convergence(model_from_config(OU), [1.0], 0.35, grid, 200, seed=3), _ODE),
}


@pytest.mark.parametrize("command", list(_GRID_COMMANDS))
@pytest.mark.parametrize("kind", list(_BAD_GRIDS))
def test_a_bad_n_grid_gets_the_same_words_from_the_library_and_the_cli(tmp_path, capsys, command, kind):
    grid, words = _BAD_GRIDS[kind]
    library, config = _GRID_COMMANDS[command]
    with pytest.raises(ValueError) as refused:
        library(grid)
    assert str(refused.value) == "n_grid" + words
    code, out = _run(tmp_path, command, {**config, "n_grid": grid})
    assert code == 2
    assert capsys.readouterr().err == f"config error: config.n_grid{words}\n"
    assert not out.exists()


_WORKER_RUNS = {
    # 30000 samples make two replica chunks and 40001 make three, so two workers run chunks concurrently
    "estimate": (
        {**_ESTIMATE, "n": 25, "event": {"kind": "terminal-halfspace", "normal": [1.0], "level": 0.2},
         "samples": 30000, "seed": 23},
        ["estimate_report.json"],
    ),
    "verify-ode": ({**_ODE, "n_grid": [5, 10], "samples": 40001}, ["ode_report.json", "ode_rows.csv"]),
    "verify-rate": ({**_RATE, "n_grid": [10, 20], "samples": 40001}, ["rate_report.json", "rate_estimates.csv"]),
    "verify-martingale": ({**_MARTINGALE, "samples": 40001}, ["martingale_report.json"]),
}


@pytest.mark.parametrize("command", list(_WORKER_RUNS))
def test_workers_byte_identical(tmp_path, command):
    config, outputs = _WORKER_RUNS[command]
    code1, out1 = _run(tmp_path, command, config, sub="w1")
    code2, out2 = _run(tmp_path, command, config, sub="w2", extra=("--workers", "2"))
    assert code1 == code2
    for name in ["resolved_config.json", *outputs]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_verify_martingale_passes(tmp_path):
    code, out = _run(
        tmp_path,
        "verify-martingale",
        {
            "model": OU,
            "x": [1.0],
            "n": 30,
            "a": 0.5,
            "measure": {"atoms": [{"t": 1.0, "weight": [0.6]}]},
            "samples": 20000,
            "seed": 29,
        },
    )
    assert code == 0
    rep = json.loads((out / "martingale_report.json").read_text())
    assert rep["pass"]
    assert abs(rep["mean"] - 1.0) <= 4.0 * rep["stderr"] + 1e-12


def test_verify_rate_passes_and_writes_tables(tmp_path):
    code, out = _run(
        tmp_path,
        "verify-rate",
        {
            "model": FREE,
            "x": [0.0],
            "event": {"kind": "terminal-halfspace", "normal": [1.0], "level": 1.0},
            "n_grid": [25, 50, 100],
            "samples": 20000,
            "seed": 37,
        },
    )
    assert code == 0
    rep = json.loads((out / "rate_report.json").read_text())
    assert rep["pass"]
    assert rep["predicted_rate"] == pytest.approx(0.5, abs=1e-6)
    lines = (out / "rate_estimates.csv").read_text().strip().splitlines()
    assert lines[0] == "n,samples,p_hat,stderr,empirical_rate,predicted_rate"
    assert len(lines) == 4


@pytest.mark.parametrize(
    "table, code",
    [
        ({10: (0.05, 0.02), 20: (0.08, 0.02)}, 0),  # one excused violation
        ({10: (0.05, 0.001), 20: (0.08, 0.001)}, 1),  # one unexcused violation
        ({10: (0.05, 0.02), 20: (0.08, 0.02), 40: (0.11, 0.02)}, 1),  # two excused violations
        ({10: (0.05, 0.02), 20: None}, 1),  # an n without a finite rate fails, whatever the last finite gap
        ({10: None, 20: None}, 1),  # no finite gap at all
    ],
    ids=["excused", "unexcused", "two-violations", "censored-last", "all-censored"],
)
def test_verify_rate_verdict_reads_the_trend_and_the_last_finite_gap(tmp_path, crafted_rates, table, code):
    crafted_rates(table)
    config = {**_RATE, "n_grid": sorted(table)}
    got, out = _run(tmp_path, "verify-rate", config)
    assert got == code
    rep = json.loads((out / "rate_report.json").read_text())
    assert rep["pass"] is (code == 0)
    assert _library_report("verify-rate", config).passed is (code == 0)
    finite = [entry[0] for entry in table.values() if entry is not None]
    assert rep["final_rel_gap"] == (pytest.approx(finite[-1]) if finite else None)


def test_verify_rate_event_covering_mean_is_config_error(tmp_path):
    code, _ = _run(
        tmp_path,
        "verify-rate",
        {
            "model": OU,
            "x": [1.0],
            "event": {"kind": "terminal-halfspace", "normal": [1.0], "level": 0.1},
            "n_grid": [20, 40],
            "samples": 100,
            "seed": 1,
        },
    )
    assert code == 2


def test_verify_ode_passes(tmp_path):
    code, out = _run(
        tmp_path,
        "verify-ode",
        {
            "model": OU,
            "x": [1.0],
            "epsilon": 0.35,
            "n_grid": [10, 20, 40],
            "samples": 4000,
            "seed": 43,
        },
    )
    assert code == 0
    rep = json.loads((out / "ode_report.json").read_text())
    assert rep["pass"]
    assert rep["slope"] <= -0.05
    lines = (out / "ode_rows.csv").read_text().strip().splitlines()
    assert lines[0] == "n,samples,count,q,censored"
    assert len(lines) == 4


def test_verify_ode_all_censored_fails(tmp_path):
    code, out = _run(
        tmp_path,
        "verify-ode",
        {
            "model": OU,
            "x": [1.0],
            "epsilon": 1e9,
            "n_grid": [10, 20],
            "samples": 200,
            "seed": 44,
        },
    )
    assert code == 1
    rep = json.loads((out / "ode_report.json").read_text())
    assert not rep["pass"]
    assert rep["slope"] is None


def test_blowup_exits_3(tmp_path):
    code, _ = _run(
        tmp_path,
        "simulate",
        {"model": {"preset": "logistic"}, "x": [1e8], "n": 12, "seed": 0},
    )
    assert code == 3


def test_naive_estimate_blowup_exits_3(tmp_path):
    # from x = -5 the logistic scheme leaves the finite range at step 14 of n = 15
    code, out = _run(
        tmp_path,
        "estimate",
        {
            "model": {"preset": "logistic"},
            "x": [-5.0],
            "n": 15,
            "event": {"kind": "terminal-halfspace", "normal": [1.0], "level": 0.5},
            "samples": 2000,
            "seed": 0,
            "method": "naive",
        },
    )
    assert code == 3
    assert not (out / "estimate_report.json").exists()


def test_unknown_subcommand_exits_2(tmp_path, capsys):
    assert main(["frobnicate", "--config", "x.json"]) == 2


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "ldscheme", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout


def test_import_loads_no_scipy():
    # scipy loads on first use, so importing the package and the CLI stays cheap
    import os
    import subprocess
    import sys

    import ldscheme

    src = os.path.dirname(os.path.dirname(ldscheme.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, ldscheme, ldscheme.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
