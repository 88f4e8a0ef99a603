import json

import numpy as np
import pytest

from ldscheme.cli import main


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _run(tmp_path, name, config, sub="out", extra=()):
    cfg = _write(tmp_path / f"{name}.json", config)
    out = tmp_path / sub
    out.mkdir(exist_ok=True)
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
    "knots, path",
    [
        ([[0.0], ["0.5"], [True]], "config.knots[1][0]: expected a number"),  # accepted, exit 0
        # wrote resolved_config.json, then failed with "ys must be finite"
        ([[0.0], [float("nan")], [1.0]], "config.knots[1][0]: expected a finite number"),
        ([[0.0], [0.5, 0.5], [1.0]], "config.knots[1]: expected a list of length 1"),  # numpy's "inhomogeneous shape"
    ],
    ids=["str-and-bool", "nan", "ragged"],
)
def test_action_bad_knots_exit_2(tmp_path, capsys, knots, path):
    code, out = _run(tmp_path, "action", {"model": FREE, "x": [0.0], "knots": knots})
    assert code == 2
    assert path in capsys.readouterr().err
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
    "event, key",
    [
        ({"kind": "terminal-halfspace", "normal": [1.0], "level": float("nan")}, "level"),
        ({"kind": "terminal-halfspace", "normal": [1.0], "level": float("inf")}, "level"),
        ({"kind": "terminal-halfspace", "normal": [float("inf")], "level": 1.0}, "normal[0]"),
        ({"kind": "terminal-ball", "center": [0.0], "radius": float("nan")}, "radius"),
        ({"kind": "terminal-ball", "center": [float("nan")], "radius": 1.0}, "center[0]"),
        ({"kind": "sup-distance-from-path", "epsilon": float("nan")}, "epsilon"),
        ({"kind": "sup-distance-from-path", "epsilon": float("inf")}, "epsilon"),
    ],
    ids=["halfspace", "halfspace-level-inf", "halfspace-normal", "ball", "ball-center", "path", "path-inf"],
)
def test_estimate_non_finite_event_is_config_error(tmp_path, capsys, event, key):
    # json reads NaN; a NaN parameter used to give p_hat 0 and exit 0.  Every
    # event parameter now fails when the config is read.
    cfg = {"model": FREE, "x": [0.0], "n": 10, "event": event, "samples": 100, "seed": 1}
    code, out = _run(tmp_path, "estimate", cfg)
    assert code == 2
    assert f"config.event.{key}: expected a finite number" in capsys.readouterr().err
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
    assert "samples must be >= 2" in capsys.readouterr().err


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
    import ldscheme.cli as cli

    code, _ = _run(tmp_path, command, config, sub="fixed")
    monkeypatch.setattr(cli, constant, value)
    patched, out = _run(tmp_path, command, config, sub="patched")
    assert {code, patched} == {0, 1}
    rep = json.loads((out / report).read_text())
    assert rep[key] == value
    assert rep["pass"] is (patched == 0)


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
    "model, path",
    [
        # each record used to be read by a looser parser than the rest of the config
        (_explicit(dim=True), "config.model.dim"),  # a traceback, exit 1
        (_explicit(sigma={"kind": "identity", "scale": float("nan")}), "config.model.sigma.scale"),  # exit 3
        (_explicit(sigma={"kind": "identity", "scale": True}), "config.model.sigma.scale"),  # accepted
        (_explicit(sigma={"kind": "identity", "scale": "2"}), "config.model.sigma.scale"),  # accepted
        (_explicit(base={"kind": "bernoulli", "p": "0.3"}), "config.model.base.p"),  # accepted
        # warned, then exited 2 with "ys must be finite" after writing resolved_config.json
        (_explicit(drift={"kind": "linear", "matrix": [[float("inf")]]}), "config.model.drift.matrix[0][0]"),
        (_explicit(sigma={"kind": "constant", "matrix": [["1"]]}), "config.model.sigma.matrix[0][0]"),  # accepted
        # the JSON reader refuses it, so the error names the file; a traceback, exit 1
        (_explicit(dim=_HUGE), None),
    ],
    ids=["dim-true", "scale-nan", "scale-true", "scale-str", "p-str", "matrix-inf", "matrix-str", "huge-int"],
)
def test_bad_model_record_exits_2(tmp_path, capsys, model, path):
    cfg = tmp_path / "simulate.json"
    cfg.write_text(json.dumps({"model": model, "x": [1.0], "n": 4, "seed": 0}).replace(f'"{_HUGE}"', _HUGE))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert (f"{path}: expected" if path else str(cfg)) in capsys.readouterr().err
    assert not (out / "resolved_config.json").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        # exited 0 with converged true after 0 iterations at the straight-line cost 1.1667
        ("grad_tol", float("inf")),
        # warned and then failed with "ys must be finite"
        ("y_fd_step", 0),
        # ran anyway and reported 1 iteration
        ("max_iter", 0),
    ],
)
def test_minimize_bad_settings_exit_2(tmp_path, capsys, key, value):
    code, out = _run(tmp_path, "minimize", {**_MINIMIZE, "settings": {key: value}})
    assert code == 2
    assert key in capsys.readouterr().err
    assert not (out / "minimize_report.json").exists()


@pytest.mark.parametrize(
    "event, error",
    [
        # exited 0 with p_hat 0.98375: the center broadcast against the (rows, 1) states
        ({"kind": "terminal-ball", "center": [0.0, 0.0], "radius": 0.5}, "config.event.center: expected a list of length 1"),
        # these two wrote resolved_config.json, then failed in the library without the config path
        ({"kind": "terminal-halfspace", "normal": [1.0, 0.0], "level": 1.0},
         "config.event.normal: expected a list of length 1"),
        ({"kind": "sup-distance-from-path", "epsilon": 0.5, "reference_file": "ref2.csv"},
         "config.event.reference_file: expected a path of dim 1, got dim 2"),
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


_ESTIMATE = {
    "model": OU,
    "x": [0.0],
    "n": 20,
    "event": {"kind": "terminal-halfspace", "normal": [1.0], "level": 1.0},
    "samples": 200,
    "seed": 3,
}
_SIMULATE = {"model": OU, "x": [1.0], "n": 4, "seed": 0}


@pytest.mark.parametrize(
    "command, config, error",
    [
        # each used to write resolved_config.json, then fail in the library
        ("verify-ode", {**_ODE, "n_grid": [10, 0]}, "config.n_grid[1] must be >= 1, got 0"),  # "steps must be >= 1"
        ("simulate", {**_SIMULATE, "seed": -1}, "config.seed must be >= 0, got -1"),  # numpy's "non-negative"
        ("simulate", {**_SIMULATE, "n": 0}, "config.n must be >= 1, got 0"),
        ("estimate", {**_ESTIMATE, "samples": 0}, "config.samples must be >= 1, got 0"),
        ("estimate", {**_ESTIMATE, "method": "tilted", "samples": 1}, "config.samples must be >= 2, got 1"),
        ("minimize", {**_MINIMIZE, "m": 1}, "config.m must be >= 2, got 1"),
        ("verify-rate", {**_RATE, "samples": 1}, "config.samples must be >= 2, got 1"),
        ("verify-martingale", {**_MARTINGALE, "samples": 1}, "config.samples must be >= 2, got 1"),
        ("verify-martingale", {**_MARTINGALE, "x": [0.0, 1.0]}, "config.x: expected a list of length 1"),
        ("minimize", {**_MINIMIZE, "terminal": {"kind": "point", "point": [1.0, 1.0]}},
         "config.terminal.point: expected a list of length 1"),
        ("simulate", {**_SIMULATE, "model": {**_explicit(), "dim": 0}}, "config.model.dim must be >= 1, got 0"),
    ],
    ids=["ode-n-grid", "seed", "n", "samples", "tilted-samples", "m", "rate-samples", "martingale-samples", "x-dim",
         "point-dim", "model-dim"],
)
def test_config_out_of_range_exits_2_before_the_echo(tmp_path, capsys, command, config, error):
    code, out = _run(tmp_path, command, config)
    assert code == 2
    assert error in capsys.readouterr().err
    assert not (out / "resolved_config.json").exists()


def test_bare_number_vector_echoes_as_a_list(tmp_path):
    event = {"kind": "terminal-halfspace", "normal": 1, "level": 1.0}
    code, out = _run(tmp_path, "estimate", {**_ESTIMATE, "x": 0.5, "event": event})
    assert code == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["x"] == [0.5]
    assert resolved["event"]["normal"] == [1.0]


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
