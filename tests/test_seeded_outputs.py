"""Seeded outputs of every run entry point, pinned to their bytes.

tests/seeded_outputs.json records, for each case below, every number the
run returns: floats as float.hex, arrays as their shape and a sha256 of
their float64 bytes.  A change that moves any output by one ulp fails here.

The chunked estimators run 40,001 samples, three chunks of CHUNK_SIZE, at
workers 1 and 2; both worker counts must give the one recorded output.

Last bits can depend on the numpy and scipy versions (the minimizer is
scipy's L-BFGS-B), on the machine and on numpy's CPU dispatch (SIMD exp and
log).  The record holds that environment.  Where it matches, every case is
compared byte for byte; where it differs, no case is compared and each is
skipped with the differences as its reason.  test_comparison_in_force
prints which of the two ran.

Running this module as a script rewrites the record:

    PYTHONPATH=src python tests/test_seeded_outputs.py

A change that moves a number rewrites the record in the same commit and
says which cases moved, and why.
"""

import dataclasses
import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

from ldscheme import (
    ActionProblem,
    BallEvent,
    DualMeasure,
    MinimizeSettings,
    PathDeviationEvent,
    TerminalHalfspace,
    TerminalPoint,
    affine_model,
    coupled_perturbation_gaps,
    gaussian_base,
    linear_drift,
    martingale_check,
    mc_probability,
    minimize_action,
    preset_model,
    simulate,
    tilted_mc_probability,
    verify_ode_convergence,
    verify_rate,
)

RECORD_PATH = Path(__file__).with_name("seeded_outputs.json")
SAMPLES = 40_001  # three chunks of rare_event.CHUNK_SIZE
A2 = [[-1.0, 0.5], [0.0, -1.0]]  # the 2-D drift matrix of the benchmark's minimizes


def _linear_2d():
    return affine_model(2, linear_drift(np.array(A2)), np.eye(2), gaussian_base(), summary="linear-2d")


# model name -> (model, start x, half-space level, ball radius, deviation epsilon),
# each event hit by a fair share of the replicas at the sizes below
MODELS = {
    "gaussian-free": (lambda: preset_model("gaussian-free"), [0.0], 0.3, 0.2, 0.4),
    "gaussian-ou": (lambda: preset_model("gaussian-ou"), [0.5], 0.1, 0.2, 0.4),
    "logistic": (lambda: preset_model("logistic"), [0.5], 0.35, 0.1, 0.15),
    "bernoulli-walk": (lambda: preset_model("bernoulli-walk"), [0.0], 0.4, 0.1, 0.2),
    "linear-2d": (_linear_2d, [0.5, -0.2], 0.3, 0.4, 0.5),
}
GAUSSIAN = ["gaussian-free", "gaussian-ou", "logistic", "linear-2d"]  # the tilted estimators' models
RARE_LEVEL = {"gaussian-free": 0.8, "gaussian-ou": 0.8, "logistic": 1.1, "linear-2d": 1.0}


def _setup(name):
    make, x, level, radius, epsilon = MODELS[name]
    model = make()
    return model, np.asarray(x), level, radius, epsilon


def _simulate(name, a):
    model, x, *_ = _setup(name)
    return lambda workers: simulate(model, x, 50, a, seed=11)


def _coupled(name, a):
    model, x, *_ = _setup(name)
    return lambda workers: coupled_perturbation_gaps(model, x, 30, a, seed=12, realizations=500)


def _naive(name, a, kind):
    model, x, level, radius, epsilon = _setup(name)
    ones = np.ones(model.dim)
    event = {
        "halfspace": TerminalHalfspace(ones / np.sqrt(model.dim), x @ ones / np.sqrt(model.dim) + level),
        "ball": BallEvent(x, radius),
        "deviation": PathDeviationEvent(epsilon=epsilon),
    }[kind]
    return lambda workers: mc_probability(model, x, 10, a, event, SAMPLES, seed=13, workers=workers)


def _rare_event(model, x, name):
    ones = np.ones(model.dim)
    return TerminalHalfspace(ones / np.sqrt(model.dim), x @ ones / np.sqrt(model.dim) + RARE_LEVEL[name])


def _tilted(name):
    model, x, *_ = _setup(name)
    event = _rare_event(model, x, name)
    return lambda workers: tilted_mc_probability(model, x, 20, event, SAMPLES, seed=14, workers=workers)


def _martingale(name, a):
    model, x, *_ = _setup(name)
    lam = DualMeasure.from_atoms([(0.5, np.full(model.dim, 0.6)), (1.0, np.full(model.dim, -0.4))])
    return lambda workers: martingale_check(model, x, 10, a, lam, SAMPLES, seed=15, workers=workers)


def _rate(name):
    model, x, *_ = _setup(name)
    event = _rare_event(model, x, name)
    return lambda workers: verify_rate(model, x, event, [10, 20], SAMPLES, seed=16, workers=workers)


def _ode(name):
    model, x, _, _, epsilon = _setup(name)
    return lambda workers: verify_ode_convergence(model, x, epsilon, [5, 10], SAMPLES, seed=17, workers=workers)


def _minimize(model, x, terminal, m, max_iter):
    problem = ActionProblem(model=model, x=x, terminal=terminal, m=m, settings=MinimizeSettings(max_iter=max_iter))
    return lambda workers: minimize_action(problem)


def _cases():
    """case name -> (run(workers), whether the run is chunked over workers)."""
    cases = {}
    for name in MODELS:
        for a in (0.0, 0.5):
            cases[f"simulate-{name}-a{a}"] = (_simulate(name, a), False)
            cases[f"coupled-gaps-{name}-a{a}"] = (_coupled(name, a), False)
            for kind in ("halfspace", "ball", "deviation"):
                cases[f"mc-{kind}-{name}-a{a}"] = (_naive(name, a, kind), True)
            cases[f"martingale-{name}-a{a}"] = (_martingale(name, a), True)
        cases[f"verify-ode-{name}"] = (_ode(name), True)
    for name in GAUSSIAN:
        cases[f"tilted-{name}"] = (_tilted(name), True)
        cases[f"verify-rate-{name}"] = (_rate(name), True)
    # the benchmark's minimizes: the CLI's gaussian-ou half-space and the two 2-D library problems
    cases["minimize-ou-halfspace"] = (
        _minimize(preset_model("gaussian-ou"), [0.0], TerminalHalfspace([1.0], 0.8), 41, 500), False)
    cases["minimize-2d-point"] = (_minimize(_linear_2d(), [0.0, 0.0], TerminalPoint([0.6, 0.4]), 21, 500), False)
    cases["minimize-2d-halfspace"] = (
        _minimize(_linear_2d(), [0.0, 0.0], TerminalHalfspace([1.0, 1.0], 1.0), 21, 200), False)
    return cases


CASES = _cases()


def _bytes(value):
    """value with every float as float.hex and every array as its shape and sha256."""
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value, dtype=np.float64)
        return {"shape": list(data.shape), "sha256": hashlib.sha256(data.tobytes()).hexdigest()}
    if hasattr(value, "knots"):  # a Trajectory
        return _bytes(value.knots)
    if dataclasses.is_dataclass(value):
        return {f.name: _bytes(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _bytes(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bytes(v) for v in value]
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if value is None or isinstance(value, str):
        return value
    raise TypeError(f"no byte record for {type(value).__name__}")


def _leaves(record, path=""):
    """path -> leaf of a _bytes record, arrays as their shape and sha256."""
    if isinstance(record, dict) and set(record) != {"shape", "sha256"}:
        return {p: v for k, sub in record.items() for p, v in _leaves(sub, f"{path}.{k}").items()}
    if isinstance(record, list):
        return {p: v for i, sub in enumerate(record) for p, v in _leaves(sub, f"{path}[{i}]").items()}
    return {path or "output": record}


def _moved(got, want):
    """The paths whose leaves differ, or that only one record has."""
    got, want = _leaves(got), _leaves(want)
    return sorted(p for p in got.keys() | want.keys() if got.get(p, "missing") != want.get(p, "missing"))


def _cpu_dispatch():
    """The dispatch targets numpy was built with that this CPU runs."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


def _environment():
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpu_dispatch": _cpu_dispatch(),
    }


def _load():
    with open(RECORD_PATH) as fh:
        return json.load(fh)


RECORD = _load() if __name__ != "__main__" else None


def _differences():
    here = _environment()
    return [f"{k} {RECORD['environment'][k]} recorded, {here[k]} here"
            for k in here if RECORD["environment"][k] != here[k]]


def test_comparison_in_force():
    differences = _differences()
    if differences:
        pytest.skip("bytes not compared, the environment differs: " + "; ".join(differences))
    print(f"byte comparison of {len(CASES)} cases against {RECORD_PATH.name}, recorded on "
          + ", ".join(f"{k} {v}" for k, v in RECORD["environment"].items()))


def test_record_covers_every_case():
    assert sorted(RECORD["cases"]) == sorted(CASES)


@pytest.mark.parametrize("case, workers", [(c, w) for c, (_, chunked) in CASES.items() for w in ((1, 2) if chunked else (1,))])
def test_seeded_output_bytes(case, workers):
    differences = _differences()
    if differences:
        pytest.skip("bytes not compared, the environment differs: " + "; ".join(differences))
    run, _ = CASES[case]
    moved = _moved(_bytes(run(workers)), RECORD["cases"][case])
    assert not moved, f"{case} at workers {workers}: moved at {moved}"


if __name__ == "__main__":
    record = {"environment": _environment(), "cases": {c: _bytes(run(1)) for c, (run, _) in CASES.items()}}
    with open(RECORD_PATH, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(CASES)} cases to {RECORD_PATH}")
