"""Tests of the benchmark itself: the oracle helpers and a tiny traced pass.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.linalg import expm
from scipy.stats import binom, norm

import oracles
import run
import workloads
from models import A2
from tracing import Tracer

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())

run.load_package()


# -- oracles -----------------------------------------------------------------

def test_gramian_matches_quadrature():
    a = np.array(A2)
    q, _ = quad_vec(lambda s: expm(a * s) @ expm(a * s).T, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13)
    np.testing.assert_allclose(oracles.gramian(a), q, atol=1e-13)


def test_path_costs_against_reference_values():
    assert oracles.halfspace_cost([[-1.0]], [0.0], [1.0], 0.8) == pytest.approx(0.7401713, abs=1e-7)
    assert 0.64 / (1.0 - np.exp(-2.0)) == pytest.approx(oracles.halfspace_cost([[-1.0]], [0.0], [1.0], 0.8), rel=1e-12)
    assert oracles.halfspace_cost(A2, [0.0, 0.0], [1.0, 1.0], 1.0) == pytest.approx(0.4838533, abs=1e-7)
    assert oracles.point_cost(A2, [0.0, 0.0], [0.6, 0.4]) == pytest.approx(0.5059738, abs=1e-7)


def test_walk_tail_is_the_binomial_tail():
    assert oracles.walk_tail(100, 0.3, 0.45) == pytest.approx(1.0857e-3, rel=1e-4)
    assert oracles.walk_tail(100, 0.3, 0.45) == binom.sf(44, 100, 0.3)


def test_ar1_tail_special_cases():
    # one step lands exactly on sigma Z; zero drift gives variance 1/n
    assert oracles.ar1_tail(1, 0.3, 0.5) == pytest.approx(norm.sf(0.5), rel=1e-12)
    assert oracles.ar1_tail(64, 0.0, 0.25, drift=0.0) == pytest.approx(norm.sf(0.25 * 8.0), rel=1e-12)
    assert oracles.ar1_tail(50, 0.0, 0.2) == pytest.approx(1.63114e-2, rel=1e-5)


def test_binomial_z():
    assert oracles.binomial_z(0.5, 0.5, 100) == 0.0
    assert oracles.binomial_z(0.55, 0.5, 100) == pytest.approx(1.0)


# -- tracing -----------------------------------------------------------------

def test_install_rebinds_imported_names_and_uninstall_restores():
    import ldscheme

    # ldscheme.action as an attribute is the function action(), not the module
    action, cli, conjugate, rare_event = (
        importlib.import_module(f"ldscheme.{name}") for name in ("action", "cli", "conjugate", "rare_event"))
    original = action.minimize_action
    tracer = Tracer()
    tracer.install()
    try:
        assert rare_event.minimize_action.__wrapped__ is original
        assert ldscheme.minimize_action is action.minimize_action is rare_event.minimize_action
        assert cli.mc_probability is rare_event.mc_probability
        assert hasattr(cli.mc_probability, "__wrapped__")
        model = ldscheme.preset_model("gaussian-ou")
        conjugate.perturbed_fenchel(model, 0.0, [0.1], [0.3])
    finally:
        tracer.uninstall()
    assert rare_event.minimize_action is original
    assert not hasattr(original, "__wrapped__")
    # perturbed_fenchel -> fenchel is one conjugate call; the model callbacks are counted
    conj = [s for s in tracer.spans if s.layer == "conjugate"]
    assert [s.name for s in conj] == ["perturbed_fenchel"]
    assert tracer.layer_metrics()["conjugate.calls"] == 1
    assert tracer.counts["kernel.cgf_grad_calls"] > 0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_span_self_times_sum_to_traced_wall(workload):
    tasks = workloads.tasks(workload)
    tracer = Tracer()
    tracer.install()
    try:
        p = run.run_pass(tasks, workloads.task_seeds(3, 0, len(tasks)), tracer=tracer, small=True)
    finally:
        tracer.uninstall()
    assert not any(o.error for o in p.outcomes)
    assert sum(s.self_time for s in tracer.spans) == pytest.approx(p.wall, rel=1e-9)
    assert {s.layer for s in tracer.spans} >= {"bench", "cli" if workload != "library-custom" else "action"}


@pytest.mark.parametrize("trace,key", [(False, "end_to_end"), (True, "per_layer")])
def test_reported_metric_names_match_benchmark_json(trace, key):
    res = run.run_workload("naive-mc", seed=5, seconds=0, trace=trace, small=True, setup_repeats=1)
    assert set(res["gated"]) == {m["name"] for m in BENCH[key]}
    assert res["attempted"] >= 1


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "naive-mc", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
