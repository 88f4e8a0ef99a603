"""The models the workloads build, kept apart so set-up timing imports nothing else."""

from __future__ import annotations

import importlib

import numpy as np

OU = [[-1.0]]
A2 = [[-1.0, 0.5], [0.0, -1.0]]
CLI_PRESETS = {"rate-ou": ["gaussian-ou"], "naive-mc": ["logistic", "bernoulli-walk", "gaussian-ou"]}


def layer(name):
    """The ldscheme module `name`, looked up at call time so traced rebinding applies."""
    return importlib.import_module(f"ldscheme.{name}")


def linear_2d_model():
    k = layer("kernel")
    return k.affine_model(2, k.linear_drift(np.array(A2)), np.eye(2), k.gaussian_base(),
                          summary="linear-2d", drift_broadcasts=True)


def ou_callable_sigma_model():
    """OU with sigma given as a callable: not batch-capable, so simulation runs per replica."""
    k = layer("kernel")
    return k.affine_model(1, k.linear_drift(np.array(OU)), lambda y: np.eye(1), k.gaussian_base(),
                          summary="ou-callable-sigma", drift_broadcasts=True)


def build_models(workload: str) -> list:
    """The models a workload's tasks use, built the way the tasks build them."""
    if workload == "library-custom":
        return [linear_2d_model(), ou_callable_sigma_model()]
    return [layer("kernel").model_from_config({"preset": p}) for p in CLI_PRESETS[workload]]
