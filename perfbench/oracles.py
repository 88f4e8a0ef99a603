"""Exact reference answers that the benchmark checks task outputs against.

Every helper here is closed form (or a finite sum), independent of the
package under test:

- path costs of linear-Gaussian models from the controllability Gramian
  Q = int_0^1 e^{As} e^{A^T s} ds,
- the terminal law of the Euler recursion with linear drift, which is an
  AR(1) Gaussian with an exact tail,
- the Bernoulli walk's terminal tail, a binomial tail.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm
from scipy.stats import binom, norm


def gramian(a) -> np.ndarray:
    """Q = int_0^1 e^{As} e^{A^T s} ds, by Van Loan's block exponential."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    d = a.shape[0]
    block = np.zeros((2 * d, 2 * d))
    block[:d, :d] = -a
    block[:d, d:] = np.eye(d)
    block[d:, d:] = a.T
    e = expm(block)
    return e[d:, d:].T @ e[:d, d:]


def point_cost(a, x, z) -> float:
    """Minimal path cost from x to the point z for dX = AX dt + dW on [0, 1]."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    r = np.atleast_1d(np.asarray(z, dtype=np.float64)) - expm(a) @ np.atleast_1d(np.asarray(x, dtype=np.float64))
    return float(0.5 * r @ np.linalg.solve(gramian(a), r))


def halfspace_cost(a, x, normal, level) -> float:
    """Minimal path cost from x into {<z, normal> >= level}: gap^2 / (2 xi^T Q xi)."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    xi = np.atleast_1d(np.asarray(normal, dtype=np.float64))
    scale = float(np.linalg.norm(xi))
    xi, c = xi / scale, float(level) / scale
    gap = max(0.0, c - float(xi @ expm(a) @ np.atleast_1d(np.asarray(x, dtype=np.float64))))
    return gap * gap / (2.0 * float(xi @ gramian(a) @ xi))


def ar1_tail(n: int, x: float, level: float, drift: float = -1.0, sigma: float = 1.0) -> float:
    """P{X_n >= level} for X_k = X_{k-1} + (drift X_{k-1} + sigma Z_k) / n, X_0 = x.

    X_n is Gaussian with mean r^n x and variance sigma^2 sum_{j<n} r^{2j} / n^2,
    r = 1 + drift / n.
    """
    r = 1.0 + drift / n
    mean = r**n * x
    var = sigma * sigma * sum(r ** (2 * j) for j in range(n)) / (n * n)
    return float(norm.sf((level - mean) / math.sqrt(var)))


def walk_tail(n: int, p: float, level: float) -> float:
    """P{X_n >= level} for the Bernoulli(p) walk X_k = X_{k-1} + B_k / n, X_0 = 0.

    The threshold count is found by the same float accumulation the
    recursion performs, so the tail is exact for the computed states.
    """
    state, k = 0.0, 0
    while state < level:
        state += 1.0 / n
        k += 1
    return float(binom.sf(k - 1, n, p))


def binomial_z(p_hat: float, p: float, samples: int) -> float:
    """Standardized distance of an indicator average from its exact mean."""
    return (p_hat - p) / math.sqrt(p * (1.0 - p) / samples)
