"""State-dependent increment laws for small-step Euler recursions.

A model bundles a sampler for the increment distribution at a given state
with the closed-form cumulant data (log moment generating function and its
gradient) that the dual machinery in the rest of the package consumes.  The
workhorse family is affine: increments of the form

    F(y) = b(y) + sigma(y) Z

with Z drawn from a fixed base law whose log-mgf is known.  For that family

    cgf(y, alpha)      = <b(y), alpha> + logmgf(sigma(y)^T alpha)
    cgf_grad(y, alpha) = b(y) + sigma(y) grad_logmgf(sigma(y)^T alpha)

and in particular cgf_grad(y, 0) is the increment mean b(y) + sigma(y) E[Z].

The theory behind the rest of the package asks for drift and diffusion
coefficients that are bounded and Lipschitz and for a base law with a finite
mgf everywhere.  Those are documented obligations on the caller, not
mechanically checked: the shipped presets include unbounded linear drifts,
which behave fine on the bounded time window used here.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.random import Generator


class ModelConfigError(ValueError):
    """A declarative model config record failed validation."""


def _as_vector(x, dim: int, name: str) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if v.shape != (dim,):
        raise ValueError(f"{name} must have shape ({dim},), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    return v


def _as_rows(x, dim: int, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] != dim:
        raise ValueError(f"{name} must have shape (N, {dim}), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    return v


@dataclass(frozen=True, kw_only=True)
class BaseNoise:
    """A fixed noise law with closed-form cumulant data.

    logmgf, logmgf_grad and logmgf_hess must broadcast over a leading batch
    axis, i.e. accept arrays of shape (..., d) and return shape (...),
    (..., d) and (..., d, d) respectively.
    """

    kind: str
    logmgf: Callable[[np.ndarray], np.ndarray]
    logmgf_grad: Callable[[np.ndarray], np.ndarray]
    logmgf_hess: Optional[Callable[[np.ndarray], np.ndarray]] = None
    sample: Callable[[Generator, tuple], np.ndarray] = None


def gaussian_base() -> BaseNoise:
    """Standard normal product law: logmgf(alpha) = |alpha|^2 / 2."""
    return BaseNoise(
        kind="gaussian",
        logmgf=lambda a: 0.5 * np.sum(np.square(a), axis=-1),
        logmgf_grad=lambda a: np.asarray(a, dtype=np.float64),
        logmgf_hess=lambda a: np.broadcast_to(np.eye(np.shape(a)[-1]), np.shape(a) + np.shape(a)[-1:]).copy(),
        sample=lambda rng, size: rng.standard_normal(size),
    )


def bernoulli_base(p: float) -> BaseNoise:
    """Product of Bernoulli(p) coordinates on {0, 1}.

    logmgf(alpha) = sum_i log(1 - p + p e^{alpha_i}), evaluated through
    logaddexp so very large |alpha_i| neither overflows nor loses the tail.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"bernoulli parameter must lie in (0, 1), got {p}")
    log_p = np.log(p)
    log_q = np.log1p(-p)
    logit_p = log_p - log_q

    def logmgf(a):
        a = np.asarray(a, dtype=np.float64)
        return np.sum(np.logaddexp(log_q, log_p + a), axis=-1)

    # scipy loads on the first cumulant evaluation, not when the law is built
    def grad(a):
        from scipy.special import expit

        return expit(np.asarray(a, dtype=np.float64) + logit_p)

    def hess(a):
        from scipy.special import expit

        u = np.asarray(a, dtype=np.float64) + logit_p
        # expit(u) * expit(-u) stays accurate when u is large of either sign
        return (expit(u) * expit(-u))[..., None] * np.eye(u.shape[-1])

    return BaseNoise(
        kind="bernoulli",
        logmgf=logmgf,
        logmgf_grad=grad,
        logmgf_hess=hess,
        sample=lambda rng, size: (rng.random(size) < p).astype(np.float64),
    )


@dataclass(frozen=True, kw_only=True)
class KernelModel:
    """An increment law: sampler plus cumulant generating data.

    sampler(y, rng) draws one increment at state y.  cgf(y, alpha) and
    cgf_grad(y, alpha) evaluate the log-mgf of the increment law at y and
    its gradient in alpha.  cgf_hess is optional; solvers fall back to
    finite differences of cgf_grad when it is absent.
    """

    dim: int
    sampler: Callable[[np.ndarray, Generator], np.ndarray]
    cgf: Callable[[np.ndarray, np.ndarray], float]
    cgf_grad: Callable[[np.ndarray, np.ndarray], np.ndarray]
    cgf_hess: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    summary: str = "custom"

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")


@dataclass(frozen=True, kw_only=True)
class AffineNoiseModel(KernelModel):
    """Affine increment law F(y) = drift(y) + sigma(y) Z.

    The row helpers evaluate the affine formula on all rows at once, and
    the scalar callbacks are their one-row case.  sigma_matrix is set when
    sigma is state independent; else sigma_fn is called once per row.
    drift_broadcasts=True declares that drift accepts arrays of shape
    (..., d), so it is called once for all rows rather than once per row.
    """

    drift: Callable[[np.ndarray], np.ndarray] = None
    sigma_fn: Callable[[np.ndarray], np.ndarray] = None
    base: BaseNoise = None
    sigma_matrix: Optional[np.ndarray] = None
    drift_broadcasts: bool = False


def perturbation_amplitude(a) -> float:
    """Validate the smoothing amplitude a >= 0 and return it as a float."""
    a = float(a)
    if not np.isfinite(a) or a < 0.0:
        raise ValueError(f"perturbation amplitude must be finite and >= 0, got {a}")
    return a


def affine_model(
    dim: int,
    drift: Callable[[np.ndarray], np.ndarray],
    sigma,
    base: BaseNoise,
    summary: str = "affine",
    drift_broadcasts: bool = False,
) -> AffineNoiseModel:
    """Assemble an AffineNoiseModel from drift, diffusion, and base law.

    sigma may be a callable y -> (d, d) matrix, a constant (d, d) array,
    or a scalar (interpreted as scalar * identity).
    """
    if np.isscalar(sigma):
        sigma_matrix = float(sigma) * np.eye(dim)
    elif callable(sigma):
        sigma_matrix = None
    else:
        sigma_matrix = np.asarray(sigma, dtype=np.float64)
        if sigma_matrix.shape != (dim, dim):
            raise ValueError(f"constant sigma must have shape ({dim}, {dim}), got {sigma_matrix.shape}")

    if sigma_matrix is None:
        sigma_fn = sigma
    else:
        def sigma_fn(y, _s=sigma_matrix):
            return _s

    # one-row cases of the row helpers; `model` is bound below
    def cgf(y, alpha):
        return float(cgf_rows(model, [y], alpha)[0])

    def cgf_grad(y, alpha):
        return cgf_grad_rows(model, [y], [alpha])[0]

    def cgf_hess(y, alpha):
        return cgf_hess_rows(model, [y], [alpha])[0]

    def sampler(y, rng):
        return sample_rows(model, np.asarray([y], dtype=np.float64), rng)[0]

    model = AffineNoiseModel(
        dim=dim,
        sampler=sampler,
        cgf=cgf,
        cgf_grad=cgf_grad,
        cgf_hess=None if base.logmgf_hess is None else cgf_hess,
        summary=summary,
        drift=drift,
        sigma_fn=sigma_fn,
        base=base,
        sigma_matrix=sigma_matrix,
        drift_broadcasts=drift_broadcasts,
    )
    return model


# ---------------------------------------------------------------------------
# module-level operations (validated entry points)

def cgf(model: KernelModel, y, alpha) -> float:
    y = _as_vector(y, model.dim, "y")
    alpha = _as_vector(alpha, model.dim, "alpha")
    return float(model.cgf(y, alpha))


def cgf_grad(model: KernelModel, y, alpha) -> np.ndarray:
    y = _as_vector(y, model.dim, "y")
    alpha = _as_vector(alpha, model.dim, "alpha")
    return np.asarray(model.cgf_grad(y, alpha), dtype=np.float64)


def drift_rows(model: AffineNoiseModel, ys: np.ndarray) -> np.ndarray:
    """drift evaluated on rows of ys, shape (m, d) -> (m, d)."""
    if model.drift_broadcasts:
        return np.asarray(model.drift(ys), dtype=np.float64)
    return np.stack([model.drift(y) for y in ys])


def _sigma_rows(model: AffineNoiseModel, ys: np.ndarray) -> np.ndarray:
    """The constant (d, d) sigma_matrix, else the (m, d, d) stack of sigma_fn(y_i)."""
    if model.sigma_matrix is not None:
        return model.sigma_matrix
    return np.array([model.sigma_fn(y) for y in ys], dtype=np.float64).reshape(-1, model.dim, model.dim)


# Row products on the stepper's hot paths use np.dot, not @: with an inner
# dimension of 1, matmul measured about 10x slower, with bit-identical results.
def _sigma_dot(sig: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """sigma_i v_i for rows of vs, with sig from _sigma_rows."""
    if sig.ndim == 2:
        return np.dot(vs, sig.T)
    return np.matmul(sig, vs[:, :, None])[:, :, 0]


def _sigma_t_dot(sig: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """sigma_i^T alpha_i for rows of alphas, or for one (d,) alpha shared by every row."""
    if sig.ndim == 2:
        return np.dot(alphas, sig)
    return np.matmul(alphas[..., None, :], sig)[..., 0, :]


def _affine_rows(model: AffineNoiseModel, ys: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Increments drift(y_i) + sigma(y_i) z_i for paired rows of states and base draws."""
    return drift_rows(model, ys) + _sigma_dot(_sigma_rows(model, ys), zs)


def sample_rows(model: KernelModel, ys: np.ndarray, rng: Generator) -> np.ndarray:
    """One increment draw at each row of ys, shape (m, d) -> (m, d).

    Affine models take a single base draw of shape (m, d); other models
    call model.sampler row by row, in row order.
    """
    if isinstance(model, AffineNoiseModel):
        return _affine_rows(model, ys, model.base.sample(rng, ys.shape))
    return np.array([model.sampler(y, rng) for y in ys], dtype=np.float64).reshape(ys.shape)


def cgf_rows(model: KernelModel, ys: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """cgf(y_i, alpha_i) for paired rows, shape (m,).

    alphas may also be one (d,) vector shared by every row of ys.
    """
    ys = np.asarray(ys, dtype=np.float64)
    alphas = np.asarray(alphas, dtype=np.float64)
    if isinstance(model, AffineNoiseModel):
        bs = drift_rows(model, ys)
        drift_term = np.dot(bs, alphas) if alphas.ndim == 1 else np.einsum("ij,ij->i", bs, alphas)
        return drift_term + model.base.logmgf(_sigma_t_dot(_sigma_rows(model, ys), alphas))
    return np.array([model.cgf(y, al) for y, al in zip(ys, np.broadcast_to(alphas, ys.shape))])


def cgf_grad_rows(model: KernelModel, ys: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """cgf_grad(y_i, alpha_i) for paired rows, shape (m, d)."""
    ys = np.asarray(ys, dtype=np.float64)
    alphas = np.asarray(alphas, dtype=np.float64)
    if isinstance(model, AffineNoiseModel):
        sig = _sigma_rows(model, ys)
        return drift_rows(model, ys) + _sigma_dot(sig, model.base.logmgf_grad(_sigma_t_dot(sig, alphas)))
    return np.array([model.cgf_grad(y, al) for y, al in zip(ys, alphas)], dtype=np.float64).reshape(alphas.shape)


HESS_FD_STEP = 1e-6


def cgf_hess_rows(model: KernelModel, ys: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Hessian in alpha of cgf(y_i, .) at alpha_i for paired rows, shape (m, d, d).

    Models without cgf_hess get symmetrized central differences of
    cgf_grad with step HESS_FD_STEP.
    """
    ys = np.asarray(ys, dtype=np.float64)
    alphas = np.asarray(alphas, dtype=np.float64)
    m, d = alphas.shape
    if model.cgf_hess is None:
        h = np.empty((m, d, d))
        for j in range(d):
            e = np.zeros(d)
            e[j] = HESS_FD_STEP
            h[:, :, j] = (cgf_grad_rows(model, ys, alphas + e) - cgf_grad_rows(model, ys, alphas - e)) / (2.0 * HESS_FD_STEP)
        return 0.5 * (h + h.transpose(0, 2, 1))
    if isinstance(model, AffineNoiseModel):
        sig = _sigma_rows(model, ys)
        return sig @ model.base.logmgf_hess(_sigma_t_dot(sig, alphas)) @ np.swapaxes(sig, -1, -2)
    return np.array([model.cgf_hess(y, al) for y, al in zip(ys, alphas)], dtype=np.float64).reshape(m, d, d)


# ---------------------------------------------------------------------------
# drift builders (all broadcast over a leading batch axis)

def zero_drift():
    return lambda y: np.zeros_like(np.asarray(y, dtype=np.float64))


def constant_drift(v: np.ndarray):
    v = np.asarray(v, dtype=np.float64)
    return lambda y: np.broadcast_to(v, np.shape(y)).copy()


def linear_drift(matrix: np.ndarray, offset=None):
    """y -> A y + v, the standard linear drift."""
    a = np.asarray(matrix, dtype=np.float64)
    v = np.zeros(a.shape[0]) if offset is None else np.asarray(offset, dtype=np.float64)
    return lambda y: np.dot(np.asarray(y, dtype=np.float64), a.T) + v


def logistic_drift():
    """Scalar logistic growth y -> y (1 - y), applied coordinatewise."""

    def drift(y):
        y = np.asarray(y, dtype=np.float64)
        # overflow to inf is fine here; the scheme's blowup guard reports it
        with np.errstate(over="ignore", invalid="ignore"):
            return y * (1.0 - y)

    return drift


# ---------------------------------------------------------------------------
# declarative configs and shipped presets

def _strict_keys(record: dict, allowed: set, path: str):
    unknown = set(record) - allowed
    if unknown:
        raise ModelConfigError(f"unknown key(s) {sorted(unknown)} at {path}; allowed: {sorted(allowed)}")


def _drift_from_config(rec: dict, dim: int, path: str):
    if not isinstance(rec, dict) or "kind" not in rec:
        raise ModelConfigError(f"{path} must be an object with a 'kind' key")
    kind = rec["kind"]
    if kind == "zero":
        _strict_keys(rec, {"kind"}, path)
        return zero_drift(), "zero"
    if kind == "constant":
        _strict_keys(rec, {"kind", "value"}, path)
        if "value" not in rec:
            raise ModelConfigError(f"{path}.value is required for constant drift")
        return constant_drift(_as_vector(rec["value"], dim, f"{path}.value")), "const"
    if kind == "linear":
        _strict_keys(rec, {"kind", "matrix", "offset"}, path)
        if "matrix" not in rec:
            raise ModelConfigError(f"{path}.matrix is required for linear drift")
        a = np.asarray(rec["matrix"], dtype=np.float64)
        if a.shape != (dim, dim):
            raise ModelConfigError(f"{path}.matrix must be {dim}x{dim}, got {a.shape}")
        off = rec.get("offset")
        if off is not None:
            off = _as_vector(off, dim, f"{path}.offset")
        return linear_drift(a, off), "linear"
    if kind == "logistic":
        _strict_keys(rec, {"kind"}, path)
        if dim != 1:
            raise ModelConfigError(f"{path}: logistic drift requires dim=1, got dim={dim}")
        return logistic_drift(), "logistic"
    raise ModelConfigError(f"{path}.kind must be one of zero|constant|linear|logistic, got {kind!r}")


def _sigma_from_config(rec: dict, dim: int, path: str):
    if not isinstance(rec, dict) or "kind" not in rec:
        raise ModelConfigError(f"{path} must be an object with a 'kind' key")
    kind = rec["kind"]
    if kind == "zero":
        _strict_keys(rec, {"kind"}, path)
        return np.zeros((dim, dim)), "zero"
    if kind == "identity":
        _strict_keys(rec, {"kind", "scale"}, path)
        scale = float(rec.get("scale", 1.0))
        return scale * np.eye(dim), f"{scale}*I"
    if kind == "constant":
        _strict_keys(rec, {"kind", "matrix"}, path)
        if "matrix" not in rec:
            raise ModelConfigError(f"{path}.matrix is required for constant sigma")
        m = np.asarray(rec["matrix"], dtype=np.float64)
        if m.shape != (dim, dim):
            raise ModelConfigError(f"{path}.matrix must be {dim}x{dim}, got {m.shape}")
        return m, "const"
    raise ModelConfigError(f"{path}.kind must be one of zero|identity|constant, got {kind!r}")


def _base_from_config(rec: dict, path: str):
    if not isinstance(rec, dict) or "kind" not in rec:
        raise ModelConfigError(f"{path} must be an object with a 'kind' key")
    kind = rec["kind"]
    if kind == "gaussian":
        _strict_keys(rec, {"kind"}, path)
        return gaussian_base(), "gaussian"
    if kind == "bernoulli":
        _strict_keys(rec, {"kind", "p"}, path)
        if "p" not in rec:
            raise ModelConfigError(f"{path}.p is required for bernoulli base")
        try:
            return bernoulli_base(float(rec["p"])), f"bernoulli({rec['p']})"
        except ValueError as exc:
            raise ModelConfigError(f"{path}.p: {exc}") from exc
    raise ModelConfigError(f"{path}.kind must be gaussian or bernoulli, got {kind!r}")


# All shipped presets keep a nondegenerate diffusion factor so that rate
# functionals stay finite along smooth paths.  Degenerate (sigma = 0) models
# remain constructible through explicit configs.
PRESETS = {
    "gaussian-free": {
        "dim": 1,
        "drift": {"kind": "zero"},
        "sigma": {"kind": "identity"},
        "base": {"kind": "gaussian"},
    },
    "gaussian-ou": {
        "dim": 1,
        "drift": {"kind": "linear", "matrix": [[-1.0]]},
        "sigma": {"kind": "identity"},
        "base": {"kind": "gaussian"},
    },
    "logistic": {
        "dim": 1,
        "drift": {"kind": "logistic"},
        "sigma": {"kind": "identity", "scale": 0.5},
        "base": {"kind": "gaussian"},
    },
    "bernoulli-walk": {
        "dim": 1,
        "drift": {"kind": "zero"},
        "sigma": {"kind": "identity"},
        "base": {"kind": "bernoulli", "p": 0.3},
    },
}


def model_from_config(cfg: dict, path: str = "model") -> AffineNoiseModel:
    """Build an affine model from a declarative record.

    Either {"preset": name} or an explicit {"dim", "drift", "sigma", "base"}
    record.  Unknown keys anywhere are errors.
    """
    if not isinstance(cfg, dict):
        raise ModelConfigError(f"{path} must be an object")
    if "preset" in cfg:
        _strict_keys(cfg, {"preset"}, path)
        name = cfg["preset"]
        if name not in PRESETS:
            raise ModelConfigError(f"{path}.preset: unknown preset {name!r}; available: {sorted(PRESETS)}")
        model = model_from_config(PRESETS[name], path=f"{path}.preset[{name}]")
        return dataclasses.replace(model, summary=name)
    _strict_keys(cfg, {"dim", "drift", "sigma", "base"}, path)
    for key in ("dim", "drift", "sigma", "base"):
        if key not in cfg:
            raise ModelConfigError(f"{path}.{key} is required")
    dim = cfg["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise ModelConfigError(f"{path}.dim must be a positive integer, got {dim!r}")
    try:
        drift, drift_tag = _drift_from_config(cfg["drift"], dim, f"{path}.drift")
        sigma, sigma_tag = _sigma_from_config(cfg["sigma"], dim, f"{path}.sigma")
        base, base_tag = _base_from_config(cfg["base"], f"{path}.base")
    except ValueError as exc:
        if isinstance(exc, ModelConfigError):
            raise
        raise ModelConfigError(str(exc)) from exc
    summary = f"affine(d={dim}, drift={drift_tag}, sigma={sigma_tag}, base={base_tag})"
    return affine_model(dim, drift, sigma, base, summary=summary, drift_broadcasts=True)


def preset_model(name: str) -> AffineNoiseModel:
    return model_from_config({"preset": name})
