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
from typing import Callable, Optional, Union

import numpy as np
from numpy.random import Generator


class ModelConfigError(ValueError):
    """A config record failed validation: a model record or a CLI config."""


def _finite(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    return v


def _as_vector(x, dim: int, name: str) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if v.shape != (dim,):
        raise ValueError(f"{name} must have shape ({dim},), got {v.shape}")
    return _finite(v, name)


def _as_count(value, name: str, least: int) -> int:
    """value as an int, if it is an integer >= least; a numpy integer is accepted, a bool or a float is not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _require_dim(what: str, dim: int, model_dim: int) -> None:
    """Reject a path or measure whose dimension is not the model's."""
    if dim != model_dim:
        raise ValueError(f"{what} dim {dim} does not match model dim {model_dim}")


def _as_rows(x, dim: int, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] != dim:
        raise ValueError(f"{name} must have shape (N, {dim}), got {v.shape}")
    return _finite(v, name)


@dataclass(frozen=True, kw_only=True)
class BaseNoise:
    """A fixed noise law with closed-form cumulant data.

    logmgf, logmgf_grad and logmgf_hess must broadcast over a leading batch
    axis, i.e. accept arrays of shape (..., d) and return shape (...),
    (..., d) and (..., d, d) respectively.  sample(rng, size) returns an
    array of shape size that the caller may overwrite: an affine sampler
    writes the increments into it, after casting it to float64 or copying it
    if it is read-only.  An array that sample keeps is overwritten.
    """

    kind: str
    logmgf: Callable[[np.ndarray], np.ndarray]
    logmgf_grad: Callable[[np.ndarray], np.ndarray]
    logmgf_hess: Callable[[np.ndarray], np.ndarray]
    sample: Callable[[Generator, tuple], np.ndarray]


def gaussian_base() -> BaseNoise:
    """Standard normal product law: logmgf(alpha) = |alpha|^2 / 2."""

    def hess(a):
        # one identity per row, written as every (d + 1)-th entry of the flat rows
        shape = np.shape(a)
        d = shape[-1]
        out = np.zeros(shape + (d,))
        out.reshape(shape[:-1] + (d * d,))[..., :: d + 1] = 1.0
        return out

    return BaseNoise(
        kind="gaussian",
        logmgf=lambda a: 0.5 * np.sum(np.square(a), axis=-1),
        logmgf_grad=lambda a: np.asarray(a, dtype=np.float64),
        logmgf_hess=hess,
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

    def sample(rng, size):
        u = rng.random(size)
        return np.less(u, p, out=u)  # exactly 1.0 where u < p, else 0.0, over the uniforms

    return BaseNoise(
        kind="bernoulli",
        logmgf=logmgf,
        logmgf_grad=grad,
        logmgf_hess=hess,
        sample=sample,
    )


@dataclass(frozen=True, kw_only=True)
class KernelModel:
    """An increment law: sampler plus cumulant generating data, evaluated on rows.

    Every callback takes an (m, d) array of states ys and answers for all m
    rows in one call.  sampler(ys, rng) draws one increment per row, shape
    (m, d).  cgf(ys, alphas) is the log-mgf of the increment law at y_i in
    alpha_i, shape (m,); alphas is (m, d) or one (d,) alpha shared by every
    row.  cgf_grad(ys, alphas) is its alpha-gradient, shape (m, d), for
    (m, d) alphas.  cgf_hess(ys, alphas), shape (m, d, d), is optional;
    solvers fall back to finite differences of cgf_grad when it is absent.
    Callbacks must not write into their arguments: a solver may pass the
    same arrays to later calls.
    """

    dim: int
    sampler: Callable[[np.ndarray, Generator], np.ndarray]
    cgf: Callable[[np.ndarray, np.ndarray], np.ndarray]
    cgf_grad: Callable[[np.ndarray, np.ndarray], np.ndarray]
    cgf_hess: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    summary: str = "custom"

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")


@dataclass(frozen=True, kw_only=True)
class AffineNoiseModel(KernelModel):
    """Affine increment law F(y) = drift(y) + sigma(y) Z, built by affine_model.

    Its callbacks are the affine formulas of the module docstring, evaluated
    on all rows at once, and bound to the drift, sigma and base it was built
    with: build a variant with affine_model, not dataclasses.replace of those
    fields.  drift maps the (m, d) rows to exactly (m, d).  sigma is the
    constant (d, d) matrix when sigma was given as a matrix or as a callable
    that never reads its state; else it is that callable, which maps the rows
    to exactly (m, d, d).  Each is called once per evaluation; any other
    shape, a (d, d) sigma included, is a ValueError naming the callback.
    """

    drift: Callable[[np.ndarray], np.ndarray] = None
    sigma: Union[np.ndarray, Callable[[np.ndarray], np.ndarray]] = None
    base: BaseNoise = None


class _UnreadState:
    """Stands in for a state and raises TypeError when numpy or Python reads it."""

    def _read(self, *args, **kwargs):
        raise TypeError("the state was read")

    __getattr__ = __getitem__ = __iter__ = __len__ = __bool__ = __eq__ = __ne__ = _read
    __array__ = __array_ufunc__ = __array_function__ = _read


def _state_free_value(sigma, dim: int):
    """sigma's value if it is a finite (dim, dim) matrix that does not depend on the state, else sigma.

    It must come without reading a stand-in state, and equal sigma on a
    real row, so that no branch on the argument's type can tell them apart.
    """
    try:
        value = np.asarray(sigma(_UnreadState()), dtype=np.float64)
        at_row = np.asarray(sigma(np.zeros((1, dim))), dtype=np.float64)
    except Exception:  # any failure on the stand-in only means not proven constant: sigma stays a callable
        return sigma
    if value.shape == (dim, dim) and np.all(np.isfinite(value)) and np.array_equal(value, at_row):
        return value
    return sigma


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
    *,
    drift_broadcasts: bool = True,
) -> AffineNoiseModel:
    """Assemble an AffineNoiseModel from drift, diffusion, and base law.

    drift maps (m, d) rows to (m, d); sigma may be a callable that maps them
    to (m, d, d), a constant (d, d) array, or a scalar (scalar * identity);
    a constant must be finite.  A callable sigma is called here on a stand-in
    state that raises when read, and on one zero row: if both give the same
    finite (d, d) matrix, that matrix is the constant sigma.
    drift_broadcasts accepts only True, since drift always takes the rows.
    """
    if drift_broadcasts is not True:
        raise ValueError(f"drift_broadcasts must be True, got {drift_broadcasts!r}: drift always takes the rows")
    if np.isscalar(sigma):
        sigma = _finite(sigma, "constant sigma") * np.eye(dim)
    elif callable(sigma):
        sigma = _state_free_value(sigma, dim)
    else:
        sigma = _finite(sigma, "constant sigma")
        if sigma.shape != (dim, dim):
            raise ValueError(f"constant sigma must have shape ({dim}, {dim}), got {sigma.shape}")

    # the row callbacks; `model` is bound below
    def sampler(ys, rng):
        zs = np.require(base.sample(rng, ys.shape), np.float64, "W")
        return _affine_rows(model, ys, zs, zs)

    def cgf(ys, alphas):
        bs = drift_rows(model, ys)
        drift_term = _rdot(bs, alphas) if alphas.ndim == 1 else np.einsum("ij,ij->i", bs, alphas)
        return drift_term + base.logmgf(_sigma_t_dot(_sigma_rows(model, ys), alphas))

    def cgf_grad(ys, alphas):
        sig = _sigma_rows(model, ys)
        return drift_rows(model, ys) + _sigma_dot(sig, base.logmgf_grad(_sigma_t_dot(sig, alphas)))

    def cgf_hess(ys, alphas):
        sig = _sigma_rows(model, ys)
        return sig @ base.logmgf_hess(_sigma_t_dot(sig, alphas)) @ np.swapaxes(sig, -1, -2)

    model = AffineNoiseModel(
        dim=dim,
        sampler=sampler,
        cgf=cgf,
        cgf_grad=cgf_grad,
        cgf_hess=cgf_hess,
        summary=summary,
        drift=drift,
        sigma=sigma,
        base=base,
    )
    return model


# ---------------------------------------------------------------------------
# module-level operations (validated entry points)

def cgf(model: KernelModel, y, alpha) -> float:
    y = _as_vector(y, model.dim, "y")
    alpha = _as_vector(alpha, model.dim, "alpha")
    return float(model.cgf(y[None], alpha)[0])


def cgf_grad(model: KernelModel, y, alpha) -> np.ndarray:
    y = _as_vector(y, model.dim, "y")
    alpha = _as_vector(alpha, model.dim, "alpha")
    return np.asarray(model.cgf_grad(y[None], alpha[None])[0], dtype=np.float64)


def _block(name: str, value, shape: tuple) -> np.ndarray:
    """A callback's value on the rows as float64, which must have exactly the given shape."""
    value = np.asarray(value, dtype=np.float64)
    if value.shape != shape:
        raise ValueError(f"{name} must return shape {shape} on its rows, got {value.shape}")
    return value


def drift_rows(model: AffineNoiseModel, ys: np.ndarray) -> np.ndarray:
    """drift evaluated on rows of ys in one call, shape (m, d) -> (m, d)."""
    return _block("drift", model.drift(ys), ys.shape)


def _sigma_rows(model: AffineNoiseModel, ys: np.ndarray) -> np.ndarray:
    """The constant (d, d) sigma, else the callable's (m, d, d) value on rows of ys, never a broadcast (d, d)."""
    if not callable(model.sigma):
        return model.sigma
    return _block("sigma", model.sigma(ys), ys.shape + ys.shape[-1:])


# Row products on the stepper's hot paths go through _rdot.  At an inner
# dimension of 1, np.dot does one multiply per entry but enters OpenBLAS,
# whose helper thread then spins on the CPU that a second chunk worker needs;
# the broadcast product is that same multiply without BLAS.  At k >= 2 np.dot
# stays: it keeps BLAS's rounding and beats a column loop on few rows.
def _rdot(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """v @ w for rows v (..., k) against w (k,) or (k, j), bit for bit."""
    if w.shape[0] == 1:
        return v[..., 0] * w[0] if w.ndim == 1 else v[..., :1] * w[0]
    return np.dot(v, w)


def _sigma_dot(sig: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """sigma_i v_i for rows of vs, with sig from _sigma_rows."""
    if sig.ndim == 2:
        return _rdot(vs, sig.T)
    return np.matmul(sig, vs[:, :, None])[:, :, 0]


def _sigma_t_dot(sig: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """sigma_i^T alpha_i for rows of alphas, or for one (d,) alpha shared by every row."""
    if sig.ndim == 2:
        return _rdot(alphas, sig)
    return np.matmul(alphas[..., None, :], sig)[..., 0, :]


def _affine_rows(model: AffineNoiseModel, ys: np.ndarray, zs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Increments drift(y_i) + sigma(y_i) z_i for paired rows of states and base draws, into out.

    out may be zs itself.  The drift's return is only read, never written:
    a drift may return an array it keeps.
    """
    # x + 0.0 turns -0.0 into +0.0 as adding a zero row does, without making one
    bs = 0.0 if model.drift is _zero_rows else drift_rows(model, ys)
    sig = _sigma_rows(model, ys)
    if sig.shape != (1, 1):
        zs = _sigma_dot(sig, zs)
    elif sig[0, 0] != 1.0:  # z * 1.0 is z bit for bit, so sigma = 1 skips the multiply
        zs = np.multiply(zs, sig[0, 0], out=out)
    return np.add(zs, bs, out=out)


def sample_rows(model: KernelModel, ys: np.ndarray, rng: Generator) -> np.ndarray:
    """One increment draw at each row of ys, shape (m, d) -> (m, d)."""
    return model.sampler(np.asarray(ys, dtype=np.float64), rng)


def cgf_rows(model: KernelModel, ys: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """cgf(y_i, alpha_i) for paired rows, shape (m,).

    alphas may also be one (d,) vector shared by every row of ys.
    """
    return model.cgf(np.asarray(ys, dtype=np.float64), np.asarray(alphas, dtype=np.float64))


def cgf_grad_rows(model: KernelModel, ys: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """cgf_grad(y_i, alpha_i) for paired rows, shape (m, d)."""
    return model.cgf_grad(np.asarray(ys, dtype=np.float64), np.asarray(alphas, dtype=np.float64))


HESS_FD_STEP = 1e-6


def cgf_hess_rows(model: KernelModel, ys: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Hessian in alpha of cgf(y_i, .) at alpha_i for paired rows, shape (m, d, d).

    Models without cgf_hess get symmetrized central differences of
    cgf_grad with step HESS_FD_STEP, all 2 d shifted copies of the rows
    evaluated in one cgf_grad call.
    """
    ys = np.asarray(ys, dtype=np.float64)
    alphas = np.asarray(alphas, dtype=np.float64)
    if model.cgf_hess is not None:
        return model.cgf_hess(ys, alphas)
    m, d = alphas.shape
    steps = HESS_FD_STEP * np.eye(d)
    shifted = alphas + np.stack([steps, -steps])[:, :, None, :]  # [sign, j, row] holds alpha_row +- h e_j
    g = model.cgf_grad(np.broadcast_to(ys, shifted.shape).reshape(-1, d), shifted.reshape(-1, d))
    g = g.reshape(shifted.shape)
    h = ((g[0] - g[1]) / (2.0 * HESS_FD_STEP)).transpose(1, 2, 0)  # [row, i, j] = d grad_i / d alpha_j
    return 0.5 * (h + h.transpose(0, 2, 1))


# ---------------------------------------------------------------------------
# drift builders (all broadcast over a leading batch axis)

def _zero_rows(y):
    return np.zeros_like(np.asarray(y, dtype=np.float64))


def zero_drift():
    """y -> 0; an affine step adds the scalar 0.0 in place of its rows."""
    return _zero_rows


def constant_drift(v: np.ndarray):
    v = _finite(v, "constant drift")
    return lambda y: np.broadcast_to(v, np.shape(y)).copy()


def linear_drift(matrix: np.ndarray, offset=None):
    """y -> A y + v, the standard linear drift."""
    a = _finite(matrix, "drift matrix")
    v = np.zeros(a.shape[0]) if offset is None else _finite(offset, "drift offset")

    def drift(y):
        ay = _rdot(np.asarray(y, dtype=np.float64), a.T)
        ay += v  # also at v = 0, which turns A y = -0.0 into +0.0
        return ay

    return drift


def logistic_drift():
    """Scalar logistic growth y -> y (1 - y), applied coordinatewise."""

    def drift(y):
        y = np.asarray(y, dtype=np.float64)
        # overflow to inf is fine here; the scheme's blowup guard reports it
        with np.errstate(over="ignore", invalid="ignore"):
            f = 1.0 - y
            f *= y
            return f

    return drift


# ---------------------------------------------------------------------------
# declarative configs and shipped presets
#
# One strict reader serves model records and every CLI config: each key of
# a record is read exactly once through a cast that names its full path.

_MISSING = object()


def _as_int(v, path):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ModelConfigError(f"{path}: expected an integer, got {v!r}")
    return v


def _as_int_from(lo: int):
    """Cast to an integer of at least lo."""

    def cast(v, path):
        value = _as_int(v, path)
        if value < lo:
            raise ModelConfigError(f"{path} must be >= {lo}, got {value!r}")
        return value

    return cast


def _as_float(v, path):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ModelConfigError(f"{path}: expected a number, got {v!r}")
    try:
        value = float(v)
    except OverflowError:  # an integer literal beyond the float range
        value = np.inf
    if not np.isfinite(value):
        raise ModelConfigError(f"{path}: expected a finite number, got {v!r}")
    return value


def _as_float_from(lo: float, strict: bool = False):
    """Cast to a finite float of at least lo, or above lo when strict."""

    def cast(v, path):
        value = _as_float(v, path)
        if value < lo or (strict and value == lo):
            raise ModelConfigError(f"{path} must be {'>' if strict else '>='} {lo}, got {value!r}")
        return value

    return cast


def _as_str(v, path):
    if not isinstance(v, str):
        raise ModelConfigError(f"{path}: expected a string, got {v!r}")
    return v


def _as_int_list(v, path):
    """A nonempty list of integers >= 1, such as an n-grid."""
    if not (isinstance(v, list) and v):
        raise ModelConfigError(f"{path}: expected a nonempty list of integers, got {v!r}")
    return [_as_int_from(1)(u, f"{path}[{i}]") for i, u in enumerate(v)]


def _as_list(v, path):
    if not isinstance(v, list):
        raise ModelConfigError(f"{path}: expected a list, got {v!r}")
    return v


def _as_dict(v, path):
    if not isinstance(v, dict):
        raise ModelConfigError(f"{path}: expected an object, got {v!r}")
    return v


def _as_array(shape: tuple):
    """Cast to a float array of the given shape, every entry checked by _as_float.

    A vector of length 1 may also be given as a bare number.
    """

    def entries(v, path, axes):
        if not axes:
            return _as_float(v, path)
        if not (isinstance(v, list) and len(v) == axes[0]):
            raise ModelConfigError(f"{path}: expected a list of length {axes[0]}, got {v!r}")
        return [entries(u, f"{path}[{i}]", axes[1:]) for i, u in enumerate(v)]

    def cast(v, path):
        bare = shape == (1,) and not isinstance(v, list)
        return np.array([_as_float(v, path)] if bare else entries(v, path, shape))

    return cast


def _as_knots(dim: int):
    """Cast a path's knots to an (N, dim) array, N >= 2; a 1-D path may list bare numbers."""

    def cast(v, path):
        rows = _as_list(v, path)
        if len(rows) < 2:
            raise ModelConfigError(f"{path}: expected at least two knots, got {v!r}")
        flat = dim == 1 and not any(isinstance(u, list) for u in rows)
        return _as_array((len(rows),) if flat else (len(rows), dim))(rows, path)

    return cast


class _Conf:
    """Strict view of one JSON object: every key must be taken exactly once."""

    def __init__(self, data, path):
        self.data = _as_dict(data, path)
        self.path = path
        self.used = set()
        self.resolved = {}

    def take(self, key, cast, default=_MISSING):
        self.used.add(key)
        if key not in self.data:
            if default is _MISSING:
                raise ModelConfigError(f"missing required key '{self.path}.{key}'")
            self.resolved[key] = default
            return default
        value = cast(self.data[key], f"{self.path}.{key}")
        self.resolved[key] = value
        return value

    def sub(self, key, default=_MISSING):
        self.used.add(key)
        if key not in self.data:
            if default is _MISSING:
                raise ModelConfigError(f"missing required key '{self.path}.{key}'")
            sub = _Conf(dict(default), f"{self.path}.{key}")
        else:
            sub = _Conf(self.data[key], f"{self.path}.{key}")
        self.resolved[key] = sub.resolved
        return sub

    def close(self):
        unknown = sorted(set(self.data) - self.used)
        if unknown:
            raise ModelConfigError(f"unknown key '{self.path}.{unknown[0]}'")


def _drift_from(c: _Conf, dim: int):
    kind = c.take("kind", _as_str)
    if kind == "zero":
        drift, tag = zero_drift(), "zero"
    elif kind == "constant":
        drift, tag = constant_drift(c.take("value", _as_array((dim,)))), "const"
    elif kind == "linear":
        matrix = c.take("matrix", _as_array((dim, dim)))
        drift, tag = linear_drift(matrix, c.take("offset", _as_array((dim,)), None)), "linear"
    elif kind == "logistic":
        if dim != 1:
            raise ModelConfigError(f"{c.path}: logistic drift requires dim=1, got dim={dim}")
        drift, tag = logistic_drift(), "logistic"
    else:
        raise ModelConfigError(f"{c.path}.kind must be one of zero|constant|linear|logistic, got {kind!r}")
    c.close()
    return drift, tag


def _sigma_from(c: _Conf, dim: int):
    kind = c.take("kind", _as_str)
    if kind == "zero":
        sigma, tag = np.zeros((dim, dim)), "zero"
    elif kind == "identity":
        scale = c.take("scale", _as_float, 1.0)
        sigma, tag = scale * np.eye(dim), f"{scale}*I"
    elif kind == "constant":
        sigma, tag = c.take("matrix", _as_array((dim, dim))), "const"
    else:
        raise ModelConfigError(f"{c.path}.kind must be one of zero|identity|constant, got {kind!r}")
    c.close()
    return sigma, tag


def _base_from(c: _Conf):
    kind = c.take("kind", _as_str)
    if kind == "gaussian":
        base, tag = gaussian_base(), "gaussian"
    elif kind == "bernoulli":
        p = c.take("p", _as_float)
        if not 0.0 < p < 1.0:
            raise ModelConfigError(f"{c.path}.p: expected a number in (0, 1), got {p!r}")
        base, tag = bernoulli_base(p), f"bernoulli({p})"
    else:
        raise ModelConfigError(f"{c.path}.kind must be gaussian or bernoulli, got {kind!r}")
    c.close()
    return base, tag


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
    record.  Unknown keys, missing keys and values of the wrong type
    (numbers must be finite) raise ModelConfigError naming their path.
    """
    c = _Conf(cfg, path)
    if "preset" in c.data:
        name = c.take("preset", _as_str)
        c.close()
        if name not in PRESETS:
            raise ModelConfigError(f"{path}.preset: unknown preset {name!r}; available: {sorted(PRESETS)}")
        model = model_from_config(PRESETS[name], path=f"{path}.preset[{name}]")
        return dataclasses.replace(model, summary=name)
    dim = c.take("dim", _as_int_from(1))
    drift, drift_tag = _drift_from(c.sub("drift"), dim)
    sigma, sigma_tag = _sigma_from(c.sub("sigma"), dim)
    base, base_tag = _base_from(c.sub("base"))
    c.close()
    summary = f"affine(d={dim}, drift={drift_tag}, sigma={sigma_tag}, base={base_tag})"
    return affine_model(dim, drift, sigma, base, summary=summary)


def preset_model(name: str) -> AffineNoiseModel:
    return model_from_config({"preset": name})
