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
from typing import TYPE_CHECKING, Callable, Optional, Union

import numpy as np

if TYPE_CHECKING:  # numpy.random loads on first use, not at import
    from numpy.random import Generator


def _as_count(value, name: str, least: int) -> int:
    """value as an int, if it is an integer >= least; a numpy integer is accepted, a bool or a float is not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _as_counts(value, name: str, least: int) -> list:
    """A nonempty list, tuple or 1-D numpy array of integers >= least, as a list of ints; entry i is named name[i]."""
    grid = value.tolist() if isinstance(value, np.ndarray) and value.ndim == 1 else value
    if not (isinstance(grid, (list, tuple)) and grid):
        raise ValueError(f"{name}: expected a nonempty list of integers, got {value!r}")
    return [_as_count(n, f"{name}[{i}]", least) for i, n in enumerate(grid)]


def _as_real(value, name: str, least=None, strict: bool = False) -> float:
    """value as a finite float; given least, it must be >= least, or > least when strict.

    A number or a numpy scalar is accepted; a bool, a string or any other object is not.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name}: expected a number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:  # an integer beyond the float range
        real = np.inf
    if not np.isfinite(real):
        raise ValueError(f"{name}: expected a finite number, got {value!r}")
    if least is not None and (real < least or (strict and real == least)):
        raise ValueError(f"{name} must be {'>' if strict else '>='} {least}, got {real!r}")
    return real


def _as_reals(value, name: str, shape: Union[tuple, Callable[[int], tuple]]) -> np.ndarray:
    """value as a finite float64 array of shape, where a named axis (a str such as "N" or "d") matches any length.

    A number is a 1-vector for a one-axis shape.  Entries of a numpy integer or float dtype are accepted, and a
    float64 array of that shape is returned uncopied.  Bools, strings, other objects and a ragged nesting are refused,
    as _as_real refuses such scalars, and so is a bool among the numbers of a list or tuple.  Every ValueError names
    the argument and prints shape as given.  For an argument of either of two shapes, shape is a function of the
    array's number of axes.
    """
    try:
        v = np.asarray(value)
    except ValueError:  # a ragged nesting of sequences
        raise ValueError(f"{name}: expected an array of numbers, got a ragged nesting") from None
    if v.dtype.kind not in "iuf":
        raise ValueError(f"{name}: expected an array of numbers, got dtype {v.dtype}")
    # numpy reads [1.0, True] as float64; only a list or tuple can hide a bool that way
    if isinstance(value, (list, tuple)) and any(type(e) in (bool, np.bool_) for e in np.asarray(value, object).flat):
        raise ValueError(f"{name}: expected an array of numbers, got a bool among them")
    if callable(shape):
        shape = shape(v.ndim)
    if v.ndim == 0 and len(shape) == 1:
        v = v[None]
    if v.ndim != len(shape) or any(not isinstance(k, str) and k != s for k, s in zip(shape, v.shape)):
        axes = ", ".join(map(str, shape)) + "," * (len(shape) == 1)
        raise ValueError(f"{name} must have shape ({axes}), got {v.shape}")
    v = v.astype(np.float64, copy=False)
    if not np.isfinite(v).all():
        raise ValueError(f"{name} must be finite")
    return v


def _as_probability(value, name: str) -> float:
    """value as a float strictly between 0 and 1, read by _as_real."""
    p = _as_real(value, name)
    if not 0.0 < p < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {p!r}")
    return p


def _require_dim(what: str, dim: Optional[int], model_dim: int) -> None:
    """Reject a path, measure, terminal or event whose dimension is not the model's; None (no dimension) passes."""
    if dim is not None and dim != model_dim:
        raise ValueError(f"{what} dim {dim} does not match model dim {model_dim}")


def _require_kind(what: str, value, kinds: tuple, model_dim: int) -> None:
    """Reject a terminal or event that is not one of kinds, or whose dim is not the model's."""
    if not isinstance(value, kinds):
        raise ValueError(f"{what} must be a {' or '.join(k.__name__ for k in kinds)}, got {type(value).__name__}")
    _require_dim(what, value.dim, model_dim)


@dataclass(frozen=True, kw_only=True)
class BaseNoise:
    """A fixed noise law with closed-form cumulant data.

    logmgf, logmgf_grad and logmgf_hess must broadcast over a leading batch
    axis, i.e. accept arrays of shape (..., d) and return shape (...),
    (..., d) and (..., d, d) respectively.  sample(rng, size) returns an
    array of shape size that the caller may overwrite: an affine sampler
    writes the increments into it, after casting it to float64 or copying it
    if it is read-only.  An array that sample keeps is overwritten.  kind
    "gaussian" declares the standard normal law, whose curvature is the
    identity at every alpha: affine_model and the tilted estimator rely on it.
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
        logmgf=lambda a: 0.5 * _sq_norm(a),
        logmgf_grad=lambda a: np.asarray(a, dtype=np.float64),
        logmgf_hess=hess,
        sample=lambda rng, size: rng.standard_normal(size),
    )


def bernoulli_base(p: float) -> BaseNoise:
    """Product of Bernoulli(p) coordinates on {0, 1}.

    logmgf(alpha) = sum_i log(1 - p + p e^{alpha_i}), evaluated through
    logaddexp so very large |alpha_i| neither overflows nor loses the tail.
    """
    p = _as_probability(p, "p")
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
        object.__setattr__(self, "dim", _as_count(self.dim, "dim", 1))


@dataclass(frozen=True, kw_only=True)
class AffineNoiseModel(KernelModel):
    """Affine increment law F(y) = drift(y) + sigma(y) Z, built by affine_model.

    Its callbacks are the affine formulas of the module docstring, evaluated
    on all rows at once, and bound to the drift, sigma and base it was built
    with, which the model records.  Build a variant with affine_model: a
    dataclasses.replace of drift, sigma or base raises ValueError, while one
    of summary or of the callbacks keeps working.  With a constant sigma a
    replaced cgf does not reach limit_ode, the tilted estimator's plan or
    the path cost's envelope gradient, which read drift, sigma and base
    directly.  drift maps the (m, d) rows to exactly (m, d).  sigma is the
    constant (d, d) matrix when sigma was given as a matrix or as a callable
    that never reads its state; else it is that callable, which maps the rows
    to exactly (m, d, d).  Each is called once per evaluation; any other
    shape, a (d, d) sigma included, is a ValueError naming the callback.
    """

    drift: Callable[[np.ndarray], np.ndarray] = None
    sigma: Union[np.ndarray, Callable[[np.ndarray], np.ndarray]] = None
    base: BaseNoise = None
    _law: tuple = dataclasses.field(default=None, repr=False, compare=False)  # (drift, sigma, base) of the callbacks

    def __post_init__(self):
        super().__post_init__()
        if self._law is None:
            raise ValueError("an AffineNoiseModel is built by affine_model")
        moved = [name for name, built in zip(("drift", "sigma", "base"), self._law) if getattr(self, name) is not built]
        if moved:
            raise ValueError(f"{', '.join(moved)} differs from the law the callbacks were built from; "
                             "build the model with affine_model")


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
    if callable(sigma):
        sigma = _state_free_value(sigma, dim)
    else:
        sigma = _as_reals(sigma, "constant sigma", lambda ndim: () if ndim == 0 else (dim, dim))
        if sigma.ndim == 0:
            sigma = sigma * np.eye(dim)

    # the row callbacks; `model` is bound below
    def sampler(ys, rng):
        zs = np.require(base.sample(rng, ys.shape), np.float64, "W")
        return _affine_rows(model, ys, zs, zs)

    def cgf(ys, alphas):
        bs = drift_rows(model, ys)
        drift_term = _rdot(bs, alphas) if alphas.ndim == 1 else _dot_rows(bs, alphas)
        return drift_term + base.logmgf(_sigma_t_dot(_sigma_rows(model, ys), alphas))

    # a constant sigma's transpose, contiguous, as the right factor of the sigma products
    sigma_t = None if callable(sigma) else np.ascontiguousarray(sigma.T)

    def cgf_grad(ys, alphas):
        sig = _sigma_rows(model, ys)
        bs = drift_rows(model, ys)
        g = base.logmgf_grad(_sigma_t_dot(sig, alphas))
        return bs + (_sigma_dot(sig, g) if sigma_t is None else _rdot(g, sigma_t))

    # with a constant sigma and a Gaussian base the Hessian is sigma sigma^T on every row: it is built once,
    # by the general expression below on one row, so that its bytes are each row's.  A read-only stack of it
    # for the last row count is kept, contiguous because np.linalg.solve takes longer on a broadcast view
    curvature = None
    if sigma_t is not None and base.kind == "gaussian":
        curvature = (sigma @ base.logmgf_hess(np.zeros((1, dim))) @ sigma_t)[0]
    held = [np.empty((0, dim, dim))]

    def cgf_hess(ys, alphas):
        if curvature is not None:
            stack, shape = held[0], np.shape(alphas)[:-1] + curvature.shape
            if stack.shape != shape:
                stack = np.ascontiguousarray(np.broadcast_to(curvature, shape))
                stack.flags.writeable = False
                held[0] = stack
            return stack
        sig = _sigma_rows(model, ys)
        right = np.swapaxes(sig, -1, -2) if sigma_t is None else sigma_t
        return sig @ base.logmgf_hess(_sigma_t_dot(sig, alphas)) @ right

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
        _law=(drift, sigma, base),
    )
    return model


# ---------------------------------------------------------------------------
# row operations of the affine callbacks and the solvers

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


def _dot_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", u, v)


def _sq_norm(v: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """|v|^2 over the last axis, bit for bit np.add.reduce(np.square(v), axis=-1): the package's one row sum of squares.

    The squares go to out, which no callback passes; at d = 1 the result is their view, skipping the reduction's loop.
    At d = 2 the reduction is the one addition of the two columns, done without the reduction's per-row loop
    (tests/test_kernel.py checks it byte for byte); the 2-D path-cost passes call it seven times each.
    """
    sq = np.square(v, out=out)
    d = sq.shape[-1]
    if d == 1:
        return sq[..., 0]
    if d == 2:
        return sq[..., 0] + sq[..., 1]
    return np.add.reduce(sq, axis=-1)


def _row_norms(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm(v, axis=-1) for real rows, bit for bit: the code it runs, without its checks."""
    return np.sqrt(_sq_norm(v))


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


HESS_FD_STEP = 1e-6


def cgf_hess_rows(model: KernelModel, ys: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Hessian in alpha of cgf(y_i, .) at alpha_i for paired rows, shape (m, d, d).

    Models without cgf_hess get symmetrized central differences of
    cgf_grad with step HESS_FD_STEP, all 2 d shifted copies of the rows
    evaluated in one cgf_grad call.  ys and alphas are float64 rows.  A
    callback value of any other shape is a ValueError naming it; the value
    may be read-only.
    """
    m, d = np.shape(alphas)
    if model.cgf_hess is not None:
        return _block("cgf_hess", model.cgf_hess(ys, alphas), (m, d, d))
    steps = HESS_FD_STEP * np.eye(d)
    shifted = alphas + np.stack([steps, -steps])[:, :, None, :]  # [sign, j, row] holds alpha_row +- h e_j
    g = model.cgf_grad(np.broadcast_to(ys, shifted.shape).reshape(-1, d), shifted.reshape(-1, d))
    g = _block("cgf_grad", g, (2 * d * m, d)).reshape(shifted.shape)
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
    """y -> v, for a vector v (a number is a 1-vector)."""
    v = _as_reals(v, "constant drift", ("d",))
    return lambda y: np.broadcast_to(v, np.shape(y)).copy()


def linear_drift(matrix: np.ndarray, offset=None):
    """y -> A y + v, the standard linear drift, for a square A and an offset v of A's size (default 0)."""
    a = _as_reals(matrix, "drift matrix", ("d", "d"))
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"drift matrix must have shape (d, d), got {a.shape}")
    v = np.zeros(a.shape[0]) if offset is None else _as_reals(offset, "drift offset", a.shape[:1])
    a_t = np.ascontiguousarray(a.T)

    def drift(y):
        ay = _rdot(np.asarray(y, dtype=np.float64), a_t)
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


def _as_str(value, name):
    if not isinstance(value, str):
        raise ValueError(f"{name}: expected a string, got {value!r}")
    return value


def _as_list(value, name):
    if not isinstance(value, list):
        raise ValueError(f"{name}: expected a list, got {value!r}")
    return value


def _as_dict(value, name):
    if not isinstance(value, dict):
        raise ValueError(f"{name}: expected an object, got {value!r}")
    return value


def _as_knots(value, name: str, dim: int) -> np.ndarray:
    """A path's knots as an (N, dim) array, N >= 2, read by _as_reals; a 1-D path may list bare numbers."""
    knots = _as_reals(value, name, lambda ndim: ("N",) if ndim == 1 and dim == 1 else ("N", dim))
    if len(knots) < 2:
        raise ValueError(f"{name}: expected at least two knots, got {value!r}")
    return knots


class _Conf:
    """Strict view of one JSON object: every key must be taken exactly once.

    A cast is one of the module's _as_* readers, called as
    cast(value, path, **args) with the key's full path and take's keyword
    arguments (such as least or shape).  It refuses a bad value with a
    ValueError naming that path, as the library's argument checks do with an
    argument's name, and take lets it through.  A missing or unknown key is a
    ValueError naming its path too.
    """

    def __init__(self, data, path):
        self.data = _as_dict(data, path)
        self.path = path
        self.used = set()
        self.resolved = {}

    def take(self, key, cast, default=_MISSING, **args):
        self.used.add(key)
        if key not in self.data:
            if default is _MISSING:
                raise ValueError(f"missing required key '{self.path}.{key}'")
            self.resolved[key] = default
            return default
        value = cast(self.data[key], f"{self.path}.{key}", **args)
        self.resolved[key] = value
        return value

    def sub(self, key, default=_MISSING):
        """The record at key, or the default record, as a _Conf whose resolved values this one echoes."""
        sub = _Conf(self.take(key, _as_dict, default), f"{self.path}.{key}")
        self.resolved[key] = sub.resolved
        return sub

    def close(self):
        unknown = sorted(set(self.data) - self.used)
        if unknown:
            raise ValueError(f"unknown key '{self.path}.{unknown[0]}'")


def _drift_from(c: _Conf, dim: int):
    kind = c.take("kind", _as_str)
    if kind == "zero":
        drift, tag = zero_drift(), "zero"
    elif kind == "constant":
        drift, tag = constant_drift(c.take("value", _as_reals, shape=(dim,))), "const"
    elif kind == "linear":
        matrix = c.take("matrix", _as_reals, shape=(dim, dim))
        drift, tag = linear_drift(matrix, c.take("offset", _as_reals, None, shape=(dim,))), "linear"
    elif kind == "logistic":
        if dim != 1:
            raise ValueError(f"{c.path}: logistic drift requires dim=1, got dim={dim}")
        drift, tag = logistic_drift(), "logistic"
    else:
        raise ValueError(f"{c.path}.kind must be one of zero|constant|linear|logistic, got {kind!r}")
    c.close()
    return drift, tag


def _sigma_from(c: _Conf, dim: int):
    kind = c.take("kind", _as_str)
    if kind == "zero":
        sigma, tag = np.zeros((dim, dim)), "zero"
    elif kind == "identity":
        scale = c.take("scale", _as_real, 1.0)
        sigma, tag = scale * np.eye(dim), f"{scale}*I"
    elif kind == "constant":
        sigma, tag = c.take("matrix", _as_reals, shape=(dim, dim)), "const"
    else:
        raise ValueError(f"{c.path}.kind must be one of zero|identity|constant, got {kind!r}")
    c.close()
    return sigma, tag


def _base_from(c: _Conf):
    kind = c.take("kind", _as_str)
    if kind == "gaussian":
        base, tag = gaussian_base(), "gaussian"
    elif kind == "bernoulli":
        p = c.take("p", _as_probability)
        base, tag = bernoulli_base(p), f"bernoulli({p})"
    else:
        raise ValueError(f"{c.path}.kind must be gaussian or bernoulli, got {kind!r}")
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
    (numbers must be finite) raise a ValueError naming their path.
    """
    c = _Conf(cfg, path)
    if "preset" in c.data:
        name = c.take("preset", _as_str)
        c.close()
        if name not in PRESETS:
            raise ValueError(f"{path}.preset: unknown preset {name!r}; available: {sorted(PRESETS)}")
        model = model_from_config(PRESETS[name], path=f"{path}.preset[{name}]")
        return dataclasses.replace(model, summary=name)
    dim = c.take("dim", _as_count, least=1)
    drift, drift_tag = _drift_from(c.sub("drift"), dim)
    sigma, sigma_tag = _sigma_from(c.sub("sigma"), dim)
    base, base_tag = _base_from(c.sub("base"))
    c.close()
    summary = f"affine(d={dim}, drift={drift_tag}, sigma={sigma_tag}, base={base_tag})"
    return affine_model(dim, drift, sigma, base, summary=summary)


def preset_model(name: str) -> AffineNoiseModel:
    return model_from_config({"preset": name})
