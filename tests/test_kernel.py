import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.random import default_rng

from ldscheme import kernel, rare_event
from ldscheme.action import TerminalHalfspace
from ldscheme.conjugate import fenchel_rows
from ldscheme.kernel import (
    BaseNoise,
    KernelModel,
    affine_model,
    bernoulli_base,
    constant_drift,
    gaussian_base,
    linear_drift,
    logistic_drift,
    model_from_config,
    preset_model,
    zero_drift,
)
from ldscheme.rare_event import mc_probability


def _one_cgf(model, y, alpha) -> float:
    """The model's cgf at one state y and one (d,) alpha, through its row callback."""
    y, alpha = np.asarray(y, dtype=np.float64), np.asarray(alpha, dtype=np.float64)
    return float(model.cgf(y[None], alpha)[0])


def _one_cgf_grad(model, y, alpha) -> np.ndarray:
    """The model's cgf_grad at one state y and one (d,) alpha, shape (d,), through its row callback."""
    y, alpha = np.asarray(y, dtype=np.float64), np.asarray(alpha, dtype=np.float64)
    return np.asarray(model.cgf_grad(y[None], alpha[None])[0], dtype=np.float64)


def test_gaussian_base_closed_forms():
    base = gaussian_base()
    alpha = np.array([0.3, -1.2, 0.7])
    assert base.logmgf(alpha) == pytest.approx(0.5 * np.sum(alpha**2), abs=1e-14)
    assert np.allclose(base.logmgf_grad(alpha), alpha)
    assert np.allclose(base.logmgf_hess(alpha), np.eye(3))


def test_gaussian_base_sampling_moments():
    base = gaussian_base()
    draws = base.sample(default_rng(0), (200_000, 1))
    assert abs(draws.mean()) < 0.01
    assert abs(draws.std() - 1.0) < 0.01


def test_bernoulli_base_closed_forms():
    p = 0.3
    base = bernoulli_base(p)
    for a in [-3.0, -0.5, 0.0, 0.5, 3.0]:
        alpha = np.array([a])
        direct = np.log1p(p * (np.exp(a) - 1.0))
        assert base.logmgf(alpha) == pytest.approx(direct, abs=1e-12)
    # mgf derivative: p e^a / (1 - p + p e^a)
    alpha = np.array([0.7])
    expect = p * np.exp(0.7) / (1 - p + p * np.exp(0.7))
    assert base.logmgf_grad(alpha)[0] == pytest.approx(expect, abs=1e-12)


def test_bernoulli_base_large_alpha_stable():
    base = bernoulli_base(0.3)
    # naive exp overflows near 800; the evaluation must not
    val = base.logmgf(np.array([900.0]))
    assert np.isfinite(val)
    assert val == pytest.approx(900.0 + np.log(0.3), rel=1e-12)
    assert np.isfinite(base.logmgf(np.array([-900.0])))


@pytest.mark.parametrize(
    "p, message",
    [
        (0.0, "p must lie in (0, 1), got 0.0"),
        (1.0, "p must lie in (0, 1), got 1.0"),
        (-0.2, "p must lie in (0, 1), got -0.2"),
        (1.5, "p must lie in (0, 1), got 1.5"),
        (0, "p must lie in (0, 1), got 0.0"),
        (1, "p must lie in (0, 1), got 1.0"),
        ("0.3", "p: expected a number, got '0.3'"),  # a TypeError from the comparison
        (True, "p: expected a number, got True"),
    ],
)
def test_bernoulli_base_rejects_a_bad_p(p, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        bernoulli_base(p)


def _special_rows(d):
    """Random rows, and rows holding zeros of both signs, subnormals, huge values, infinities and NaN."""
    rng = default_rng(70 + d)
    specials = [0.0, -0.0, 5e-324, -2.5e-310, 1e200, -1e200, np.inf, -np.inf, np.nan]
    rows = [rng.normal(size=d) for _ in range(50)]
    for value in specials:
        for col in range(d):
            row = rng.normal(size=d)
            row[col] = value
            rows.append(row)
        rows.append(np.full(d, value))
    return np.array(rows)


def _scaled_rows(d):
    """4,000 rows scaled from 1e-160 to 1e170, so that some squares underflow and some overflow."""
    rng = default_rng(80 + d)
    return rng.standard_normal((4_000, d)) * 10.0 ** rng.uniform(-160.0, 170.0, (4_000, 1))


def _squares_in_place(v):
    w = v.copy()
    return kernel._sq_norm(w, out=w)


# each kernel row reduction, beside the numpy spelling whose bytes it must give
_ROW_REDUCTIONS = {
    "sq-norm": (kernel._sq_norm, lambda v: np.add.reduce(np.square(v), axis=-1)),
    "sq-norm-in-place": (_squares_in_place, lambda v: np.add.reduce(np.square(v), axis=-1)),
    "row-norms": (kernel._row_norms, lambda v: np.linalg.norm(v, axis=-1)),
}


@pytest.mark.parametrize("rows", ["special", "scaled", "scaled-3d"])
@pytest.mark.parametrize("d", range(1, 9))
@pytest.mark.parametrize("reduction", list(_ROW_REDUCTIONS))
def test_row_reductions_equal_their_numpy_spelling_byte_for_byte(reduction, d, rows):
    # the d = 1 view of the squares must equal the reduction too, overflowing squares included
    helper, spelling = _ROW_REDUCTIONS[reduction]
    v = _special_rows(d) if rows == "special" else _scaled_rows(d)
    if rows == "scaled-3d":
        v = v.reshape(40, 100, d)
    before = v.copy()
    with np.errstate(over="ignore", under="ignore"):
        got, want = helper(v), spelling(v)
    if rows == "scaled":
        assert np.isinf(want).any() and np.isfinite(want).any()
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))  # the bits, NaN and -0.0 included
    np.testing.assert_array_equal(v.view(np.int64), before.view(np.int64))  # only an explicit out is written


@pytest.mark.parametrize("shape", ["rows", "one-alpha"])
@pytest.mark.parametrize("d", [1, 2])
def test_gaussian_logmgf_is_the_earlier_reduction_byte_for_byte(d, shape):
    logmgf = gaussian_base().logmgf
    earlier = lambda a: 0.5 * np.add.reduce(np.square(a), axis=-1)
    v = np.concatenate([_special_rows(d), _scaled_rows(d)])
    before = v.copy()
    with np.errstate(over="ignore", under="ignore"):
        for alpha in [v] if shape == "rows" else v[::97]:
            got, want = logmgf(alpha), earlier(alpha)
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            np.testing.assert_array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))
    np.testing.assert_array_equal(v.view(np.int64), before.view(np.int64))


def test_affine_cgf_orn_uhlenbeck():
    m = preset_model("gaussian-ou")
    y, alpha = np.array([1.5]), np.array([0.4])
    assert _one_cgf(m, y, alpha) == pytest.approx(-1.5 * 0.4 + 0.5 * 0.4**2, abs=1e-14)
    assert _one_cgf_grad(m, y, alpha)[0] == pytest.approx(-1.5 + 0.4, abs=1e-14)
    assert kernel.cgf_hess_rows(m, y[None], alpha[None])[0, 0, 0] == pytest.approx(1.0, abs=1e-14)


def test_affine_cgf_matrix_sigma():
    s = np.array([[2.0, 0.5], [0.0, 1.0]])
    b = np.array([0.3, -0.1])
    m = affine_model(2, constant_drift(b), s, gaussian_base(), summary="aniso")
    alpha = np.array([0.7, -0.4])
    expect = b @ alpha + 0.5 * np.sum((s.T @ alpha) ** 2)
    assert _one_cgf(m, np.zeros(2), alpha) == pytest.approx(expect, abs=1e-13)
    grad_expect = b + s @ (s.T @ alpha)
    assert np.allclose(_one_cgf_grad(m, np.zeros(2), alpha), grad_expect, atol=1e-13)
    assert np.allclose(kernel.cgf_hess_rows(m, [np.zeros(2)], [alpha])[0], s @ s.T, atol=1e-13)


def test_state_dependent_sigma_cgf_closed_form():
    m = affine_model(
        1, zero_drift(), lambda ys: (1.0 + ys**2)[:, :, None], gaussian_base(), summary="var"
    )
    assert _one_cgf(m, np.array([2.0]), np.array([0.1])) == pytest.approx(0.5 * (5.0 * 0.1) ** 2, abs=1e-13)


def test_drift_builders_broadcast():
    batch = np.array([[0.5, 1.0], [2.0, -1.0]])
    assert np.allclose(zero_drift()(batch), 0.0)
    assert zero_drift()(batch).shape == batch.shape
    assert np.allclose(constant_drift(np.array([1.0, 2.0]))(batch), [[1.0, 2.0], [1.0, 2.0]])
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.allclose(linear_drift(a)(batch), batch @ a.T)
    log = logistic_drift()(batch)
    assert np.allclose(log, batch * (1.0 - batch))


@pytest.mark.parametrize(
    "build",
    [
        # a NaN sigma used to be accepted and blow up at the first simulated step
        lambda: affine_model(1, zero_drift(), np.nan, gaussian_base()),
        lambda: affine_model(2, zero_drift(), [[1.0, 0.0], [np.inf, 1.0]], gaussian_base()),
        lambda: linear_drift([[-1.0, np.nan], [0.0, -1.0]]),
        lambda: linear_drift([[-1.0]], offset=[np.inf]),
        lambda: constant_drift([0.5, -np.inf]),
    ],
    ids=["affine-scalar-sigma", "affine-matrix-sigma", "linear-matrix", "linear-offset", "constant"],
)
def test_builders_reject_non_finite_constants(build):
    with pytest.raises(ValueError, match="must be finite"):
        build()


def test_cgf_rows_matches_pointwise():
    rng = default_rng(3)
    for name in ["gaussian-ou", "bernoulli-walk"]:
        m = preset_model(name)
        ys = rng.normal(size=(8, 1))
        alphas = rng.normal(size=(8, 1))
        rows = m.cgf(ys, alphas)
        shared = m.cgf(ys, alphas[0])
        for i in range(8):
            assert rows[i] == pytest.approx(_affine_cgf(m, ys[i], alphas[i]), abs=1e-12)
            assert shared[i] == pytest.approx(_affine_cgf(m, ys[i], alphas[0]), abs=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
def test_row_products_match_matmul_bit_for_bit(d):
    # the hot paths compute with np.dot; the @ formulas are the reference
    rng = default_rng(40 + d)
    rows = 20_000  # one replica chunk
    a = rng.normal(size=(d, d))
    v = rng.normal(size=d)
    sig = rng.normal(size=(d, d)) + np.eye(d)
    ys = rng.normal(size=(rows, d))
    vs = rng.normal(size=(rows, d))
    alphas = rng.normal(size=(rows, d))
    assert np.array_equal(linear_drift(a, v)(ys), ys @ a.T + v)
    assert np.array_equal(kernel._sigma_dot(sig, vs), vs @ sig.T)
    assert np.array_equal(kernel._sigma_t_dot(sig, alphas), alphas @ sig)
    assert np.array_equal(kernel._sigma_t_dot(sig, alphas[0]), alphas[0] @ sig)
    m = affine_model(d, linear_drift(a, v), sig, gaussian_base())
    bs = ys @ a.T + v
    per_row = np.einsum("ij,ij->i", bs, alphas) + m.base.logmgf(alphas @ sig)
    assert np.array_equal(m.cgf(ys, alphas), per_row)
    assert np.array_equal(m.cgf(ys, alphas[0]), bs @ alphas[0] + m.base.logmgf(alphas[0] @ sig))
    # _rdot itself, against 1-D and 2-D w: a broadcast product at d = 1, np.dot above
    assert np.array_equal(kernel._rdot(vs, v), vs @ v)
    assert np.array_equal(kernel._rdot(vs, a), vs @ a)
    assert np.array_equal(kernel._rdot(vs[0], a), vs[0] @ a)


@pytest.mark.parametrize("base", [gaussian_base(), bernoulli_base(0.3)], ids=["gaussian", "bernoulli"])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
def test_cgf_grad_and_hess_rows_match_matmul_bit_for_bit(d, base):
    # a constant sigma's products take its contiguous transpose, built with the
    # model; the @ formulas on the transposed views are the reference
    rng = default_rng(60 + d)
    a = rng.normal(size=(d, d))
    v = rng.normal(size=d)
    sig = rng.normal(size=(d, d)) + np.eye(d)
    m = affine_model(d, linear_drift(a, v), sig, base)
    for rows in [100, 400, 20_000]:  # a quadrature pass, its shifted copies, one replica chunk
        ys = rng.normal(size=(rows, d))
        alphas = rng.normal(size=(rows, d))
        thetas = alphas @ sig
        grad = ys @ a.T + v + base.logmgf_grad(thetas) @ sig.T
        assert np.array_equal(m.cgf_grad(ys, alphas), grad)
        assert np.array_equal(kernel.cgf_hess_rows(m, ys, alphas), sig @ base.logmgf_hess(thetas) @ sig.T)


@pytest.mark.parametrize("p", [0.3, 1e-3, 0.999])
def test_bernoulli_draw_equals_the_comparison_cast(p):
    # the sampler writes u < p over the uniforms; the fresh cast is the reference
    for size in [(20_000, 1), (7, 3)]:
        draw = bernoulli_base(p).sample(default_rng(61), size)
        assert draw.dtype == np.float64
        assert np.array_equal(draw, (default_rng(61).random(size) < p).astype(np.float64))


def _kept_drift(drift):
    """A drift that returns the same array object at every call, as a caller may."""
    held = {}

    def kept(ys):
        held["bs"] = drift(ys)
        return held["bs"]

    return kept, held


@pytest.mark.parametrize(
    "sigma, drift",
    [
        ([[1.0]], linear_drift([[-1.0]])),
        ([[0.5]], logistic_drift()),
        ([[1.0, 0.3], [-0.2, 0.7]], linear_drift([[-1.0, 0.5], [0.2, -0.8]], offset=[0.1, -0.3])),
    ],
    ids=["sigma-one", "sigma-half", "sigma-2d"],
)
def test_affine_rows_equal_the_fresh_formula(sigma, drift):
    # drift(ys) + zs @ sigma.T, allocated fresh, is the reference for the
    # in-place increments of the sampler (out = zs) and of the tilted step
    sig = np.asarray(sigma)
    d = sig.shape[0]
    kept, held = _kept_drift(drift)
    m = affine_model(d, kept, sig, gaussian_base())
    ys = default_rng(62).uniform(-1.0, 1.0, size=(20_000, d))
    zs = m.base.sample(default_rng(63), ys.shape)
    ref = drift(ys) + zs @ sig.T
    assert np.array_equal(m.sampler(ys, default_rng(63)), ref)
    assert np.array_equal(held["bs"], drift(ys))  # the drift's return is read, not written
    out = np.empty_like(zs)
    zs_copy = zs.copy()
    assert kernel._affine_rows(m, ys, zs, out) is out
    assert np.array_equal(out, ref)
    assert np.array_equal(zs, zs_copy)
    assert np.array_equal(held["bs"], drift(ys))


@pytest.mark.parametrize("sigma", [[[1.0]], [[0.5]], [[1.0, 0.3], [-0.2, 0.7]]], ids=["sigma-one", "sigma-half", "sigma-2d"])
def test_zero_drift_step_adds_zero_without_drift_rows(sigma, monkeypatch):
    # the step adds 0.0 in place of the drift's zero rows: the same bits, -0.0 turned to +0.0 included
    sig = np.asarray(sigma)
    d = sig.shape[0]
    m = affine_model(d, zero_drift(), sig, gaussian_base())
    ys = default_rng(67).uniform(-1.0, 1.0, size=(1_000, d))
    zs = default_rng(68).standard_normal(ys.shape)
    zs[::3] = -0.0
    ref = np.zeros_like(ys) + zs @ sig.T
    assert np.array_equal(kernel.drift_rows(m, ys), np.zeros_like(ys))
    assert m.cgf_grad(ys, zs).shape == ys.shape
    monkeypatch.setattr(kernel, "drift_rows", None)  # the step must not evaluate the drift
    out = kernel._affine_rows(m, ys, zs.copy(), np.empty_like(zs))
    assert np.array_equal(out, ref) and np.array_equal(np.signbit(out), np.signbit(ref))
    assert not np.signbit(out[::3]).any()
    draw = m.base.sample(default_rng(68), ys.shape)
    assert np.array_equal(m.sampler(ys, default_rng(68)), np.zeros_like(ys) + draw @ sig.T)


def _rademacher(rng, size):
    return rng.integers(0, 2, size) * 2 - 1


def _float32_normal(rng, size):
    return rng.standard_normal(size, dtype=np.float32)


def _read_only_normal(rng, size):
    z = rng.standard_normal(size)
    z.flags.writeable = False
    return z


@pytest.mark.parametrize("sample", [_rademacher, _float32_normal, _read_only_normal])
@pytest.mark.parametrize("sigma", [[[1.0]], [[0.5]]], ids=["sigma-one", "sigma-half"])
def test_custom_base_draws_are_cast_before_the_increments_are_written(sample, sigma):
    # an integer, float32 or read-only draw gives the fresh float64
    # drift(ys) + zs @ sigma.T, and a draw that is cast or copied is left as it was
    drawn = []

    def kept_sample(rng, size):
        drawn.append(sample(rng, size))
        return drawn[-1]

    gauss = gaussian_base()
    base = BaseNoise(
        kind="custom",
        logmgf=gauss.logmgf,
        logmgf_grad=gauss.logmgf_grad,
        logmgf_hess=gauss.logmgf_hess,
        sample=kept_sample,
    )
    sig = np.asarray(sigma)
    m = affine_model(1, linear_drift([[-1.0]]), sig, base)
    ys = default_rng(65).uniform(-1.0, 1.0, size=(1_000, 1))
    zs = sample(default_rng(66), ys.shape)
    ref = linear_drift([[-1.0]])(ys) + zs.astype(np.float64) @ sig.T
    inc = m.sampler(ys, default_rng(66))
    assert inc.dtype == np.float64
    assert np.array_equal(inc, ref)
    assert np.array_equal(drawn[-1], zs)


def test_drift_builders_equal_their_formulas_bit_for_bit():
    ys = np.concatenate([default_rng(64).normal(size=(1_000, 1)), [[0.0], [-0.0], [1e200], [-1e200]]])
    with np.errstate(over="ignore"):
        assert np.array_equal(logistic_drift()(ys), ys * (1.0 - ys))
    assert logistic_drift()(0.5) == 0.25
    # A y + 0 at y = 0 is +0.0, not the -0.0 of A y alone
    lin = linear_drift([[-1.0]])(ys)
    assert np.array_equal(lin, ys @ np.array([[-1.0]]).T + 0.0)
    assert not np.any(np.signbit(lin[-4:-2]))


def test_config_constant_drift_is_constant_drift():
    model = model_from_config({"dim": 2, "drift": {"kind": "constant", "value": [0.5, -1.25]},
                               "sigma": {"kind": "identity"}, "base": {"kind": "gaussian"}})
    ys = default_rng(65).normal(size=(7, 2))
    expect = constant_drift([0.5, -1.25])(ys)
    assert np.array_equal(kernel.drift_rows(model, ys), expect)
    assert np.array_equal(expect, np.broadcast_to([0.5, -1.25], (7, 2)))
    assert model.summary == "affine(d=2, drift=const, sigma=1.0*I, base=gaussian)"


def test_logmgf_hess_broadcasts_over_batch():
    rng = default_rng(5)
    alphas = rng.normal(size=(6, 3))
    for base in [gaussian_base(), bernoulli_base(0.3)]:
        stacked = base.logmgf_hess(alphas)
        assert stacked.shape == (6, 3, 3)
        for i in range(6):
            assert np.array_equal(stacked[i], base.logmgf_hess(alphas[i]))
        assert np.array_equal(stacked, np.diagonal(stacked, axis1=1, axis2=2)[:, :, None] * np.eye(3))


def _drift_at(m, y):
    """drift(y) of an affine model at the row y, from a call on the one-row block."""
    return m.drift(y[None])[0]


def _sigma_at(m, y):
    """sigma(y) of an affine model: its constant matrix, or its callable on the one-row block."""
    return m.sigma(y[None])[0] if callable(m.sigma) else m.sigma


def _affine_cgf(m, y, alpha):
    """b(y).alpha + logmgf(sigma(y)^T alpha), written out from the model's parts."""
    return _drift_at(m, y) @ alpha + m.base.logmgf(_sigma_at(m, y).T @ alpha)


def _wavy_rows(ys):
    """sigma(y) = [[1 + 0.1 y_0^2, 0], [0.3, 1]] for each row y of ys, shape (m, 2, 2)."""
    sig = np.broadcast_to([[1.0, 0.0], [0.3, 1.0]], (len(ys), 2, 2)).copy()
    sig[:, 0, 0] += 0.1 * ys[:, 0] ** 2
    return sig


def _callable_sigma_model():
    # state-dependent sigma, called once on all the rows
    return affine_model(
        2,
        linear_drift(np.array([[-1.0, 0.5], [0.0, -1.0]])),
        _wavy_rows,
        bernoulli_base(0.4),
        summary="callable-sigma",
    )


@pytest.mark.parametrize("name", sorted(kernel.PRESETS) + ["callable-sigma"])
def test_cgf_grad_and_hess_rows_match_pointwise(name):
    # reference: b + sigma grad_logmgf(sigma^T alpha) and sigma hess_logmgf sigma^T, row by row
    m = _callable_sigma_model() if name == "callable-sigma" else preset_model(name)
    rng = default_rng(17)
    ys = rng.uniform(-1.0, 1.0, size=(9, m.dim))
    alphas = rng.normal(scale=2.0, size=(9, m.dim))
    values = m.cgf(ys, alphas)
    shared = m.cgf(ys, alphas[0])
    grads = m.cgf_grad(ys, alphas)
    hessians = kernel.cgf_hess_rows(m, ys, alphas)
    assert grads.shape == (9, m.dim)
    assert hessians.shape == (9, m.dim, m.dim)
    for i in range(9):
        b, s = _drift_at(m, ys[i]), _sigma_at(m, ys[i])
        u = s.T @ alphas[i]
        assert values[i] == pytest.approx(_affine_cgf(m, ys[i], alphas[i]), rel=1e-13, abs=1e-14)
        assert shared[i] == pytest.approx(_affine_cgf(m, ys[i], alphas[0]), rel=1e-13, abs=1e-14)
        assert np.allclose(grads[i], b + s @ m.base.logmgf_grad(u), rtol=1e-13, atol=1e-14)
        assert np.allclose(hessians[i], s @ m.base.logmgf_hess(u) @ s.T, rtol=1e-13, atol=1e-14)
        assert np.array_equal(_one_cgf_grad(m, ys[i], alphas[i]), grads[i])
        assert np.array_equal(kernel.cgf_hess_rows(m, ys[i : i + 1], alphas[i : i + 1])[0], hessians[i])


# state-reading sigmas written for the (m, d) rows, and the same sigmas written
# for one (d,) row, which the tests use only as row-by-row references
STATE_SIGMAS = {
    "wavy": _wavy_rows,
    "norm": lambda ys: np.sqrt(1.0 + np.linalg.norm(ys, axis=1))[:, None, None] * np.eye(2),
    "elementwise": lambda ys: np.eye(2) * (1.0 + ys)[:, None, :],
}
ROW_SIGMAS = {
    "wavy": lambda y: np.array([[1.0 + 0.1 * y[0] ** 2, 0.0], [0.3, 1.0]]),
    "norm": lambda y: np.eye(2) * np.sqrt(1.0 + np.linalg.norm(y)),
    "elementwise": lambda y: np.eye(2) * (1.0 + y),
}


@pytest.mark.parametrize("name", sorted(STATE_SIGMAS))
def test_state_dependent_sigma_is_called_once_on_the_rows(name):
    # each callback, and cgf_hess_rows, calls a state-reading sigma once, on all the rows, and
    # each row gets its own law: the one-row formula's, evaluated row by row
    calls = []

    def sigma(ys):
        calls.append(np.shape(ys))
        return STATE_SIGMAS[name](ys)

    m = affine_model(2, linear_drift(np.array([[-1.0, 0.5], [0.0, -1.0]])), sigma, bernoulli_base(0.4))
    assert m.sigma is sigma
    rng = default_rng(41)
    ys = rng.uniform(-2.0, 2.0, size=(3, 2))
    alphas = rng.normal(scale=2.0, size=(3, 2))
    calls.clear()
    values, grads, hessians = m.cgf(ys, alphas), m.cgf_grad(ys, alphas), kernel.cgf_hess_rows(m, ys, alphas)
    draws = m.sampler(ys, default_rng(5))
    assert calls == [(3, 2)] * 4
    zs = m.base.sample(default_rng(5), ys.shape)
    sigmas = kernel._sigma_rows(m, ys)
    for i in range(3):
        b, s = _drift_at(m, ys[i]), ROW_SIGMAS[name](ys[i])
        if name == "norm":
            # np.linalg.norm of one row takes a dot product, which may fuse its
            # multiply-add; along axis 1 it squares and then adds.  So the two
            # may differ in the last bit: on numpy 2.4.6 on x86-64 the block's
            # second row is one ulp (2.2e-16) above the row formula's on its diagonal
            assert np.allclose(sigmas[i], s, rtol=2 * np.finfo(np.float64).eps, atol=0.0)
        else:
            assert np.array_equal(sigmas[i], s)
        u = s.T @ alphas[i]
        assert values[i] == pytest.approx(_affine_cgf(m, ys[i], alphas[i]), rel=1e-13, abs=1e-14)
        assert np.allclose(grads[i], b + s @ m.base.logmgf_grad(u), rtol=1e-13, atol=1e-14)
        assert np.allclose(hessians[i], s @ m.base.logmgf_hess(u) @ s.T, rtol=1e-13, atol=1e-14)
        assert np.allclose(draws[i], b + s @ zs[i], rtol=1e-13, atol=1e-14)


@pytest.mark.parametrize(
    "sigma, constant",
    [
        (lambda y: np.eye(2), True),
        (lambda y: [[1.0, 0.0], [0.3, 1.0]], True),
        (STATE_SIGMAS["wavy"], False),
        (STATE_SIGMAS["norm"], False),
        (lambda y: np.eye(2) if isinstance(y, np.ndarray) else 2.0 * np.eye(2), False),
        (lambda y: np.eye(3), False),
        (lambda y: np.full((2, 2), np.inf), False),
    ],
    ids=["eye", "list", "reads-entry", "reads-through-numpy", "branches-on-type", "wrong-shape", "not-finite"],
)
def test_callable_sigma_is_constant_only_if_it_never_reads_its_state(sigma, constant):
    # a constant is a finite (d, d) value, got without reading a stand-in state
    # and equal to the value at a real row; anything else stays per row
    m = affine_model(2, linear_drift(-np.eye(2)), sigma, gaussian_base())
    assert (m.sigma is not sigma) is constant
    if constant:
        assert np.array_equal(m.sigma, np.asarray(sigma(np.zeros(2)), dtype=np.float64))


@pytest.mark.parametrize(
    "drift, shape",
    [
        (lambda ys: -ys[0], "(2,)"),
        (lambda ys: -ys.sum(axis=1), "(3,)"),
        (lambda ys: np.concatenate([ys, ys[:, :1]], axis=1), "(3, 3)"),
    ],
    ids=["first-row", "row-sums", "extra-column"],
)
def test_drift_of_wrong_shape_raises(drift, shape):
    # broadcasting a first-row answer would give every row the first row's drift
    m = affine_model(2, drift, np.eye(2), gaussian_base())
    ys = default_rng(43).uniform(-1.0, 1.0, size=(3, 2))
    error = re.escape(f"drift must return shape (3, 2) on its rows, got {shape}")
    with pytest.raises(ValueError, match=error):
        m.cgf_grad(ys, ys)
    with pytest.raises(ValueError, match=error):
        m.sampler(ys, default_rng(0))


@pytest.mark.parametrize(
    "sigma, shape",
    [
        (lambda ys: np.eye(2) * (1.0 + 0.1 * ys[0, 0] ** 2), "(2, 2)"),
        (lambda ys: 1.0 + ys**2, "(3, 2)"),
        (lambda ys: np.ones((len(ys), 2, 3)) * (1.0 + ys[:, :1, None] ** 2), "(3, 2, 3)"),
    ],
    ids=["one-matrix", "rows", "extra-column"],
)
def test_state_reading_sigma_of_wrong_shape_raises(sigma, shape):
    # a sigma written for one row returns (d, d) on the rows; broadcasting it
    # would give every row the first row's sigma
    m = affine_model(2, linear_drift(-np.eye(2)), sigma, gaussian_base())
    assert m.sigma is sigma
    ys = default_rng(44).uniform(-1.0, 1.0, size=(3, 2))
    error = re.escape(f"sigma must return shape (3, 2, 2) on its rows, got {shape}")
    for evaluate in (m.cgf, m.cgf_grad, lambda ys, alphas: kernel.cgf_hess_rows(m, ys, alphas)):
        with pytest.raises(ValueError, match=error):
            evaluate(ys, ys)
    with pytest.raises(ValueError, match=error):
        m.sampler(ys, default_rng(0))


@pytest.mark.parametrize("value", [False, 0, None, "yes"])
def test_affine_model_takes_drift_broadcasts_only_as_true(value):
    with pytest.raises(ValueError, match=re.escape(f"drift_broadcasts must be True, got {value!r}")):
        affine_model(1, linear_drift([[-1.0]]), 1.0, gaussian_base(), drift_broadcasts=value)
    affine_model(1, linear_drift([[-1.0]]), 1.0, gaussian_base(), drift_broadcasts=True)  # the one accepted value


def _row_ou(calls):
    """Gaussian OU dY = -Y + dW written out as row callbacks, without cgf_hess; calls logs (name, arity)."""

    def logged(name, fn):
        def callback(*args, **kwargs):
            assert not kwargs
            calls.append((name, len(args)))
            return fn(*args)

        return callback

    return KernelModel(
        dim=1,
        sampler=logged("sampler", lambda ys, rng: -ys + rng.standard_normal(ys.shape)),
        cgf=logged("cgf", lambda ys, alphas: np.sum(-ys * alphas + 0.5 * alphas * alphas, axis=-1)),
        cgf_grad=logged("cgf_grad", lambda ys, alphas: -ys + alphas),
        summary="row-ou",
    )


def test_hand_written_row_model(monkeypatch):
    calls = []
    m = _row_ou(calls)
    ou = preset_model("gaussian-ou")
    rng = default_rng(37)
    ys = rng.uniform(-1.0, 1.0, size=(7, 1))
    alphas = rng.normal(size=(7, 1))
    # each call is logged once; cgf_hess_rows falls back to one cgf_grad call on the
    # shifted rows, and every solver below passes positional arguments only, as logged asserts
    m.sampler(ys, default_rng(0))
    m.cgf(ys, alphas)
    m.cgf(ys, alphas[0])
    m.cgf_grad(ys, alphas)
    assert np.allclose(kernel.cgf_hess_rows(m, ys, alphas), 1.0, atol=1e-8)
    assert calls == [("sampler", 2), ("cgf", 2), ("cgf", 2), ("cgf_grad", 2), ("cgf_grad", 2)]
    # the conjugate solve runs on the finite-difference Hessian and matches the preset
    zs = rng.normal(size=(7, 1))
    np.testing.assert_allclose(fenchel_rows(m, ys, zs).value, fenchel_rows(ou, ys, zs).value, rtol=0, atol=1e-7)
    # four chunks, so two workers run concurrently; the draws match the preset's
    monkeypatch.setattr(rare_event, "CHUNK_SIZE", 1_000)
    ev = TerminalHalfspace([1.0], 0.2)
    one = mc_probability(m, [0.0], 20, 0.0, ev, 4_000, seed=3, workers=1)
    two = mc_probability(m, [0.0], 20, 0.0, ev, 4_000, seed=3, workers=2)
    assert 0.0 < one.p_hat == two.p_hat == mc_probability(ou, [0.0], 20, 0.0, ev, 4_000, seed=3).p_hat


def test_cgf_hess_rows_finite_difference_fallback():
    src = _callable_sigma_model()
    stripped = KernelModel(
        dim=2, sampler=src.sampler, cgf=src.cgf, cgf_grad=src.cgf_grad, cgf_hess=None, summary="nohess"
    )
    rng = default_rng(19)
    ys = rng.uniform(-1.0, 1.0, size=(5, 2))
    alphas = rng.normal(size=(5, 2))
    fd = kernel.cgf_hess_rows(stripped, ys, alphas)
    assert np.array_equal(fd, fd.transpose(0, 2, 1))
    assert np.allclose(fd, kernel.cgf_hess_rows(src, ys, alphas), atol=1e-8)


def _signed_zero_sigma():
    sigma = default_rng(71).normal(size=(3, 3))
    sigma[1, 2] = -0.0
    return sigma


@pytest.mark.parametrize(
    "sigma",
    [np.eye(1), np.array([[1.0, 0.3], [-0.2, 0.7]]), _signed_zero_sigma()],
    ids=["identity-1d", "ou-2d", "signed-zero-3d"],
)
def test_constant_gaussian_curvature_is_the_per_call_stack_byte_for_byte(sigma):
    # a constant sigma with a Gaussian base builds sigma sigma^T once; each row of the
    # read-only view has the bytes of the general expression evaluated on all the rows
    d = sigma.shape[0]
    m = affine_model(d, linear_drift(-np.eye(d)), sigma, gaussian_base())
    sigma_t = np.ascontiguousarray(m.sigma.T)
    rng = default_rng(72)
    for rows in [1, 5, 105, 2_000]:
        ys, alphas = rng.normal(size=(rows, d)), rng.normal(size=(rows, d))
        hess = kernel.cgf_hess_rows(m, ys, alphas)
        stack = m.sigma @ m.base.logmgf_hess(kernel._sigma_t_dot(m.sigma, alphas)) @ sigma_t
        assert hess.shape == stack.shape == (rows, d, d)
        assert np.ascontiguousarray(hess).tobytes() == stack.tobytes()
        assert not hess.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            hess[0, 0, 0] = 1.0


@pytest.mark.parametrize("value", ["hess", "grad"])
def test_cgf_hess_rows_refuses_a_callback_value_of_another_shape(value):
    # one (d, d) Hessian for all rows, or one (d,) gradient for all the shifted rows of the
    # finite-difference Hessian, is a ValueError naming the callback
    ou = preset_model("gaussian-ou")
    if value == "hess":
        m = KernelModel(dim=1, sampler=ou.sampler, cgf=ou.cgf, cgf_grad=ou.cgf_grad,
                        cgf_hess=lambda ys, alphas: np.ones((1, 1)))
    else:
        m = KernelModel(dim=1, sampler=ou.sampler, cgf=ou.cgf, cgf_grad=lambda ys, alphas: -ys[0] + alphas[0])
    with pytest.raises(ValueError, match=rf"cgf_{value} must return shape \({'3, 1, 1' if value == 'hess' else '6, 1'}\)"):
        kernel.cgf_hess_rows(m, np.zeros((3, 1)), np.zeros((3, 1)))


def test_preset_summary_is_its_name():
    m = preset_model("gaussian-ou")
    assert m.summary == "gaussian-ou"


@pytest.mark.parametrize("field, value", [("drift", zero_drift()), ("sigma", np.eye(1)), ("base", gaussian_base())])
def test_replacing_the_law_of_an_affine_model_raises(field, value):
    # the callbacks stay bound to the law they were built from, a constant
    # sigma's transpose included, so a replaced drift, sigma or base would be ignored
    with pytest.raises(ValueError, match=f"{field} differs .* build the model with affine_model"):
        dataclasses.replace(preset_model("gaussian-ou"), **{field: value})


def test_replacing_summary_or_callbacks_keeps_working():
    m = preset_model("gaussian-ou")
    assert dataclasses.replace(m, summary="renamed").summary == "renamed"
    calls = []

    def counted(ys, alphas):
        calls.append(1)
        return m.cgf(ys, alphas)

    assert _one_cgf(dataclasses.replace(m, cgf=counted), [0.3], [0.7]) == _one_cgf(m, [0.3], [0.7])
    assert calls == [1]


def test_affine_noise_model_is_built_by_affine_model():
    m = preset_model("gaussian-ou")
    with pytest.raises(ValueError, match="built by affine_model"):
        kernel.AffineNoiseModel(dim=1, sampler=m.sampler, cgf=m.cgf, cgf_grad=m.cgf_grad,
                                drift=m.drift, sigma=m.sigma, base=m.base)


def test_sample_rows_seeded():
    m = preset_model("gaussian-ou")
    ys = np.array([[1.0], [2.0]])
    d1 = m.sampler(ys, default_rng(9))
    d2 = m.sampler(ys, default_rng(9))
    assert d1.shape == (2, 1)
    assert np.array_equal(d1, d2)
    # increment = drift + noise, so its mean at y sits near -y
    draws = m.sampler(np.full((4000, 1), 2.0), default_rng(0))
    assert abs(draws.mean() + 2.0) < 0.06


@pytest.mark.parametrize("name", ["gaussian-ou", "bernoulli-walk", "callable-sigma"])
def test_sample_rows_match_pointwise(name):
    # one (m, d) base draw, row i gets drift(y_i) + sigma(y_i) z_i
    m = _callable_sigma_model() if name == "callable-sigma" else preset_model(name)
    ys = default_rng(23).uniform(-1.0, 1.0, size=(6, m.dim))
    rows = m.sampler(ys, default_rng(29))
    zs = m.base.sample(default_rng(29), ys.shape)
    for i in range(6):
        assert np.allclose(rows[i], _drift_at(m, ys[i]) + _sigma_at(m, ys[i]) @ zs[i], rtol=1e-13, atol=1e-14)


def test_presets_registry():
    assert set(kernel.PRESETS) == {"gaussian-free", "gaussian-ou", "logistic", "bernoulli-walk"}
    for name in kernel.PRESETS:
        m = preset_model(name)
        assert m.dim == 1
        assert m.summary == name
    with pytest.raises(ValueError):
        preset_model("missing")


def test_model_from_config_preset_and_explicit_agree():
    mp = model_from_config({"preset": "gaussian-ou"})
    me = model_from_config(
        {
            "dim": 1,
            "drift": {"kind": "linear", "matrix": [[-1.0]]},
            "sigma": {"kind": "identity"},
            "base": {"kind": "gaussian"},
        }
    )
    y, alpha = np.array([0.7]), np.array([-0.3])
    assert _one_cgf(mp, y, alpha) == pytest.approx(_one_cgf(me, y, alpha), abs=1e-14)
    assert np.allclose(_one_cgf_grad(mp, y, alpha), _one_cgf_grad(me, y, alpha))


def test_model_from_config_error_paths():
    with pytest.raises(ValueError, match="model.preset"):
        model_from_config({"preset": "nope"})
    with pytest.raises(ValueError, match="model.drift.kind"):
        model_from_config(
            {"dim": 1, "drift": {"kind": "wavy"}, "sigma": {"kind": "identity"}, "base": {"kind": "gaussian"}}
        )
    with pytest.raises(ValueError, match="bogus"):
        model_from_config({"preset": "gaussian-ou", "bogus": 1})
    with pytest.raises(ValueError):
        model_from_config({})
    with pytest.raises(ValueError, match="model.base.p"):
        model_from_config(
            {"dim": 1, "drift": {"kind": "zero"}, "sigma": {"kind": "identity"}, "base": {"kind": "bernoulli", "p": 1.5}}
        )


@settings(max_examples=60, deadline=None)
@given(
    a1=st.floats(-4, 4),
    a2=st.floats(-4, 4),
    y=st.floats(-3, 3),
    name=st.sampled_from(["gaussian-ou", "bernoulli-walk", "logistic"]),
)
def test_cgf_convex_in_alpha(a1, a2, y, name):
    m = preset_model(name)
    yv = np.array([y])
    mid = _one_cgf(m, yv, np.array([(a1 + a2) / 2.0]))
    avg = 0.5 * (_one_cgf(m, yv, np.array([a1])) + _one_cgf(m, yv, np.array([a2])))
    assert mid <= avg + 1e-9


@settings(max_examples=60, deadline=None)
@given(y=st.floats(-3, 3), a=st.floats(-4, 4))
def test_cgf_grad_matches_finite_difference(y, a):
    m = preset_model("gaussian-ou")
    yv, al = np.array([y]), np.array([a])
    h = 1e-6
    fd = (_one_cgf(m, yv, al + h) - _one_cgf(m, yv, al - h)) / (2 * h)
    assert _one_cgf_grad(m, yv, al)[0] == pytest.approx(fd, rel=1e-5, abs=1e-7)
