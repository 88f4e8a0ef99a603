import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.random import default_rng

from ldscheme import kernel
from ldscheme.conjugate import fenchel_rows
from ldscheme.kernel import (
    KernelModel,
    ModelConfigError,
    affine_model,
    bernoulli_base,
    cgf,
    cgf_grad,
    constant_drift,
    gaussian_base,
    linear_drift,
    logistic_drift,
    model_from_config,
    perturbation_amplitude,
    preset_model,
    zero_drift,
)


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


def test_bernoulli_base_rejects_degenerate_p():
    for p in [0.0, 1.0, -0.2, 1.5]:
        with pytest.raises(ValueError):
            bernoulli_base(p)


def test_affine_cgf_orn_uhlenbeck():
    m = preset_model("gaussian-ou")
    y, alpha = np.array([1.5]), np.array([0.4])
    assert cgf(m, y, alpha) == pytest.approx(-1.5 * 0.4 + 0.5 * 0.4**2, abs=1e-14)
    assert cgf_grad(m, y, alpha)[0] == pytest.approx(-1.5 + 0.4, abs=1e-14)
    assert m.cgf_hess(y, alpha)[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_affine_cgf_matrix_sigma():
    s = np.array([[2.0, 0.5], [0.0, 1.0]])
    b = np.array([0.3, -0.1])
    m = affine_model(2, constant_drift(b), s, gaussian_base(), summary="aniso")
    alpha = np.array([0.7, -0.4])
    expect = b @ alpha + 0.5 * np.sum((s.T @ alpha) ** 2)
    assert cgf(m, np.zeros(2), alpha) == pytest.approx(expect, abs=1e-13)
    grad_expect = b + s @ (s.T @ alpha)
    assert np.allclose(cgf_grad(m, np.zeros(2), alpha), grad_expect, atol=1e-13)
    assert np.allclose(m.cgf_hess(np.zeros(2), alpha), s @ s.T, atol=1e-13)


def test_state_dependent_sigma_cgf_closed_form():
    m = affine_model(
        1, zero_drift(), lambda y: np.array([[1.0 + y[0] ** 2]]), gaussian_base(), summary="var"
    )
    assert cgf(m, np.array([2.0]), np.array([0.1])) == pytest.approx(0.5 * (5.0 * 0.1) ** 2, abs=1e-13)


def test_perturbation_amplitude_validation():
    assert perturbation_amplitude(0.0) == 0.0
    assert perturbation_amplitude(0.25) == 0.25
    with pytest.raises(ValueError):
        perturbation_amplitude(-0.1)
    with pytest.raises(ValueError):
        perturbation_amplitude(np.inf)


def test_drift_builders_broadcast():
    batch = np.array([[0.5, 1.0], [2.0, -1.0]])
    assert np.allclose(zero_drift()(batch), 0.0)
    assert zero_drift()(batch).shape == batch.shape
    assert np.allclose(constant_drift(np.array([1.0, 2.0]))(batch), [[1.0, 2.0], [1.0, 2.0]])
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.allclose(linear_drift(a)(batch), batch @ a.T)
    log = logistic_drift()(batch)
    assert np.allclose(log, batch * (1.0 - batch))


def test_cgf_rows_matches_pointwise():
    rng = default_rng(3)
    for name in ["gaussian-ou", "bernoulli-walk"]:
        m = preset_model(name)
        ys = rng.normal(size=(8, 1))
        alphas = rng.normal(size=(8, 1))
        rows = kernel.cgf_rows(m, ys, alphas)
        shared = kernel.cgf_rows(m, ys, alphas[0])
        for i in range(8):
            assert rows[i] == pytest.approx(_affine_cgf(m, ys[i], alphas[i]), abs=1e-12)
            assert shared[i] == pytest.approx(_affine_cgf(m, ys[i], alphas[0]), abs=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
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
    m = affine_model(d, linear_drift(a, v), sig, gaussian_base(), drift_broadcasts=True)
    bs = ys @ a.T + v
    per_row = np.einsum("ij,ij->i", bs, alphas) + m.base.logmgf(alphas @ sig)
    assert np.array_equal(kernel.cgf_rows(m, ys, alphas), per_row)
    assert np.array_equal(kernel.cgf_rows(m, ys, alphas[0]), bs @ alphas[0] + m.base.logmgf(alphas[0] @ sig))


def test_logmgf_hess_broadcasts_over_batch():
    rng = default_rng(5)
    alphas = rng.normal(size=(6, 3))
    for base in [gaussian_base(), bernoulli_base(0.3)]:
        stacked = base.logmgf_hess(alphas)
        assert stacked.shape == (6, 3, 3)
        for i in range(6):
            assert np.array_equal(stacked[i], base.logmgf_hess(alphas[i]))
        assert np.array_equal(stacked, np.diagonal(stacked, axis1=1, axis2=2)[:, :, None] * np.eye(3))


def _affine_cgf(m, y, alpha):
    """b(y).alpha + logmgf(sigma(y)^T alpha), written out from the model's parts."""
    return m.drift(y) @ alpha + m.base.logmgf(m.sigma_fn(y).T @ alpha)


def _callable_sigma_model():
    # state-dependent sigma: the row helpers stack sigma_fn(y_i) over the rows
    return affine_model(
        2,
        linear_drift(np.array([[-1.0, 0.5], [0.0, -1.0]])),
        lambda y: np.array([[1.0 + 0.1 * y[0] ** 2, 0.0], [0.3, 1.0]]),
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
    values = kernel.cgf_rows(m, ys, alphas)
    shared = kernel.cgf_rows(m, ys, alphas[0])
    grads = kernel.cgf_grad_rows(m, ys, alphas)
    hessians = kernel.cgf_hess_rows(m, ys, alphas)
    assert grads.shape == (9, m.dim)
    assert hessians.shape == (9, m.dim, m.dim)
    for i in range(9):
        b, s = m.drift(ys[i]), m.sigma_fn(ys[i])
        u = s.T @ alphas[i]
        assert values[i] == pytest.approx(_affine_cgf(m, ys[i], alphas[i]), rel=1e-13, abs=1e-14)
        assert shared[i] == pytest.approx(_affine_cgf(m, ys[i], alphas[0]), rel=1e-13, abs=1e-14)
        assert np.allclose(grads[i], b + s @ m.base.logmgf_grad(u), rtol=1e-13, atol=1e-14)
        assert np.allclose(hessians[i], s @ m.base.logmgf_hess(u) @ s.T, rtol=1e-13, atol=1e-14)
        assert np.array_equal(m.cgf_grad(ys[i], alphas[i]), grads[i])
        assert np.array_equal(m.cgf_hess(ys[i], alphas[i]), hessians[i])


def test_affine_row_helpers_make_no_callback_calls():
    src = _callable_sigma_model()
    calls = {"cgf": 0, "cgf_grad": 0, "cgf_hess": 0, "sampler": 0}

    def counted(name):
        fn = getattr(src, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    m = dataclasses.replace(src, **{name: counted(name) for name in calls})
    rng = default_rng(37)
    ys = rng.uniform(-1.0, 1.0, size=(7, 2))
    alphas = rng.normal(size=(7, 2))
    zs = kernel.cgf_grad_rows(src, ys, 0.5 * alphas)
    for helper in (kernel.cgf_rows, kernel.cgf_grad_rows, kernel.cgf_hess_rows):
        assert np.array_equal(helper(m, ys, alphas), helper(src, ys, alphas))
    assert np.array_equal(kernel.cgf_rows(m, ys, alphas[0]), kernel.cgf_rows(src, ys, alphas[0]))
    got, ref = fenchel_rows(m, ys, zs), fenchel_rows(src, ys, zs)
    assert np.array_equal(got.value, ref.value)
    assert np.array_equal(got.argmax, ref.argmax)
    assert calls == {"cgf": 0, "cgf_grad": 0, "cgf_hess": 0, "sampler": 0}


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


def test_preset_summary_is_its_name():
    m = preset_model("gaussian-ou")
    assert m.summary == "gaussian-ou"


def test_sample_rows_seeded():
    m = preset_model("gaussian-ou")
    ys = np.array([[1.0], [2.0]])
    d1 = kernel.sample_rows(m, ys, default_rng(9))
    d2 = kernel.sample_rows(m, ys, default_rng(9))
    assert d1.shape == (2, 1)
    assert np.array_equal(d1, d2)
    # increment = drift + noise, so its mean at y sits near -y
    draws = kernel.sample_rows(m, np.full((4000, 1), 2.0), default_rng(0))
    assert abs(draws.mean() + 2.0) < 0.06


@pytest.mark.parametrize("name", ["gaussian-ou", "bernoulli-walk", "callable-sigma"])
def test_sample_rows_match_pointwise(name):
    # affine models: one (m, d) base draw, row i gets drift(y_i) + sigma(y_i) z_i;
    # other models: model.sampler row by row on the same stream
    m = _callable_sigma_model() if name == "callable-sigma" else preset_model(name)
    ys = default_rng(23).uniform(-1.0, 1.0, size=(6, m.dim))
    rows = kernel.sample_rows(m, ys, default_rng(29))
    zs = m.base.sample(default_rng(29), ys.shape)
    for i in range(6):
        assert np.allclose(rows[i], m.drift(ys[i]) + m.sigma_fn(ys[i]) @ zs[i], rtol=1e-13, atol=1e-14)
    plain = KernelModel(dim=m.dim, sampler=m.sampler, cgf=m.cgf, cgf_grad=m.cgf_grad, summary="plain")
    rng = default_rng(31)
    expect = np.array([m.sampler(y, rng) for y in ys])
    assert np.array_equal(kernel.sample_rows(plain, ys, default_rng(31)), expect)


def test_presets_registry():
    assert set(kernel.PRESETS) == {"gaussian-free", "gaussian-ou", "logistic", "bernoulli-walk"}
    for name in kernel.PRESETS:
        m = preset_model(name)
        assert m.dim == 1
        assert m.summary == name
    with pytest.raises(ModelConfigError):
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
    assert cgf(mp, y, alpha) == pytest.approx(cgf(me, y, alpha), abs=1e-14)
    assert np.allclose(cgf_grad(mp, y, alpha), cgf_grad(me, y, alpha))


def test_model_from_config_error_paths():
    with pytest.raises(ModelConfigError, match="model.preset"):
        model_from_config({"preset": "nope"})
    with pytest.raises(ModelConfigError, match="model.drift.kind"):
        model_from_config(
            {"dim": 1, "drift": {"kind": "wavy"}, "sigma": {"kind": "identity"}, "base": {"kind": "gaussian"}}
        )
    with pytest.raises(ModelConfigError, match="bogus"):
        model_from_config({"preset": "gaussian-ou", "bogus": 1})
    with pytest.raises(ModelConfigError):
        model_from_config({})
    with pytest.raises(ModelConfigError, match="model.base.p"):
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
    mid = cgf(m, yv, np.array([(a1 + a2) / 2.0]))
    avg = 0.5 * (cgf(m, yv, np.array([a1])) + cgf(m, yv, np.array([a2])))
    assert mid <= avg + 1e-9


@settings(max_examples=60, deadline=None)
@given(y=st.floats(-3, 3), a=st.floats(-4, 4))
def test_cgf_grad_matches_finite_difference(y, a):
    m = preset_model("gaussian-ou")
    yv, al = np.array([y]), np.array([a])
    h = 1e-6
    fd = (cgf(m, yv, al + h) - cgf(m, yv, al - h)) / (2 * h)
    assert cgf_grad(m, yv, al)[0] == pytest.approx(fd, rel=1e-5, abs=1e-7)
