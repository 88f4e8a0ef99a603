import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.random import default_rng

from ldscheme import conjugate, kernel
from ldscheme.conjugate import (
    CONVERGED,
    DIVERGENT,
    MAX_ITERATIONS,
    STATUSES,
    fenchel_rows,
    perturbed_fenchel,
)
from ldscheme.kernel import (
    KernelModel,
    affine_model,
    constant_drift,
    gaussian_base,
    linear_drift,
    preset_model,
)
from test_rare_event import _ou_2d


def _one_cgf(model, y, alpha) -> float:
    """The model's cgf at one state y and one (d,) alpha, through its row callback."""
    y, alpha = np.asarray(y, dtype=np.float64), np.asarray(alpha, dtype=np.float64)
    return float(model.cgf(y[None], alpha)[0])


def _names(status):
    """The outcome names of an array of status codes, as a list."""
    return [STATUSES[c] for c in status]


def _bernoulli_entropy(v, p):
    """Relative entropy of Bernoulli(v) against Bernoulli(p), the conjugate of its log-mgf.

    The boundary values are the limits -log(1 - p) at v = 0 and -log(p) at v = 1.
    """
    if v == 0.0:
        return -np.log1p(-p)
    if v == 1.0:
        return -np.log(p)
    return v * np.log(v / p) + (1.0 - v) * np.log((1.0 - v) / (1.0 - p))


def test_gaussian_free_closed_form():
    m = preset_model("gaussian-free")
    rng = default_rng(1)
    for _ in range(25):
        z = rng.normal(scale=2.0, size=1)
        r = perturbed_fenchel(m, 0.0, np.zeros(1), z)
        assert r.status == CONVERGED
        assert r.value == pytest.approx(0.5 * z[0] ** 2, abs=1e-9)
        assert r.argmax[0] == pytest.approx(z[0], abs=1e-7)


def test_ou_drift_shifts_the_conjugate():
    m = preset_model("gaussian-ou")
    y, z = np.array([1.5]), np.array([0.2])
    # increment mean is -y, unit variance: conj = (z + y)^2 / 2
    r = perturbed_fenchel(m, 0.0, y, z)
    assert r.value == pytest.approx(0.5 * (0.2 + 1.5) ** 2, abs=1e-9)


def test_bernoulli_interior_matches_relative_entropy():
    m = preset_model("bernoulli-walk")
    # the support boundary z = 0 and z = 1 converges too (in 23 and 22 steps)
    for v in [0.0, 0.05, 0.3, 0.5, 0.9, 1.0]:
        r = perturbed_fenchel(m, 0.0, np.zeros(1), np.array([v]))
        assert r.status == CONVERGED
        assert r.value == pytest.approx(_bernoulli_entropy(v, 0.3), abs=1e-9)


def test_bernoulli_outside_support_diverges():
    m = preset_model("bernoulli-walk")
    r = perturbed_fenchel(m, 0.0, np.zeros(1), np.array([1.3]))
    assert r.status == DIVERGENT
    assert r.value > 1e2


def _gaussian_affine_conjugate(sigma, drift, z):
    """Closed form 1/2 |sigma^{-1} (z - b)|^2 for F = b + sigma Z, Z standard normal."""
    v = np.linalg.solve(np.atleast_2d(sigma), np.atleast_1d(z) - np.atleast_1d(drift))
    return 0.5 * float(v @ v)


def test_closed_form_helper_matches_numeric():
    rng = default_rng(7)
    m = preset_model("gaussian-ou")
    for _ in range(20):
        y = rng.normal(size=1)
        z = rng.normal(size=1)
        # gaussian-ou: drift -y, unit sigma
        direct = _gaussian_affine_conjugate(1.0, -y, z)
        numeric = perturbed_fenchel(m, 0.0, y, z).value
        assert numeric == pytest.approx(direct, abs=1e-8)


def test_perturbed_fenchel_gaussian():
    m = preset_model("gaussian-free")
    # total noise variance 1 + a^2: conj = z^2 / (2 (1 + a^2))
    r = perturbed_fenchel(m, 1.0, np.zeros(1), np.array([1.0]))
    assert r.value == pytest.approx(0.25, abs=1e-9)
    r2 = perturbed_fenchel(m, 0.0, np.zeros(1), np.array([1.0]))
    assert r2.value == pytest.approx(0.5, abs=1e-9)


def test_perturbation_makes_everything_finite():
    m = preset_model("bernoulli-walk")
    r = perturbed_fenchel(m, 0.5, np.zeros(1), np.array([2.5]))
    assert r.status == CONVERGED
    assert np.isfinite(r.value)
    # quadratic ceiling (|z| + D)^2 / (2 a^2), D = 0.3 the increment mean at y = 0
    assert r.value <= (2.5 + 0.3) ** 2 / (2 * 0.5**2) + 1e-9


def test_finite_difference_hessian_fallback():
    src = preset_model("gaussian-ou")
    stripped = KernelModel(
        dim=1, sampler=src.sampler, cgf=src.cgf, cgf_grad=src.cgf_grad, cgf_hess=None, summary="nohess"
    )
    y, z = np.array([0.8]), np.array([0.4])
    expect = perturbed_fenchel(src, 0.0, y, z).value
    assert perturbed_fenchel(stripped, 0.0, y, z).value == pytest.approx(expect, abs=1e-7)


def test_max_iterations_returns_best_so_far(monkeypatch):
    monkeypatch.setattr(conjugate, "MAX_ITER", 1)
    m = preset_model("gaussian-free")
    r = perturbed_fenchel(m, 0.0, np.zeros(1), np.array([3.0]))
    assert r.status == MAX_ITERATIONS
    assert 0.0 <= r.value <= 0.5 * 9.0
    assert np.isfinite(r.value)


@pytest.mark.parametrize("a", [0.0, 0.25])
def test_fenchel_rows_takes_a_as_a_float(a):
    # the unit Gaussian smoothed at a has cgf_a(alpha) = (1 + a^2) alpha^2 / 2, so conj_a(z) = z^2 / (2 (1 + a^2))
    m = preset_model("gaussian-free")
    res = fenchel_rows(m, [[0.0]], [[0.5]], a=a)
    assert STATUSES[res.status[0]] == CONVERGED
    assert res.value[0] == pytest.approx(0.125 / (1.0 + a * a), rel=1e-12)
    assert res.value.tobytes() == fenchel_rows(m, [[0.0]], [[0.5]], a=np.float64(a)).value.tobytes()


@pytest.mark.parametrize(
    "a, error",
    [(-0.1, "a must be >= 0, got -0.1"), (np.inf, "a: expected a finite number, got inf")],
    ids=["negative", "inf"],
)
def test_fenchel_rows_refuses_a_negative_or_infinite_a_before_any_callback(a, error):
    def refuse(*args):
        raise AssertionError("a model callback ran before a was checked")

    m = KernelModel(dim=1, sampler=refuse, cgf=refuse, cgf_grad=refuse, cgf_hess=refuse)
    with pytest.raises(ValueError, match="^" + re.escape(error) + "$"):
        fenchel_rows(m, [[0.0]], [[0.5]], a=a)


@settings(max_examples=80, deadline=None)
@given(
    y=st.floats(-2, 2),
    z=st.floats(-3, 3),
    a=st.floats(-3, 3),
    name=st.sampled_from(["gaussian-free", "gaussian-ou"]),
)
def test_young_fenchel_inequality(y, z, a, name):
    m = preset_model(name)
    yv = np.array([y])
    conj = perturbed_fenchel(m, 0.0, yv, np.array([z])).value
    assert _one_cgf(m, yv, np.array([a])) + conj >= a * z - 1e-9


def test_two_dimensional_anisotropic():
    s = np.array([[1.0, 0.3], [0.0, 2.0]])
    b = np.array([0.1, -0.2])
    m = affine_model(2, constant_drift(b), s, gaussian_base(), summary="g2")
    rng = default_rng(11)
    for _ in range(10):
        z = rng.normal(size=2)
        assert perturbed_fenchel(m, 0.0, np.zeros(2), z).value == pytest.approx(
            _gaussian_affine_conjugate(s, b, z), abs=1e-7
        )


def _assert_same_row(rows, i, single):
    # at d = 1 a row is bit for bit its one-row solve, the best-so-far value and alpha of a
    # max-iterations row included
    assert STATUSES[rows.status[i]] == single.status
    assert rows.iterations[i] == single.iterations
    if single.status == DIVERGENT:
        assert rows.value[i] == np.inf
        assert np.all(np.isnan(rows.argmax[i]))
    else:
        assert rows.value[i].tobytes() == np.float64(single.value).tobytes()
        assert rows.argmax[i].tobytes() == single.argmax.tobytes()


@pytest.mark.parametrize("max_iter", [200, 15, 1])
def test_fenchel_rows_rows_are_independent(monkeypatch, max_iter):
    # bernoulli-walk: z = 0.3 is the mean (converged at once), z in (0, 1)
    # converges, z = 1.5 and -0.5 lie outside the support (divergent after
    # 12 steps), the boundary values 0 and 1 converge slowly (20+ steps);
    # capping the iterations turns the slow rows into max-iterations rows
    monkeypatch.setattr(conjugate, "MAX_ITER", max_iter)
    m = preset_model("bernoulli-walk")
    zs = np.array([0.3, 1.5, 0.05, 0.6, 1.0, 0.0, -0.5, 0.9, 0.999])[:, None]
    ys = np.zeros_like(zs)
    rows = fenchel_rows(m, ys, zs)
    for i in range(len(zs)):
        _assert_same_row(rows, i, perturbed_fenchel(m, 0.0, ys[i], zs[i]))
    expected = {200: {CONVERGED, DIVERGENT}, 15: {CONVERGED, DIVERGENT, MAX_ITERATIONS}, 1: {CONVERGED, MAX_ITERATIONS}}
    assert set(_names(rows.status)) == expected[max_iter]
    if max_iter == 200:
        # pinned iteration counts: changing any solver constant moves them
        assert rows.iterations.tolist() == [1, 12, 7, 5, 22, 23, 12, 5, 10]
    # dropping the divergent neighbours changes no other row
    keep = np.abs(zs[:, 0] - 0.5) <= 0.5
    alone = fenchel_rows(m, ys[keep], zs[keep])
    assert np.array_equal(alone.value, rows.value[keep])
    assert np.array_equal(alone.iterations, rows.iterations[keep])
    assert np.array_equal(alone.status, rows.status[keep])


def test_fenchel_rows_smoothed_rows_match_single_solves():
    m = preset_model("bernoulli-walk")
    zs = np.array([[2.5], [0.4], [-1.0]])
    ys = np.zeros_like(zs)
    rows = fenchel_rows(m, ys, zs, a=0.5)
    for i in range(3):
        _assert_same_row(rows, i, perturbed_fenchel(m, 0.5, ys[i], zs[i]))
    assert set(_names(rows.status)) == {CONVERGED}


def test_fenchel_rows_rejects_bad_shapes():
    m = preset_model("gaussian-ou")
    with pytest.raises(ValueError):
        fenchel_rows(m, np.zeros((3, 1)), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        fenchel_rows(m, np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        fenchel_rows(m, np.zeros((1, 1)), np.array([[np.nan]]))


def test_line_search_that_moves_no_row_ends_it_as_max_iterations():
    # cgf = c (alpha - 1)^2 - c with c = 1e20: the first Newton step lands on
    # alpha = 1, where the next step, 1 / (2 c), is below half an ulp of alpha,
    # so no row moves and each ends where it stands
    c = 1e20
    m = KernelModel(
        dim=1,
        sampler=lambda ys, rng: np.zeros_like(ys),
        cgf=lambda ys, al: c * (al[..., 0] - 1.0) ** 2 - c,
        cgf_grad=lambda ys, al: 2.0 * c * (al - 1.0),
        cgf_hess=lambda ys, al: np.full((len(ys), 1, 1), 2.0 * c),
    )
    zs = np.array([[1.0], [2.0]])
    rows = fenchel_rows(m, np.zeros_like(zs), zs)
    assert _names(rows.status) == [MAX_ITERATIONS, MAX_ITERATIONS]
    assert rows.iterations.tolist() == [2, 2]
    assert rows.argmax.tolist() == [[1.0], [1.0]]
    assert np.array_equal(rows.value, zs[:, 0] + c)


def _gaussian_2d():
    return affine_model(2, linear_drift(np.array([[-1.0, 0.3], [0.2, -0.5]])), np.array([[1.0, 0.2], [0.0, 0.8]]), gaussian_base())


_DTYPES = {"value": np.float64, "argmax": np.float64, "status": np.dtype(np.int8), "iterations": np.dtype(int), "grad_norm": np.float64}


@pytest.mark.parametrize("ending", ["no-rows", "together", "apart"])
@pytest.mark.parametrize("d", [1, 2])
def test_fenchel_rows_result_has_the_same_dtypes_however_it_is_assembled(d, ending):
    # every row converging at the same test returns the live arrays; rows ending at
    # different tests are written into a result one by one; no rows give an empty result
    model = preset_model("gaussian-ou") if d == 1 else _gaussian_2d()
    zs = default_rng(d).normal(size=(6, d))
    if ending == "no-rows":
        zs = zs[:0]
    elif ending == "apart":
        zs[2] = model.cgf_grad(np.zeros((1, d)), np.zeros((1, d)))[0]  # the mean: converged at alpha = 0
    rows = fenchel_rows(model, np.zeros_like(zs), zs)
    for name, dtype in _DTYPES.items():
        assert getattr(rows, name).dtype == dtype, name
    assert rows.argmax.shape == zs.shape and rows.status.shape == rows.value.shape == (len(zs),)
    expected = {"no-rows": [], "together": [2] * 6, "apart": [2, 2, 1, 2, 2, 2]}[ending]
    assert rows.iterations.tolist() == expected
    assert set(_names(rows.status)) <= {CONVERGED}


@pytest.mark.parametrize("d", [1, 2])
def test_fenchel_rows_row_whose_tolerance_overflows_ends_divergent(d):
    # past |z| ~ 1.3e154 the tolerance GRAD_TOL_SCALE * (1 + |z|) is inf: the row used to end
    # converged at alpha = 0 with value 0, while a row at |z| = 1e150 ends divergent at the norm cap
    model = preset_model("gaussian-ou") if d == 1 else _gaussian_2d()
    zs = default_rng(20 + d).normal(size=(6, d))
    zs[1], zs[3], zs[4] = 1e300, 1e155, 0.0
    zs[4, 0] = 1e150
    ys = default_rng(30 + d).normal(size=(6, d))
    rows = fenchel_rows(model, ys, zs)
    overflowed = [1, 3]
    assert _names(rows.status[overflowed]) == [DIVERGENT, DIVERGENT]
    assert rows.iterations[overflowed].tolist() == [0, 0]
    assert np.all(rows.value[overflowed] == np.inf) and np.all(np.isnan(rows.argmax[overflowed]))
    assert STATUSES[rows.status[4]] == DIVERGENT and rows.iterations[4] > 0
    # the other rows are the bytes they have when solved without the overflowed rows
    keep = [0, 2, 4, 5]
    alone = fenchel_rows(model, ys[keep], zs[keep])
    for name in _DTYPES:
        assert getattr(alone, name).tobytes() == getattr(rows, name)[keep].tobytes(), name


def _ou_sigma_03():
    return affine_model(1, linear_drift([[-1.0]]), 0.3, gaussian_base())


_FIELDS = ("value", "argmax", "status", "iterations", "grad_norm")


def _assert_same_bytes(got, want):
    for name in _FIELDS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize("a", [0.0, 0.3])
@pytest.mark.parametrize("make", [_ou_sigma_03, _ou_2d], ids=["ou-sigma-0.3", "ou-2d"])
def test_fenchel_rows_rows_are_byte_independent_of_their_batch_for_a_non_unit_sigma(make, a):
    # every row shares one sigma sigma^T; each row's solve keeps its bytes alone, in a
    # reversed batch and in a batch of every third row
    m = make()
    rng = default_rng(41)
    ys, zs = rng.normal(size=(40, m.dim)), 2.0 * rng.normal(size=(40, m.dim))
    rows = fenchel_rows(m, ys, zs, a=a)
    for i in range(len(zs)):
        one = fenchel_rows(m, ys[i : i + 1], zs[i : i + 1], a=a)
        for name in _FIELDS:
            assert getattr(one, name).tobytes() == getattr(rows, name)[i : i + 1].tobytes(), (i, name)
    reversed_ = fenchel_rows(m, ys[::-1], zs[::-1], a=a)
    for name in _FIELDS:
        assert getattr(reversed_, name)[::-1].tobytes() == getattr(rows, name).tobytes(), name
    third = fenchel_rows(m, ys[::3], zs[::3], a=a)
    for name in _FIELDS:
        assert getattr(third, name).tobytes() == getattr(rows, name)[::3].tobytes(), name


@pytest.mark.parametrize("a", [0.0, 0.3])
@pytest.mark.parametrize(
    "make",
    [_ou_sigma_03, _ou_2d, lambda: affine_model(2, linear_drift(-np.eye(2)), np.eye(2), gaussian_base())],
    ids=["ou-sigma-0.3", "ou-2d", "linear-2d-identity"],
)
def test_cached_and_generic_curvature_give_the_same_fenchel_rows_bytes(make, a):
    # the generic cgf_hess evaluates sigma hess_logmgf(sigma^T alpha) sigma^T on every call
    m = make()
    sigma, base = m.sigma, m.base
    sigma_t = np.ascontiguousarray(sigma.T)
    generic = dataclasses.replace(
        m, cgf_hess=lambda ys, alphas: sigma @ base.logmgf_hess(kernel._sigma_t_dot(sigma, alphas)) @ sigma_t
    )
    rng = default_rng(43)
    ys, zs = rng.normal(size=(105, m.dim)), 3.0 * rng.normal(size=(105, m.dim))
    _assert_same_bytes(fenchel_rows(m, ys, zs, a=a), fenchel_rows(generic, ys, zs, a=a))


def _gaussian_free_copy(**callbacks):
    """A hand-written copy of gaussian-free with some callbacks replaced."""
    free = preset_model("gaussian-free")
    fields = dict(dim=1, sampler=free.sampler, cgf=free.cgf, cgf_grad=free.cgf_grad, cgf_hess=free.cgf_hess)
    return KernelModel(**{**fields, **callbacks})


@pytest.mark.parametrize(
    "callbacks, name",
    [
        (dict(cgf=lambda ys, alphas: 0.5 * float(alphas[0, 0]) ** 2), "cgf"),
        (dict(cgf=lambda ys, alphas: 0.5 * alphas**2), "cgf"),
        (dict(cgf_grad=lambda ys, alphas: alphas[0]), "cgf_grad"),
        (dict(cgf_hess=lambda ys, alphas: np.ones((1, 1))), "cgf_hess"),
    ],
    ids=["scalar-cgf", "column-cgf", "one-row-grad", "one-hess"],
)
def test_fenchel_rows_refuses_callback_values_of_another_shape(callbacks, name):
    # a scalar cgf used to be broadcast to every row: [0.5, 1.5] where gaussian-free gives [0.5, 2.0]
    ys, zs = np.zeros((2, 1)), np.array([[1.0], [2.0]])
    assert fenchel_rows(_gaussian_free_copy(), ys, zs).value.tolist() == [0.5, 2.0]
    with pytest.raises(ValueError, match=rf"^{name} must return shape"):
        fenchel_rows(_gaussian_free_copy(**callbacks), ys, zs)


def test_status_counts_are_a_bincount_of_the_codes(monkeypatch):
    # bernoulli-walk rows that converge, diverge and (with 15 iterations) run out of iterations
    monkeypatch.setattr(conjugate, "MAX_ITER", 15)
    m = preset_model("bernoulli-walk")
    zs = np.array([0.3, 1.5, 0.05, 0.6, 1.0, 0.0, -0.5, 0.9, 0.999])[:, None]
    rows = fenchel_rows(m, np.zeros_like(zs), zs)
    assert rows.status.dtype == np.int8
    names = [rows.row(i).status for i in range(len(zs))]
    counts = np.bincount(rows.status, minlength=len(STATUSES))
    assert counts.tolist() == [names.count(s) for s in STATUSES] == [5, 2, 2]
