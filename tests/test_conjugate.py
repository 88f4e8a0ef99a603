import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.random import default_rng

from ldscheme import conjugate
from ldscheme.conjugate import (
    CONVERGED,
    DIVERGENT,
    MAX_ITERATIONS,
    dominating_point_halfspace,
    fenchel_rows,
    perturbed_fenchel,
)
from ldscheme.errors import TiltUnreachableError
from ldscheme.kernel import (
    KernelModel,
    affine_model,
    cgf,
    constant_drift,
    gaussian_base,
    preset_model,
    zero_drift,
)


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


def test_dominating_point_free_gaussian():
    m = preset_model("gaussian-free")
    r = dominating_point_halfspace(m, np.zeros(1), np.array([1.0]), 2.0)
    assert r.point[0] == pytest.approx(2.0, abs=1e-9)
    assert r.t == pytest.approx(2.0, abs=1e-9)
    assert r.level == pytest.approx(2.0, abs=1e-9)
    assert np.allclose(r.multiplier, [2.0], atol=1e-9)


def test_dominating_point_scale_invariance():
    m = preset_model("gaussian-free")
    a = dominating_point_halfspace(m, np.zeros(1), np.array([1.0]), 2.0)
    b = dominating_point_halfspace(m, np.zeros(1), np.array([5.0]), 10.0)
    assert b.level == pytest.approx(a.level, abs=1e-9)
    assert b.point[0] == pytest.approx(a.point[0], abs=1e-9)


def test_dominating_point_bernoulli_entropy_level():
    m = preset_model("bernoulli-walk")
    r = dominating_point_halfspace(m, np.zeros(1), np.array([1.0]), 0.6)
    assert r.point[0] == pytest.approx(0.6, abs=1e-8)
    assert r.level == pytest.approx(_bernoulli_entropy(0.6, 0.3), abs=1e-8)


def test_dominating_point_rejects_nonrare_halfspace():
    m = preset_model("gaussian-ou")
    # increment mean at y=1 is -1, already beyond level -2
    with pytest.raises(ValueError):
        dominating_point_halfspace(m, np.array([1.0]), np.array([1.0]), -2.0)


def test_dominating_point_unreachable_level():
    m = preset_model("bernoulli-walk")
    # increments live in [0, 1]; their mean cannot pass 1
    with pytest.raises(TiltUnreachableError):
        dominating_point_halfspace(m, np.zeros(1), np.array([1.0]), 1.5)


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
    assert cgf(m, yv, np.array([a])) + conj >= a * z - 1e-9


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
    assert rows.status[i] == single.status
    assert rows.iterations[i] == single.iterations
    if single.status == DIVERGENT:
        assert rows.value[i] == np.inf
        assert np.all(np.isnan(rows.argmax[i]))
    else:
        assert rows.value[i] == pytest.approx(single.value, rel=1e-12, abs=1e-15)


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
    assert set(rows.status) == expected[max_iter]
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
    assert np.all(rows.status == CONVERGED)


def test_fenchel_rows_rejects_bad_shapes():
    m = preset_model("gaussian-ou")
    with pytest.raises(ValueError):
        fenchel_rows(m, np.zeros((3, 1)), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        fenchel_rows(m, np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        fenchel_rows(m, np.zeros((1, 1)), np.array([[np.nan]]))
