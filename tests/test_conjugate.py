import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.random import default_rng

from ldscheme.conjugate import (
    CONVERGED,
    DIVERGENT,
    MAX_ITERATIONS,
    ConjugateSettings,
    dominating_point_halfspace,
    fenchel,
    fenchel_closed_form_affine,
    fenchel_rows,
    mean_norm_bound,
    perturbed_conjugate_bound,
    perturbed_fenchel,
)
from ldscheme.errors import TiltUnreachableError
from ldscheme.kernel import (
    KernelModel,
    affine_model,
    bernoulli_base,
    cgf,
    constant_drift,
    gaussian_base,
    preset_model,
    zero_drift,
)


def test_gaussian_free_closed_form():
    m = preset_model("gaussian-free")
    rng = default_rng(1)
    for _ in range(25):
        z = rng.normal(scale=2.0, size=1)
        r = fenchel(m, np.zeros(1), z)
        assert r.status == CONVERGED
        assert r.value == pytest.approx(0.5 * z[0] ** 2, abs=1e-9)
        assert r.argmax[0] == pytest.approx(z[0], abs=1e-7)


def test_ou_drift_shifts_the_conjugate():
    m = preset_model("gaussian-ou")
    y, z = np.array([1.5]), np.array([0.2])
    # increment mean is -y, unit variance: conj = (z + y)^2 / 2
    r = fenchel(m, y, z)
    assert r.value == pytest.approx(0.5 * (0.2 + 1.5) ** 2, abs=1e-9)


def test_bernoulli_interior_matches_relative_entropy():
    m = preset_model("bernoulli-walk")
    base = bernoulli_base(0.3)
    for v in [0.05, 0.3, 0.5, 0.9]:
        r = fenchel(m, np.zeros(1), np.array([v]))
        assert r.status == CONVERGED
        assert r.value == pytest.approx(base.conjugate(np.array([v])), abs=1e-9)


def test_bernoulli_outside_support_diverges():
    m = preset_model("bernoulli-walk")
    r = fenchel(m, np.zeros(1), np.array([1.3]))
    assert r.status == DIVERGENT
    assert r.value > 1e2


def test_closed_form_helper_matches_numeric():
    rng = default_rng(7)
    m = preset_model("gaussian-ou")
    for _ in range(20):
        y = rng.normal(size=1)
        z = rng.normal(size=1)
        direct = fenchel_closed_form_affine(m, y, z)
        numeric = fenchel(m, y, z).value
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
    d = mean_norm_bound(m, [np.zeros(1)])
    assert r.value <= perturbed_conjugate_bound(0.5, np.array([2.5]), d) + 1e-9


def test_perturbed_bound_formula():
    assert perturbed_conjugate_bound(0.5, np.array([2.0]), 1.0) == pytest.approx(
        (2.0 + 1.0) ** 2 / (2 * 0.25), abs=1e-12
    )


def test_mean_norm_bound_headroom():
    m = preset_model("gaussian-ou")
    states = [np.array([1.0]), np.array([-3.0])]
    # increment means are -y: sup norm 3, headroom 1.1
    assert mean_norm_bound(m, states) == pytest.approx(3.3, abs=1e-12)


def test_warm_start_converges_fast():
    m = preset_model("gaussian-ou")
    y, z = np.array([0.5]), np.array([1.2])
    cold = fenchel(m, y, z)
    warm = fenchel(m, y, z, x0=cold.argmax)
    assert warm.value == pytest.approx(cold.value, abs=1e-12)
    assert warm.iterations <= cold.iterations


def test_finite_difference_hessian_fallback():
    src = preset_model("gaussian-ou")
    stripped = KernelModel(
        dim=1, sampler=src.sampler, cgf=src.cgf, cgf_grad=src.cgf_grad, cgf_hess=None, summary="nohess"
    )
    y, z = np.array([0.8]), np.array([0.4])
    assert fenchel(stripped, y, z).value == pytest.approx(fenchel(src, y, z).value, abs=1e-7)


def test_max_iterations_returns_best_so_far():
    m = preset_model("gaussian-free")
    s = ConjugateSettings(max_iter=1)
    r = fenchel(m, np.zeros(1), np.array([3.0]), settings=s)
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
    base = bernoulli_base(0.3)
    r = dominating_point_halfspace(m, np.zeros(1), np.array([1.0]), 0.6)
    assert r.point[0] == pytest.approx(0.6, abs=1e-8)
    assert r.level == pytest.approx(base.conjugate(np.array([0.6])), abs=1e-8)


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
    conj = fenchel(m, yv, np.array([z])).value
    assert cgf(m, yv, np.array([a])) + conj >= a * z - 1e-9


def test_two_dimensional_anisotropic():
    s = np.array([[1.0, 0.3], [0.0, 2.0]])
    m = affine_model(2, constant_drift(np.array([0.1, -0.2])), s, gaussian_base(), summary="g2")
    rng = default_rng(11)
    for _ in range(10):
        z = rng.normal(size=2)
        assert fenchel(m, np.zeros(2), z).value == pytest.approx(
            fenchel_closed_form_affine(m, np.zeros(2), z), abs=1e-7
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
def test_fenchel_rows_rows_are_independent(max_iter):
    # bernoulli-walk: z = 0.3 is the mean (converged at once), z in (0, 1)
    # converges, z = 1.5 and -0.5 lie outside the support (divergent after
    # 12 steps), the boundary values 0 and 1 converge slowly (20+ steps);
    # capping the iterations turns the slow rows into max-iterations rows
    m = preset_model("bernoulli-walk")
    s = ConjugateSettings(max_iter=max_iter)
    zs = np.array([0.3, 1.5, 0.05, 0.6, 1.0, 0.0, -0.5, 0.9, 0.999])[:, None]
    ys = np.zeros_like(zs)
    rows = fenchel_rows(m, ys, zs, settings=s)
    for i in range(len(zs)):
        _assert_same_row(rows, i, fenchel(m, ys[i], zs[i], settings=s))
    expected = {200: {CONVERGED, DIVERGENT}, 15: {CONVERGED, DIVERGENT, MAX_ITERATIONS}, 1: {CONVERGED, MAX_ITERATIONS}}
    assert set(rows.status) == expected[max_iter]
    # dropping the divergent neighbours changes no other row
    keep = np.abs(zs[:, 0] - 0.5) <= 0.5
    alone = fenchel_rows(m, ys[keep], zs[keep], settings=s)
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
