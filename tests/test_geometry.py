"""Chart geometry: potential, metric, diastasis, Wirtinger calculus, bracket."""

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berezin import geometry, operators, toeplitz
from berezin.errors import DerivativeFailure, DimensionMismatch, SingularPair
from berezin.functions import REGISTRY, get_function


def test_as_point_shape_checks():
    p = geometry.as_point(0.3 + 0.2j)
    assert p.shape == (1,)
    with pytest.raises(DimensionMismatch):
        geometry.as_point([1.0, 2.0], d=3)
    with pytest.raises(DimensionMismatch):
        geometry.as_point([[1.0, 2.0]])


def test_pairing_convention():
    # second argument enters conjugated
    w = geometry.pairing([2.0], [1.0j])
    assert w == pytest.approx(1.0 - 2.0j)


def test_potential_values():
    assert geometry.fs_potential([0.0]) == pytest.approx(0.0)
    assert geometry.fs_potential([1.0]) == pytest.approx(np.log(2.0))
    mu = np.array([0.4 - 0.1j, 0.2j])
    nu = np.array([-0.3j, 0.5])
    val = geometry.fs_potential(mu, nu)
    assert val == pytest.approx(np.log(1.0 + np.vdot(nu, mu)))
    # swapping the points conjugates the value
    assert geometry.fs_potential(nu, mu) == pytest.approx(np.conj(val))


def test_potential_rejects_singular_pair():
    with pytest.raises(SingularPair):
        geometry.fs_potential([1.0], [-1.0])


def test_branch_cut_predicate():
    assert geometry.on_branch_cut([2.0], [-1.0])
    assert not geometry.on_branch_cut([1.0], [1.0])
    assert not geometry.on_branch_cut([1.0], [1.0j])


def test_metric_closed_form_d1():
    g = geometry.fs_metric([1.0])
    assert g.shape == (1, 1)
    assert g[0, 0] == pytest.approx(0.25, abs=1e-15)
    assert np.allclose(geometry.fs_metric([0.0, 0.0]), np.eye(2), atol=1e-15)


def test_metric_is_potential_hessian(rng):
    # g_ij must equal d/dmubar_j of the analytic d/dmu_i of the potential
    mu = rng.normal(size=2) * 0.5 + 1j * rng.normal(size=2) * 0.5

    def dmu_component(i):
        def h(w):
            return np.conj(w)[i] / (1.0 + float(np.vdot(w, w).real))
        return h

    g = geometry.fs_metric(mu)
    for i in range(2):
        _, row = geometry.wirtinger(dmu_component(i), mu)
        assert np.allclose(row, g[i], atol=1e-8)


def test_potential_gradient_matches_differences(rng):
    mu = rng.normal(size=2) * 0.4 + 1j * rng.normal(size=2) * 0.4
    dmu, dmubar = geometry.wirtinger(geometry.fs_potential, mu)
    w = 1.0 + float(np.vdot(mu, mu).real)
    assert np.allclose(dmu, np.conj(mu) / w, atol=1e-9)
    assert np.allclose(dmubar, mu / w, atol=1e-9)


def test_metric_inverse_and_form_inverse(rng):
    for d in (1, 2, 3):
        mu = rng.normal(size=d) * 0.8 + 1j * rng.normal(size=d) * 0.8
        g = geometry.fs_metric(mu)
        ginv = geometry.fs_metric_inverse(mu)
        assert np.allclose(g @ ginv, np.eye(d), atol=1e-12)
        om = geometry.fs_form(mu)
        ominv = geometry.fs_form_inverse(mu)
        assert np.allclose(om @ ominv, np.eye(d), atol=1e-12)


def test_metric_determinant_equals_density(rng):
    for d in (1, 2, 3):
        mu = rng.normal(size=d) * 0.7 + 1j * rng.normal(size=d) * 0.7
        det = np.linalg.det(geometry.fs_metric(mu)).real
        assert det == pytest.approx(geometry.volume_density(mu), rel=1e-12)


def test_volume_density_normalization():
    assert geometry.volume_density([0.0]) == pytest.approx(1.0)
    for d in (1, 2):
        mu = np.full(d, 0.5 + 0.5j)
        ratio = geometry.lebesgue_volume_density(mu) / geometry.volume_density(mu)
        assert ratio == pytest.approx(2.0 ** d, rel=1e-15)


def test_diastasis_basic_values():
    assert geometry.diastasis([0.0], [1.0]) == pytest.approx(-np.log(2.0), abs=1e-14)
    mu = np.array([0.2 + 0.3j, -0.1j])
    assert geometry.diastasis(mu, mu) == 0.0  # bitwise at coincidence
    nu = np.array([0.5, 0.4 - 0.2j])
    dv = geometry.diastasis(mu, nu)
    assert isinstance(dv, float)
    assert dv < 0.0
    assert geometry.diastasis(nu, mu) == pytest.approx(dv, abs=1e-14)
    with pytest.raises(SingularPair):
        geometry.diastasis([1.0], [-1.0])


def _im_rows(p):
    """Im mu_1 / (1 + |mu|^2) at one (d,) point or at each row of (n, d) points."""
    return p[..., 0].imag / (1.0 + np.sum(p.real ** 2 + p.imag ** 2, axis=-1))


def _mixed_rows(p):
    # complex-valued from real arithmetic alone, which rounds alike on a
    # (d,) point and on a row of an (n, d) array
    return p[..., 0].real * p[..., -1].imag + 1j * p[..., 0].imag ** 2


def test_wirtinger_exact_on_polynomials(rng):
    z0 = 0.3 - 0.7j

    def f(z):
        return z[0] ** 2 + 3.0 * np.conj(z[1]) + 5.0

    mu = np.array([z0, 0.2 + 0.4j])
    dmu, dmubar = geometry.wirtinger(f, mu)
    assert np.allclose(dmu, [2.0 * z0, 0.0], atol=1e-9)
    assert np.allclose(dmubar, [0.0, 3.0], atol=1e-9)


def test_wirtinger_failure_modes():
    with pytest.raises(DerivativeFailure):
        geometry.wirtinger(lambda z: float("nan"), np.array([0.1]))

    def boom(z):
        raise RuntimeError("no value here")

    with pytest.raises(DerivativeFailure):
        geometry.wirtinger(boom, np.array([0.1]))
    # n points: the coordinate, and the first row whose quotient is not finite
    pts = np.full((6, 2), 0.1 + 0.2j)

    def nan_row(p):
        # NaN at row 3 once the stencil moves coordinate 1
        return np.where((np.arange(6) == 3) & (p[:, 1] != pts[:, 1]), np.nan, _im_rows(p))

    with pytest.raises(DerivativeFailure, match="coordinate 1, row 3"):
        geometry.wirtinger(nan_row, pts)
    with pytest.raises(DerivativeFailure, match="coordinate 0: no value here"):
        geometry.wirtinger(boom, pts)
    with pytest.raises(DerivativeFailure, match="coordinate 0: evaluator returned shape"):
        geometry.wirtinger(lambda p: _im_rows(p)[:-1], pts)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_batched_wirtinger_rows_equal_single_points(rng, d):
    pts = rng.normal(size=(40, d)) * 0.8 + 1j * rng.normal(size=(40, d)) * 0.8
    for f in (_im_rows, _mixed_rows):
        dmu, dmubar = geometry.wirtinger(f, pts)
        assert dmu.shape == dmubar.shape == (40, d)
        for k, mu in enumerate(pts):
            one_mu, one_mubar = geometry.wirtinger(f, mu)
            assert np.array_equal(one_mu, dmu[k]) and np.array_equal(one_mubar, dmubar[k])


def test_declared_gradients_are_never_differenced(basis, rng, monkeypatch):
    def spy(*args):
        raise AssertionError("declared gradients were differenced")

    f, g = get_function("re_rational"), get_function("im_rational")
    spec = basis(2, 6)
    s, t = (operators.CovariantSymbol(toeplitz.toeplitz_matrix(spec, h)) for h in (f, g))
    monkeypatch.setattr(geometry, "wirtinger", spy)
    pts = rng.normal(size=(7, 2)) * 0.5 + 1j * rng.normal(size=(7, 2)) * 0.5
    for mu in (pts, pts[0]):
        assert np.array_equal(geometry.gradients(f, mu)[1], f.grad(mu)[1])
    for a, b in ((f, g), (s, t)):
        assert geometry.poisson_bracket(a, b, pts[0]) == complex(
            geometry.bracket_from_gradients(pts[0], *a.grad(pts[0]), *b.grad(pts[0])))
        assert np.array_equal(toeplitz.bracket_function(a, b)(pts),
                              geometry.bracket_from_gradients(pts, *a.grad(pts), *b.grad(pts)))


def test_bracket_coordinate_pair_at_origin():
    val = geometry.poisson_bracket(lambda z: z[0].real,
                                   lambda z: z[0].imag,
                                   np.array([0.0]))
    assert val == pytest.approx(-0.5, abs=1e-10)


def test_bracket_rational_pair_closed_form(rng):
    f = get_function("re_rational")
    g = get_function("im_rational")
    for d in (1, 2):
        mu = rng.normal(size=d) * 0.6 + 1j * rng.normal(size=d) * 0.6
        s = float(np.vdot(mu, mu).real)
        expected = -(1.0 - abs(mu[0]) ** 2) / (2.0 * (1.0 + s))
        val = geometry.poisson_bracket(f, g, mu)
        assert abs(val.imag) <= 1e-12
        assert val.real == pytest.approx(expected, abs=1e-12)
        # difference path agrees with the analytic one
        fd = geometry.poisson_bracket(lambda p: f(p), lambda p: g(p), mu)
        assert abs(fd - val) <= 1e-7


def test_bracket_antisymmetry(rng):
    f = get_function("abs2_rational")
    g = get_function("re_rational")
    mu = np.array([0.4 + 0.25j])
    ab = geometry.poisson_bracket(f, g, mu)
    ba = geometry.poisson_bracket(g, f, mu)
    assert abs(ab + ba) <= 1e-14
    same = geometry.poisson_bracket(f, f, mu)
    assert abs(same) <= 1e-16


@pytest.mark.parametrize("d", [1, 2, 3])
def test_vectorized_gradients_match_wirtinger_differences(rng, d):
    pts = rng.normal(size=(40, d)) * 0.8 + 1j * rng.normal(size=(40, d)) * 0.8
    for name, fn in REGISTRY.items():
        gmu, gmubar = geometry.gradients(fn, pts)
        assert gmu.shape == gmubar.shape == (40, d), name
        for k, mu in enumerate(pts):
            dmu, dmubar = geometry.wirtinger(fn, mu)
            assert np.max(np.abs(gmu[k] - dmu)) <= 1e-7, name
            assert np.max(np.abs(gmubar[k] - dmubar)) <= 1e-7, name
            # a single (d,) point gives that point's row
            one_mu, one_mubar = geometry.gradients(fn, mu)
            assert np.allclose(one_mu, gmu[k], rtol=0.0, atol=1e-15), name
            assert np.allclose(one_mubar, gmubar[k], rtol=0.0, atol=1e-15), name


@pytest.mark.parametrize("d", [1, 2, 3])
def test_bracket_from_gradients_matches_form_inverse_contraction(rng, d):
    # reference: contract with the explicit inverse form matrix, point by point
    pts = rng.normal(size=(30, d)) * 0.9 + 1j * rng.normal(size=(30, d)) * 0.9
    grads = [rng.normal(size=(30, d)) + 1j * rng.normal(size=(30, d)) for _ in range(4)]
    got = geometry.bracket_from_gradients(pts, *grads)
    assert got.shape == (30,)
    dt_mu, dt_mubar, ds_mu, ds_mubar = grads
    for k, mu in enumerate(pts):
        w = geometry.fs_form_inverse(mu)
        want = ds_mu[k] @ w @ dt_mubar[k] - dt_mu[k] @ w @ ds_mubar[k]
        assert abs(got[k] - want) <= 1e-12 * (1.0 + abs(want))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(1, 3), n=st.integers(1, 8),
       names=st.tuples(st.sampled_from(sorted(REGISTRY)), st.sampled_from(sorted(REGISTRY))))
def test_bracket_antisymmetry_property(data, d, n, names):
    parts = data.draw(hnp.arrays(float, (n, 2 * d),
                                 elements=st.floats(-5.0, 5.0, allow_subnormal=False)))
    pts = parts[:, :d] + 1j * parts[:, d:]
    f, g = (REGISTRY[name] for name in names)

    def bracket(a, b):
        return geometry.bracket_from_gradients(pts, *geometry.gradients(a, pts),
                                               *geometry.gradients(b, pts))

    assert np.array_equal(bracket(f, g), -bracket(g, f))
    assert np.all(bracket(f, f) == 0.0)
    # the single-point API agrees with the vectorized path row by row
    for k in range(n):
        single = geometry.poisson_bracket(f, g, pts[k])
        assert abs(single - bracket(f, g)[k]) <= 1e-13 * (1.0 + abs(single))
