"""Hilbert space data: index order, orthonormality, kernels, serialization."""

import numpy as np
import pytest

from berezin import geometry, hilbert, quadrature
from berezin.errors import DimensionMismatch, IndexOutOfRange
from conftest import sample_ball, admissible


def test_index_enumeration_graded_lex():
    assert hilbert.enumerate_indices(2, 2) == [
        (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert hilbert.enumerate_indices(1, 3) == [(0,), (1,), (2,), (3,)]
    with pytest.raises(ValueError):
        hilbert.enumerate_indices(0, 2)
    with pytest.raises(ValueError):
        hilbert.enumerate_indices(1, -1)


def test_build_basis_counts(basis):
    spec = basis(1, 4)
    assert spec.N == 5
    assert spec.hbar == pytest.approx(0.25)
    assert spec.level == 1
    assert basis(2, 16).N == 153
    assert basis(3, 2).N == 10
    assert basis(1, 13).level == 4


def test_build_basis_rejections():
    with pytest.raises(ValueError):
        hilbert.build_basis(0, 4)
    with pytest.raises(ValueError):
        hilbert.build_basis(1, 0)


def test_normalization_constants(basis):
    for m in (1, 4, 9):
        assert basis(1, m).c_m == pytest.approx((m + 1) / (2 * np.pi), rel=1e-15)
    m = 5
    assert basis(2, m).c_m == pytest.approx(
        (m + 1) * (m + 2) / (2 * np.pi) ** 2, rel=1e-15)


def test_squared_norms_match_moments(basis):
    # c_m * moment(I) is the squared norm entry for every index
    for d, m in ((1, 4), (2, 3)):
        spec = basis(d, m)
        for k, idx in enumerate(spec.indices):
            want = spec.c_m * quadrature.moment(idx, m, d)
            assert spec.D[k] == pytest.approx(want, rel=1e-13)


def test_basis_eval_monomial_form(basis, rng):
    spec = basis(1, 4)
    mu = [0.3 - 0.5j]
    # Psi_q = z^q / sqrt(D_q) with 1/D_q the binomial coefficient
    for q in range(5):
        want = mu[0] ** q / np.sqrt(spec.D[q])
        assert hilbert.basis_eval(spec, (q,), mu) == pytest.approx(want, rel=1e-14)
    # every index at d = 2, 3 against the direct product mu^I / sqrt(D_I)
    for d, m in ((2, 7), (3, 5)):
        spec = basis(d, m)
        pts = sample_ball(rng, d, 2.0, 20)
        want = np.prod(pts[:, None, :] ** np.array(spec.indices)[None], axis=2) / np.sqrt(spec.D)
        assert np.allclose(hilbert.eval_matrix(spec, pts), want, rtol=1e-13, atol=0)


def test_position_lookup(basis):
    spec = basis(2, 2)
    assert spec.position((1, 1)) == 4
    with pytest.raises(IndexOutOfRange):
        spec.position((3, 0))


def test_eval_matrix_shapes(basis, rng):
    spec = basis(2, 3)
    pts = sample_ball(rng, 2, 1.0, 7)
    mat = hilbert.eval_matrix(spec, pts)
    assert mat.shape == (7, spec.N)
    hat = hilbert.eval_matrix_normalized(spec, pts)
    s = np.sum(np.abs(pts) ** 2, axis=1)
    assert np.allclose(hat, mat * (1.0 + s[:, None]) ** (-spec.m / 2.0), rtol=1e-13)
    with pytest.raises(DimensionMismatch):
        hilbert.eval_matrix(spec, np.ones((3, 5)))


def test_gram_matrix_identity():
    for d, m in ((1, 8), (2, 4), (1, 1), (1, 128), (2, 16), (3, 4), (3, 5)):
        spec = hilbert.build_basis(d, m)  # fresh: large tables are not kept
        dev = np.max(np.abs(hilbert.gram_matrix(spec) - np.eye(spec.N)))
        assert dev <= 1e-13


def test_gram_matrix_identity_at_m256():
    # The unit-lift rows stay finite past m = 167, where raw powers overflowed.
    # The deviation is quadrature rounding over 33,153 nodes and N = 257
    # (6.6e-13 measured), so this level has its own bound.
    spec = hilbert.build_basis(1, 256)
    dev = np.max(np.abs(hilbert.gram_matrix(spec) - np.eye(spec.N)))
    assert dev <= 1e-12


@pytest.mark.parametrize("d, m", [(1, 256), (1, 512), (2, 64), (3, 16)])
def test_normalized_rows_are_unit_vectors(d, m):
    # sum_I |ehat_I(nu)|^2 = |zeta(nu)|^(2m) = 1 for every nu, at every m.
    spec = hilbert.build_basis(d, m)
    rng = np.random.default_rng(d * 1000 + m)
    radii = np.logspace(-3, 3, 61)
    dirs = rng.normal(size=(61, d)) + 1j * rng.normal(size=(61, d))
    pts = dirs / np.linalg.norm(dirs, axis=1)[:, None] * radii[:, None]
    ehat = hilbert.eval_matrix_normalized(spec, pts)
    assert np.all(np.isfinite(ehat))
    assert np.max(np.abs(np.sum(np.abs(ehat) ** 2, axis=1) - 1.0)) <= 1e-12


def test_normalized_pairing_closed_form(rng):
    nu = sample_ball(rng, 2, 3.0, 5)
    mu = sample_ball(rng, 2, 3.0, 4)
    want = ((1.0 + nu @ mu.conj().T)
            / np.sqrt(np.outer(1.0 + np.sum(np.abs(nu) ** 2, axis=1),
                               1.0 + np.sum(np.abs(mu) ** 2, axis=1))))
    assert np.allclose(hilbert.normalized_pairing(nu, mu), want, rtol=0, atol=1e-15)


def test_gram_needs_adequate_level():
    # negative control: a too-coarse rule must visibly break orthonormality
    spec = hilbert.build_basis(1, 12, level=1)
    dev = np.max(np.abs(hilbert.gram_matrix(spec) - np.eye(spec.N)))
    assert dev > 1e-6


def test_inner_product_hermitian(basis):
    spec = basis(1, 6)

    def f(pts):
        e = hilbert.eval_matrix(spec, pts)
        return e[:, 1] + 0.3j * e[:, 4]

    def g(pts):
        e = hilbert.eval_matrix(spec, pts)
        return e[:, 0] - 2.0 * e[:, 3]

    fg = hilbert.inner_product(spec, f, g)
    gf = hilbert.inner_product(spec, g, f)
    assert fg == pytest.approx(np.conj(gf), abs=1e-12)
    norm = hilbert.inner_product(spec, f, f)
    assert norm.real == pytest.approx(1.0 + 0.09, rel=1e-12)
    assert abs(norm.imag) <= 1e-14


def test_coherent_state_expansion(basis, rng):
    spec = basis(2, 8)
    for _ in range(5):
        mu = sample_ball(rng, 2, 1.2, 1)[0]
        nu = sample_ball(rng, 2, 1.2, 1)[0]
        if not admissible(mu, nu):
            continue
        coeffs = hilbert.coherent_coeffs(spec, mu)
        row = hilbert.eval_matrix(spec, nu)[0]
        assert complex(coeffs @ row) == pytest.approx(
            hilbert.coherent_eval(spec, mu, nu), rel=1e-12)


def test_parseval_for_coherent_states(basis):
    spec = basis(1, 10)
    nu = [0.7 - 0.4j]
    coeffs = hilbert.coherent_coeffs(spec, nu)
    norm2 = float(np.vdot(coeffs, coeffs).real)
    s = abs(nu[0]) ** 2
    assert norm2 == pytest.approx((1.0 + s) ** spec.m, rel=1e-13)


def test_kernel_diastasis_identity(basis, rng):
    spec = basis(2, 6)
    for _ in range(5):
        mu = sample_ball(rng, 2, 1.0, 1)[0]
        nu = sample_ball(rng, 2, 1.0, 1)[0]
        if not admissible(mu, nu):
            continue
        prod = (hilbert.kernel_L(spec, mu, nu) * hilbert.kernel_L(spec, nu, mu)
                / (hilbert.kernel_L(spec, mu, mu) * hilbert.kernel_L(spec, nu, nu)))
        want = np.exp(spec.m * geometry.diastasis(mu, nu))
        assert abs(prod.imag) <= 1e-12
        assert prod.real == pytest.approx(want, rel=1e-10)


def test_log_kernel_consistency(basis):
    spec = basis(1, 12)
    mu, nu = [0.8 + 0.1j], [0.5 - 0.6j]
    assert np.exp(hilbert.log_kernel(spec, mu, nu)) == pytest.approx(
        hilbert.kernel_L(spec, mu, nu), rel=1e-12)
    assert hilbert.fs_weight_exponent(spec) == 12 + 1 + 1


def test_section_eval_linear_combination(basis, rng):
    spec = basis(1, 5)
    v = rng.normal(size=spec.N) + 1j * rng.normal(size=spec.N)
    pts = sample_ball(rng, 1, 1.0, 4)
    vals = hilbert.section_eval(spec, v, pts)
    direct = hilbert.eval_matrix(spec, pts) @ v
    assert np.allclose(vals, direct, rtol=1e-14)


def test_reproducing_residual_contract(basis, rng):
    spec = basis(1, 16)
    for _ in range(6):
        v = rng.normal(size=spec.N) + 1j * rng.normal(size=spec.N)
        mu = sample_ball(rng, 1, 1.0, 1)[0]
        value = complex(hilbert.eval_matrix(spec, mu)[0] @ v)
        res = hilbert.reproducing_residual(spec, v, mu)
        assert res <= 1e-8 * (1.0 + abs(value))
    with pytest.raises(DimensionMismatch):
        hilbert.reproducing_residual(spec, np.ones(3), [0.1])


def test_resolution_of_identity_on_basis(basis):
    spec = basis(1, 8)
    eye = np.eye(spec.N)
    for i in range(spec.N):
        for j in range(spec.N):
            assert hilbert.resolution_check(spec, eye[i], eye[j]) <= 1e-12


def test_resolution_on_coherent_pair(basis):
    # growth of the coherent norm sets the advertised tolerance scale
    spec = basis(1, 12)
    nu = [0.9]
    c = hilbert.coherent_coeffs(spec, nu)
    defect = hilbert.resolution_check(spec, c, c)
    assert defect <= 1e-8 * (1.0 + abs(nu[0]) ** 2) ** spec.m


def test_json_roundtrip(basis, tmp_path):
    spec = basis(2, 5)
    text = hilbert.to_json(spec)
    back = hilbert.from_json(text)
    assert back.d == spec.d and back.m == spec.m and back.N == spec.N
    assert back.indices == spec.indices
    assert np.allclose(back.D, spec.D, rtol=0, atol=0)
    assert back.c_m == spec.c_m
    # loaded spec is fully functional
    assert np.max(np.abs(hilbert.gram_matrix(back) - np.eye(back.N))) <= 1e-13

    path = tmp_path / "spec.json"
    hilbert.save_spec(spec, path)
    again = hilbert.load_spec(path)
    assert again.indices == spec.indices

    with pytest.raises(ValueError):
        hilbert.from_json('{"schema": "other/9"}')
