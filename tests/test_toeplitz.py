"""Toeplitz compressions: projections, closed-form matrix elements, sweeps."""

import itertools

import numpy as np
import pytest

from berezin import geometry, hilbert, operators, toeplitz
from berezin.functions import REGISTRY, get_function


def leg_disc_integral(fn, n_u=80, n_t=96):
    """Independent polar rule for chart integrals against 2 dx dy, d = 1.

    Gauss nodes in u = r^2/(1+r^2), trapezoid in angle; the substitution
    gives 2 dx dy = (1+r^2)^2 du dtheta.
    """
    x, w = np.polynomial.legendre.leggauss(n_u)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    r = np.sqrt(u / (1.0 - u))
    th = 2.0 * np.pi * np.arange(n_t) / n_t
    pts = (r[:, None] * np.exp(1j * th)[None, :]).reshape(-1, 1)
    jac = ((1.0 + r ** 2) ** 2 * wu)[:, None] * (2.0 * np.pi / n_t)
    return np.sum(fn(pts).reshape(n_u, n_t) * jac)


def test_identity_and_constant_compressions(basis):
    spec = basis(1, 6)
    t_one = toeplitz.toeplitz_matrix(spec, get_function("one"))
    assert np.max(np.abs(t_one.mat - np.eye(spec.N))) <= 1e-12

    c = 2.5 - 1.0j
    t_c = toeplitz.toeplitz_matrix(spec, lambda pts: np.full(pts.shape[0], c))
    assert np.max(np.abs(t_c.mat - c * np.eye(spec.N))) <= 1e-12


def test_assembly_matches_two_copy_reference(basis):
    # the in-place weighting must give the same bits as the plain expression
    for d, m in [(1, 8), (2, 4), (3, 2)]:
        spec = basis(d, m)
        for fn in (get_function("re_rational"), get_function("im_rational")):
            nd = spec.node_data(toeplitz._default_level(spec, fn))
            want = spec.c_m * ((nd.ehat.conj().T * (nd.wcore * fn(nd.rule.nodes))) @ nd.ehat)
            assert np.array_equal(toeplitz.toeplitz_matrix(spec, fn).mat, want)


def test_toeplitz_matrix_type(basis):
    spec = basis(1, 4)
    op = toeplitz.toeplitz_matrix(spec, get_function("abs2_rational"))
    assert isinstance(op, operators.OperatorMatrix)
    assert op.symbol == "abs2_rational"
    assert op.mat.shape == (spec.N, spec.N)


def test_diagonal_closed_forms_d1(basis):
    m = 4
    spec = basis(1, m)
    t_abs2 = toeplitz.toeplitz_matrix(spec, get_function("abs2_rational")).mat
    t_inv = toeplitz.toeplitz_matrix(spec, get_function("inv_rational")).mat
    for q in range(spec.N):
        assert t_abs2[q, q] == pytest.approx((q + 1) / (m + 2), rel=1e-12)
        assert t_inv[q, q] == pytest.approx((m + 1 - q) / (m + 2), rel=1e-12)
    off = t_abs2 - np.diag(np.diag(t_abs2))
    assert np.max(np.abs(off)) <= 1e-13


def test_diagonal_closed_form_d2(basis):
    m = 3
    spec = basis(2, m)
    t_inv = toeplitz.toeplitz_matrix(spec, get_function("inv_rational")).mat
    for k, idx in enumerate(spec.indices):
        want = (m + 1 - sum(idx)) / (m + 3)
        assert t_inv[k, k] == pytest.approx(want, rel=1e-12)


def test_real_function_gives_hermitian(basis):
    spec = basis(1, 8)
    op = toeplitz.toeplitz_matrix(spec, get_function("re_rational")).mat
    assert np.max(np.abs(op - op.conj().T)) <= 1e-12


def test_nonnegative_function_gives_nonnegative_operator(basis):
    spec = basis(1, 8)
    op = toeplitz.toeplitz_matrix(spec, get_function("abs2_rational")).mat
    assert np.min(np.linalg.eigvalsh(op)) >= -1e-10


def test_compression_is_linear(basis):
    spec = basis(1, 6)
    f = get_function("re_rational")
    g = get_function("abs2_rational")

    def combo(pts):
        return 2.0 * f(pts) - 1.5j * g(pts)
    combo.weight_degree = 1

    t = toeplitz.toeplitz_matrix(spec, combo).mat
    want = (2.0 * toeplitz.toeplitz_matrix(spec, f).mat
            - 1.5j * toeplitz.toeplitz_matrix(spec, g).mat)
    assert np.max(np.abs(t - want)) <= 1e-12


def test_norm_contraction(basis):
    for name, fn in REGISTRY.items():
        for m in (2, 7):
            spec = basis(1, m)
            nrm = toeplitz.operator_norm(toeplitz.toeplitz_matrix(spec, fn))
            assert nrm <= fn.sup_exact + 1e-8, name


def test_norm_saturation_closed_form():
    # ||T_abs2|| = (m + d) / (m + d + 1)
    for d, m in ((1, 4), (1, 9), (1, 128), (2, 4), (2, 12), (3, 3), (3, 5)):
        spec = hilbert.build_basis(d, m)  # fresh: large tables are not kept
        t = toeplitz.toeplitz_matrix(spec, get_function("abs2_rational"))
        assert toeplitz.operator_norm(t) == pytest.approx((m + d) / (m + d + 1), rel=1e-12)


def test_norm_saturation_closed_form_at_m256():
    # ||T_abs2|| = 257/258 past the old d = 1 overflow at m = 167; the
    # quadrature rounding floor here is 1.4e-12, so the bound is 3e-12.
    spec = hilbert.build_basis(1, 256)
    t = toeplitz.toeplitz_matrix(spec, get_function("abs2_rational"))
    assert toeplitz.operator_norm(t) == pytest.approx(257 / 258, rel=3e-12)


def test_operator_norm_examples(rng):
    assert toeplitz.operator_norm(np.eye(7)) == pytest.approx(1.0, abs=1e-14)
    assert toeplitz.operator_norm(np.diag([1.0, -3.0, 2.0])) == pytest.approx(3.0)
    h = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = h + h.conj().T
    want = np.max(np.abs(np.linalg.eigvalsh(h)))
    assert toeplitz.operator_norm(h) == pytest.approx(want, abs=1e-10)


def test_project_returns_section_coefficients(basis, rng):
    spec = basis(1, 5)
    v = rng.normal(size=spec.N) + 1j * rng.normal(size=spec.N)

    def section(pts):
        return hilbert.eval_matrix(spec, pts) @ v
    section.weight_degree = 0

    got = toeplitz.project(spec, section)
    assert np.max(np.abs(got - v)) <= 1e-12

    zero = toeplitz.project(spec, lambda pts: np.zeros(pts.shape[0]))
    assert np.max(np.abs(zero)) == 0.0


def test_project_antiholomorphic_kills_all_modes(basis):
    # conj(z) pairs to zero against every holomorphic mode by angular parity;
    # cross-check the package rule against an independent polar rule.
    m = 4
    spec = basis(1, m)

    def g(pts):
        return np.conj(pts[:, 0])
    g.weight_degree = 1

    got = toeplitz.project(spec, g)
    assert np.max(np.abs(got)) <= 1e-12
    for q in range(spec.N):
        def integrand(pts, q=q):
            e = hilbert.eval_matrix(spec, pts)
            s = np.abs(pts[:, 0]) ** 2
            return (np.conj(e[:, q]) * np.conj(pts[:, 0])
                    * (1.0 + s) ** (-(m + 2.0)))
        oracle = spec.c_m * leg_disc_integral(integrand)
        assert abs(got[q] - oracle) <= 1e-12


@pytest.mark.parametrize("d", [1, 2, 3])
def test_bracket_function_matches_pointwise_bracket(rng, d):
    pts = rng.normal(size=(200, d)) * 0.8 + 1j * rng.normal(size=(200, d)) * 0.8
    for f, g in itertools.product(REGISTRY.values(), repeat=2):
        got = toeplitz.bracket_function(f, g)(pts)
        assert got.shape == (200,)
        want = [geometry.poisson_bracket(f, g, mu, t_grad=(f.grad_mu, f.grad_mubar),
                                         s_grad=(g.grad_mu, g.grad_mubar)) for mu in pts]
        assert np.max(np.abs(got - want)) <= 1e-13, (f.name, g.name)
    got = toeplitz.bracket_function(get_function("re_rational"),
                                    get_function("im_rational"))(pts)
    s = np.sum(np.abs(pts) ** 2, axis=1)
    expected = -(1.0 - np.abs(pts[:, 0]) ** 2) / (2.0 * (1.0 + s))
    assert np.max(np.abs(got - expected)) <= 1e-13


def test_bracket_function_mixed_arguments_use_differences(rng):
    # a plain callable has no analytic gradients: the per-point path runs
    f = get_function("re_rational")
    g = get_function("im_rational")
    pts = rng.normal(size=(5, 2)) * 0.5 + 1j * rng.normal(size=(5, 2)) * 0.5
    want = toeplitz.bracket_function(f, g)(pts)
    got = toeplitz.bracket_function(f, lambda p: g(p))(pts)
    assert np.max(np.abs(got - want)) <= 1e-7


def test_commutator_defect_degenerate_pairs(basis):
    spec = basis(1, 6)
    f = get_function("re_rational")
    assert toeplitz.commutator_defect(spec, f, f) <= 1e-15
    one = get_function("one")
    assert toeplitz.commutator_defect(spec, one, one) <= 1e-15


def test_commutator_defect_closed_form(basis):
    f = get_function("re_rational")
    g = get_function("im_rational")
    for m in (4, 8):
        spec = basis(1, m)
        got = toeplitz.commutator_defect(spec, f, g)
        assert got == pytest.approx(m / (m + 2) ** 2, rel=1e-8)


def test_norm_sweep_flat_for_identity():
    res = toeplitz.norm_sweep(get_function("one"), [2, 4, 8])
    for m, nrm, defect in res.rows:
        assert nrm == pytest.approx(1.0, abs=1e-12)
        assert abs(defect) <= 1e-12
    assert res.slope_e0 is None  # no positive errors to fit


def test_norm_sweep_saturation():
    for name in ("abs2_rational", "inv_rational"):
        res = toeplitz.norm_sweep(get_function(name), [4, 8, 16])
        defects = [r[2] for r in res.rows]
        for (m, nrm, defect) in res.rows:
            assert defect == pytest.approx(1.0 / (m + 2), rel=1e-9)
        assert defects[0] > defects[1] > defects[2] > 0.0
        assert res.slope_e0 == pytest.approx(-np.log(3.0) / np.log(4.0), abs=0.02)


def test_commutator_sweep_rows():
    res = toeplitz.commutator_sweep(get_function("re_rational"),
                                    get_function("im_rational"), [4, 8, 16])
    for m, defect in res.rows:
        assert defect == pytest.approx(m / (m + 2) ** 2, rel=1e-8)
    assert res.slope_e0 is not None and res.slope_e0 < -0.4


def test_sup_estimate_exact_on_bundled_family():
    for name, fn in REGISTRY.items():
        for d in (1, 2):
            est = toeplitz.sup_estimate(fn, d)
            assert abs(est - fn.sup_exact) <= 1e-11, (name, d)
