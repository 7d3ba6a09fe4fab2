"""Toeplitz compressions: projections, closed-form matrix elements, sweeps."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from berezin import geometry, hilbert, operators, quadrature, toeplitz
from berezin.errors import NonFiniteIntegrand
from berezin.functions import REGISTRY, get_function
from conftest import ladder_operator, ladder_registry, layout_nodes, moment_matrix, sample_ball


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


def dense_compress(spec, nd, values, rows=20_000):
    """c_m E^H diag(wcore v) E over the node table E, summed in blocks of rows.

    E = R (x) Phi: row r * n_theta^d + k is R[r] times the characters
    exp(i I . theta_k), their phases (k . I) mod n_theta in exact integers;
    wcore is the rule weight times (1+s)^(-(d+1)).
    """
    rule, d, n = nd.rule, spec.d, nd.rule.n_theta
    n_ang = n ** d
    k_all = np.indices((n,) * d).reshape(d, -1).T
    modes = spec._exponents[:, :d].T % n
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    _, weights = layout_nodes(rule)
    log1ps = np.log1p(np.sum(rule.radii ** 2, axis=1))
    wcore = weights * np.repeat(np.exp(-(d + 1.0) * log1ps), n_ang)
    out, R = np.zeros((spec.N, spec.N), dtype=complex), nd.radial(0, rule.radii.shape[0])
    for lo in range(0, rule.node_count, rows):
        hi = min(lo + rows, rule.node_count)
        r, k = np.divmod(np.arange(lo, hi), n_ang)
        E = roots[(k_all[k] @ modes) % n] * R[r]
        out += (E.conj().T * (wcore[lo:hi] * values[lo:hi])) @ E
    return spec.c_m * out


def test_assembly_matches_two_copy_reference(basis):
    # The assembly against the dense sum over the same node table, at the
    # default level and at one level below it, where n_theta = 5 <= m and
    # every mode also reaches its aliases.  Both sides are sums whose
    # absolute terms add up to at most sup|f| (the Gram diagonal is 1) over
    # n <= 1.6e5 nodes; float64 rounding of such sums is ~sqrt(n) eps
    # <= 9e-14, so entries must agree to 1e-13.
    def wavy(pts):
        return np.cos(3.0 * pts[:, 0].real) + 1j * np.sin(pts[:, -1].imag)

    declared = (get_function("re_rational"), get_function("im_rational"))
    cases = [(d, m, fn, None) for d, m in [(1, 8), (2, 4), (3, 2), (1, 128), (2, 12), (3, 6)]
             for fn in declared]
    cases += [(2, 8, fn, 1) for fn in declared + (get_function("abs2_rational"),)]
    cases += [(d, m, wavy, None) for d, m in [(1, 64), (2, 6), (3, 4)]]
    for d, m, fn, level in cases:
        spec = basis(d, m) if m <= 8 and d < 3 else hilbert.build_basis(d, m)
        if level is None:
            nd = spec.node_data(toeplitz._default_level(spec, fn))
            got = toeplitz.toeplitz_matrix(spec, fn).mat
        else:
            nd = spec.node_data(level)
            assert nd.rule.n_theta <= m
            got = hilbert._densify(spec, hilbert._compress_bands(spec, nd, fn, fn.modes(d)))
        want = dense_compress(spec, nd, fn(layout_nodes(nd.rule)[0]))
        assert np.max(np.abs(got - want)) <= 1e-13, (d, m, level)


@pytest.mark.parametrize("d, m", [(1, 16), (2, 8), (3, 4)])
def test_registry_declares_its_angular_modes(d, m):
    # On the full node grid, per radial node, the angular Fourier
    # coefficients of every registry function and of the bracket of every
    # registry pair vanish outside the declared modes.  Values are O(1) and
    # a normalized FFT of them errs by ~log(n_theta^d) eps, so the bound
    # 1e-14 was fixed before the first run.
    spec = hilbert.build_basis(d, m)
    fns = list(REGISTRY.values()) + [toeplitz.bracket_function(f, g)
                                     for f, g in itertools.product(REGISTRY.values(), repeat=2)]
    for fn in fns:
        nd = spec.node_data(toeplitz._default_level(spec, fn))
        n_theta = nd.rule.n_theta
        vals = fn(layout_nodes(nd.rule)[0]).reshape((-1,) + (n_theta,) * d)
        coef = np.fft.fftn(vals, axes=tuple(range(1, d + 1))) / n_theta ** d
        outside = np.ones((n_theta,) * d, dtype=bool)
        for k in fn.modes(d):
            outside[tuple(np.mod(k, n_theta))] = False
        assert np.max(np.abs(coef[:, outside])) <= 1e-14, (getattr(fn, "name", fn), d)


def test_declared_functions_never_reach_the_node_loop(basis, monkeypatch):
    # _compress_bands samples f at n_r^d prod_j (2 B_j + 1) points, B_j the
    # largest |k_j| over its modes: registry functions, their brackets and
    # Gram matrices (at, above and below the default level) at fewer points
    # than the rule has nodes.  A plain callable declares no modes and is
    # compressed over every mode of the rule's angles, at n_r^d n_theta^d
    # points, every node once.
    values, seen = quadrature._values, []

    def spy(f, pts):
        seen.append(pts.shape[0])
        return values(f, pts)

    def sampled(fn, *args):
        seen.clear()
        return fn(*args), sum(seen)

    monkeypatch.setattr(quadrature, "_values", spy)
    for d, m in ((1, 8), (2, 5), (3, 3)):
        spec = hilbert.build_basis(d, m)
        fns = list(REGISTRY.values()) + [toeplitz.bracket_function(f, g)
                                         for f, g in itertools.product(REGISTRY.values(), repeat=2)]
        for fn in fns:
            rule = spec.node_data(toeplitz._default_level(spec, fn)).rule
            want = rule.radii.shape[0] * math.prod(
                2 * max(abs(k[j]) for k in fn.modes(d)) + 1 for j in range(d))
            assert sampled(toeplitz.toeplitz_matrix, spec, fn)[1] == want < rule.node_count
        for level in {1, spec.level, spec.level + 1}:
            nd = spec.node_data(level)
            assert sampled(lambda: nd.gram)[1] == nd.rule.radii.shape[0]

    def one(pts):
        return np.ones(pts.shape[0])

    for d, m in ((1, 4), (2, 3), (3, 2)):
        spec = basis(d, m)
        rule = spec.node_data(toeplitz._default_level(spec, one)).rule
        op, count = sampled(toeplitz.toeplitz_matrix, spec, one)
        assert count == rule.node_count and op.bands is None and op.adjoint_sign == 0


@pytest.mark.parametrize("d, m", [(1, 64), (1, 128), (2, 24), (3, 8)])
def test_block_norms_match_the_svd(d, m):
    # Norms of Hermitian operators and of anti-Hermitian commutator defects
    # from per-block eigenvalues of blocks scattered from the bands (the
    # defect's from band products), against the SVD of the densified
    # operators; the bound 1e-13 was fixed before the first run.
    spec = hilbert.build_basis(d, m)
    for f, g in (("abs2_rational", "im_rational"), ("re_rational", "im_rational")):
        f, g = get_function(f), get_function(g)
        tf, tg, tb = (toeplitz.toeplitz_matrix(spec, h)
                      for h in (f, g, toeplitz.bracket_function(f, g)))
        for op in (tf, tg, tb):
            assert op.adjoint_sign == 1 and op.bands is not None
            want = np.linalg.norm(op.mat, 2)
            assert toeplitz.operator_norm(op) == pytest.approx(want, rel=1e-13, abs=0)
        want = np.linalg.norm(m * (tf.mat @ tg.mat - tg.mat @ tf.mat) - 1j * tb.mat, 2)
        assert toeplitz.commutator_defect(spec, f, g) == pytest.approx(want, rel=1e-13, abs=0)


@pytest.mark.parametrize("d, m", [(1, 7), (2, 8), (3, 5), (4, 3)])
@pytest.mark.parametrize("raise_level", [0, 1])
def test_registry_operators_match_the_ladder_reference(d, m, raise_level):
    # The five registry Toeplitz operators entrywise against the su(d+1)
    # ladder form (conftest.ladder_bands), which needs no quadrature, at the
    # default rule and one level above it; then the banded commutator
    # [T_abs2, T_im] against the ladder commutator, and T_{abs2, im} = -T_re
    # (brackets of moment maps are moment maps).  Entries are O(1) sums of at
    # most three products; the bound 1e-14 was fixed before the first run.
    spec = hilbert.build_basis(d, m)
    if raise_level:
        top = max(toeplitz._default_level(spec, f) for f in REGISTRY.values())
        spec = hilbert.build_basis(d, m, level=top + 1)
    want = ladder_registry(spec)
    ops = {name: toeplitz.toeplitz_matrix(spec, f) for name, f in REGISTRY.items()}
    for name, op in ops.items():
        assert np.max(np.abs(op.mat - want[name])) <= 1e-14, name
    comm = operators.commutator(ops["abs2_rational"], ops["im_rational"])
    assert comm.bands is not None and comm.adjoint_sign == -1
    la, li = want["abs2_rational"], want["im_rational"]
    assert np.max(np.abs(comm.mat - (la @ li - li @ la))) <= 1e-14
    tb = toeplitz.toeplitz_matrix(spec, toeplitz.bracket_function(get_function("abs2_rational"),
                                                                  get_function("im_rational")))
    assert np.max(np.abs(tb.mat + want["re_rational"])) <= 1e-14


@pytest.mark.parametrize("d, m, raise_level", [(1, 7, 0), (1, 7, 1), (2, 8, 0), (2, 8, 1),
                                                (3, 5, 0), (3, 5, 1), (4, 3, 0)])
def test_registry_brackets_match_the_ladder_reference(rng, d, m, raise_level):
    # Brackets of moment maps are moment maps: with f = x^H A_f x on the unit
    # lift, {f, g} = x^H C x for C = i [A_f, A_g].  Each of the 25 registry
    # brackets is checked pointwise against that form first, then T_{f,g}
    # entrywise against its ladder operator (conftest.ladder_operator), at
    # the brackets' default rule and, below d = 4, one level above it.
    # {re, im} = (|x_1|^2 - |x_h|^2) / 2 is no registry function at d >= 2.
    # Both bounds, 1e-13, were fixed before the first run.
    spec = hilbert.build_basis(d, m)
    if raise_level:  # {re, im} has the largest weight degree, 3
        top = toeplitz._default_level(spec, toeplitz.bracket_function(REGISTRY["re_rational"],
                                                                      REGISTRY["im_rational"]))
        spec = hilbert.build_basis(d, m, level=top + 1)
    pts = sample_ball(rng, d, 2.0, 50)
    x = hilbert.unit_lift(pts)
    for (fname, f), (gname, g) in itertools.product(REGISTRY.items(), repeat=2):
        a_f, a_g = moment_matrix(fname, d), moment_matrix(gname, d)
        c = 1j * (a_f @ a_g - a_g @ a_f)
        bracket = toeplitz.bracket_function(f, g)
        want = np.einsum("na,ab,nb->n", x.conj(), c, x)
        assert np.max(np.abs(bracket(pts) - want)) <= 1e-13, (fname, gname)
        got = toeplitz.toeplitz_matrix(spec, bracket).mat
        assert np.max(np.abs(got - ladder_operator(spec, c))) <= 1e-13, (fname, gname)


# (d, m, relative bound), fixed before the first run: those of the abs2 norm
# law (test_norm_saturation_closed_form), 1e-12, and 3e-12 at d = 1 m = 256,
# where the quadrature rounding floor is 1.4e-12.
RE_IM_NORM_CASES = ([(1, m, 1e-12) for m in (8, 16, 32, 64, 128)] + [(1, 256, 3e-12)]
                    + [(2, m, 1e-12) for m in (4, 8, 12, 16, 24)]
                    + [(3, m, 1e-12) for m in (3, 4, 5, 8)])


@pytest.mark.parametrize("d, m, rel", RE_IM_NORM_CASES)
def test_re_im_norm_law(d, m, rel):
    # ||T_re|| = ||T_im|| = m / (2 (m + d + 1)), the spin-m/2 spectrum of the
    # ladder form, so sup |re| - ||T_re|| = (d + 1) / (2 (m + d + 1)).
    spec = hilbert.build_basis(d, m)  # fresh: large tables are not kept
    for name in ("re_rational", "im_rational"):
        got = toeplitz.operator_norm(toeplitz.toeplitz_matrix(spec, get_function(name)))
        assert got == pytest.approx(m / (2.0 * (m + d + 1)), rel=rel, abs=0), name


def test_re_sweep_norm_defect_column():
    # The toeplitz-sweep norm defect of re_rational is (d + 1) / (2 (m + d + 1)):
    # sup |re| = 1/2 is hit exactly by the sup grid (nu = 1), and the norms
    # agree with their law to 1e-12 relative, so 1e-13 absolute was fixed
    # before the first run.
    d = 2
    res = toeplitz.toeplitz_sweep(get_function("re_rational"), get_function("im_rational"),
                                  [4, 16], d=d)
    for m, _, defect, _ in res.rows:
        assert defect == pytest.approx((d + 1) / (2.0 * (m + d + 1)), rel=0, abs=1e-13)


@pytest.mark.parametrize("d, m", [(1, 16), (2, 8), (3, 5)])
def test_anti_hermitian_bands_are_normed_per_block(monkeypatch, d, m):
    # A banded anti-Hermitian A (a commutator of two Hermitian band
    # operators) takes the block norm of the Hermitian 1j * A and is never
    # densified; the dense SVD is the reference, bound 1e-13 relative fixed
    # before the first run.
    spec = hilbert.build_basis(d, m)
    ops = {name: toeplitz.toeplitz_matrix(spec, get_function(name))
           for name in ("abs2_rational", "re_rational", "im_rational")}
    comms = [operators.commutator(ops[f], ops["im_rational"])
             for f in ("abs2_rational", "re_rational")]
    with monkeypatch.context() as mp:
        mp.setattr(hilbert, "_densify", lambda *a: pytest.fail("densified"))
        for comm in comms:
            assert comm.adjoint_sign == -1 and comm.bands is not None
        got = [toeplitz.operator_norm(comm) for comm in comms]
    for norm, comm in zip(got, comms):
        assert norm == pytest.approx(np.linalg.norm(comm.mat, 2), rel=1e-13, abs=0)


def test_toeplitz_matrix_type(basis):
    spec = basis(1, 4)
    op = toeplitz.toeplitz_matrix(spec, get_function("abs2_rational"))
    assert isinstance(op, operators.OperatorMatrix)
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


# Every REGISTRY function is real-valued; these three are also nonnegative.
NONNEGATIVE = ("one", "abs2_rational", "inv_rational")
# Small (d, m): the session basis cache keeps every table it builds.
SMALL_LEVELS = st.integers(1, 3).flatmap(
    lambda d: st.tuples(st.just(d), st.integers(1, {1: 8, 2: 5, 3: 3}[d])))


@settings(max_examples=30, deadline=None)
@given(level=SMALL_LEVELS, name=st.sampled_from(sorted(REGISTRY)))
@example(level=(1, 8), name="re_rational")
def test_real_function_gives_hermitian(basis, level, name):
    spec = basis(*level)
    op = toeplitz.toeplitz_matrix(spec, get_function(name)).mat
    assert np.max(np.abs(op - op.conj().T)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(level=SMALL_LEVELS, name=st.sampled_from(NONNEGATIVE))
@example(level=(1, 8), name="abs2_rational")
def test_nonnegative_function_gives_nonnegative_operator(basis, level, name):
    spec = basis(*level)
    op = toeplitz.toeplitz_matrix(spec, get_function(name)).mat
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
    # ||T_abs2|| = (m + d) / (m + d + 1).  The d = 1 m = 512 bound was fixed
    # before its first run: the m = 256 floor (1.4e-12) grown with m.  So
    # were those of d = 2 m = 48 and d = 3 m = 12, from the 7.2e-14 that a
    # band-assembly prototype measured up to d = 2 m = 128 and d = 3 m = 32.
    cases = [(d, m, 1e-12) for d, m in ((1, 4), (1, 9), (1, 128), (2, 4), (2, 12),
                                        (2, 24), (2, 48), (3, 3), (3, 5), (3, 12))]
    cases += [(1, 512, 1e-11)]
    for d, m, rel in cases:
        spec = hilbert.build_basis(d, m)  # fresh: large tables are not kept
        t = toeplitz.toeplitz_matrix(spec, get_function("abs2_rational"))
        assert toeplitz.operator_norm(t) == pytest.approx((m + d) / (m + d + 1), rel=rel)


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
        want = [geometry.poisson_bracket(f, g, mu) for mu in pts]
        assert np.max(np.abs(got - want)) <= 1e-13, (f.name, g.name)
    got = toeplitz.bracket_function(get_function("re_rational"),
                                    get_function("im_rational"))(pts)
    s = np.sum(np.abs(pts) ** 2, axis=1)
    expected = -(1.0 - np.abs(pts[:, 0]) ** 2) / (2.0 * (1.0 + s))
    assert np.max(np.abs(got - expected)) <= 1e-13


def test_bracket_function_mixed_arguments_use_differences(rng):
    # a plain callable has no analytic gradients: the central stencil runs
    f = get_function("re_rational")
    g = get_function("im_rational")
    pts = rng.normal(size=(5, 2)) * 0.5 + 1j * rng.normal(size=(5, 2)) * 0.5
    want = toeplitz.bracket_function(f, g)(pts)
    got = toeplitz.bracket_function(f, lambda p: g(p))(pts)
    assert np.max(np.abs(got - want)) <= 1e-7


@pytest.mark.parametrize("d", [1, 2, 3])
def test_plain_callable_bracket_takes_one_stencil(rng, d):
    # 4d calls of the plain callable per evaluation, each on the whole
    # (n, d) stencil array, whatever the number n of points
    f, g = get_function("abs2_rational"), get_function("im_rational")
    shapes = []

    def plain(p):
        shapes.append(p.shape)
        return g(p)

    bracket = toeplitz.bracket_function(f, plain)
    for n in (1, 500):
        pts = sample_ball(rng, d, 0.9, n)
        shapes.clear()
        got = bracket(pts)
        assert shapes == [(n, d)] * (4 * d)
        assert np.max(np.abs(got - toeplitz.bracket_function(f, g)(pts))) <= 1e-7


@pytest.mark.parametrize("d, m", [(1, 8), (2, 6), (2, 12)])
def test_commutator_defect_of_an_array_only_evaluator(basis, d, m):
    # pts[:, 0] reads the first column of an (n, d) array, so this evaluator
    # accepts (n, d) arrays only; its bracket is differenced on the stencil
    # arrays.  Closed form of the abs2/im defect; bound fixed before the run.
    spec = basis(d, m)

    def im(pts):
        return pts[:, 0].imag / (1.0 + np.sum(np.abs(pts) ** 2, axis=1))

    want = (d + 1) * m / (2 * (m + d + 1) ** 2)
    got = toeplitz.commutator_defect(spec, get_function("abs2_rational"), im)
    assert abs(got - want) <= 1e-8 * want


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


# (d, m, relative bound), each bound fixed before the first run: ten times the
# rounding floor measured with the dense assembly where one was known (4e-14
# for d = 1 up to m = 64, 3.4e-13 at m = 128, 1e-14 for d = 2 up to m = 12,
# 12 digits at d = 3), and that floor's growth with m extrapolated beyond
# (m = 512: the m = 256 bound times four).  The d = 2 m >= 32 and d = 3
# m >= 8 bounds are about three times the worst relative error (3.6e-12) that
# a band-assembly prototype measured up to d = 2 m = 128 and d = 3 m = 32.
COMMUTATOR_ORACLE_CASES = (
    [(1, m, 4e-13) for m in (8, 16, 32, 64)]
    + [(1, 128, 4e-12), (1, 256, 1.5e-11), (1, 512, 6e-11)]
    + [(2, m, 1e-13) for m in (4, 8, 12)] + [(2, 16, 1e-12), (2, 24, 1e-12)]
    + [(2, m, 1e-11) for m in (32, 48)]
    + [(3, m, 1e-11) for m in (3, 4, 5, 8, 12)])


@pytest.mark.parametrize("d, m, rel", COMMUTATOR_ORACLE_CASES)
def test_commutator_defect_closed_form_abs2_im(d, m, rel):
    # || m [T_abs2, T_im] - i T_{abs2, im} || = (d + 1) m / (2 (m + d + 1)^2)
    spec = hilbert.build_basis(d, m)  # fresh: large tables are not kept
    got = toeplitz.commutator_defect(spec, get_function("abs2_rational"),
                                     get_function("im_rational"))
    assert got == pytest.approx((d + 1) * m / (2.0 * (m + d + 1) ** 2), rel=rel, abs=0)


def test_norm_sweep_flat_for_identity():
    one = get_function("one")
    res = toeplitz.toeplitz_sweep(one, one, [2, 4, 8])
    for m, nrm, defect, _ in res.rows:
        assert nrm == pytest.approx(1.0, abs=1e-12)
        assert abs(defect) <= 1e-12
    assert res.slope_e0 is None  # no positive errors to fit


def test_norm_sweep_saturation():
    for name in ("abs2_rational", "inv_rational"):
        fn = get_function(name)
        res = toeplitz.toeplitz_sweep(fn, fn, [4, 8, 16])
        defects = [r[2] for r in res.rows]
        for (m, nrm, defect, _) in res.rows:
            assert defect == pytest.approx(1.0 / (m + 2), rel=1e-9)
        assert defects[0] > defects[1] > defects[2] > 0.0
        assert res.slope_e0 == pytest.approx(-np.log(3.0) / np.log(4.0), abs=0.02)


def test_commutator_sweep_rows():
    res = toeplitz.toeplitz_sweep(get_function("re_rational"),
                                  get_function("im_rational"), [4, 8, 16])
    for m, _, _, defect in res.rows:
        assert defect == pytest.approx(m / (m + 2) ** 2, rel=1e-8)
    assert res.slope_e1 is not None and res.slope_e1 < -0.4


def test_sup_estimate_exact_on_bundled_family():
    for name, fn in REGISTRY.items():
        for d in (1, 2, 3):
            est = toeplitz.sup_estimate(fn, d)
            assert abs(est - fn.sup_exact) <= 1e-11, (name, d)


def test_sup_estimate_samples_every_angle_without_modes():
    # |Im nu_2| / (1 + |nu|^2) peaks at nu = (0, i), off theta_2 = 0; a plain
    # callable declares no modes, so all 16 angles of every dimension are read.
    def f(pts):
        return np.abs(pts[:, 1].imag) / (1.0 + np.sum(np.abs(pts) ** 2, axis=1))

    assert toeplitz.sup_estimate(f, 2) == pytest.approx(0.5, abs=1e-12)


def test_plain_callable_sup_grid_walks_node_block_budget():
    # The d = 3 grid of a plain callable has 17^3 16^3 = 20M points (1 GB
    # as one array); it is walked in blocks of quadrature._BLOCK_BYTES of
    # points, so the traced peak stays within 3 MiB, the bound fixed before
    # the first run.
    def f(pts):
        return np.abs(pts[:, 0]) / (1.0 + np.sum(np.abs(pts) ** 2, axis=1))

    tracemalloc.start()
    try:
        sup = toeplitz.sup_estimate(f, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sup == 0.5 and peak <= 3 * 2 ** 20, (sup, peak)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_a_function_with_no_modes_compresses_to_no_bands(d):
    # A function that declares no angular mode (here the zero function) has
    # an operator with no band: its norm is 0, and so is its commutator
    # defect against abs2_rational, whose bracket with it has no mode either.
    def zero(pts):
        return np.zeros(pts.shape[0])

    zero.modes, zero.real = (lambda d: ()), True
    spec = hilbert.build_basis(d, 4)
    op = toeplitz.toeplitz_matrix(spec, zero)
    assert op.bands == {} and toeplitz.operator_norm(op) == 0.0
    assert toeplitz.commutator_defect(spec, zero, REGISTRY["abs2_rational"]) == 0.0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_a_function_with_no_modes_is_never_sampled(d):
    # No mode reaches a band, so the compression returns before it samples
    # f at the rule's radial points (1,000 evaluations at d = 3, m = 12).
    calls = []

    def zero(pts):
        calls.append(len(pts))
        return np.zeros(pts.shape[0])

    zero.modes, zero.real = (lambda d: ()), True
    op = toeplitz.toeplitz_matrix(hilbert.build_basis(d, 12), zero)
    assert op.bands == {} and calls == []


@pytest.mark.parametrize("fill", [np.nan, np.inf])
def test_sup_estimate_refuses_a_non_finite_sample(fill):
    # Python's max(best, nan) keeps best, so a NaN block read a sup of 0.0;
    # a non-finite sample is refused and named, as quadrature.integrate does.
    def f(pts):
        return np.where(np.abs(pts[:, 0]) > 1e3, fill, 0.5)

    for d in (1, 2):
        with pytest.raises(NonFiniteIntegrand, match="sup grid point"):
            toeplitz.sup_estimate(f, d)


def test_sweep_reads_only_the_declared_angles(monkeypatch):
    # Registry functions declare their modes: the commutator defect is formed
    # from bands and normed per block (no dense commutator: nothing is
    # densified), and the sup grid samples 16 angles only in the first
    # dimension (17^d * 16 points at most).
    def refuse(*args):
        raise AssertionError("dense commutator")

    monkeypatch.setattr(hilbert, "_densify", refuse)
    sampled = []
    sup_estimate = toeplitz.sup_estimate

    def counting_sup(f, d):
        def evaluator(pts):
            sampled.append(len(pts))
            return f.evaluator(pts)
        return sup_estimate(dataclasses.replace(f, evaluator=evaluator), d)

    monkeypatch.setattr(toeplitz, "sup_estimate", counting_sup)
    d = 2
    for f in REGISTRY.values():
        for g in REGISTRY.values():
            sampled.clear()
            toeplitz.toeplitz_sweep(f, g, [2, 4], d=d)
            assert 0 < sum(sampled) <= 17 ** d * 16, (f.name, g.name)
