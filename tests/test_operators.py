"""Operator symbols and the star product on coherent overlaps."""

import itertools
import math

import numpy as np
import pytest

from berezin import geometry, hilbert, operators, quadrature, toeplitz
from berezin.errors import DegenerateKernel, DimensionMismatch
from berezin.functions import REGISTRY, get_function
from conftest import ladder_registry, moment_matrix, sample_ball

try:
    import mpmath
except ImportError:
    mpmath = None


def random_operator(spec, rng):
    mat = rng.normal(size=(spec.N, spec.N)) + 1j * rng.normal(size=(spec.N, spec.N))
    return operators.OperatorMatrix(spec, mat)


def test_operator_algebra(basis, rng):
    spec = basis(1, 4)
    a = random_operator(spec, rng)
    b = random_operator(spec, rng)
    assert np.array_equal((a + b).mat, a.mat + b.mat)
    assert np.array_equal((a - b).mat, a.mat - b.mat)
    assert np.array_equal((a @ b).mat, a.mat @ b.mat)
    assert np.array_equal((2.5j * a).mat, 2.5j * a.mat)
    assert np.array_equal(a.adjoint().mat, a.mat.conj().T)
    with pytest.raises(DimensionMismatch):
        operators.OperatorMatrix(spec, np.zeros((2, 3)))


@pytest.mark.parametrize("d, m, level", [(1, 9, None), (2, 8, None), (3, 5, None),
                                         (1, 9, 1), (2, 8, 1), (3, 5, 1)])
def test_banded_operator_algebra(basis, monkeypatch, d, m, level):
    # +, -, @, scalar *, adjoint and commutator of banded registry operators
    # (re, im, abs2: Hermitian; a holomorphic-mode function: no sign) return
    # bands, densify nothing, list every band in _band_index order and carry
    # the adjoint sign, at the default level and at level 1, where n_theta =
    # 5 <= m and modes alias.  Elementwise results must equal the same
    # arithmetic on the dense forms exactly; products are sums of at most
    # 64 O(1) terms in another order, so their bound 1e-13 was fixed before
    # the first run.
    spec = basis(d, m)
    e1 = (1,) + (0,) * (d - 1)

    def holo(pts):
        return pts[:, 0] / (1.0 + np.sum(np.abs(pts) ** 2, axis=1))

    holo.modes = lambda dim: (e1,)
    fns = [get_function(n) for n in ("re_rational", "im_rational", "abs2_rational")] + [holo]
    if level is None:
        ops = [toeplitz.toeplitz_matrix(spec, f) for f in fns]
    else:
        nd = spec.node_data(level)
        assert nd.rule.n_theta <= m
        ops = [operators.OperatorMatrix(spec, bands=hilbert._compress_bands(spec, nd, f, f.modes(d)),
                                        adjoint_sign=int(f is not holo)) for f in fns]
    ops.append(operators.identity_operator(spec))
    mats = [op.mat.copy() for op in ops]
    assert [op.adjoint_sign for op in ops] == [1, 1, 1, 0, 1]
    assert list(ops[-1].bands) == [(0,) * d] and np.array_equal(mats[-1], np.eye(spec.N))

    def refuse(*args):
        raise AssertionError("densified")

    monkeypatch.setattr(hilbert, "_densify", refuse)
    results = []  # (operator, dense reference, adjoint sign, exact)
    for (a, ma), (b, mb) in itertools.product(zip(ops, mats), repeat=2):
        same = a.adjoint_sign if a.adjoint_sign == b.adjoint_sign else 0
        results += [(a + b, ma + mb, same, True), (a - b, ma - mb, same, True),
                    (a @ b, ma @ mb, 0, False),
                    (operators.commutator(a, b), ma @ mb - mb @ ma,
                     -a.adjoint_sign * b.adjoint_sign, False)]
    for a, ma in zip(ops, mats):
        s = a.adjoint_sign
        results += [(2.5 * a, 2.5 * ma, s, True), (-2.5j * a, -2.5j * ma, -s, True),
                    ((1.0 - 2.0j) * a, (1.0 - 2.0j) * ma, 0, True)]
        adj = a.adjoint()
        results.append((adj, ma.conj().T, s, True))
        assert set(adj.bands) == {tuple(-q for q in delta) for delta in a.bands}
    for op, _, _, _ in results:
        assert op.bands is not None
        for delta, (rows, cols, vals) in op.bands.items():
            want_rows, want_cols = hilbert._band_index(spec, delta)
            assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
            assert vals.shape == rows.shape
    monkeypatch.undo()
    for op, want, sign, exact in results:
        assert op.adjoint_sign == sign
        if exact:
            assert np.array_equal(op.mat, want)
        else:
            assert np.max(np.abs(op.mat - want)) <= 1e-13


def test_operator_from_banded_symbol_stays_banded(basis):
    # G A G with the Gram bands: banded for a banded A, and A back (G = 1 to
    # rounding at the default level; entries O(1), bound fixed at 1e-13).
    spec = basis(2, 6)
    op = toeplitz.toeplitz_matrix(spec, get_function("re_rational"))
    back = operators.operator_from_symbol(spec, operators.CovariantSymbol(op))
    assert back.bands is not None
    assert np.max(np.abs(back.mat - op.mat)) <= 1e-13


def test_operations_reject_mixed_specs(basis, rng):
    a = random_operator(basis(1, 4), rng)
    b = random_operator(basis(1, 5), rng)
    with pytest.raises(DimensionMismatch):
        _ = a + b
    with pytest.raises(DimensionMismatch):
        operators.star_product(a, b, [0.1])


def test_identity_symbol_is_one(basis, rng):
    spec = basis(2, 6)
    ident = operators.identity_operator(spec)
    pts = sample_ball(rng, 2, 1.3, 5)
    diag = operators.CovariantSymbol(ident)(pts)
    assert np.allclose(diag, 1.0, atol=1e-13)
    assert operators.symbol_eval(ident, pts[0], pts[1]) == pytest.approx(1.0, abs=1e-12)
    # high levels: what^m is taken by repeated squaring (hilbert._power), where
    # numpy's ** would take a complex log and exp.  Points within 0.02 of one
    # centre keep |what|^m near 1.  Bound fixed before the first run.
    for d, m in [(1, 100), (1, 512), (2, 100)]:
        ident = operators.identity_operator(basis(d, m))
        pts = 0.3 + 0.2j + 0.01 * (rng.normal(size=(12, d)) + 1j * rng.normal(size=(12, d)))
        vals = operators.CovariantSymbol(ident).cross(pts, pts[::-1])
        assert vals.shape == (12, 12)
        assert np.max(np.abs(vals - 1.0)) <= 1e-11, (d, m)


def test_rank_one_symbol_closed_form(basis):
    # A = |Psi_0><Psi_1| at m = 1: symbol is conj(mu) / (1 + nu conj(mu))
    spec = basis(1, 1)
    mat = np.zeros((2, 2), dtype=complex)
    mat[0, 1] = 1.0
    op = operators.OperatorMatrix(spec, mat)
    nu, mu = 0.5, 0.4 - 0.3j
    want = np.conj(mu) / (1.0 + nu * np.conj(mu))
    assert operators.symbol_eval(op, [nu], [mu]) == pytest.approx(want, rel=1e-14)


def test_symbol_adjoint_symmetry(basis, rng):
    spec = basis(1, 6)
    op = random_operator(spec, rng)
    nu = sample_ball(rng, 1, 1.0, 1)[0]
    mu = sample_ball(rng, 1, 1.0, 1)[0]
    lhs = operators.symbol_eval(op.adjoint(), nu, mu)
    rhs = np.conj(operators.symbol_eval(op, mu, nu))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_diagonal_symbol_matches_two_point(basis, rng):
    spec = basis(2, 4)
    op = random_operator(spec, rng)
    sym = operators.CovariantSymbol(op)
    p = sample_ball(rng, 2, 1.1, 1)[0]
    assert sym(p) == pytest.approx(operators.symbol_eval(op, p, p), rel=1e-12)


def test_weighted_cross_symbol_is_bounded(basis, rng):
    spec = basis(1, 8)
    op = random_operator(spec, rng)
    norm = np.linalg.norm(op.mat, 2)
    pts = sample_ball(rng, 1, 1.8, 30)
    # S(nu, mu) what^m = <ehat_nu, A ehat_mu> is bounded by the operator norm
    what_m = hilbert.normalized_pairing(pts, pts) ** spec.m
    vals = operators.CovariantSymbol(op).cross(pts, pts) * what_m
    assert np.max(np.abs(vals)) <= norm + 1e-12


def test_symbol_rejects_degenerate_pair(basis):
    spec = basis(1, 60)
    ident = operators.identity_operator(spec)
    with pytest.raises(DegenerateKernel):
        operators.symbol_eval(ident, [1.0], [-0.999])


def test_gradient_of_hermitian_symbol(basis, rng):
    spec = basis(1, 6)
    a = random_operator(spec, rng)
    herm = operators.OperatorMatrix(spec, a.mat + a.mat.conj().T)
    dmu, dmubar = operators.CovariantSymbol(herm).grad([0.3 + 0.2j])
    # real diagonal symbol: the two Wirtinger derivatives are conjugate
    assert np.allclose(dmubar, np.conj(dmu), atol=1e-12)
    # a scalar is a point at d = 1
    sym = operators.CovariantSymbol(herm)
    assert sym(0.3 + 0.2j) == sym([0.3 + 0.2j])
    for got, want in zip(sym.grad(0.3 + 0.2j), (dmu, dmubar)):
        assert got.shape == (1,) and np.array_equal(got, want)


@pytest.mark.parametrize("d, m", [(1, 6), (2, 12), (3, 6)])
def test_gradient_of_identity_symbol_vanishes(basis, rng, d, m):
    ident = operators.identity_operator(basis(d, m))
    mu = sample_ball(rng, d, 1.2, 1)[0]
    for part in operators.CovariantSymbol(ident).grad(mu):
        assert np.max(np.abs(part)) <= 1e-14


def mp_symbol(spec, mat, mu):
    """Diagonal symbol sum_IJ ehat_I A_IJ conj(ehat_J) at mu, in mpmath.

    ``mat`` is a list of rows of mpc entries.
    """
    s = sum(abs(z) ** 2 for z in mu)
    row = []
    for I in spec.indices:
        mult = math.factorial(spec.m) // math.factorial(spec.m - sum(I))
        for q in I:
            mult //= math.factorial(q)
        mono = mpmath.mpf(1)
        for z, q in zip(mu, I):
            mono *= z ** q
        row.append(mpmath.sqrt(mult) * mono * (1 + s) ** (-mpmath.mpf(spec.m) / 2))
    conj_row = [mpmath.conj(e) for e in row]
    return mpmath.fsum(e * mpmath.fdot(a, conj_row) for e, a in zip(row, mat))


@pytest.mark.skipif(mpmath is None, reason="needs mpmath")
@pytest.mark.parametrize("d, m", [(1, 64), (2, 12), (3, 6)])
def test_gradient_matches_mpmath_derivative(basis, rng, d, m):
    spec = basis(d, m)
    op = random_operator(spec, rng)
    mu = sample_ball(rng, d, 1.2, 1)[0]
    with mpmath.workdps(40):
        mat = [[mpmath.mpc(a) for a in row] for row in op.mat.tolist()]

        def sigma(*xy):
            return mp_symbol(spec, mat, [mpmath.mpc(x, y) for x, y in zip(xy[:d], xy[d:])])
        xy = [mpmath.mpf(float(v)) for v in (*mu.real, *mu.imag)]
        partial = [complex(mpmath.diff(sigma, xy, tuple(int(i == k) for i in range(2 * d))))
                   for k in range(2 * d)]
    fx, fy = np.array(partial[:d]), np.array(partial[d:])
    want = (0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy))
    got = operators.CovariantSymbol(op).grad(mu)
    scale = max(np.max(np.abs(w)) for w in want)
    # Relative bound fixed before the first run.
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-11 * scale


@pytest.mark.parametrize("d, m", [(1, 8), (2, 12), (3, 6)])
def test_gradient_matches_central_differences(basis, rng, d, m):
    op = random_operator(basis(d, m), rng)
    sym = operators.CovariantSymbol(op)
    mu = sample_ball(rng, d, 1.2, 1)[0]
    want = geometry.wirtinger(sym, mu)
    scale = max(np.max(np.abs(w)) for w in want)
    for g, w in zip(sym.grad(mu), want):
        assert np.max(np.abs(g - w)) <= 1e-7 * scale


@pytest.mark.parametrize("d, m", [(1, 8), (2, 12), (3, 6)])
def test_gradient_rows_match_single_points(basis, rng, d, m):
    spec = basis(d, m)
    pts = sample_ball(rng, d, 1.2, 9)
    for op in (random_operator(spec, rng), toeplitz.toeplitz_matrix(spec, get_function("re_rational"))):
        sym = operators.CovariantSymbol(op)
        single = [sym.grad(mu) for mu in pts]
        for part, got in enumerate(sym.grad(pts)):
            assert got.shape == (9, d)
            want = np.array([one[part] for one in single])
            # Relative bound fixed before the first run.
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("d, m", [(1, 8), (1, 64), (2, 8), (2, 24), (3, 6)])
def test_symbol_bracket_is_the_scaled_moment_bracket(basis, rng, d, m):
    # re and im are trace-free moment maps, so the symbol of T_f is
    # m / (m + d + 1) f and the bracket of two symbols scales by its square.
    spec = basis(d, m)
    re, im = get_function("re_rational"), get_function("im_rational")
    s_re, s_im = (operators.CovariantSymbol(toeplitz.toeplitz_matrix(spec, f)) for f in (re, im))
    pts = sample_ball(rng, d, 1.2, 20)
    want = (m / (m + d + 1)) ** 2 * toeplitz.bracket_function(re, im)(pts)
    # Bound fixed before the first run.
    assert np.max(np.abs(toeplitz.bracket_function(s_re, s_im)(pts) - want)) <= 1e-13


def test_star_identity_laws(basis, rng):
    spec = basis(1, 8)
    op = random_operator(spec, rng)
    ident = operators.identity_operator(spec)
    mu = sample_ball(rng, 1, 1.2, 1)[0]
    diag = operators.symbol_eval(op, mu, mu)
    assert operators.star_product(ident, op, mu) == pytest.approx(diag, rel=1e-12)
    assert operators.star_product(op, ident, mu) == pytest.approx(diag, rel=1e-12)
    assert operators.star_product(ident, ident, mu) == pytest.approx(1.0, abs=1e-13)


def test_star_equals_product_symbol(basis, rng):
    for d, m in ((1, 8), (2, 3)):
        spec = basis(d, m)
        a = random_operator(spec, rng)
        b = random_operator(spec, rng)
        for _ in range(3):
            mu = sample_ball(rng, d, 1.4, 1)[0]
            got = operators.star_product(a, b, mu)
            want = operators.symbol_eval(a @ b, mu, mu)
            assert got == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("d, m", [(1, 7), (2, 8), (3, 5)])
def test_registry_symbols_match_the_ladder_reference(basis, rng, d, m):
    # The covariant symbol of T_f for f = x^H A x is (m f + tr A) / (m + d + 1)
    # (the Schwinger-boson form of conftest.ladder_bands), and the star
    # product of T_f and T_g is the diagonal symbol of the ladder product
    # L_f @ L_g.  Bounds fixed before the first run: 1e-14 for the symbols,
    # 1e-13 for the star products (an N-term sum through the Gram bands).
    spec = basis(d, m)
    pts = sample_ball(rng, d, 2.0, 20)
    ops = {name: toeplitz.toeplitz_matrix(spec, f) for name, f in REGISTRY.items()}
    for name, op in ops.items():
        want = (m * REGISTRY[name](pts) + np.trace(moment_matrix(name, d)).real) / (m + d + 1)
        assert np.max(np.abs(operators.CovariantSymbol(op)(pts) - want)) <= 1e-14, name
    ladder = {name: operators.OperatorMatrix(spec, mat) for name, mat in ladder_registry(spec).items()}
    for f, g in itertools.product(REGISTRY, repeat=2):
        want = operators.CovariantSymbol(ladder[f] @ ladder[g])(pts[:3])
        got = [operators.star_product(ops[f], ops[g], mu) for mu in pts[:3]]
        assert np.max(np.abs(np.array(got) - want)) <= 1e-13, (f, g)


def test_star_bilinear(basis, rng):
    spec = basis(1, 6)
    a, b, c = (random_operator(spec, rng) for _ in range(3))
    mu = [0.4 - 0.2j]
    lhs = operators.star_product(2.0 * a + (1.0 - 1.0j) * b, c, mu)
    rhs = (2.0 * operators.star_product(a, c, mu)
           + (1.0 - 1.0j) * operators.star_product(b, c, mu))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_star_adjoint_symmetry(basis, rng):
    spec = basis(1, 6)
    a = random_operator(spec, rng)
    b = random_operator(spec, rng)
    mu = [0.25 + 0.45j]
    lhs = operators.star_product(a, b, mu)
    rhs = np.conj(operators.star_product(b.adjoint(), a.adjoint(), mu))
    assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("d, m, level", [(1, 9, None), (2, 6, None), (2, 8, 1)])
def test_banded_operators_act_as_their_dense_form(basis, rng, d, m, level):
    # A banded operator applied through its bands (products, symbols,
    # gradients, star products, the Gram bands of resolution_check) against
    # the same operator held densely.  One level below the default, modes
    # alias and each operator has more bands.  mu_1 / (1 + |mu|^2) declares
    # the single mode e_1, so its bands are not symmetric.  Terms are O(1)
    # sums of at most N products, so the bound 1e-13 was fixed before the
    # first run.
    spec = basis(d, m)
    e1 = (1,) + (0,) * (d - 1)

    def holo(pts):
        return pts[:, 0] / (1.0 + np.sum(np.abs(pts) ** 2, axis=1))

    holo.modes = lambda dim: (e1,)
    fns = [get_function("re_rational"), get_function("abs2_rational"), holo]
    if level is None:
        banded = [toeplitz.toeplitz_matrix(spec, f) for f in fns]
    else:
        nd = spec.node_data(level)
        banded = [operators.OperatorMatrix(spec, bands=hilbert._compress_bands(
            spec, nd, f, f.modes(d))) for f in fns]
    pts = sample_ball(rng, d, 0.8, 5)
    x = rng.normal(size=(spec.N, 3)) + 1j * rng.normal(size=(spec.N, 3))
    for a in banded:
        assert a.bands is not None
        dense = operators.OperatorMatrix(spec, a.mat.copy())
        for t in (False, True):
            for v in (x, x[:, 0]):
                assert np.max(np.abs(a.dot(v, t) - dense.dot(v, t))) <= 1e-13
        sa, sd = operators.CovariantSymbol(a), operators.CovariantSymbol(dense)
        assert np.max(np.abs(sa(pts) - sd(pts))) <= 1e-13
        what_m = np.abs(hilbert.normalized_pairing(pts, pts[::-1])) ** m
        assert np.max(np.abs(sa.cross(pts, pts[::-1]) - sd.cross(pts, pts[::-1]))
                      * what_m) <= 1e-13
        for got, want in zip(sa.grad(pts), sd.grad(pts)):
            assert np.max(np.abs(got - want)) <= 1e-13
        for b in banded:
            want = operators.star_product(dense, operators.OperatorMatrix(spec, b.mat), pts[1])
            assert abs(operators.star_product(a, b, pts[1]) - want) <= 1e-13
    g = hilbert.gram_matrix(spec)
    want = abs(np.vdot(x[:, 0], g @ x[:, 1]) - np.vdot(x[:, 0], x[:, 1]))
    assert abs(hilbert.resolution_check(spec, x[:, 0], x[:, 1]) - want) <= 1e-13


def test_operator_from_symbol_roundtrip(basis, rng, monkeypatch):
    spec = basis(1, 4)
    ident = operators.operator_from_symbol(spec, lambda nu, mu: np.ones((len(nu), len(mu))))
    assert np.max(np.abs(ident.mat - np.eye(spec.N))) <= 1e-8

    op = random_operator(spec, rng)
    back = operators.operator_from_symbol(spec, operators.CovariantSymbol(op))
    scale = 1.0 + np.max(np.abs(op.mat))
    assert np.max(np.abs(back.mat - op.mat)) <= 1e-10 * scale

    # plain-callable path with blocks smaller than a radial node (5 nodes):
    # ket blocks of one node, bra blocks of one radial node
    sym = operators.CovariantSymbol(op)
    monkeypatch.setattr(quadrature, "_BLOCK_BYTES", 80)
    back2 = operators.operator_from_symbol(spec, lambda nu, mu: sym.cross(nu, mu))
    assert np.max(np.abs(back2.mat - op.mat)) <= 1e-10 * scale


def test_gram_is_formed_once_per_node_data(monkeypatch):
    # The Gram matrix T_1 belongs to the node data: star products, the
    # resolution check, the operator of a covariant symbol and gram_matrix
    # all read the one compression of the spec's level, and the node data of
    # another level form their own.
    spec = hilbert.build_basis(2, 6)
    a, b = (toeplitz.toeplitz_matrix(spec, REGISTRY[name])
            for name in ("re_rational", "im_rational"))
    compress_bands, levels = hilbert._compress_bands, []

    def spy(spec, nd, f, modes):
        levels.append(nd.rule.level)
        return compress_bands(spec, nd, f, modes)

    monkeypatch.setattr(hilbert, "_compress_bands", spy)
    mu, v = np.array([0.3 + 0.2j, -0.1j]), np.arange(spec.N) + 1j
    operators.star_product(a, b, mu)
    operators.star_product(b, a, mu)
    hilbert.resolution_check(spec, v, v)
    operators.operator_from_symbol(spec, operators.CovariantSymbol(a))
    hilbert.gram_matrix(spec)
    assert levels == [spec.level]
    nd = spec.node_data(spec.level + 1)
    assert nd.gram is nd.gram and levels == [spec.level, spec.level + 1]


def test_operator_from_symbol_pairs_nodes_from_the_node_data(basis, monkeypatch):
    # The callable path takes the node pairings from the radial unit lifts
    # times the characters: no block lifts all n nodes again.
    spec = basis(2, 4)
    n = spec.node_data().rule.node_count
    unit_lift = hilbert.unit_lift

    def few_rows(points):
        assert points.shape[0] < n, "all nodes lifted again"
        return unit_lift(points)

    monkeypatch.setattr(hilbert, "unit_lift", few_rows)
    monkeypatch.setattr(quadrature, "_BLOCK_BYTES", 1600)
    back = operators.operator_from_symbol(
        spec, lambda nu, mu: np.ones((nu.shape[0], mu.shape[0])))
    assert np.max(np.abs(back.mat - np.eye(spec.N))) <= 1e-12


def test_cross_symbol_rejects_points_of_the_wrong_dimension(basis, rng):
    spec = basis(2, 3)
    sym = operators.CovariantSymbol(random_operator(spec, rng))
    good = np.zeros((2, 2))
    for bad in (np.zeros((2, 3)), np.zeros(3)):
        with pytest.raises(DimensionMismatch):
            sym.cross(bad, good)
        with pytest.raises(DimensionMismatch):
            sym.cross(good, bad)


def test_operator_from_symbol_reads_the_node_table(basis, rng, monkeypatch):
    # A CovariantSymbol round trip is G A G from the cached table: no basis
    # row is evaluated again once the table exists.
    spec = basis(2, 4)
    spec.node_data()
    op = random_operator(spec, rng)

    def refuse(*args, **kwargs):
        raise AssertionError("basis rows re-evaluated")

    monkeypatch.setattr(hilbert, "eval_matrix_normalized", refuse)
    back = operators.operator_from_symbol(spec, operators.CovariantSymbol(op))
    assert np.max(np.abs(back.mat - op.mat)) <= 1e-10 * (1.0 + np.max(np.abs(op.mat)))


def test_operator_from_symbol_rejects_other_level(basis, rng):
    op = random_operator(basis(1, 4), rng)
    with pytest.raises(DimensionMismatch):
        operators.operator_from_symbol(basis(1, 5), operators.CovariantSymbol(op))


def test_fit_slope_closed_form():
    # The closed-form least-squares slope of log e against log m: exact
    # power laws come back to 1e-13; fewer than two errors above the rounding
    # floor give None.  The rounding-level rows are the e1 columns of the
    # README star-sweeps (d = 1 over 4,...,64 and 128,256,512, d = 2 over
    # 16,32,48), whose fits read 1.41, -0.49 and 2.25 without the floor.
    ms = [4, 8, 16, 32, 64]
    for p in (-1.0, -0.737, 0.5, -2.25):
        assert abs(operators._fit_slope(ms, [3.0 * m ** p for m in ms]) - p) <= 1e-13
    assert abs(operators._fit_slope([4, 8, 16], [0.0, 2.0, 1.0]) + 1.0) <= 1e-13
    assert abs(operators._fit_slope([4, 8, 16, 32], [1e-16, 2.0, 1e-15, 1.0]) + 0.5) <= 1e-13
    rounding = (
        ([4, 8, 16, 32, 64], [2.7755575615628914e-17, 1.9990378901206219e-16,
                              5.6062183418676072e-17, 1.4432899320127035e-15,
                              1.3517848686956847e-15]),
        ([128, 256, 512], [4.6629367034256575e-15, 8.1046318726881088e-15,
                           2.3710173309054243e-15]),
        ([16, 32, 48], [5.5649420802754122e-17, 4.0378594004162749e-16,
                        6.0725850418654261e-16]))
    for ms, errs in (([4], [1.0]), ([4, 8], [0.0, 1.0]), ([4, 8, 16], [-1.0, 0.0, 2.0]),
                     ([4, 8], [1.0, float("nan")])) + rounding:
        assert operators._fit_slope(ms, errs) is None


def test_correspondence_sweep_structure():
    f = get_function("re_rational")
    g = get_function("im_rational")

    def build(fn):
        return lambda m: toeplitz.toeplitz_matrix(hilbert.build_basis(1, m), fn)

    res = operators.correspondence_sweep(build(f), build(g), [4, 8, 16], [0.3 + 0.2j])
    assert len(res.rows) == 3
    ms = [r[0] for r in res.rows]
    e0 = [r[1] for r in res.rows]
    e1 = [r[2] for r in res.rows]
    assert ms == [4, 8, 16]
    assert e0[0] > e0[1] > e0[2] > 0.0
    assert max(e1) <= 1e-9  # bracket term is exact for this pair
    assert res.slope_e0 is not None and res.slope_e0 < 0.0

    single = operators.correspondence_sweep(build(f), build(g), [4], [0.3 + 0.2j])
    assert single.slope_e0 is None and single.slope_e1 is None


def covariance_re_im(mu):
    """|Cov_zeta(X, Y)| = |<XY> - <X><Y>| at the unit lift zeta of (mu, 0, ...).

    X and Y act on span(z_1, z_0): <zeta|X|zeta> = Re mu_1 / (1 + |mu|^2) and
    <zeta|Y|zeta> = Im mu_1 / (1 + |mu|^2), the functions re_rational and
    im_rational; the other coordinates of zeta are zero and drop out.
    """
    zeta = np.array([mu, 1.0]) / np.sqrt(1.0 + abs(mu) ** 2)
    X = np.array([[0.0, 0.5], [0.5, 0.0]])
    Y = np.array([[0.0, 0.5j], [-0.5j, 0.0]])
    xy, x, y = (np.vdot(zeta, A @ zeta) for A in (X @ Y, X, Y))
    return abs(xy - x * y)


@pytest.mark.parametrize("d, m_list", [(1, range(4, 65)), (2, range(4, 25)), (3, (4, 6, 8))])
def test_star_sweep_e0_closed_form_re_im(d, m_list):
    """e0 = m / (m + d + 1)^2 |Cov_zeta(X, Y)| and e1 = 0 for (re_rational, im_rational).

    For a traceless Hermitian X on C^(d+1) and f_X = <zeta|X|zeta>, T_(f_X)
    at level m is dGamma(X) / (m + d + 1), with dGamma(X) = sum_ij X_ij z_i
    d/dz_j acting on Sym^m C^(d+1) (Bordemann-Meinrenken-Schlichenmaier 1994;
    Schlichenmaier 2010).  The covariant symbol of A at mu is its mean in
    the coherent vector zeta^(x m), and the star product of two symbols is
    the symbol of the product.  In that vector <dGamma(X)> = m <X> and
    <dGamma(X) dGamma(Y)> = m <XY> + m (m - 1) <X><Y>, so

        e0 = |(T_X * T_Y)(mu) - sigma(T_X)(mu) sigma(T_Y)(mu)|
           = |m <XY> + m (m - 1) <X><Y> - m^2 <X><Y>| / (m + d + 1)^2
           = m |<XY> - <X><Y>| / (m + d + 1)^2.

    The bound 1e-13 on |ratio - 1| was fixed before the first run.

    e1 is 0 for this pair: m times the star commutator is the symbol of
    m dGamma([X, Y]) / (m + d + 1)^2, that is m^2 <[X, Y]> / (m + d + 1)^2,
    and f_X, f_Y are moment-map components, whose bracket is a fixed multiple
    of <[X, Y]>, so i {sigma_X, sigma_Y} equals it at every m.  With exact
    symbol gradients e1 is rounding error; the bound 1e-12 was fixed before
    the first run.
    """
    mu0 = 0.3 + 0.2j
    cov = covariance_re_im(mu0)
    assert cov == pytest.approx(0.19813046259976630, rel=1e-15)

    def build(name):
        fn = get_function(name)
        return lambda m: toeplitz.toeplitz_matrix(hilbert.build_basis(d, m), fn)

    pt = np.zeros(d, dtype=complex)
    pt[0] = mu0
    res = operators.correspondence_sweep(build("re_rational"), build("im_rational"), m_list, pt)
    for m, e0, e1 in res.rows:
        assert abs(e0 * (m + d + 1) ** 2 / (m * cov) - 1.0) <= 1e-13, (d, m)
        assert e1 <= 1e-12, (d, m)


def test_correspondence_sweep_takes_no_finite_differences(monkeypatch):
    def spy(*args, **kwargs):
        raise AssertionError("correspondence_sweep called geometry.wirtinger")

    monkeypatch.setattr(geometry, "wirtinger", spy)
    for d in (1, 2):
        def build(name, d=d):
            return lambda m: toeplitz.toeplitz_matrix(hilbert.build_basis(d, m), get_function(name))

        res = operators.correspondence_sweep(build("re_rational"), build("abs2_rational"),
                                             [2, 4], np.full(d, 0.3 + 0.2j))
        assert len(res.rows) == 2
