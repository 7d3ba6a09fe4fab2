"""Hilbert space data: index order, orthonormality, kernels, serialization."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from berezin import cli, geometry, hilbert, operators, pullback, quadrature, toeplitz
from berezin.errors import DimensionMismatch, IndexOutOfRange, SingularPair
from berezin.functions import REGISTRY
from conftest import admissible, layout_nodes, sample_ball


def test_index_enumeration_graded_lex():
    assert hilbert.enumerate_indices(2, 2) == [
        (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert hilbert.enumerate_indices(1, 3) == [(0,), (1,), (2,), (3,)]
    with pytest.raises(ValueError):
        hilbert.enumerate_indices(0, 2)
    with pytest.raises(ValueError):
        hilbert.enumerate_indices(1, -1)


def recursive_indices(d, m):
    """Every I with |I| <= m by recursion over the coordinates, sorted by (|I|, I).

    The reference definition of the index order, against which the array
    enumeration of ``hilbert`` is checked.
    """
    out = []

    def rec(prefix, remaining):
        if len(prefix) == d:
            out.append(tuple(prefix))
            return
        for q in range(remaining + 1):
            rec(prefix + [q], remaining - q)

    rec([], m)
    out.sort(key=lambda t: (sum(t), t))
    return out


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_index_table_matches_the_recursive_definition(d):
    # enumerate_indices, the exponent table, positions and the ladder gather
    # against the recursive enumeration and a position dict, exactly.
    for m in range(11):
        want = recursive_indices(d, m)
        assert hilbert.enumerate_indices(d, m) == want
        if m == 0:
            continue
        spec = hilbert.build_basis(d, m)
        assert spec.N == len(want) and spec.indices == tuple(want)
        assert np.array_equal(spec._exponents, [I + (m - sum(I),) for I in want])
        positions = {I: k for k, I in enumerate(want)}
        assert [spec.position(I) for I in want] == list(range(spec.N))
        src, coef = spec._lowering
        lowered = [[positions.get(I[:k] + (I[k] - 1,) + I[k + 1:], 0) for I in want]
                   for k in range(d)]
        assert src.dtype == np.intp and np.array_equal(src, lowered)
        assert np.array_equal(coef, [[math.sqrt(I[k] * (m - sum(I) + 1)) for I in want]
                                     for k in range(d)])


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_band_index_matches_a_position_dict(d):
    # Every band delta in [-m, m]^d against the pairs (I, J) of a position
    # dict with I - J = delta, rows in basis order; bands that no pair
    # reaches are empty.  Both arrays bitwise, dtype included.
    for m in range(1, 7):
        spec = hilbert.build_basis(d, m)
        positions = {I: k for k, I in enumerate(spec.indices)}
        want = {}
        for I, k in positions.items():
            for J, l in positions.items():
                rows, cols = want.setdefault(tuple(a - b for a, b in zip(I, J)), ([], []))
                rows.append(k)
                cols.append(l)
        for delta in itertools.product(range(-m, m + 1), repeat=d):
            rows, cols = hilbert._band_index(spec, delta)
            want_rows, want_cols = want.get(delta, ([], []))
            assert rows.dtype == cols.dtype == np.intp
            assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)


def test_index_tables_build_no_position_grid():
    # BasisSpec keeps its index set once, as the exponent table: no (m+1)^d
    # position grid (44 MiB at d = 4, m = 48).  The band of e_1 and the
    # ladder gather together peak at most 48 MiB there, the bound fixed
    # before the first run (110.1 MiB with the grid).
    spec = hilbert.build_basis(4, 48)
    tracemalloc.start()
    try:
        hilbert._band_index(spec, (1, 0, 0, 0))
        spec._lowering
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not hasattr(spec, "_grid")
    assert peak <= 48 * 2 ** 20, peak


def test_radial_table_is_built_real():
    # Radial rows R are evaluated in the real dtype of the radial lifts,
    # with no complex twin: at d = 2, m = 48 the node data build and the
    # rows of all radial points each peak at most 1.5 R.nbytes, and the d = 2
    # Toeplitz sweep at m = 73 at most 110 MiB.  The bounds were fixed before
    # the first run.
    spec = hilbert.build_basis(2, 48)
    tracemalloc.start()
    try:
        nd = spec.node_data()
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        R = nd.radial(0, nd.rlift.shape[0])
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        toeplitz.toeplitz_sweep(REGISTRY["abs2_rational"], REGISTRY["im_rational"], [73], d=2)
        sweep_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert R.dtype == np.float64 and R.shape == (nd.rlift.shape[0], spec.N)
    assert max(build_peak, peak) <= 1.5 * R.nbytes, (build_peak, peak, R.nbytes)
    assert sweep_peak <= 110 * 2 ** 20, sweep_peak


def test_sweeps_build_no_grid_sized_radial_table(tmp_path):
    # At d = 2, m = 128 the radial rows of the bracket's rule would be a
    # (4,489, 8,385) table, 301 MB.  A Toeplitz sweep and a correspondence
    # sweep there form radial rows one chunk at a time: each peaks under
    # 32 MiB traced.  The bound was fixed before the first run.
    peaks = []
    for run in (lambda: toeplitz.toeplitz_sweep(REGISTRY["abs2_rational"],
                                                REGISTRY["im_rational"], [128], d=2),
                lambda: cli.main(["star-sweep", "--d", "2", "--m-list", "128",
                                  "--f", "re_rational", "--g", "im_rational",
                                  "--out", str(tmp_path / "star.csv")])):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 32 * 2 ** 20, peaks


@pytest.mark.parametrize("d", [2, 3, 4])
def test_band_assembly_samples_each_dimension_at_its_own_modes(d):
    # f is sampled at 2 B_j + 1 angles in dimension j, B_j = max |k_j| over
    # its modes: n_r^d prod_j (2 B_j + 1) points per band assembly.
    spec = hilbert.build_basis(d, 3)
    nd = spec.node_data()
    fns = [REGISTRY["re_rational"], REGISTRY["abs2_rational"],
           toeplitz.bracket_function(REGISTRY["re_rational"], REGISTRY["im_rational"])]
    for fn in fns:
        modes, seen = fn.modes(d), []

        def spy(pts):
            seen.append(pts.shape[0])
            return fn(pts)

        hilbert._compress_bands(spec, nd, spy, modes)
        per_dim = [2 * max(abs(k[j]) for k in modes) + 1 for j in range(d)]
        assert sum(seen) == nd.rule.radii.shape[0] * math.prod(per_dim), (fn, seen, per_dim)


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


@pytest.mark.parametrize("d, m", [(1, 1024), (3, 12), (4, 32)])
def test_normalizations_match_the_factorial_formula(d, m):
    # D_I = I! (m - |I|)! / m!, each factorial from math.factorial per index:
    # the same integers divided in the same order, so D is bitwise equal.
    spec = hilbert.build_basis(d, m)
    want = np.empty(spec.N)
    for k, I in enumerate(spec.indices):
        mult = math.factorial(m)
        for q in I:
            mult //= math.factorial(q)
        mult //= math.factorial(m - sum(I))
        want[k] = 1.0 / mult
    assert np.array_equal(spec.D, want)


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
    # |I| > m, a negative entry and the wrong length each raise.
    for index in ((3, 0), (2, 1), (-1, 1), (1, -1), (1,), (1, 1, 0), ()):
        with pytest.raises(IndexOutOfRange):
            spec.position(index)


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


@pytest.mark.parametrize("d, m", [(1, 8), (1, 256), (2, 12), (3, 5)])
def test_factored_table_matches_the_evaluator(d, m):
    # ehat = R (x) Phi against the direct evaluator at the rule's nodes.  Each
    # entry on either side carries O(m) rounded factors (power products at
    # the nodes, or at the radial points times a character), so the bound is
    # 8 m eps.
    # The unit lifts of the node blocks, radial lifts through NodeBlock.radial, are
    # checked against unit_lift at the nodes the same way.
    spec = hilbert.build_basis(d, m)
    nd = spec.node_data()
    nodes, _ = layout_nodes(nd.rule)
    want = hilbert.eval_matrix_normalized(spec, nodes)
    assert np.max(np.abs(nd.ehat - want)) <= 8 * m * np.finfo(float).eps
    lifts = np.concatenate([hilbert._lifts(nd, blk)
                            for blk in quadrature.node_blocks(nd.rule, 2 ** 14)])
    assert np.max(np.abs(lifts - hilbert.unit_lift(nodes))) <= 8 * np.finfo(float).eps
    n_ang, n_rad = nd.rule.n_theta ** d, nd.rlift.shape[0]
    assert np.array_equal(nd.ehat.reshape(-1, n_ang, spec.N)[:, 0],
                          nd.radial(0, n_rad).astype(complex))


@pytest.mark.parametrize("d, m, blocks", [(1, 12, None), (2, 12, None), (3, 8, 3)])
def test_rows_and_node_blocks_share_one_table_of_roots(d, m, blocks):
    # _rows and the node blocks index one table of roots of unity
    # (quadrature.roots), so the basis row of I = e_j is R times the block's
    # character in dimension j, bitwise.  n_theta >= 9, where exp(2j pi k / n)
    # and exp(1j (2 pi k / n)) round some roots differently; at d = 3 only
    # the first blocks are checked.
    spec = hilbert.build_basis(d, m)
    nd = spec.node_data()
    assert nd.rule.n_theta >= 9
    R = nd.radial(0, nd.rlift.shape[0])
    for blk in itertools.islice(quadrature.node_blocks(nd.rule, 16 * spec.N), blocks):
        rows, chars = hilbert._rows(nd, blk), blk.radial(np.ones_like(nd.rule.radii))
        for j, e_j in enumerate(np.eye(d, dtype=int)):
            k = spec.position(e_j)
            assert np.array_equal(rows[:, k], R[blk.r, k] * chars[:, j]), (d, j)


# (d, m, level): the default levels of the table test above, and two levels
# below the default where n_theta <= m, so that indices share angular modes.
TRANSFORM_CASES = [(1, 8, None), (1, 256, None), (2, 12, None), (3, 5, None),
                   (1, 8, 1), (2, 12, 2)]


@pytest.mark.parametrize("d, m, level", TRANSFORM_CASES)
def test_transforms_match_the_dense_table(monkeypatch, d, m, level):
    # synthesize = E v and analyze = E^H x against the dense evaluator E at
    # the rule's nodes, on blocks of whole radial nodes: synthesize gives the
    # block's rows of E v, and analyze summed over the blocks gives E^H x.
    # Columns have unit l1 norm, so the table's entry error (8 m eps, the
    # bound above) moves a result by at most 8 m eps; the FFT adds
    # O(log n_theta^d) eps.  The bound, 16 m eps, was fixed first.  The
    # same with several radial nodes per block and (with the budget cut to
    # 0) one.
    spec = hilbert.build_basis(d, m, level=level)
    nd = spec.node_data()
    if level is not None:
        assert nd.rule.n_theta <= m
    E = hilbert.eval_matrix_normalized(spec, layout_nodes(nd.rule)[0])
    rng = np.random.default_rng(d * 1000 + m)
    bound = 16 * m * np.finfo(float).eps
    n_ang = nd.rule.n_theta ** d
    blocks = list(quadrature.node_blocks(nd.rule, 16, n_ang))
    for shape in ((spec.N,), (spec.N, 3)):
        v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        v /= np.sum(np.abs(v), axis=0)
        got = np.concatenate([hilbert.synthesize(spec, nd, v, blk) for blk in blocks])
        assert got.shape == (E.shape[0],) + shape[1:]
        assert np.max(np.abs(got - E @ v)) <= bound
    for shape in ((E.shape[0],), (E.shape[0], 3)):
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        x /= np.sum(np.abs(x), axis=0)
        got = sum(hilbert.analyze(spec, nd, x[blk.lo:blk.lo + blk.r.size], blk)
                  for blk in blocks)
        assert got.shape == (spec.N,) + shape[1:]
        assert np.max(np.abs(got - E.conj().T @ x)) <= bound
    for budget in (None, 0):
        if budget is not None:
            monkeypatch.setattr(quadrature, "_BLOCK_BYTES", budget)
        blocks = list(quadrature.node_blocks(nd.rule, 16, n_ang))
        assert all(blk.lo % n_ang == 0 and blk.r.size % n_ang == 0 for blk in blocks)
        assert (budget is None) == (len(blocks) < nd.rule.node_count // n_ang)
        got = 0
        for blk in blocks:
            span = slice(blk.lo, blk.lo + blk.r.size)
            assert np.max(np.abs(hilbert.synthesize(spec, nd, v, blk) - E[span] @ v)) <= bound
            got = got + hilbert.analyze(spec, nd, x[span], blk)
        assert np.max(np.abs(got - E.conj().T @ x)) <= bound


def test_no_query_reads_the_dense_table(monkeypatch, capsys, tmp_path):
    # The transforms read R only: reading the dense table fails, and so does
    # evaluating basis rows at more than a handful of points.
    def refuse(self):
        raise AssertionError("dense node table read")

    lift_rows = hilbert._lift_rows

    def few_rows(spec, lift):
        assert lift.shape[0] <= 64, f"{lift.shape[0]} basis rows evaluated"
        return lift_rows(spec, lift)

    monkeypatch.setattr(hilbert._NodeData, "ehat", property(refuse))
    monkeypatch.setattr(hilbert, "_lift_rows", few_rows)
    out = str(tmp_path / "a.csv")
    for argv in (["star-sweep", "--d", "2", "--m-list", "4,6", "--f", "re_rational",
                  "--g", "im_rational"],
                 ["kernel-check", "--d", "2", "--m", "6", "--pairs", "3"],
                 ["toeplitz-sweep", "--d", "2", "--m-list", "4,6", "--f", "abs2_rational",
                  "--g", "im_rational"]):
        assert cli.main(argv + ["--out", out]) in (0, 1), argv
        assert "failure" not in capsys.readouterr().err
    spec = hilbert.build_basis(2, 4)
    v = np.arange(spec.N) + 1j

    def section(pts):
        # a degree-m polynomial in closed form, not through the evaluator
        return np.prod(pts[:, None, :] ** np.array(spec.indices), axis=2) / np.sqrt(spec.D) @ v
    section.weight_degree = 0
    assert np.max(np.abs(toeplitz.project(spec, section) - v)) <= 1e-12
    # The identity's two-point symbol is 1: the callable path gives G I G = I,
    # here over ket blocks of 4 nodes (the budget is cut to 1,600 bytes).
    monkeypatch.setattr(quadrature, "_BLOCK_BYTES", 1600)
    back = operators.operator_from_symbol(
        spec, lambda nu, mu: np.ones((nu.shape[0], mu.shape[0])))
    assert np.max(np.abs(back.mat - np.eye(spec.N))) <= 1e-12


def test_node_data_does_not_call_the_evaluator(monkeypatch):
    # A node-data build evaluates no basis row.  Its readers form rows through
    # the one row evaluator at ranges of the radial lifts only, never at the
    # nodes: the Gram contraction one chunk of _FOURIER_BYTES (cut to 2 KiB
    # here, so several) at a time, the node walk of the dense table the
    # radial points of one block, and a range read again in a row is kept.
    def refuse(*args, **kwargs):
        raise AssertionError("node tables are built from their factors")

    lift_rows, seen = hilbert._lift_rows, []

    def spy(spec, lift):
        seen.append(lift)
        return lift_rows(spec, lift)

    def ranges(nd):
        # (lo, hi) of each lift evaluated since the last call, a view of the radial lifts.
        assert all(lift.base is nd.rlift for lift in seen)
        out = [(lo, lo + lift.shape[0]) for lift in seen
               for lo in [(lift.ctypes.data - nd.rlift.ctypes.data) // nd.rlift.strides[0]]]
        seen.clear()
        return out

    monkeypatch.setattr(hilbert, "eval_matrix_normalized", refuse)
    monkeypatch.setattr(hilbert, "_lift_rows", spy)
    monkeypatch.setattr(hilbert, "_FOURIER_BYTES", 2 ** 11)
    spec = hilbert.build_basis(2, 6)
    for level in (None, spec.level + 1):
        nd = spec.node_data(level)
        n_rad = nd.rlift.shape[0]
        assert not seen
        gram = hilbert._densify(spec, nd.gram)
        assert np.max(np.abs(gram - np.eye(spec.N))) <= 1e-13
        chunk = hilbert._FOURIER_BYTES // (16 + 8 * spec.N)  # `one`: one angular sample
        want = [(lo, min(lo + chunk, n_rad)) for lo in range(0, n_rad, chunk)]
        assert len(want) > 1 and ranges(nd) == want
        assert nd.ehat.shape == (nd.rule.node_count, spec.N)
        spans = [(int(blk.r[0]), int(blk.r[-1]) + 1)
                 for blk in quadrature.node_blocks(nd.rule, 16 * spec.N)]
        assert ranges(nd) == [s for k, s in enumerate(spans) if k == 0 or s != spans[k - 1]]


def test_registry_sweeps_build_no_full_grid(monkeypatch, tmp_path):
    # Band assembly, the diagonal Gram matrix, block norms and the star
    # product read only R and the radial weights, so after a Toeplitz sweep
    # and a star sweep of registry functions no node data has built its
    # dense table, the one array over the full grid.  Their operators and Gram
    # matrices stay banded: the one densifying function is never called.
    node_data, built = hilbert._node_data, []

    def spy(spec, rule):
        built.append(node_data(spec, rule))
        return built[-1]

    def refuse(*args):
        raise AssertionError("dense (N, N) operator")

    monkeypatch.setattr(hilbert, "_node_data", spy)
    monkeypatch.setattr(hilbert, "_densify", refuse)
    toeplitz.toeplitz_sweep(REGISTRY["abs2_rational"], REGISTRY["im_rational"], [4, 8], d=2)
    n_sweep = len(built)
    rc = cli.main(["star-sweep", "--d", "2", "--m-list", "4,8", "--f", "re_rational",
                   "--g", "im_rational", "--out", str(tmp_path / "star.csv")])
    assert rc == 0
    assert 0 < n_sweep < len(built)
    for nd in built:
        assert "ehat" not in vars(nd)


def test_checks_build_no_full_grid(monkeypatch, tmp_path):
    # kernel-check and the pullback checks hold one block of nodes at a time:
    # no node data builds its dense table, the one array over the full grid.
    node_data, built = hilbert._node_data, []

    def spy(spec, rule):
        built.append(node_data(spec, rule))
        return built[-1]

    monkeypatch.setattr(hilbert, "_node_data", spy)
    assert cli.main(["kernel-check", "--d", "2", "--m", "6", "--pairs", "5",
                     "--out", str(tmp_path / "kc.csv")]) == 0
    spec = hilbert.build_basis(2, 4)
    ident = pullback.identity_chart(2)
    assert pullback.equivalence_check(spec, ident, pullback.rotation_chart(0.8, d=2)).equivalent
    v = np.arange(spec.N) + 1j
    assert abs(pullback.inner_product_on_manifold(spec, ident, v, v) - np.vdot(v, v)) <= 1e-9
    assert len(built) == 2
    for nd in built:
        assert "ehat" not in vars(nd)


def test_node_sums_hold_one_block_at_a_time():
    # Every public query that sums over the rule's nodes, at a size where one
    # array over all nodes is far beyond the bound: 706k nodes for the
    # integral (23 MB of (n, 2) nodes), 1.1M nodes (54 MB of (n, 3) nodes)
    # for the inner product, the projection and the Toeplitz matrix of a
    # plain callable, and (2025, 512) node-pair tables (17 MB) for the
    # operator of a plain symbol.  Node data are built first, so each peak
    # is the query's own.  The bound, 8 MiB, was fixed before the first run.
    bound = 8 * 2 ** 20

    def peak(fn, *args):
        tracemalloc.start()
        try:
            out = fn(*args)
            return tracemalloc.get_traced_memory()[1], out
        finally:
            tracemalloc.stop()

    def density(z):
        return 1.0 / (1.0 + np.sum(np.abs(z) ** 2, axis=1)) ** 4

    def section(z):
        return z[:, 0] * z[:, 1]
    section.weight_degree = 0

    rule = quadrature.build_rule(2, 5)
    used, res = peak(quadrature.integrate, density, rule)
    assert rule.node_count == 705_600 and used <= bound, used
    assert abs(res.value - quadrature.moment((0, 0), 1, 2)) <= 1e-10

    spec = hilbert.build_basis(3, 12)
    assert spec.node_data().rule.node_count == 1_124_864
    used, ip = peak(hilbert.inner_product, spec, section, section)
    # z_1 z_2 = sqrt(D_I) Psi_I for I = (1, 1, 0)
    k = spec.position((1, 1, 0))
    assert used <= bound, used
    assert abs(ip - spec.D[k]) <= 1e-12
    used, coef = peak(toeplitz.project, spec, section)
    assert used <= bound, used
    assert abs(coef[k] - np.sqrt(spec.D[k])) <= 1e-12

    spec = hilbert.build_basis(3, 8)

    def one(z):
        return np.ones(z.shape[0])

    assert spec.node_data(toeplitz._default_level(spec, one)).rule.node_count == 1_124_864
    used, op = peak(toeplitz.toeplitz_matrix, spec, one)
    assert used <= bound, used
    assert np.max(np.abs(op.mat - np.eye(spec.N))) <= 1e-12

    spec = hilbert.build_basis(2, 8)
    assert spec.node_data().rule.node_count == 2025
    used, op = peak(operators.operator_from_symbol, spec,
                    lambda nu, mu: np.ones((nu.shape[0], mu.shape[0])))
    assert used <= bound, used
    assert np.max(np.abs(op.mat - np.eye(spec.N))) <= 1e-12


@pytest.mark.parametrize("d, m", [(1, 16), (2, 8), (3, 4)])
def test_radial_weights_are_the_node_weights_per_radius(d, m):
    # wr gathered by the blocks' radial indices, the per-node factor of every
    # node sum, is bit for bit the rule weights times (1+s)^(-(d+1)) formed
    # over all nodes.
    nd = hilbert.build_basis(d, m).node_data()
    rule, n_ang = nd.rule, nd.rule.n_theta ** d
    log1ps = np.log1p(np.sum(rule.radii ** 2, axis=1))
    wcore = layout_nodes(rule)[1] * np.repeat(np.exp(-(d + 1.0) * log1ps), n_ang)
    got = np.concatenate([nd.wr[blk.r] for blk in quadrature.node_blocks(rule, 16)])
    assert got.tobytes() == wcore.tobytes()


def test_eval_matrix_is_independent_of_the_memory_layout(rng):
    # Fortran-ordered and strided point arrays give bitwise the rows of the
    # C-ordered copy; the rounding scale once needed a contiguous last axis.
    spec = hilbert.build_basis(2, 6)
    pts = sample_ball(rng, 2, 2.0, 9)
    want = hilbert.eval_matrix_normalized(spec, pts)
    for other in (np.asfortranarray(pts), np.repeat(pts, 2, axis=0)[::2]):
        assert hilbert.eval_matrix_normalized(spec, other).tobytes() == want.tobytes()


def test_eval_matrix_finite_at_huge_points():
    # Psi_1(nu) = nu at m = 1: the (1+s)^(m/2) scale comes from the lift in
    # log form, so |nu|^2 = 1e320 is never formed.
    spec = hilbert.build_basis(1, 1)
    got = hilbert.basis_eval(spec, (1,), 1e160)
    assert np.isfinite(got) and got == pytest.approx(1e160, rel=1e-13)
    assert hilbert.basis_eval(spec, (0,), 1e160) == pytest.approx(1.0, rel=1e-13, abs=0)


@pytest.mark.parametrize("d, m", [(1, 256), (1, 512), (2, 64), (3, 16)])
def test_normalized_rows_are_unit_vectors(d, m):
    # sum_I |ehat_I(nu)|^2 = |zeta(nu)|^(2m) = 1 for every nu, at every m,
    # also where |nu|^2 itself overflows a double (1e160, 1e300).
    spec = hilbert.build_basis(d, m)
    rng = np.random.default_rng(d * 1000 + m)
    radii = np.append(np.logspace(-3, 3, 61), [1e160, 1e300])
    dirs = rng.normal(size=(63, d)) + 1j * rng.normal(size=(63, d))
    pts = dirs / np.linalg.norm(dirs, axis=1)[:, None] * radii[:, None]
    ehat = hilbert.eval_matrix_normalized(spec, pts)
    assert np.all(np.isfinite(ehat))
    assert np.max(np.abs(np.sum(np.abs(ehat) ** 2, axis=1) - 1.0)) <= 1e-12
    # |zeta(nu) . conj(zeta(mu))| <= 1, up to the rounding of the lifts
    assert np.max(np.abs(hilbert.normalized_pairing(pts, pts))) <= 1.0 + 4 * np.finfo(float).eps


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


def test_build_basis_rejects_level_below_one():
    # A level-0 spec was built, and every query on it then failed.
    with pytest.raises(ValueError, match="level=0"):
        hilbert.build_basis(1, 4, level=0)


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
            hilbert.kernel_L(spec, nu, mu), rel=1e-12)


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


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_pair_arrays_match_single_pairs_bitwise(basis, d):
    # 50 random pairs and 5 whose two points coincide: the array forms of
    # the pairing, the diastasis, the kernel and its logarithm, and the
    # resolution defect on columns equal the single-pair calls bit for bit.
    # The resolution defect also runs below the default level, where the
    # Gram matrix has more than one band.
    rng = np.random.default_rng(27 + d)
    mu, nu = (rng.normal(0.0, 0.7, (55, d)) + 1j * rng.normal(0.0, 0.7, (55, d))
              for _ in range(2))
    nu[50:] = mu[50:]
    spec = basis(d, 6)

    def bitwise(got, want):
        want = np.array(want)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    forms = [geometry.pairing, geometry.diastasis,
             lambda a, b: hilbert.kernel_L(spec, a, b),
             lambda a, b: hilbert.log_kernel(spec, a, b)]
    for form in forms:
        bitwise(form(mu, nu), [form(a, b) for a, b in zip(mu, nu)])
        # (2, 55, d) pairs, as the chart-equivalence probe passes them, and
        # one point broadcast against many.
        bitwise(form(np.stack([mu, nu]), np.stack([nu, mu])),
                [[form(a, b) for a, b in zip(mu, nu)], [form(b, a) for a, b in zip(mu, nu)]])
        bitwise(form(mu[0], nu), [form(mu[0], b) for b in nu])
    assert np.all(geometry.diastasis(mu[50:], nu[50:]) == 0.0)
    assert all(geometry.diastasis(a, a) == 0.0 for a in mu)
    zero = np.zeros(d, dtype=complex)
    zero[0] = 1.0
    for a, b in ((zero, -zero), (np.vstack([mu[:3], zero]), np.vstack([nu[:3], -zero]))):
        with pytest.raises(SingularPair):
            geometry.diastasis(a, b)
    for level in (None, 1):
        spec = basis(d, 6, level)
        va, vb = (rng.normal(size=(spec.N, 55)) + 1j * rng.normal(size=(spec.N, 55))
                  for _ in range(2))
        vb[:, 50:] = va[:, 50:]
        bitwise(hilbert.resolution_check(spec, va, vb),
                [hilbert.resolution_check(spec, a, b) for a, b in zip(va.T, vb.T)])


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


@pytest.mark.parametrize("d, m", [(1, 8), (2, 6), (1, 256)])
def test_batched_reproducing_residual_matches_single_points(basis, rng, d, m):
    # k points share one synthesis of v and one row evaluation; each residual
    # is then formed as for a single point, so the two agree bitwise.
    spec = basis(d, m)
    v = rng.normal(size=spec.N) + 1j * rng.normal(size=spec.N)
    mus = sample_ball(rng, d, 1.0, 7)
    got = hilbert.reproducing_residual(spec, v, mus)
    assert isinstance(got, np.ndarray) and got.shape == (7,)
    want = [hilbert.reproducing_residual(spec, v, mu) for mu in mus]
    assert all(isinstance(r, float) for r in want)
    np.testing.assert_array_equal(got, want)
    assert np.all(got <= 1e-8 * (1.0 + np.abs(hilbert.section_eval(spec, v, mus))))
    with pytest.raises(DimensionMismatch):
        hilbert.reproducing_residual(spec, v, np.zeros((3, d + 1)))


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


@pytest.mark.parametrize("key, value", [("level", 0), ("m", 5), ("d", 0), ("c_m", 1.0)])
def test_from_json_refuses_edited_payloads(key, value):
    # d or level below 1, an m whose indices, N, D and c_m are those of
    # another m, or an edited c_m is refused; the unchanged text round-trips.
    text = hilbert.to_json(hilbert.build_basis(2, 4))
    assert hilbert.to_json(hilbert.from_json(text)) == text
    payload = json.loads(text)
    payload[key] = value
    with pytest.raises(ValueError):
        hilbert.from_json(json.dumps(payload))


def test_from_json_compares_without_reserializing(monkeypatch):
    # from_json compares the parsed payload with the spec's own payload dict
    # and calls no json.dumps; an edited index or normalization entry is
    # still refused, and the unchanged text still loads.
    spec = hilbert.build_basis(3, 4)
    text = hilbert.to_json(spec)
    edited = []
    for key, row, value in (("indices", 3, [0, 1, 1]), ("D", 5, 0.5)):
        payload = json.loads(text)
        payload[key][row] = value
        edited.append(json.dumps(payload))

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(json, "dumps", refuse)
    assert hilbert.from_json(text).indices == spec.indices
    for bad in edited:
        with pytest.raises(ValueError):
            hilbert.from_json(bad)
