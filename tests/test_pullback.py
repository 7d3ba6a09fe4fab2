"""Chart presentations, transported inner products, connection and holonomy."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from berezin import geometry, hilbert, operators, pullback, quadrature
from berezin.errors import (DimensionMismatch, OddLevel, OutOfDomain,
                            PathTooCoarse, SingularPair)
from conftest import layout_nodes


def interior_grid(n):
    """n^2 parameter rows strictly inside the unit square."""
    u = (np.arange(n) + 0.5) / n
    U, V = np.meshgrid(u, u, indexing="ij")
    return np.stack([U.ravel(), V.ravel()], axis=1)


def test_chart_roundtrips(rng):
    charts = [pullback.identity_chart(1), pullback.identity_chart(2),
              pullback.rotation_chart(0.7), pullback.scaling_chart(2.0),
              pullback.torus_chart()]
    for chart in charts:
        p = chart.sample(rng, 50)
        z = chart.forward(p)
        assert np.max(np.abs(chart.inverse(z) - p)) <= 1e-10, chart.name
        assert np.all(chart.jacobian_det(p) > 0.0), chart.name


@pytest.mark.parametrize("d", [1, 2, 3])
def test_stock_charts_declare_equivariance_truthfully(rng, d):
    # Rotating each parameter pair (x_j, y_j) by its own angle multiplies
    # tau_j by exp(i theta_j): the contract of ``equivariant``.
    p = rng.normal(0.0, 0.7, size=(50, 2 * d))
    theta = rng.uniform(-np.pi, np.pi, size=(50, d))
    c, s = np.cos(theta), np.sin(theta)
    turned = np.empty_like(p)
    turned[:, 0::2] = c * p[:, 0::2] - s * p[:, 1::2]
    turned[:, 1::2] = s * p[:, 0::2] + c * p[:, 1::2]
    for chart in (pullback.identity_chart(d), pullback.rotation_chart(0.7, d),
                  pullback.scaling_chart(2.0, d)):
        assert chart.equivariant, chart.name
        want = np.exp(1j * theta) * chart.forward(p)
        assert np.all(np.abs(chart.forward(turned) - want) <= 1e-15 * np.abs(want)), chart.name
    assert not pullback.torus_chart().equivariant


def test_torus_chart_specifics():
    tc = pullback.torus_chart()
    center = tc.forward(np.array([[0.5, 0.5]]))
    assert abs(center[0, 0]) <= 1e-15

    p = interior_grid(10)
    z = tc.forward(p)
    assert np.max(np.abs(tc.inverse(z) - p)) <= 1e-10

    x = np.tan(np.pi * p[:, 0] - np.pi / 2)
    y = np.tan(np.pi * p[:, 1] - np.pi / 2)
    want = np.pi ** 2 * (1 + x ** 2) * (1 + y ** 2)
    assert np.allclose(tc.jacobian_det(p), want, rtol=1e-12)

    with pytest.raises(OutOfDomain):
        tc.forward(np.array([[0.0, 0.5]]))
    with pytest.raises(OutOfDomain):
        tc.forward(np.array([[1.2, 0.5]]))
    with pytest.raises(DimensionMismatch):
        tc.forward(np.array([[0.5, 0.5, 0.5]]))


def test_numeric_jacobian_fallback():
    tc = pullback.torus_chart()
    bare = pullback.DiffeoChart(name="torus-fd", d=1, forward_fn=tc.forward_fn,
                                inverse_fn=tc.inverse_fn, jacobian_fn=None,
                                in_domain_fn=tc.in_domain_fn)
    p = interior_grid(5)
    got = bare.jacobian_det(p)
    want = tc.jacobian_det(p)
    assert np.max(np.abs(got - want) / want) <= 1e-6


def per_row_jacobian_det(chart, params):
    """Central-difference |det J|, one row and one coordinate step at a time."""
    out = np.empty(params.shape[0])
    w = 2 * chart.d
    for k in range(params.shape[0]):
        p = params[k]
        h = 1e-6 * max(1.0, float(np.max(np.abs(p))))
        jac = np.empty((w, w))
        for j in range(w):
            e = np.zeros(w)
            e[j] = h
            zp = np.asarray(chart.forward_fn((p + e).reshape(1, -1)), dtype=complex).ravel()
            zm = np.asarray(chart.forward_fn((p - e).reshape(1, -1)), dtype=complex).ravel()
            dz = (zp - zm) / (2.0 * h)
            jac[0::2, j] = dz.real
            jac[1::2, j] = dz.imag
        out[k] = abs(np.linalg.det(jac))
    return out


def test_numeric_jacobian_is_the_per_row_loop(rng):
    # All rows at once, 2 * 2d forward calls on (n, 2d) arrays, bitwise the
    # per-row loop; the samples include rows with max |p| > 1, where the
    # step grows with the row.
    charts = [pullback.identity_chart(2), pullback.rotation_chart(0.8, d=2),
              pullback.scaling_chart(2.0, d=2), pullback.torus_chart()]
    for chart in charts:
        calls = []

        def forward(p, fn=chart.forward_fn):
            calls.append(p.shape)
            return fn(p)

        bare = dataclasses.replace(chart, forward_fn=forward, jacobian_fn=None)
        params = chart.sample(rng, 500)
        assert np.any(np.max(np.abs(params), axis=1) > 1.0) or chart.name == "torus"
        got = bare.jacobian_det(params)
        assert calls == [params.shape] * (4 * chart.d), chart.name
        assert got.tobytes() == per_row_jacobian_det(chart, params).tobytes(), chart.name


def test_measure_factor_change_of_variables():
    # parameter-side integral of F(tau(p)) h(p) must match the chart moment
    tc = pullback.torus_chart()
    x, w = np.polynomial.legendre.leggauss(60)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    U, V = np.meshgrid(u, u, indexing="ij")
    W = np.outer(wu, wu).ravel()
    P = np.stack([U.ravel(), V.ravel()], axis=1)
    z = tc.forward(P)[:, 0]
    F = (1.0 + np.abs(z) ** 2) ** (-2.0)
    got = np.sum(W * F * pullback.measure_factor(tc, P))
    assert got == pytest.approx(quadrature.moment(0, 2, 1), rel=1e-12)


def test_pull_section_values(basis):
    spec = basis(1, 4)
    tc = pullback.torus_chart()
    e0 = np.eye(spec.N)[0]
    # the lowest mode is the constant section
    assert pullback.pull_section(spec, tc, e0, [0.3, 0.8]) == pytest.approx(1.0)

    e1 = np.eye(spec.N)[1]
    p = np.array([0.3, 0.8])
    zval = np.tan(np.pi * p[0] - np.pi / 2) + 1j * np.tan(np.pi * p[1] - np.pi / 2)
    want = zval / np.sqrt(spec.D[1])
    got = pullback.pull_section(spec, tc, e1, p)
    assert isinstance(got, complex)
    assert got == pytest.approx(want, rel=1e-13)

    batch = pullback.pull_section(spec, tc, e1, interior_grid(3))
    assert batch.shape == (9,)


def test_pulled_operator_composition(basis, rng):
    spec = basis(1, 5)
    tc = pullback.torus_chart()
    mat = rng.normal(size=(spec.N, spec.N)) + 1j * rng.normal(size=(spec.N, spec.N))
    op = pullback.PulledOperator(operators.OperatorMatrix(spec, mat), tc)
    v = rng.normal(size=spec.N) + 1j * rng.normal(size=spec.N)
    p = tc.sample(rng, 6)
    got = pullback.pulled_apply(op, v, p)
    want = hilbert.section_eval(spec, mat @ v, tc.forward(p))
    assert np.allclose(got, want, rtol=1e-14)

    with pytest.raises(DimensionMismatch):
        pullback.PulledOperator(operators.OperatorMatrix(basis(2, 3),
                                                         np.eye(10)), tc)


def test_pulled_apply_rank_one_annihilates(basis):
    spec = basis(1, 4)
    tc = pullback.torus_chart()
    mat = np.zeros((spec.N, spec.N))
    mat[0, 0] = 1.0  # orthogonal projection onto the lowest mode
    op = pullback.PulledOperator(operators.OperatorMatrix(spec, mat), tc)
    e1 = np.eye(spec.N)[1]
    vals = pullback.pulled_apply(op, e1, interior_grid(4))
    assert np.max(np.abs(vals)) <= 1e-12


def test_pulled_symbol_and_star_delegate(basis, rng):
    spec = basis(1, 6)
    tc = pullback.torus_chart()
    mk = lambda: operators.OperatorMatrix(
        spec, rng.normal(size=(spec.N, spec.N)) + 1j * rng.normal(size=(spec.N, spec.N)))
    op1 = pullback.PulledOperator(mk(), tc)
    op2 = pullback.PulledOperator(mk(), tc)
    pa, pb = tc.sample(rng, 2)
    za = tc.forward(pa)[0]
    zb = tc.forward(pb)[0]
    assert pullback.pulled_symbol(op1, pa, pb) == operators.symbol_eval(op1.base, za, zb)
    assert pullback.pulled_star(op1, op2, pa) == operators.star_product(
        op1.base, op2.base, za)

    other = pullback.PulledOperator(op2.base, pullback.torus_chart())
    with pytest.raises(DimensionMismatch):
        pullback.pulled_star(op1, other, pa)


def test_manifold_inner_product_orthonormality(basis):
    spec = basis(1, 6)
    for chart in (pullback.identity_chart(1), pullback.torus_chart()):
        eye = np.eye(spec.N)
        dev = 0.0
        for i in range(spec.N):
            for j in range(spec.N):
                got = pullback.inner_product_on_manifold(spec, chart, eye[i], eye[j])
                dev = max(dev, abs(got - (1.0 if i == j else 0.0)))
        assert dev <= 1e-8, chart.name


def test_manifold_inner_product_general(basis, rng):
    spec = basis(1, 5)
    chart = pullback.torus_chart()
    v1 = rng.normal(size=spec.N) + 1j * rng.normal(size=spec.N)
    v2 = rng.normal(size=spec.N) + 1j * rng.normal(size=spec.N)
    got = pullback.inner_product_on_manifold(spec, chart, v1, v2)
    assert got == pytest.approx(complex(np.vdot(v1, v2)), rel=1e-8)

    zero = pullback.inner_product_on_manifold(spec, chart, np.zeros(spec.N), v2)
    assert zero == 0.0


def transported_nodes(spec, chart):
    """The whole chart rule pushed to parameter space: (params, Lebesgue weights)."""
    nodes, weights = layout_nodes(spec.node_data().rule)
    params = chart.inverse(nodes)
    return params, weights / ((2.0 ** chart.d) * chart.jacobian_det(params))


def dense_gram(spec, chart_a, chart_b, psi, chunk=None):
    """Gram probe of equivalence_check from tables of all transported rows.

    One table of all nodes, or one per ``chunk`` consecutive nodes, summed.
    """
    all_params, all_wleb = transported_nodes(spec, chart_a)
    chunk = all_params.shape[0] if chunk is None else chunk
    gram = 0.0
    for lo in range(0, all_params.shape[0], chunk):
        params, wleb = all_params[lo:lo + chunk], all_wleb[lo:lo + chunk]
        s_a = np.sum(np.abs(chart_a.forward(params)) ** 2, axis=1)
        mapped = chart_b.forward(np.asarray(psi(params), dtype=float))
        s_b = np.sum(np.abs(mapped) ** 2, axis=1)
        emap = hilbert.eval_matrix_normalized(spec, mapped)
        emap *= np.exp((spec.m / 2.0) * (np.log1p(s_b) - np.log1p(s_a)))[:, None]
        h = pullback.measure_factor(chart_a, params)
        gram = gram + spec.c_m * ((emap.conj().T * (wleb * h)) @ emap)
    return gram


def dense_inner_product(spec, chart, v1, v2):
    """inner_product_on_manifold from one table of all transported rows."""
    params, wleb = transported_nodes(spec, chart)
    ehat = hilbert.eval_matrix_normalized(spec, chart.forward(params))
    h = pullback.measure_factor(chart, params)
    return spec.c_m * complex(np.sum(wleb * h * np.conj(ehat @ v1) * (ehat @ v2)))


@pytest.mark.parametrize("d, m, budget", [(1, 8, 0), (2, 12, None), (3, 5, None)])
def test_carried_rows_fill_one_buffer_bitwise(monkeypatch, basis, d, m, budget):
    # The node stream yields the rule's nodes and weights in node order, in
    # blocks of at least 2N nodes with a short last one (at d = 1 the budget
    # is cut to 0, so the 2N floor sets the block; at d = 3 a radial node's
    # rows exceed the budget, and the last piece of each is short).  The
    # carried rows of every block, written into one buffer, are bitwise a
    # fresh evaluation at the mapped points times the scale.  With the budget
    # cut to 7 rows the gathers of a fresh evaluation run in passes.
    if budget is not None:
        monkeypatch.setattr(quadrature, "_BLOCK_BYTES", budget)
    spec = basis(d, m)
    rule = spec.node_data().rule
    all_nodes, all_weights = layout_nodes(rule)
    ident, other = pullback.identity_chart(d), pullback.scaling_chart(1.3, d)
    q, _ = np.linalg.qr(np.arange(4 * d * d).reshape(2 * d, 2 * d) % 5 + np.eye(2 * d))

    def psi(p):
        return p @ q.T

    sizes, buffers = [], set()
    carried = pullback._carried(spec, ident, other, psi, pullback._node_stream(spec))
    for (nodes, weights), got in zip(pullback._node_stream(spec), carried, strict=True):
        lo, hi = sum(sizes), sum(sizes) + nodes.shape[0]
        sizes.append(hi - lo)
        assert nodes.tobytes() == all_nodes[lo:hi].tobytes()
        assert weights.tobytes() == all_weights[lo:hi].tobytes()
        buffers.add(got.__array_interface__["data"][0])
        params = ident.inverse(nodes)
        z_a, mapped = ident.forward(params), other.forward(psi(params))
        s_a, s_b = (np.sum(np.abs(z) ** 2, axis=1) for z in (z_a, mapped))
        scale = (np.exp((spec.m / 2.0) * (np.log1p(s_b) - np.log1p(s_a)))
                 * np.sqrt(pullback._core_weights(weights, z_a)))
        want = hilbert.eval_matrix_normalized(spec, mapped) * scale[:, None]
        assert got.tobytes() == want.tobytes()
    assert sum(sizes) == rule.node_count and len(buffers) == 1
    assert sizes[0] >= 2 * spec.N and 0 < sizes[-1] < sizes[0]
    monkeypatch.setattr(quadrature, "_BLOCK_BYTES", 7 * 16 * spec.N)
    pts, out = all_nodes[:50], np.empty((60, spec.N), dtype=complex)
    got = hilbert._lift_rows(spec, hilbert.unit_lift(pts), out)
    assert np.shares_memory(got, out)
    assert got.tobytes() == hilbert.eval_matrix_normalized(spec, pts).tobytes()


@pytest.mark.parametrize("d, m, chart", [
    (1, 6, pullback.torus_chart()), (1, 12, pullback.torus_chart()),
    (2, 6, dataclasses.replace(pullback.identity_chart(2), equivariant=False))])
def test_streamed_inner_product_is_the_gram_form(basis, rng, d, m, chart):
    # The streamed inner product and the streamed Gram matrix of the chart
    # against itself sum the same carried rows: v1^H G v2 to 1e-13.
    spec = basis(d, m)
    v1, v2 = (rng.normal(size=spec.N) + 1j * rng.normal(size=spec.N) for _ in range(2))
    v1, v2 = v1 / np.linalg.norm(v1), v2 / np.linalg.norm(v2)
    gram = pullback._pulled_gram(spec, chart, chart, pullback._identity_map)
    assert gram.bands is None
    got = pullback.inner_product_on_manifold(spec, chart, v1, v2)
    assert abs(got - np.vdot(v1, gram.mat @ v2)) <= 1e-13


def test_vectors_of_the_wrong_length_are_refused(basis):
    # A vector longer than N was read up to N by the banded product, which
    # returned a vector as long as it: the radial inner product summed it.
    # Every path now refuses any first axis but N.
    spec2, spec1 = basis(2, 4), basis(1, 4)
    for spec, chart in [(spec2, pullback.identity_chart(2)), (spec1, pullback.torus_chart())]:
        good = np.ones(spec.N)
        for bad in (np.ones(spec.N + 3), np.ones(spec.N - 1), np.ones((spec.N, 1))):
            for args in ((bad, good), (good, bad)):
                with pytest.raises(DimensionMismatch):
                    pullback.inner_product_on_manifold(spec, chart, *args)
    tc, p = pullback.torus_chart(), interior_grid(2)
    for base in (operators.identity_operator(spec1),
                 operators.OperatorMatrix(spec1, np.eye(spec1.N))):
        assert np.allclose(pullback.pulled_apply(pullback.PulledOperator(base, tc),
                                                 np.eye(spec1.N)[1], p),
                           pullback.pull_section(spec1, tc, np.eye(spec1.N)[1], p))
        for bad in (np.ones(spec1.N + 3), np.ones(spec1.N - 1)):
            with pytest.raises(DimensionMismatch):
                pullback.pulled_apply(pullback.PulledOperator(base, tc), bad, p)
            with pytest.raises(DimensionMismatch):
                base.dot(bad[:, None], transpose=True)


@pytest.mark.parametrize("d, m", [(1, 6), (2, 4), (2, 8)])
def test_streamed_rows_match_dense_formula(basis, rng, monkeypatch, d, m):
    # A budget below 2N rows gives blocks of the 2N floor rounded down to
    # whole radial nodes, several per rule here; entries agree to 1e-13
    # relative to the largest one.
    spec = basis(d, m)
    monkeypatch.setattr(quadrature, "_BLOCK_BYTES", 7 * 16 * spec.N)
    assert len(list(pullback._node_stream(spec))) > 1
    ident = pullback.identity_chart(d)
    # The identity chart without its jacobian_fn: the reference takes the
    # Jacobian by finite differences, the streamed sums never take it.
    numeric = dataclasses.replace(ident, name="identity_numeric_jacobian", jacobian_fn=None)
    q, _ = np.linalg.qr(np.arange(4 * d * d).reshape(2 * d, 2 * d) % 5 + np.eye(2 * d))
    cases = [(ident, pullback.rotation_chart(0.9, d), pullback._identity_map),
             (ident, pullback.scaling_chart(2.0, d), pullback._identity_map),
             (ident, ident, lambda p: p @ q.T),
             (numeric, pullback.rotation_chart(0.9, d), pullback._identity_map)]
    charts = [ident, pullback.rotation_chart(0.9, d), pullback.scaling_chart(2.0, d), numeric]
    if d == 1:
        torus = pullback.torus_chart()
        cases += [(torus, ident, pullback._identity_map),
                  (ident, torus, lambda p: torus.inverse(ident.forward(p)))]
        charts.append(torus)
    for chart_a, chart_b, psi in cases:
        want = dense_gram(spec, chart_a, chart_b, psi)
        got = pullback._pulled_gram(spec, chart_a, chart_b, psi).mat
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want))), \
            (chart_a.name, chart_b.name)
        assert np.array_equal(got, got.conj().T), (chart_a.name, chart_b.name)
    v1 = rng.normal(size=spec.N) + 1j * rng.normal(size=spec.N)
    v2 = rng.normal(size=spec.N) + 1j * rng.normal(size=spec.N)
    v1 /= np.linalg.norm(v1)
    v2 /= np.linalg.norm(v2)
    for chart in charts:
        want = dense_inner_product(spec, chart, v1, v2)
        got = pullback.inner_product_on_manifold(spec, chart, v1, v2)
        assert abs(got - want) <= 1e-13, chart.name


@pytest.mark.parametrize("d, m, level", [(1, 64, None), (2, 12, None), (2, 24, None),
                                         (3, 4, None), (2, 8, 1)])
def test_radial_gram_matches_streamed_and_dense(basis, d, m, level):
    # Equivariant charts under the identity psi: the Gram matrix from the
    # radial points, its angles summed in closed form, against the streamed
    # node sum (a psi that is not the identity object takes that path) and
    # the dense formula.  (2, 8) at level 1 has n_theta = 5 <= m, so the
    # bands delta = +-5 alias onto the constant mode.  The identity chart
    # without its jacobian_fn never has its Jacobian read, so its Gram matrix
    # is bitwise the declared one's; the dense formula takes it by finite
    # differences, one loop over the nodes, so only up to 10,000 nodes.
    spec = basis(d, m, level)
    ident, rot = pullback.identity_chart(d), pullback.rotation_chart(0.9, d)

    def radial_gram(chart_a, chart_b):
        gram = pullback._pulled_gram(spec, chart_a, chart_b, pullback._identity_map)
        assert gram.bands is not None
        return gram.mat

    for chart_b in (rot, pullback.scaling_chart(2.0, d)):
        got = radial_gram(ident, chart_b)
        assert np.array_equal(got, got.conj().T), chart_b.name
        for want in (pullback._pulled_gram(spec, ident, chart_b, lambda p: p).mat,
                     dense_gram(spec, ident, chart_b, pullback._identity_map, chunk=8192)):
            assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want))), \
                chart_b.name
    numeric = dataclasses.replace(ident, name="identity_numeric_jacobian", jacobian_fn=None)
    got = radial_gram(numeric, rot)
    assert np.array_equal(got, radial_gram(ident, rot))
    if spec.node_data().rule.node_count <= 10_000:
        want = dense_gram(spec, numeric, rot, pullback._identity_map)
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


def test_equivariant_inner_product_streams_no_node_blocks(monkeypatch, basis, rng):
    # A chart that declares equivariant pairs the sections through its
    # radial Gram matrix; the torus chart and an undeclared copy of a stock
    # chart still stream node blocks.  For unit vectors the radial value
    # agrees with the streamed one to 1e-13, a bound fixed before the first
    # run, and both with <v1, v2>.
    class Streamed(Exception):
        pass

    def refuse(*args):
        raise Streamed

    spec = basis(2, 6)
    v1, v2 = (rng.normal(size=spec.N) + 1j * rng.normal(size=spec.N) for _ in range(2))
    v1, v2 = v1 / np.linalg.norm(v1), v2 / np.linalg.norm(v2)
    charts = [pullback.identity_chart(2), pullback.rotation_chart(0.8, d=2),
              pullback.scaling_chart(2.0, d=2)]
    undeclared = [dataclasses.replace(chart, equivariant=False) for chart in charts]
    streamed = [pullback.inner_product_on_manifold(spec, chart, v1, v2) for chart in undeclared]
    monkeypatch.setattr(pullback, "_node_stream", refuse)
    for chart, want in zip(charts, streamed):
        got = pullback.inner_product_on_manifold(spec, chart, v1, v2)
        assert abs(got - want) <= 1e-13, chart.name
        assert abs(got - np.vdot(v1, v2)) <= 1e-12, chart.name
    with pytest.raises(Streamed):
        pullback.inner_product_on_manifold(spec, undeclared[1], v1, v2)
    v = np.ones(basis(1, 6).N)
    with pytest.raises(Streamed):
        pullback.inner_product_on_manifold(basis(1, 6), pullback.torus_chart(), v, v)


def test_stock_equivalence_transports_no_node_blocks(monkeypatch, basis):
    # Stock charts under psi = None never transport a node block; a user
    # psi, a chart without the declaration, or the torus chart still does.
    class Streamed(Exception):
        pass

    def refuse(*args):
        raise Streamed

    monkeypatch.setattr(pullback, "_node_stream", refuse)
    spec = basis(2, 6)
    ident = pullback.identity_chart(2)
    assert pullback.equivalence_check(spec, ident, pullback.rotation_chart(0.8, d=2)).equivalent
    assert not pullback.equivalence_check(spec, ident, pullback.scaling_chart(2.0, d=2)).equivalent
    undeclared = dataclasses.replace(ident, equivariant=False)
    for chart_a, chart_b, psi in [(ident, ident, lambda p: p), (ident, undeclared, None),
                                  (undeclared, ident, None)]:
        with pytest.raises(Streamed):
            pullback.equivalence_check(spec, chart_a, chart_b, psi)
    torus, ident1 = pullback.torus_chart(), pullback.identity_chart(1)
    for chart_a, chart_b in [(torus, ident1), (ident1, torus)]:
        with pytest.raises(Streamed):
            pullback.equivalence_check(basis(1, 6), chart_a, chart_b)


def test_equivalence_d2_m16_memory(tmp_path, child_process):
    # Transported rows are streamed in bounded blocks.  With the whole
    # (23,409 x 153) table and its weighted copy this check peaked at 238 MB.
    probe = ("from berezin import hilbert, pullback as pb\n"
             "spec = hilbert.build_basis(2, 16)\n"
             "for other in (pb.rotation_chart(0.8, d=2), pb.scaling_chart(2.0, d=2)):\n"
             "    print(pb.equivalence_check(spec, pb.identity_chart(2), other).equivalent)\n")
    returncode, out, err, peak = child_process(["-c", probe], tmp_path)
    assert returncode == 0, err
    assert out.split() == ["True", "False"]
    assert peak < 128 * 1024  # KiB on Linux


def test_pulled_gram_d2_m12_traced_peak(basis):
    # Streamed (a psi that is not the identity object): one reused row buffer
    # and gather scratch (about 512 KiB each) and one reused (2N, 2N)
    # product.  With all transported nodes up front and a new 2 MiB block
    # built while the last one was alive, the peak was 8.2 MB.  The radial
    # path holds rows at the radial points only.
    spec = basis(2, 12)
    spec.node_data()
    ident, rot = pullback.identity_chart(2), pullback.rotation_chart(0.8, d=2)
    for psi in (lambda p: p, pullback._identity_map):
        tracemalloc.start()
        try:
            pullback._pulled_gram(spec, ident, rot, psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 20


def test_equivalence_d2_m48_traced_peak(basis):
    # The stock charts' Gram matrix stays in bands: max |G - I| is read off
    # them.  Densified, each probe peaked at 58.1 MiB; the rest is the
    # (n_r^d, N) radial rows and the band contraction's gathers.
    spec = basis(2, 48)
    spec.node_data()
    ident = pullback.identity_chart(2)
    for other in (pullback.rotation_chart(0.8, d=2), pullback.scaling_chart(2.0, d=2)):
        tracemalloc.start()
        try:
            rep = pullback.equivalence_check(spec, ident, other, rng=np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.equivalent == (other.descriptor["kind"] == "rotation")
        assert peak < 40 * 2 ** 20, other.name


def sequential_kernel_probe(spec, chart_a, chart_b, psi, rng, pairs):
    """equivalence_check's kernel probe one candidate pair at a time.

    Returns the accepted pairs [(za, zb), ...] and the kernel deviation.
    """
    kept, kernel_dev, attempts = [], 0.0, 0
    while len(kept) < pairs:
        attempts += 1
        if attempts > 200 * pairs:
            raise ValueError("could not sample enough admissible parameter pairs")
        pa = chart_a.sample(rng, 2)
        pb = np.asarray(psi(pa), dtype=float)
        if not (np.all(chart_a.in_domain(pa)) and np.all(chart_b.in_domain(pb))):
            continue
        za, zb = chart_a.forward(pa), chart_b.forward(pb)
        if math.exp(0.5 * geometry.diastasis(za[0], za[1])) < 0.5:
            continue
        log_ratio = (hilbert.log_kernel(spec, zb[0], zb[1])
                     - hilbert.log_kernel(spec, za[0], za[1]))
        kernel_dev = max(kernel_dev, abs(np.expm1(log_ratio)))
        kept.append((za, zb))
    return kept, kernel_dev


@pytest.mark.parametrize("d, m", [(1, 6), (2, 12)])
def test_batched_kernel_probe_matches_sequential(basis, d, m):
    # Same draws, same accepted pairs bit for bit, same generator state
    # after; the deviation only sums in another order.
    spec = basis(d, m)
    ident = pullback.identity_chart(d)
    cases = [(ident, pullback.rotation_chart(0.9, d), pullback._identity_map),
             (ident, pullback.scaling_chart(1.1, d), pullback._identity_map),
             (ident, pullback.scaling_chart(2.0, d), pullback._identity_map)]
    if d == 1:
        # psi leaves the square, so some candidates fail the domain masks
        # (and the Gram probe would refuse it: only the kernel probe runs).
        torus = pullback.torus_chart()
        cases.append((torus, torus, lambda p: 1.1 * p))
    for chart_a, chart_b, psi in cases:
        for pairs in (1, 64):
            rng_b, rng_s = np.random.default_rng(7), np.random.default_rng(7)
            z = pullback._kernel_pairs(chart_a, chart_b, psi, rng_b, pairs)
            kept, want = sequential_kernel_probe(spec, chart_a, chart_b, psi, rng_s, pairs)
            assert z.shape == (2, pairs, 2, d)
            np.testing.assert_array_equal(z[0], [za for za, _ in kept])
            np.testing.assert_array_equal(z[1], [zb for _, zb in kept])
            assert rng_b.bit_generator.state == rng_s.bit_generator.state
            if chart_a is chart_b:
                continue
            rep = pullback.equivalence_check(spec, chart_a, chart_b, psi, pairs=pairs,
                                             rng=np.random.default_rng(7))
            assert rep.pairs_used == pairs
            assert rep.kernel_deviation == pytest.approx(want, rel=1e-12, abs=1e-13)


def test_kernel_probe_refusals(basis):
    # A candidate at the kernel's zero set raises SingularPair; candidates
    # that are never admissible stop the probe after 200 * pairs draws.
    spec = basis(1, 4)
    ident = pullback.identity_chart(1)
    drawn = []

    def fixed(pair):
        def sampler(rng, n):
            drawn.append(n)
            return np.tile(pair, (n // 2, 1))
        return dataclasses.replace(ident, name="fixed", sampler_fn=sampler)

    with pytest.raises(SingularPair):
        pullback.equivalence_check(spec, fixed([[1.0, 0.0], [-1.0, 0.0]]), ident)
    with pytest.raises(ValueError, match="admissible"):
        pullback.equivalence_check(spec, fixed([[1.0, 0.0], [-0.9, 0.0]]), ident, pairs=3)
    assert sum(drawn[1:]) == 2 * 200 * 3


def test_equivalence_nan_kernel_ratio_is_not_equivalent(basis):
    # psi is the identity on the rule's nodes, so the Gram probe passes, and
    # NaN on every sampled pair: the NaN ratio is reported, not dropped.
    spec = basis(1, 4)
    ident = pullback.identity_chart(1)
    on_rule = {row.tobytes() for nodes, _ in pullback._node_stream(spec)
               for row in ident.inverse(nodes)}

    def psi(p):
        keep = np.array([row.tobytes() in on_rule for row in p])
        return np.where(keep[:, None], p, np.nan)

    rep = pullback.equivalence_check(spec, ident, ident, psi=psi, pairs=8)
    assert rep.inner_product_deviation <= 1e-12
    assert math.isnan(rep.kernel_deviation)
    assert not rep.equivalent


def test_equivalence_requires_a_kernel_probe(basis, monkeypatch):
    # The reflection psi = p * [1, -1] keeps the Gram matrix and fails only
    # the kernel probe, so fewer than one pair must not report equivalence.
    spec = basis(1, 6)
    ident = pullback.identity_chart(1)

    def reflect(p):
        return p * np.array([1.0, -1.0])

    rep = pullback.equivalence_check(spec, ident, ident, psi=reflect, pairs=64)
    assert rep.inner_product_deviation <= 1e-12
    assert rep.kernel_deviation > 1.0 and not rep.equivalent

    def no_work(*args):
        raise AssertionError("rejected before any work")

    monkeypatch.setattr(pullback, "_pulled_gram", no_work)
    for pairs in (0, -3):
        with pytest.raises(ValueError, match="pairs must be >= 1"):
            pullback.equivalence_check(spec, ident, ident, psi=reflect, pairs=pairs)


def test_equivalence_accepts_isometric_presentations(basis, rng):
    spec = basis(1, 6)
    ident = pullback.identity_chart(1)
    rep = pullback.equivalence_check(spec, ident, ident, rng=rng)
    assert rep.equivalent
    assert rep.inner_product_deviation <= 1e-10
    assert rep.kernel_deviation <= 1e-10

    rot = pullback.rotation_chart(0.9)
    rep = pullback.equivalence_check(spec, ident, rot, rng=rng)
    assert rep.equivalent
    assert rep.pairs_used == 64


def test_equivalence_via_parameter_self_map(basis, rng):
    spec = basis(1, 4)
    ident = pullback.identity_chart(1)
    th = 0.6
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    rep = pullback.equivalence_check(spec, ident, ident, psi=lambda p: p @ rot.T,
                                     rng=rng)
    assert rep.equivalent


def test_equivalence_rejects_rescaling(basis, rng):
    spec = basis(1, 6)
    rep = pullback.equivalence_check(spec, pullback.identity_chart(1),
                                     pullback.scaling_chart(2.0), rng=rng)
    assert not rep.equivalent
    assert rep.kernel_deviation > 1e-2

    with pytest.raises(DimensionMismatch):
        pullback.equivalence_check(basis(2, 2), pullback.identity_chart(1),
                                   pullback.identity_chart(1), rng=rng)


def test_equivalence_kernel_probe_survives_kernel_overflow():
    # At m = 256, pairs drawn with sigma = 3 reach |1 + mu . conj(nu)| >= 16,
    # where the kernel itself overflows a double; the probe compares in log form.
    spec = hilbert.build_basis(1, 256)

    def wide(chart):
        return dataclasses.replace(chart, sampler_fn=lambda rng, n: rng.normal(0.0, 3.0, (n, 2)))

    ident = wide(pullback.identity_chart(1))
    rep = pullback.equivalence_check(spec, ident, wide(pullback.rotation_chart(0.9)),
                                     rng=np.random.default_rng(7), pairs=32)
    assert rep.equivalent and rep.pairs_used == 32
    assert np.isfinite(rep.kernel_deviation) and rep.kernel_deviation <= 1e-10
    rep = pullback.equivalence_check(spec, ident, wide(pullback.scaling_chart(2.0)),
                                     rng=np.random.default_rng(7), pairs=32)
    assert not rep.equivalent and rep.kernel_deviation > 1e-2


def test_connection_constant_path_is_zero():
    val = pullback.connection_integral(lambda t: np.array([0.3 + 0.4j]), 2)
    assert val == 0.0


def test_connection_equator_and_quarter_arc():
    val = pullback.connection_integral(pullback.equator_path(), 2)
    assert val == pytest.approx(2.0 * np.pi, abs=1e-9)
    assert pullback.holonomy(pullback.equator_path(), 2) == pytest.approx(1.0, abs=1e-8)
    quarter = pullback.connection_integral(pullback.quarter_arc(), 4)
    assert quarter == pytest.approx(np.pi, abs=1e-9)


def test_connection_half_loop_relation():
    m = 2
    first = pullback.connection_integral(lambda t: np.array([np.exp(1j * np.pi * t)]), m)
    second_rev = pullback.connection_integral(
        lambda t: np.array([np.exp(1j * np.pi * (2.0 - t))]), m)
    lhs = np.exp(-1j * first)
    rhs = np.exp(-1j * second_rev)
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_connection_polyline_and_refinement():
    t = np.linspace(0.0, 1.0, 4097)
    verts = np.exp(2j * np.pi * t).reshape(-1, 1)
    val = pullback.connection_integral(verts, 2)
    assert val == pytest.approx(2.0 * np.pi, abs=1e-9)

    a = pullback.connection_integral(pullback.equator_path(), 2, segments=4096)
    b = pullback.connection_integral(pullback.equator_path(), 2, segments=8192)
    assert abs(a - b) <= 1e-8


def test_connection_coarse_paths_rejected():
    t9 = np.linspace(0.0, 1.0, 9)
    with pytest.raises(PathTooCoarse):
        pullback.connection_integral(np.exp(2j * np.pi * t9).reshape(-1, 1), 2)
    with pytest.raises(PathTooCoarse):
        pullback.connection_integral(np.ones((4, 1), dtype=complex), 2)
    with pytest.raises(PathTooCoarse):
        pullback.connection_integral(np.ones((6, 1), dtype=complex), 2)
    with pytest.raises(PathTooCoarse):
        pullback.connection_integral(pullback.equator_path(), 2, segments=8)


def test_odd_levels_rejected():
    with pytest.raises(OddLevel):
        pullback.connection_integral(pullback.equator_path(), 3)
    with pytest.raises(OddLevel):
        pullback.torus_holonomy(1, 0, 5)


def test_levels_below_one_rejected():
    # m = 0 is even, so the parity check passed it, and the cycle read a
    # trivial holonomy; m = -2 read the inverse of the m = 2 holonomy.
    for m in (0, -2):
        with pytest.raises(ValueError, match="m >= 1"):
            pullback.torus_holonomy(1, 0, m)


def test_segments_below_one_rejected():
    # Zero segments gave a NaN holonomy and negative ones a trivial one.
    for segments in (0, -5):
        with pytest.raises(ValueError, match="segments must be >= 1"):
            pullback.torus_holonomy(1, 0, 2, segments=segments)
        with pytest.raises(ValueError, match="segments must be >= 1"):
            pullback.connection_integral(pullback.equator_path(), 2, segments=segments)


def test_curvature_matches_boundary_integral():
    center, radius = 0.3 + 0.1j, 0.7
    boundary = pullback.connection_integral(pullback.circle_path(center, radius), 2) / 2.0
    surface = pullback.curvature_disk_integral(center, radius)
    assert abs(boundary - surface) <= 1e-6


def test_torus_holonomy_identities():
    assert pullback.torus_holonomy(0, 0, 4) == 1.0 + 0.0j
    # center-line cycles carry no connection integral by angular parity
    assert pullback.torus_holonomy(3, -2, 4) == pytest.approx(1.0, abs=1e-12)

    base = (0.25, 0.25)
    for k1, k2, m in ((1, 0, 2), (0, 1, 2), (2, -1, 4), (-3, 2, 6)):
        got = pullback.torus_holonomy(k1, k2, m, base=base)
        want = np.exp(-1j * m * (k1 - k2) * np.pi / np.sqrt(2.0))
        assert got == pytest.approx(want, abs=1e-9), (k1, k2, m)

    h = pullback.torus_holonomy(2, 1, 4, base=base)
    hinv = pullback.torus_holonomy(-2, -1, 4, base=base)
    assert abs(h * hinv - 1.0) <= 1e-10
    prod = (pullback.torus_holonomy(1, 1, 4, base=base)
            * pullback.torus_holonomy(-1, -1, 4, base=base))
    assert abs(prod - 1.0) <= 1e-8


def test_torus_holonomy_refinement_stability():
    base = (0.25, 0.25)
    a = pullback.torus_holonomy(1, -1, 4, base=base, segments=4096)
    b = pullback.torus_holonomy(1, -1, 4, base=base, segments=8192)
    assert abs(a - b) <= 1e-8


def test_torus_holonomy_with_tail():
    base = (0.25, 0.25)
    tail = pullback.circle_path(2.0, 0.5)
    plain = pullback.torus_holonomy(1, -1, 4, base=base)
    with_tail = pullback.torus_holonomy(1, -1, 4, tail=tail, base=base)
    ci = pullback.connection_integral(tail, 4)
    assert with_tail == pytest.approx(plain * np.exp(-1j * ci), abs=1e-12)
    # contractible tail: its phase is the enclosed curvature
    disk = pullback.curvature_disk_integral(2.0, 0.5)
    assert np.exp(-1j * ci) == pytest.approx(np.exp(-4j * disk), abs=1e-6)


def test_chart_to_json_deterministic():
    tc = pullback.torus_chart()
    text = pullback.chart_to_json(tc)
    assert text == pullback.chart_to_json(pullback.torus_chart())
    data = json.loads(text)
    assert data["name"] == "torus"
    assert data["d"] == 1


def test_geometry_of_connection_density():
    # the curvature density in the disk integral is the chart volume form
    z = np.array([0.4 - 0.2j])
    dens = 2.0 / (1.0 + np.abs(z[0]) ** 2) ** 2
    assert dens == pytest.approx(geometry.lebesgue_volume_density(z), rel=1e-14)
