"""Chart quadrature: level policy, closed-form moments, exactness, failure modes."""

import numpy as np
import pytest

from berezin import hilbert, quadrature
from berezin.errors import (DimensionMismatch, IndexOutOfRange, NonFiniteIntegrand,
                            ResourceLimit)
from conftest import layout_nodes

try:
    import mpmath
except ImportError:
    mpmath = None


def weighted_monomial(alpha, beta, m_eff, d):
    """nu^alpha conj(nu)^beta (1 + |nu|^2)^-(m_eff + d + 1) as a node evaluator."""
    def f(nodes):
        s = np.sum(np.abs(nodes) ** 2, axis=1)
        vals = (1.0 + s) ** (-(m_eff + d + 1))
        for i in range(d):
            vals = vals * nodes[:, i] ** alpha[i] * np.conj(nodes[:, i]) ** beta[i]
        return vals
    return f


def test_level_policy():
    assert quadrature.m_max(1) == 4
    assert quadrature.m_max(3) == 12
    assert quadrature.level_for(0) == 1
    assert quadrature.level_for(1) == 1
    assert quadrature.level_for(4) == 1
    assert quadrature.level_for(5) == 2
    assert quadrature.level_for(12) == 3
    assert quadrature.level_for(13) == 4


def test_rule_counts_and_companion():
    rule = quadrature.build_rule(1, 2)
    assert rule.node_count == 16 * 9
    assert rule.coarse is None
    quadrature.integrate(weighted_monomial((0,), (0,), 0, 1), rule)
    assert rule.coarse.node_count == 8 * 5
    base = quadrature.build_rule(1, 1)
    quadrature.integrate(weighted_monomial((0,), (0,), 0, 1), base)
    assert base.coarse.node_count == 4 * 3
    rule2 = quadrature.build_rule(2, 1)
    assert rule2.node_count == (8 * 5) ** 2


def test_exact_family_counts():
    # (2L + ceil(d/2)) radial times (4L + 1) angular nodes per dimension
    for d, level in [(1, 1), (1, 2), (1, 32), (2, 1), (2, 4), (3, 1), (3, 2)]:
        rule = quadrature.build_rule(d, level, exact_family=True)
        n_r = 2 * level + (d + 1) // 2
        assert rule.radial_nodes.shape == (n_r,)
        assert rule.node_count == (n_r * (4 * level + 1)) ** d
        assert rule.exact_family and rule.coarse is None


def gram_deviation(d, m, n_r):
    """Gram-matrix deviation at (d, m) on a level rule with n_r radial nodes."""
    spec = hilbert.build_basis(d, m)
    n_theta = 4 * spec.level + 1
    u, gw, radii, wr = quadrature._assemble(d, n_r, n_theta)
    rule = quadrature.QuadratureRule(d, spec.level, u, gw, n_theta, radii, wr)
    nodes, weights = layout_nodes(rule)
    s = np.sum(np.abs(nodes) ** 2, axis=1)
    ehat = hilbert.eval_matrix_normalized(spec, nodes)
    gram = spec.c_m * ((ehat.conj().T * (weights * (1.0 + s) ** -(d + 1.0))) @ ehat)
    return np.max(np.abs(gram - np.eye(spec.N)))


@pytest.mark.parametrize("d,m", [(1, 8), (2, 4), (3, 4)])
def test_exact_family_count_is_tight(d, m):
    n_r = 2 * quadrature.level_for(m) + (d + 1) // 2
    assert gram_deviation(d, m, n_r) <= 1e-13
    assert gram_deviation(d, m, n_r - 1) > 1e-6


def test_build_rule_rejections(monkeypatch):
    with pytest.raises(DimensionMismatch):
        quadrature.build_rule(0, 1)
    with pytest.raises(ValueError):
        quadrature.build_rule(1, 0)
    # 48^4 = 5.3M radial points, over RADIAL_CAP, refused before assembly
    monkeypatch.setattr(quadrature, "_assemble", None)
    with pytest.raises(ResourceLimit):
        quadrature.build_rule(4, 6)
    monkeypatch.setattr(quadrature, "RADIAL_CAP", 10)
    with pytest.raises(ResourceLimit):
        quadrature.build_rule(1, 2)


@pytest.mark.parametrize("d, level", [(1, 2), (2, 1), (3, 1)])
def test_layout_is_radii_times_angles(monkeypatch, d, level):
    # node r * n_theta^d + k is radii[r] * exp(i theta_k), k in C order, with
    # weight radii_weights[r], as node_blocks yields them.  The blocks cover
    # the nodes in order; a block holds whole radial nodes, as many as the
    # budget (4 KiB here, over row_bytes per node) allows, at least
    # min_nodes, and a radial node of more nodes than that is split into
    # pieces of that size, the last shorter.  The three (row_bytes,
    # min_nodes) take either branch.
    monkeypatch.setattr(quadrature, "_BLOCK_BYTES", 2 ** 12)
    for rule in (quadrature.build_rule(d, level), quadrature.build_rule(d, level, exact_family=True)):
        n_ang = rule.n_theta ** d
        k = np.indices((rule.n_theta,) * d).reshape(d, -1).T
        angles = np.exp(1j * (2.0 * np.pi * k / rule.n_theta))
        assert rule.radii.shape == (rule.radial_nodes.shape[0] ** d, d)
        for row_bytes, min_nodes in ((16, 1), (2 ** 14, 1), (2 ** 16, 3)):
            step = max(min_nodes, 2 ** 12 // row_bytes)
            blocks = list(quadrature.node_blocks(rule, row_bytes, min_nodes))
            nodes = np.concatenate([blk.nodes for blk in blocks])
            assert np.array_equal(nodes.reshape(-1, n_ang, d),
                                  rule.radii[:, None, :] * angles[None])
            weights = np.concatenate([blk.weights for blk in blocks])
            assert np.array_equal(weights, np.repeat(rule.radii_weights, n_ang))
            shape = (rule.n_theta,) * d
            flat = np.concatenate([blk.r * n_ang + np.ravel_multi_index(blk.k.T, shape)
                                   for blk in blocks])
            assert np.array_equal(flat, np.arange(rule.node_count))
            sizes = [blk.r.size for blk in blocks]
            assert [blk.lo for blk in blocks] == list(np.cumsum([0] + sizes[:-1]))
            if step >= n_ang:
                full = step - step % n_ang
                assert all(size == full for size in sizes[:-1]) and 0 < sizes[-1] <= full
                assert sizes[-1] % n_ang == 0
            else:
                assert set(sizes) == {step, n_ang - (n_ang - 1) // step * step}
                assert all(blk.r[0] == blk.r[-1] for blk in blocks)


def test_gauss_legendre_data_is_shared_and_read_only():
    # n_r = 3 at level 1 for d = 1 and d = 2: one cached 1-d rule serves both
    a = quadrature.build_rule(1, 1, exact_family=True)
    b = quadrature.build_rule(2, 1, exact_family=True)
    assert a.radial_nodes is b.radial_nodes and a.radial_weights is b.radial_weights
    with pytest.raises(ValueError):
        a.radial_nodes[0] = 0.0
    with pytest.raises(ValueError):
        a.radial_weights *= 2.0


def mp_gauss_legendre(n, which=None):
    """n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1], 40 digits.

    Newton on the three-term recurrence for P_n from cos(pi (i - 1/4) / (n + 1/2))
    for the nodes x >= 0, mirrored (P_n has parity n); call inside
    ``mpmath.workdps(40)``.  ``which`` (ascending positions) restricts the
    nodes computed to those.
    """
    coef = [((2 * k + 1) / mpmath.mpf(k + 1), k / mpmath.mpf(k + 1)) for k in range(1, n)]

    def legendre(x):
        p0, p1 = mpmath.mpf(1), x
        for a, b in coef:
            p0, p1 = p1, a * x * p1 - b * p0
        return p1, n * (x * p1 - p0) / (x * x - 1)

    def node(i):  # the i-th largest node and its weight
        x = mpmath.cos(mpmath.pi * (i - mpmath.mpf(1) / 4) / (n + mpmath.mpf(1) / 2))
        step = 1
        while abs(step) > mpmath.mpf(10) ** -36:
            p, dp = legendre(x)
            step = p / dp
            x -= step
        # dp moved by a relative 1e-30 or less in the last step
        return x, 2 / ((1 - x * x) * dp * dp)

    if which is not None:
        return [node(n - a) for a in which]
    half = [node(i) for i in range((n + 1) // 2, 0, -1)]
    mirror = [(-x, w) for x, w in reversed(half[n % 2:])]
    return [x for x, _ in mirror + half], [w for _, w in mirror + half]


@pytest.mark.skipif(mpmath is None, reason="needs mpmath")
@pytest.mark.parametrize("n", [7, 59, 257])
def test_gauss_legendre_matches_40_digit_reference(n):
    u, gw = quadrature._gauss_legendre(n)
    with mpmath.workdps(40):
        x_ref, w_ref = mp_gauss_legendre(n)
        # the rule lives on [0, 1]: u = (x + 1) / 2, gw = w / 2
        node_err = max(abs(mpmath.mpf(float(a)) - (x + 1) / 2) for a, x in zip(u, x_ref))
        weight_err = max(abs(mpmath.mpf(float(a)) / (w / 2) - 1) for a, w in zip(gw, w_ref))
    # Bounds fixed before the first run; numpy's leggauss weights are 1.4e-10
    # off at n = 257.
    assert node_err <= 2e-16
    assert weight_err <= 1e-11


@pytest.mark.skipif(mpmath is None, reason="needs mpmath")
def test_gauss_legendre_n1025_matches_40_digit_reference():
    # The 8 nodes nearest each end, where the asymptotic start is worst, and
    # every 64th node between: the whole 40-digit reference takes ~16 s here.
    # The recurrence's rounding grows like n^2, so the weight bound is the
    # n = 257 bound times 10; both bounds were fixed before the first run.
    n = 1025
    which = sorted({*range(8), *range(0, n, 64), *range(n - 8, n)})
    u, gw = quadrature._gauss_legendre(n)
    with mpmath.workdps(40):
        ref = mp_gauss_legendre(n, which)
        node_err = max(abs(mpmath.mpf(float(u[a])) - (x + 1) / 2) for a, (x, _) in zip(which, ref))
        weight_err = max(abs(mpmath.mpf(float(gw[a])) / (w / 2) - 1)
                         for a, (_, w) in zip(which, ref))
    assert node_err <= 2e-16
    assert weight_err <= 1e-10


@pytest.mark.parametrize("n", [1, 7, 59, 257])
def test_gauss_legendre_exact_through_degree_2n_minus_2(n):
    u, gw = quadrature._gauss_legendre(n)
    x, w = 2.0 * u - 1.0, 2.0 * gw
    assert np.sum(w * x ** (2 * n - 2)) == pytest.approx(2.0 / (2 * n - 1), rel=1e-12)
    assert np.array_equal(gw, gw[::-1])


def test_build_rule_deterministic():
    a, b = (list(quadrature.node_blocks(quadrature.build_rule(1, 3), 16)) for _ in range(2))
    for x, y in zip(a, b, strict=True):
        assert np.array_equal(x.nodes, y.nodes)
        assert np.array_equal(x.weights, y.weights)


def test_total_volume():
    assert quadrature.total_volume(1) == pytest.approx(2.0 * np.pi, rel=1e-15)
    assert quadrature.total_volume(2) == pytest.approx(2.0 * np.pi ** 2, rel=1e-15)


def test_moment_closed_form_values():
    # spot values from the factorial formula
    assert quadrature.moment(0, 0, 1) == pytest.approx(2.0 * np.pi, rel=1e-15)
    assert quadrature.moment((1,), 4, 1) == pytest.approx(np.pi / 10.0, rel=1e-15)
    assert quadrature.moment((2, 1), 4, 2) == pytest.approx(np.pi ** 2 / 90.0, rel=1e-15)


def test_moment_rejections():
    with pytest.raises(IndexOutOfRange):
        quadrature.moment(5, 4, 1)
    with pytest.raises(IndexOutOfRange):
        quadrature.moment((-1,), 4, 1)
    with pytest.raises(DimensionMismatch):
        quadrature.moment((1, 1), 4, 1)


def test_exactness_d1_at_level_boundary():
    # level 1 claims exactness through family parameter 4
    rule = quadrature.build_rule(1, 1)
    for q in range(5):
        got = quadrature.integrate(weighted_monomial((q,), (q,), 4, 1), rule)
        want = quadrature.moment((q,), 4, 1)
        assert got.value.real == pytest.approx(want, rel=1e-13)
        assert abs(got.value.imag) <= 1e-15


def test_exactness_d1_angular_parity():
    rule = quadrature.build_rule(1, 1)
    got = quadrature.integrate(weighted_monomial((2,), (1,), 4, 1), rule)
    assert abs(got.value) <= 1e-14


def test_exactness_d2_cascade():
    rule = quadrature.build_rule(2, 1)
    got = quadrature.integrate(weighted_monomial((2, 1), (2, 1), 4, 2), rule)
    want = quadrature.moment((2, 1), 4, 2)
    assert got.value.real == pytest.approx(want, rel=1e-12)
    cross = quadrature.integrate(weighted_monomial((1, 0), (0, 1), 4, 2), rule)
    assert abs(cross.value) <= 1e-14


def test_exactness_total_volume():
    for d in (1, 2):
        rule = quadrature.build_rule(d, 1)
        got = quadrature.integrate(weighted_monomial((0,) * d, (0,) * d, 0, d), rule)
        assert got.value.real == pytest.approx(quadrature.total_volume(d), rel=1e-13)


def test_error_estimate_tracks_accuracy():
    def f(nodes):
        s = np.sum(np.abs(nodes) ** 2, axis=1)
        return np.exp(-s) / (1.0 + s) ** 3

    res = quadrature.integrate(f, quadrature.build_rule(1, 2))
    ref = quadrature.integrate(f, quadrature.build_rule(1, 6))
    assert res.error_estimate > 0.0
    assert abs(res.value - ref.value) <= 1e-6
    assert abs(res.value - ref.value) <= res.error_estimate


def test_integrate_rejects_bad_integrands():
    rule = quadrature.build_rule(1, 1)
    with pytest.raises(NonFiniteIntegrand):
        quadrature.integrate(lambda nodes: np.full(nodes.shape[0], np.nan), rule)
    with pytest.raises(DimensionMismatch):
        quadrature.integrate(lambda nodes: np.ones(3), rule)


def test_integrate_sums_blocks_in_order(monkeypatch):
    # With blocks of 5 nodes (64 bytes each at d = 1) the value is the sum
    # of the block sums, and a non-finite value is reported at its index
    # among all nodes.
    rule = quadrature.build_rule(1, 2)
    f = weighted_monomial((1,), (1,), 4, 1)
    want = quadrature.integrate(f, rule).value
    monkeypatch.setattr(quadrature, "_BLOCK_BYTES", 5 * 64)
    assert abs(quadrature.integrate(f, rule).value - want) <= 1e-15
    nodes, _ = layout_nodes(rule)
    bad = nodes[77].tobytes()

    def poisoned(pts):
        return np.where([p.tobytes() == bad for p in pts], np.inf, 1.0)

    with pytest.raises(NonFiniteIntegrand, match="node 77:"):
        quadrature.integrate(poisoned, rule)
