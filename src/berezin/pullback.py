"""Alternate parameterizations of the chart and transported computations.

A DiffeoChart presents the chart through a smooth bijection tau from a
parameter domain P in R^(2d) onto (part of) C^d.  Everything quantized lives
on the chart; this module transports it: sections, symbols, star products,
inner products (by honest change of variables through tau, its inverse, and
its Jacobian), plus an equivalence test deciding whether two presentations
induce the same two-point geometry.

It also integrates the level connection along paths.  The connection 1-form
at level m is m * theta with

    theta = Im(sum_i conj(mu_i) dmu_i) / (1 + |mu|^2),

normalized so the unit equator carries integral pi and d theta restricted to
d = 1 is 2 dx dy / (1 + |mu|^2)^2.  Holonomy of a closed loop is
exp(-i * integral).  For the square-torus presentation the two fundamental
cycles cross the seam at infinity, where the transition phase exp(i m pi)
must be trivial: cycle holonomies are only defined at even levels (OddLevel
otherwise).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import geometry, hilbert, operators, quadrature
from .errors import DimensionMismatch, OddLevel, OutOfDomain, PathTooCoarse
from .hilbert import BasisSpec
from .operators import OperatorMatrix

COARSE_TOL = 1e-6


@dataclass(eq=False)
class DiffeoChart:
    """A parameterization of the chart by a domain in R^(2d).

    Parameter arrays have shape (n, 2d), columns ordered (x_1, y_1, ...,
    x_d, y_d).  ``forward_fn``/``inverse_fn`` map between parameter and chart
    arrays; ``jacobian_fn`` returns |det| of the real 2d x 2d Jacobian of
    ``forward_fn`` (finite differences when omitted); ``in_domain_fn`` is a
    boolean mask; ``sampler_fn(rng, n)`` draws interior parameters.

    ``equivariant`` declares that tau commutes with the U(1)^d action: for
    each coordinate j, rotating the pair (x_j, y_j) by theta multiplies
    tau_j by exp(i theta) and leaves the other coordinates alone, so
    tau(R_theta p) = exp(i theta) . tau(p), and the domain is invariant
    under these rotations.  Like ``ChartFunction.modes`` it is a property
    of the presentation, not an option: ``equivalence_check`` trusts it and
    sums the angles of the rule analytically when both charts declare it
    (``_pulled_gram``), so a chart must not declare it unless it holds.
    """

    name: str
    d: int
    forward_fn: Callable
    inverse_fn: Callable
    jacobian_fn: Callable | None = None
    in_domain_fn: Callable | None = None
    sampler_fn: Callable | None = None
    descriptor: dict = field(default_factory=dict)
    equivariant: bool = False

    def _params(self, params) -> np.ndarray:
        p = np.asarray(params, dtype=float)
        if p.ndim == 1:
            p = p.reshape(1, -1)
        if p.shape[1] != 2 * self.d:
            raise DimensionMismatch(
                f"parameters have width {p.shape[1]}, expected {2 * self.d}")
        return p

    def in_domain(self, params) -> np.ndarray:
        p = self._params(params)
        if self.in_domain_fn is None:
            return np.ones(p.shape[0], dtype=bool)
        return np.asarray(self.in_domain_fn(p), dtype=bool)

    def forward(self, params) -> np.ndarray:
        """Map parameters to chart points; rejects out-of-domain rows."""
        p = self._params(params)
        ok = self.in_domain(p)
        if not np.all(ok):
            k = int(np.argmin(ok))
            raise OutOfDomain(f"parameter row {k} = {p[k]} outside domain of {self.name!r}")
        out = np.asarray(self.forward_fn(p), dtype=complex)
        return out.reshape(p.shape[0], self.d)

    def inverse(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=complex)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.shape[1] != self.d:
            raise DimensionMismatch(f"points have dimension {pts.shape[1]}, expected {self.d}")
        params = np.asarray(self.inverse_fn(pts), dtype=float).reshape(pts.shape[0], 2 * self.d)
        ok = self.in_domain(params)
        if not np.all(ok):
            k = int(np.argmin(ok))
            raise OutOfDomain(f"point {pts[k]} has no preimage inside domain of {self.name!r}")
        return params

    def jacobian_det(self, params) -> np.ndarray:
        """|det| of the real Jacobian of the forward map, per parameter row."""
        p = self._params(params)
        if self.jacobian_fn is not None:
            return np.abs(np.asarray(self.jacobian_fn(p), dtype=float).reshape(p.shape[0]))
        return _numeric_jacobian_det(self, p)

    def sample(self, rng, n: int) -> np.ndarray:
        if self.sampler_fn is None:
            raise ValueError(f"chart {self.name!r} has no sampler")
        return self._params(self.sampler_fn(rng, int(n)))


def _numeric_jacobian_det(chart: DiffeoChart, params: np.ndarray) -> np.ndarray:
    """|det| of central-difference Jacobians, steps h = 1e-6 max(1, max |p|) per row."""
    n, w = params.shape
    h = 1e-6 * np.fmax(1.0, np.max(np.abs(params), axis=1))
    jac = np.empty((n, w, w))
    for j in range(w):
        e = np.outer(h, np.eye(w)[j])
        zp = np.asarray(chart.forward_fn(params + e), dtype=complex).reshape(n, -1)
        zm = np.asarray(chart.forward_fn(params - e), dtype=complex).reshape(n, -1)
        jac[:, :, j] = ((zp - zm) / (2.0 * h)[:, None]).view(float)  # rows re, im per z_k
    return np.abs(np.linalg.det(jac))


def measure_factor(chart: DiffeoChart, params) -> np.ndarray:
    """Manifold volume density in parameter coordinates.

    h = 2^d * (1 + |tau|^2)^-(d+1) * |det J|, so integral of F d(volume) over
    the chart equals integral of F(tau(p)) h(p) over plain Lebesgue dp.
    """
    p = chart._params(params)
    return (2.0 ** chart.d) * _core_weights(1.0, chart.forward(p)) * chart.jacobian_det(p)


@dataclass(eq=False)
class PulledOperator:
    """A chart operator together with the presentation it acts through."""

    base: OperatorMatrix
    chart: DiffeoChart

    def __post_init__(self):
        if self.base.spec.d != self.chart.d:
            raise DimensionMismatch(
                f"operator dimension {self.base.spec.d} does not match "
                f"chart dimension {self.chart.d}")


def pull_section(spec: BasisSpec, chart: DiffeoChart, v, params):
    """Section with coefficients ``v`` evaluated at parameter rows: s(tau(p)).

    A single parameter row returns a scalar, an (n, 2d) array returns n values.
    """
    p = np.asarray(params, dtype=float)
    single = p.ndim == 1
    vals = hilbert.section_eval(spec, np.asarray(v, dtype=complex), chart.forward(p))
    return complex(vals[0]) if single else vals


def pulled_apply(op: PulledOperator, v, params):
    """(A s)(tau(p)): the base matrix acts on coefficients, then pull."""
    coeffs = op.base.dot(np.asarray(v, dtype=complex))
    return pull_section(op.base.spec, op.chart, coeffs, params)


def pulled_symbol(op: PulledOperator, p_nu, p_mu) -> complex:
    """Two-point symbol at parameter arguments; delegates through the chart.

    Bitwise equal to symbol_eval at the forward-mapped points.
    """
    nu = op.chart.forward(p_nu)[0]
    mu = op.chart.forward(p_mu)[0]
    return operators.symbol_eval(op.base, nu, mu)


def pulled_star(op1: PulledOperator, op2: PulledOperator, p) -> complex:
    """Star product at a parameter point; delegates through the shared chart."""
    if op1.chart is not op2.chart:
        raise DimensionMismatch("pulled star product needs one shared chart presentation")
    return operators.star_product(op1.base, op2.base, op1.chart.forward(p)[0])


def inner_product_on_manifold(spec: BasisSpec, chart: DiffeoChart, v1, v2) -> complex:
    """Inner product of two pulled-back (N,) sections, computed in parameter space.

    The sum of vdot(E v1, E v2) over the blocks E of the chart's rows carried
    to its own measure (``_carried``); through an ``equivariant`` chart it is
    v1^H G v2 with G the banded Gram matrix of the chart against itself.
    """
    v1, v2 = np.asarray(v1, dtype=complex), np.asarray(v2, dtype=complex)
    if v1.shape != (spec.N,) or v2.shape != (spec.N,):
        raise DimensionMismatch(f"coefficient vectors have shapes {v1.shape} and {v2.shape}, "
                                f"expected ({spec.N},)")
    if chart.equivariant:
        return complex(np.vdot(v1, _pulled_gram(spec, chart, chart, _identity_map).dot(v2)))
    total = 0j
    for rows in _carried(spec, chart, chart, _identity_map, _node_stream(spec)):
        total += np.vdot(rows @ v1, rows @ v2)
    return spec.c_m * complex(total)


def _core_weights(weights: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Rule weights times (1 + |z|^2)^-(d+1) at the transported chart points z."""
    s = np.sum(np.abs(z) ** 2, axis=1)
    return weights * np.exp(-(z.shape[1] + 1.0) * np.log1p(s))


def _node_stream(spec: BasisSpec):
    """(nodes, weights) of the rule in node order: blocks of about _BLOCK_BYTES of rows, >= 2N."""
    blocks = quadrature.node_blocks(spec.node_data().rule, 16 * spec.N, 2 * spec.N)
    return ((blk.nodes, blk.weights) for blk in blocks)


def _carried(spec: BasisSpec, chart_a: DiffeoChart, chart_b: DiffeoChart,
             psi: Callable, blocks):
    """Chart b's basis rows carried by ``psi`` to chart a's measure, one (n, N) block at a time.

    Per (points, weights) of ``blocks``, params = tau_a^-1(points): the
    normalized rows at mapped = tau_b(psi(params)), written into one buffer
    sized by the first (largest) block, times (1 + s_b)^(m/2) / (1 + s_a)^(m/2)
    at z_a = tau_a(params) and sqrt(wleb h) = sqrt(``_core_weights``) (> 0).
    The Lebesgue weight's Jacobian cancels in wleb h and is never evaluated.
    """
    buf = None
    for points, weights in blocks:
        params = chart_a.inverse(points)
        z_a = chart_a.forward(params)
        mapped = chart_b.forward(np.asarray(psi(params), dtype=float))
        if buf is None:
            buf = np.empty((mapped.shape[0], spec.N), dtype=complex)
        rows = hilbert._lift_rows(spec, hilbert.unit_lift(mapped), buf)
        s_a, s_b = np.sum(np.abs(z_a) ** 2, axis=1), np.sum(np.abs(mapped) ** 2, axis=1)
        rows *= (np.exp((spec.m / 2.0) * (np.log1p(s_b) - np.log1p(s_a)))
                 * np.sqrt(_core_weights(weights, z_a)))[:, None]
        yield rows


def _pulled_gram(spec: BasisSpec, chart_a: DiffeoChart, chart_b: DiffeoChart,
                 psi: Callable) -> OperatorMatrix:
    """Gram matrix of chart b's basis carried by ``psi``, under chart a's measure.

    c_m sum of E^H E over the blocks E of ``_carried``.  When ``psi`` is the
    identity and both charts are ``equivariant``, both carry node (r, k) to
    their images of radii[r] times the angular characters of k: the scale
    is radial, and the row is E_r, carried from the radial point, times
    exp(i I . theta_k).  Summing exp(i (J - I) . theta_k) over the angles
    leaves the bands of the constant mode (``hilbert.band_modes``), c_m
    sum_r conj(E_rI) E_r(I-delta) with E from blocks (radii, n_theta^d
    radii_weights) of _FOURIER_BYTES of rows: ``hilbert._contract``, F = 1.
    The operator holds these bands; off them the entries are exactly zero.
    Otherwise it holds the dense matrix, carried over ``_node_stream``: with
    S the real (rows, 2N) view of a block (columns re e_I, im e_I
    interleaved), E^H E is read off the symmetric S^T S, a rank-k update
    (BLAS syrk) of one triangle into one reused (2N, 2N) product, half the
    flops of the complex one and exactly Hermitian.
    """
    if psi is _identity_map and chart_a.equivariant and chart_b.equivariant:
        rule, step = spec.node_data().rule, max(1, hilbert._FOURIER_BYTES // (16 * spec.N))
        w = rule.n_theta ** spec.d * rule.radii_weights
        radial = ((rule.radii[lo:lo + step], w[lo:lo + step]) for lo in range(0, w.size, step))
        reach = hilbert.band_modes(spec, [(0,) * spec.d], rule.n_theta, (1,) * spec.d)
        chunks = ((np.ones((len(E), 1)), E) for E in _carried(spec, chart_a, chart_b, psi, radial))
        return OperatorMatrix(spec, bands=hilbert._contract(spec, reach, chunks))
    P, prod = np.zeros((2 * spec.N, 2 * spec.N)), np.empty((2 * spec.N, 2 * spec.N))
    for blk in _carried(spec, chart_a, chart_b, psi, _node_stream(spec)):
        S = blk.view(float)
        P += np.matmul(S.T, S, out=prod)
    gram = (P[0::2, 0::2] + P[1::2, 1::2]) + 1j * (P[0::2, 1::2] - P[1::2, 0::2])
    gram *= spec.c_m
    return OperatorMatrix(spec, gram)


@dataclass
class EquivalenceReport:
    """Outcome of comparing two chart presentations through a self-map."""

    inner_product_deviation: float
    kernel_deviation: float
    equivalent: bool
    tol: float
    pairs_used: int


def equivalence_check(spec: BasisSpec, chart_a: DiffeoChart, chart_b: DiffeoChart,
                      psi: Callable | None = None, rng=None,
                      pairs: int = 64, tol: float = 1e-6) -> EquivalenceReport:
    """Decide whether two presentations induce the same quantization.

    ``psi`` is a parameter-domain self-map (identity when None) giving the
    candidate correspondence p -> psi(p) between the presentations.  Two
    probes:

      * basis inner products: the candidate map carries basis sections of the
        second presentation to the functions p -> Psi_I(tau_b(psi(p))); their
        Gram matrix under the first presentation's measure must remain the
        identity (max absolute deviation reported);
      * reproducing kernels: on sampled parameter pairs K_b(psi(p), psi(q))
        must equal K_a(p, q) (max relative deviation reported).  Pairs whose
        normalized pairing magnitude under the first chart falls below 0.5
        are resampled: the kernel has no stable digits near its zero set.

    Equivalent only when both deviations are <= tol; a NaN deviation is
    reported as NaN and is not equivalent.  Presentations differing by a
    kernel isometry (a rotation) pass; a same-domain rescaling changes the
    two-point geometry and fails.  The Gram matrix is ``_pulled_gram``'s:
    from the rule's radial points alone when ``psi`` is None and both charts
    are ``equivariant`` (the stock identity, rotation and scaling charts),
    else carried over bounded node blocks into (2N, 2N) products.
    """
    if pairs < 1:
        raise ValueError(f"pairs must be >= 1, got {pairs}")
    if chart_a.d != spec.d or chart_b.d != spec.d:
        raise DimensionMismatch("chart dimensions do not match the basis spec")
    if psi is None:
        psi = _identity_map
    rng = np.random.default_rng(0) if rng is None else rng

    # max |G - I|; off the bands of a banded G both are exactly zero.
    dev = _pulled_gram(spec, chart_a, chart_b, psi) - operators.identity_operator(spec)
    ip_dev = float(np.max(np.abs(dev.mat if dev.bands is None else
                                 np.concatenate([band[2] for band in dev.bands.values()]))))

    z = _kernel_pairs(chart_a, chart_b, psi, rng, pairs)
    # |K_b / K_a - 1| in log form (the kernels overflow at large m).  A chart
    # point that is not finite (``geometry.pairing`` refuses it) or a NaN
    # ratio gives a NaN deviation: the report shows it, not equivalent.
    kernel_dev = np.nan
    if np.all(np.isfinite(z)):
        log_k = hilbert.log_kernel(spec, z[:, :, 0], z[:, :, 1])
        kernel_dev = np.max(np.abs(np.expm1(log_k[1] - log_k[0])))

    return EquivalenceReport(
        inner_product_deviation=float(ip_dev),
        kernel_deviation=float(kernel_dev),
        equivalent=bool(ip_dev <= tol and kernel_dev <= tol),
        tol=float(tol),
        pairs_used=z.shape[1],
    )


def _kernel_pairs(chart_a: DiffeoChart, chart_b: DiffeoChart, psi: Callable, rng, pairs: int):
    """The first ``pairs`` admissible pairs drawn: chart points (2, pairs, 2, d) under a and b.

    Candidates, two rows of ``chart_a.sample`` each, come in batches of the
    pairs still needed, at most 200 * pairs in all.  Admissible: the rows in
    chart a's domain, their ``psi`` images in b's, and exp(D / 2) >= 0.5 for
    D the ``geometry.diastasis`` of all of them under a, which raises
    SingularPair at the kernel's zero set.
    """
    kept, used, attempts = [np.empty((2, 0, 2, chart_a.d), dtype=complex)], 0, 0
    while used < pairs:
        batch = min(pairs - used, 200 * pairs - attempts)
        if batch == 0:
            raise ValueError("could not sample enough admissible parameter pairs")
        attempts += batch
        pa = chart_a.sample(rng, 2 * batch)
        pb = np.asarray(psi(pa), dtype=float)
        ok = (chart_a.in_domain(pa) & chart_b.in_domain(pb)).reshape(-1, 2).all(axis=1).repeat(2)
        z = np.stack([chart_a.forward(pa[ok]), chart_b.forward(pb[ok])])
        z = z.reshape(2, -1, 2, chart_a.d)
        kept.append(z[:, np.exp(0.5 * geometry.diastasis(z[0, :, 0], z[0, :, 1])) >= 0.5])
        used += kept[-1].shape[1]
    return np.concatenate(kept, axis=1)


def _identity_map(params):
    return params


# ---------------------------------------------------------------------------
# stock parameterizations


def _linear_chart(name: str, d: int, c, jacobian: float, descriptor: dict) -> DiffeoChart:
    """z = c (x + iy) per coordinate; ``c`` keeps its type, so the arithmetic
    is the plain real or complex product and quotient.  Equivariant: a
    rotation of (x_j, y_j) multiplies z_j by its phase."""

    def fwd(p):
        return c * (p[:, 0::2] + 1j * p[:, 1::2])

    def inv(z):
        w = z / c
        out = np.empty((z.shape[0], 2 * d))
        out[:, 0::2] = w.real
        out[:, 1::2] = w.imag
        return out

    return DiffeoChart(
        name=name, d=d, forward_fn=fwd, inverse_fn=inv,
        jacobian_fn=lambda p: np.full(p.shape[0], jacobian),
        sampler_fn=lambda rng, n: rng.normal(0.0, 0.7, size=(n, 2 * d)),
        descriptor=descriptor, equivariant=True)


def identity_chart(d: int = 1) -> DiffeoChart:
    """Parameters are the real and imaginary parts themselves."""
    return _linear_chart("identity", d, 1.0, 1.0, {"kind": "identity"})


def rotation_chart(theta: float, d: int = 1) -> DiffeoChart:
    """Identity parameters followed by a phase rotation of every coordinate."""
    phase = complex(np.exp(1j * float(theta)))
    return _linear_chart(f"rotation({theta:g})", d, phase, 1.0,
                         {"kind": "rotation", "theta": float(theta)})


def scaling_chart(a: float, d: int = 1) -> DiffeoChart:
    """Identity parameters followed by scaling; a valid presentation of the
    plane but not of the two-point geometry (equivalence_check fails it)."""
    a = float(a)
    return _linear_chart(f"scaling({a:g})", d, a, a ** (2 * d), {"kind": "scaling", "a": a})


def torus_chart() -> DiffeoChart:
    """The open unit square mapped onto the chart plane by tangent stretches.

    tau(u, v) = tan(pi u - pi/2) + i tan(pi v - pi/2), |det J| =
    pi^2 (1 + x^2)(1 + y^2).  Each fundamental cycle of the closed square
    crosses the chart's point at infinity once.
    """

    def fwd(p):
        x = np.tan(np.pi * p[:, 0] - 0.5 * np.pi)
        y = np.tan(np.pi * p[:, 1] - 0.5 * np.pi)
        return (x + 1j * y).reshape(-1, 1)

    def inv(z):
        w = z.ravel()
        out = np.empty((w.shape[0], 2))
        out[:, 0] = (np.arctan(w.real) + 0.5 * np.pi) / np.pi
        out[:, 1] = (np.arctan(w.imag) + 0.5 * np.pi) / np.pi
        return out

    def jac(p):
        x = np.tan(np.pi * p[:, 0] - 0.5 * np.pi)
        y = np.tan(np.pi * p[:, 1] - 0.5 * np.pi)
        return np.pi ** 2 * (1.0 + x ** 2) * (1.0 + y ** 2)

    def domain(p):
        return np.all((p > 0.0) & (p < 1.0), axis=1)

    return DiffeoChart(
        name="torus", d=1, forward_fn=fwd, inverse_fn=inv, jacobian_fn=jac,
        in_domain_fn=domain,
        sampler_fn=lambda rng, n: rng.uniform(0.05, 0.95, size=(n, 2)),
        descriptor={"kind": "torus"})


def chart_to_json(chart: DiffeoChart) -> str:
    return json.dumps({"name": chart.name, "d": chart.d,
                       "descriptor": chart.descriptor}, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# connection integrals and holonomy


def _theta_increment(mid: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """theta evaluated at midpoints against chord increments, vectorized.

    mid, delta: (n, d) complex.  Returns Im(sum conj(mid) delta)/(1 + |mid|^2).
    """
    s = np.sum(np.abs(mid) ** 2, axis=1)
    return np.sum((np.conj(mid) * delta).imag, axis=1) / (1.0 + s)


def _polyline_integral(vertices: np.ndarray) -> float:
    mid = 0.5 * (vertices[1:] + vertices[:-1])
    delta = vertices[1:] - vertices[:-1]
    return float(np.sum(_theta_increment(mid, delta)))


def _sample_path(path: Callable, n: int, d: int) -> np.ndarray:
    t = np.linspace(0.0, 1.0, n + 1)
    pts = np.asarray([np.atleast_1d(np.asarray(path(tk), dtype=complex)) for tk in t])
    if pts.shape[1] != d:
        raise DimensionMismatch(f"path values have dimension {pts.shape[1]}, expected {d}")
    return pts


def connection_integral(path, m: int, segments: int = 4096) -> float:
    """Integral of the level-m connection m * theta along a path.

    ``path`` is either a callable t in [0, 1] -> chart point or an array of
    polyline vertices.  Chord-midpoint sums at two resolutions are combined
    by Richardson extrapolation; if the two resolutions disagree by more than
    1e-6 the sampling cannot be trusted and PathTooCoarse is raised.  Levels
    are even-only: the line bundle glues across the seam at infinity with
    transition phase exp(i pi m), trivial exactly then.
    """
    if segments < 1:
        raise ValueError(f"segments must be >= 1, got {segments}")
    if int(m) % 2 != 0:
        raise OddLevel(f"connection integrals are defined at even levels only, got m = {m}")
    if callable(path):
        probe = np.atleast_1d(np.asarray(path(0.0), dtype=complex))
        d = probe.shape[0]
        fine = _sample_path(path, 2 * int(segments), d)
        coarse = fine[::2]
    else:
        fine = np.asarray(path, dtype=complex)
        if fine.ndim == 1:
            fine = fine.reshape(-1, 1)
        if fine.shape[0] < 5:
            raise PathTooCoarse(f"polyline with {fine.shape[0]} vertices is too short")
        if fine.shape[0] % 2 == 0:
            raise PathTooCoarse("polyline needs an odd vertex count so it can be halved")
        coarse = fine[::2]
    i_fine = _polyline_integral(fine)
    i_coarse = _polyline_integral(coarse)
    if abs(i_fine - i_coarse) > COARSE_TOL:
        raise PathTooCoarse(
            f"refinement moved the integral by {abs(i_fine - i_coarse):.3e} > {COARSE_TOL:.0e}; "
            "supply a finer path")
    return float(m) * (4.0 * i_fine - i_coarse) / 3.0


def holonomy(path, m: int, segments: int = 4096) -> complex:
    """exp(-i * connection integral) for a closed chart path."""
    return complex(np.exp(-1j * connection_integral(path, m, segments=segments)))


def circle_path(center: complex = 0.0, radius: float = 1.0) -> Callable:
    center = complex(center)

    def path(t):
        return np.array([center + radius * np.exp(2j * np.pi * t)])

    return path


def equator_path() -> Callable:
    """Unit circle, the fixed-latitude loop with connection integral pi."""
    return circle_path(0.0, 1.0)


def quarter_arc() -> Callable:
    """Quarter of the unit circle; carries connection integral pi/4."""

    def path(t):
        return np.array([np.exp(0.5j * np.pi * t)])

    return path


def curvature_disk_integral(center: complex = 0.0, radius: float = 1.0) -> float:
    """Surface integral of d theta = 2 dx dy / (1 + |z|^2)^2 over a disk.

    Matches the connection integral around the disk's boundary circle.  A
    64-point Gauss-Legendre rule in r times 256 midpoint angles.
    """
    u, gw = quadrature._gauss_legendre(64)
    r, wr = radius * u, radius * gw
    t = 2.0 * np.pi * (np.arange(256) + 0.5) / 256
    z = complex(center) + r[:, None] * np.exp(1j * t)[None, :]
    dens = 2.0 / (1.0 + np.abs(z) ** 2) ** 2
    vals = np.sum(dens * r[:, None], axis=1) * (2.0 * np.pi / 256)
    return float(np.sum(wr * vals))


@functools.lru_cache
def _torus_cycle_integral(which: int, base: float, n: int = 4096) -> float:
    """Parameter-space integral of theta along one fundamental cycle.

    which = 0: u varies with v = base; which = 1: v varies with u = base.
    The integrand extends smoothly across the seam; midpoint sums on the
    periodic parameter converge spectrally and are Richardson-combined for
    uniformity with the path machinery.  Cached: a holonomy table asks for
    the same two cycles at every (k1, k2).
    """

    def integrand(tvals: np.ndarray) -> np.ndarray:
        x = np.tan(np.pi * tvals - 0.5 * np.pi)
        xb = math.tan(math.pi * base - 0.5 * math.pi)
        dz_dt = np.pi * (1.0 + x ** 2)
        if which == 0:
            z = x + 1j * xb
            dz = dz_dt          # real direction
        else:
            z = xb + 1j * x
            dz = 1j * dz_dt
        return (np.conj(z) * dz).imag / (1.0 + np.abs(z) ** 2)

    def midpoint(k: int) -> float:
        t = (np.arange(k) + 0.5) / k
        return float(np.sum(integrand(t)) / k)

    i_n, i_2n = midpoint(n), midpoint(2 * n)
    return (4.0 * i_2n - i_n) / 3.0


def torus_holonomy(k1: int, k2: int, m: int, tail=None, segments: int = 4096,
                   base: tuple = (0.5, 0.5)) -> complex:
    """Holonomy of the level-m connection around the (k1, k2) torus cycle.

    The loop runs k1 times around the u-cycle at v = base[1], then k2 times
    around the v-cycle at u = base[0]; an optional ``tail`` chart path
    (callable or polyline) is appended.  Levels must be even: each cycle
    crosses the seam at infinity, whose transition phase exp(i m pi) is
    trivial only then.
    """
    if m % 2 != 0:
        raise OddLevel(
            f"torus cycle holonomy needs an even level, got m = {m}: the seam "
            "transition phase exp(i pi m) must be trivial")
    if segments < 1:
        raise ValueError(f"segments must be >= 1, got {segments}")
    i_u = _torus_cycle_integral(0, float(base[1]), n=segments)
    i_v = _torus_cycle_integral(1, float(base[0]), n=segments)
    total = m * (int(k1) * i_u + int(k2) * i_v)
    if tail is not None:
        total += connection_integral(tail, m, segments=segments)
    return complex(np.exp(-1j * total))
