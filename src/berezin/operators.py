"""Finite-level operators, their covariant symbols, and the star product.

An operator at level m is an (N, N) matrix in the orthonormal monomial basis.
Its two-point symbol is

    S(nu, mu) = <psi_nu, A psi_mu> / <psi_nu, psi_mu>,

holomorphic in mu and antiholomorphic in nu; the diagonal restriction is the
usual lower symbol.  All evaluations run through the unit-lift basis values
and normalized pairing of ``hilbert``,

    what(nu, mu) = zeta(nu) . conj(zeta(mu)),  zeta(nu) = (nu, 1) / sqrt(1 + |nu|^2),

so nothing overflows at any level.  |what| <= 1 with equality only at
coinciding points; the symbol denominator is what^m, and evaluation close to
its zero set is refused (DegenerateKernel) rather than returned at garbage
precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import geometry, hilbert
from .errors import DegenerateKernel, DimensionMismatch
from .hilbert import BasisSpec

# Refuse symbol division once |what|^m drops below this; below it the quotient
# has no trustworthy digits in double precision.
DEGENERATE_TOL = 1e-14


@dataclass(eq=False)
class OperatorMatrix:
    """Level-m operator: a basis spec plus its (N, N) coefficient matrix."""

    spec: BasisSpec
    mat: np.ndarray

    def __post_init__(self):
        self.mat = np.asarray(self.mat, dtype=complex)
        if self.mat.shape != (self.spec.N, self.spec.N):
            raise DimensionMismatch(
                f"matrix shape {self.mat.shape} does not match basis size {self.spec.N}")

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        _same_spec(self, other)
        return OperatorMatrix(self.spec, self.mat + other.mat)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        _same_spec(self, other)
        return OperatorMatrix(self.spec, self.mat - other.mat)

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        _same_spec(self, other)
        return OperatorMatrix(self.spec, self.mat @ other.mat)

    def __rmul__(self, scalar) -> "OperatorMatrix":
        return OperatorMatrix(self.spec, complex(scalar) * self.mat)

    def adjoint(self) -> "OperatorMatrix":
        return OperatorMatrix(self.spec, self.mat.conj().T)


def _same_spec(a: OperatorMatrix, b: OperatorMatrix) -> None:
    if a.spec.d != b.spec.d or a.spec.m != b.spec.m:
        raise DimensionMismatch(
            f"operators live at different levels: (d={a.spec.d}, m={a.spec.m}) "
            f"vs (d={b.spec.d}, m={b.spec.m})")


def identity_operator(spec: BasisSpec) -> OperatorMatrix:
    return OperatorMatrix(spec, np.eye(spec.N, dtype=complex))


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    _same_spec(a, b)
    return OperatorMatrix(a.spec, a.mat @ b.mat - b.mat @ a.mat)


def symbol_eval(op: OperatorMatrix, nu, mu) -> complex:
    """Two-point symbol S(nu, mu); the first argument indexes the bra side.

    Raises DegenerateKernel when |what(nu, mu)|^m < 1e-14: past that point the
    quotient amplifies rounding error beyond all of double precision.
    """
    nu = geometry.as_point(nu, d=op.spec.d)
    mu = geometry.as_point(mu, d=op.spec.d)
    return complex(CovariantSymbol(op).cross(nu, mu)[0, 0])


class CovariantSymbol:
    """Callable view of an operator's symbol.

    Calling with one (n, d) array (or a single point) evaluates the diagonal
    symbol; ``cross`` evaluates the full two-point matrix.  The diagonal path
    never divides: the (1+s)^m factors cancel identically against the
    row normalization.
    """

    def __init__(self, op: OperatorMatrix):
        self.op = op
        self.spec = op.spec

    def __call__(self, points):
        pts = np.asarray(points, dtype=complex)
        single = pts.ndim == 1
        if single:
            pts = pts.reshape(1, -1)
        ehat = hilbert.eval_matrix_normalized(self.spec, pts)
        vals = np.einsum("ki,ij,kj->k", ehat, self.op.mat, ehat.conj())
        return complex(vals[0]) if single else vals

    def cross(self, nu_pts, mu_pts, weighted: bool = False) -> np.ndarray:
        """Two-point symbol on a (K, L) grid of (bra, ket) points.

        With ``weighted=True`` returns S * what^m instead, which is bounded by
        the operator norm and needs no division; this is the form consumed by
        quadrature against kernel weights.
        """
        nu_pts = np.asarray(nu_pts, dtype=complex).reshape(-1, self.spec.d)
        mu_pts = np.asarray(mu_pts, dtype=complex).reshape(-1, self.spec.d)
        ehat_nu = hilbert.eval_matrix_normalized(self.spec, nu_pts)
        ehat_mu = hilbert.eval_matrix_normalized(self.spec, mu_pts)
        weighted_vals = (ehat_nu @ self.op.mat) @ ehat_mu.conj().T
        if weighted:
            return weighted_vals
        what = hilbert.normalized_pairing(nu_pts, mu_pts)
        mag = np.abs(what)
        bad = (mag == 0.0) | (self.spec.m * np.log(np.where(mag > 0, mag, 1.0))
                              < math.log(DEGENERATE_TOL))
        if np.any(bad):
            k, l = np.argwhere(bad)[0]
            raise DegenerateKernel(
                f"symbol requested at a degenerate pair (rows {k}, cols {l}): "
                f"|normalized pairing| = {mag[k, l]:.3e} at level m = {self.spec.m}")
        return weighted_vals / what ** self.spec.m

    def gradient(self, mu, step: float | None = None):
        """Numeric Wirtinger gradient of the diagonal symbol at one point."""
        return geometry.wirtinger(lambda z: self(z), geometry.as_point(mu, d=self.spec.d),
                                  step=step)


def star_product(op1: OperatorMatrix, op2: OperatorMatrix, mu,
                 level: int | None = None) -> complex:
    """Star product of the two symbols, evaluated at ``mu``.

    Computed by quadrature over the coherent overlap; the rule at the spec's
    level integrates the (polynomial x weight) integrand exactly, so this
    agrees with the diagonal symbol of ``op1 @ op2`` to rounding error.
    """
    _same_spec(op1, op2)
    spec = op1.spec
    mu = geometry.as_point(mu, d=spec.d)
    nd = spec.node_data(level)
    row = hilbert.eval_matrix_normalized(spec, mu)[0]
    left = nd.ehat.conj() @ (row @ op1.mat)     # <psi_mu, A1 psi_nu> normalized
    right = nd.ehat @ (op2.mat @ row.conj())    # <psi_nu, A2 psi_mu> normalized
    return spec.c_m * complex(np.sum(nd.wcore * left * right))


def operator_from_symbol(spec: BasisSpec, symbol, level: int | None = None,
                         chunk: int = 512) -> OperatorMatrix:
    """Reconstruct the operator whose two-point symbol is ``symbol``.

    ``symbol`` is either a CovariantSymbol or a callable (nu_pts, mu_pts) ->
    (K, L) returning finite two-point symbol values.  Double quadrature over
    bra and ket nodes; for symbols of actual level-m operators the integrand
    is in the rule's exact family and recovery is at rounding error.  Work is
    chunked over ket nodes to bound memory.
    """
    nd = spec.node_data(level)
    nodes, n = nd.rule.nodes, nd.rule.nodes.shape[0]
    bra = (nd.ehat.conj() * nd.wcore[:, None])
    out = np.zeros((spec.N, spec.N), dtype=complex)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        if isinstance(symbol, CovariantSymbol):
            mid = symbol.cross(nodes, nodes[lo:hi], weighted=True)
        else:
            what = hilbert.normalized_pairing(nodes, nodes[lo:hi])
            mid = np.asarray(symbol(nodes, nodes[lo:hi])) * what ** spec.m
        ket = nd.ehat[lo:hi] * nd.wcore[lo:hi, None]
        out += bra.T @ mid @ ket
    return OperatorMatrix(spec, spec.c_m ** 2 * out)


@dataclass
class SweepResult:
    """Error decay rows (m, e0, e1) plus fitted log-log slopes (None if < 2 rows)."""

    rows: list
    slope_e0: float | None
    slope_e1: float | None


def _fit_slope(ms: Sequence[int], errs: Sequence[float]) -> float | None:
    pairs = [(m, e) for m, e in zip(ms, errs) if e > 0.0]
    if len(pairs) < 2:
        return None
    lx = np.log([p[0] for p in pairs])
    ly = np.log([p[1] for p in pairs])
    return float(np.polyfit(lx, ly, 1)[0])


def correspondence_sweep(f_op_builder: Callable[[int], OperatorMatrix],
                         g_op_builder: Callable[[int], OperatorMatrix],
                         m_list: Sequence[int], mu) -> SweepResult:
    """Semiclassical error decay for a family of operator pairs.

    Each builder maps a level m to an operator at that level.  At the chart
    point ``mu`` this records, per level,

        e0 = |(A1 * A2)(mu) - a1(mu) a2(mu)|
        e1 = |m ((A1 * A2) - (A2 * A1))(mu) - i {a1, a2}(mu)|

    with * the star product, a_i the diagonal symbols, and {,} the chart
    Poisson bracket of the diagonal symbols (numeric Wirtinger gradients).
    Both decay like 1/m for smooth bounded families.
    """
    rows = []
    for m in m_list:
        a1, a2 = f_op_builder(int(m)), g_op_builder(int(m))
        _same_spec(a1, a2)
        s1, s2 = CovariantSymbol(a1), CovariantSymbol(a2)
        pt = geometry.as_point(mu, d=a1.spec.d)
        star12 = star_product(a1, a2, pt)
        star21 = star_product(a2, a1, pt)
        e0 = abs(star12 - s1(pt) * s2(pt))
        bracket = geometry.poisson_bracket(s1, s2, pt)
        e1 = abs(m * (star12 - star21) - 1j * bracket)
        rows.append((int(m), float(e0), float(e1)))
    ms = [r[0] for r in rows]
    return SweepResult(rows=rows,
                       slope_e0=_fit_slope(ms, [r[1] for r in rows]),
                       slope_e1=_fit_slope(ms, [r[2] for r in rows]))
