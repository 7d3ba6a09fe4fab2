"""Finite-level operators, their covariant symbols, and the star product.

An operator at level m is an (N, N) matrix in the orthonormal monomial basis,
held densely or, for Toeplitz operators of functions with declared angular
modes, the identity and the Gram matrix, as its nonzero bands, which
arithmetic keeps (``OperatorMatrix``).  Its two-point symbol is

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

from . import geometry, hilbert, quadrature
from .errors import DegenerateKernel, DimensionMismatch
from .hilbert import BasisSpec

# Refuse symbol division once |what|^m drops below this; below it the quotient
# has no trustworthy digits in double precision.
DEGENERATE_TOL = 1e-14
# Rounding floor of the sweep slopes, in units of m eps (``_fit_slope``).
SLOPE_FLOOR = 64


class OperatorMatrix:
    """Level-m operator: a basis spec plus its (N, N) coefficient matrix.

    An operator is given either densely, ``mat``, or by ``bands``
    ({delta: (rows, cols, vals)} with band delta listing every admissible
    (I, I - delta) in ``hilbert._band_index`` order): then ``mat`` is built
    (``hilbert._densify``) only when a caller first reads it, and ``dot``
    and the arithmetic below read the bands.  ``+``, ``-``, ``@`` (bands
    K_a + K_b in O(|K_a| |K_b| N)), scalar ``*`` and ``adjoint`` of banded
    operands are banded, and dense if an operand is.  ``adjoint_sign`` is +1
    for a Hermitian matrix, -1 for an anti-Hermitian one and 0 when unknown;
    every result carries it, so ``toeplitz.operator_norm`` takes the norm of
    a banded Hermitian result per block.
    """

    def __init__(self, spec: BasisSpec, mat=None, *, bands: dict | None = None,
                 adjoint_sign: int = 0):
        self.spec, self.bands, self.adjoint_sign = spec, bands, adjoint_sign
        self._mat = None
        if bands is None:
            self._mat = np.asarray(mat, dtype=complex)
            if self._mat.shape != (spec.N, spec.N):
                raise DimensionMismatch(
                    f"matrix shape {self._mat.shape} does not match basis size {spec.N}")

    @property
    def mat(self) -> np.ndarray:
        if self._mat is None:
            self._mat = hilbert._densify(self.spec, self.bands)
        return self._mat

    def dot(self, x, transpose: bool = False) -> np.ndarray:
        """A x (A^T x with ``transpose``) for x of shape (N,) or (N, k), from the bands if any."""
        x = np.asarray(x)
        if x.shape[:1] != (self.spec.N,):
            raise DimensionMismatch(f"vector has shape {x.shape}, expected ({self.spec.N},) "
                                    f"or ({self.spec.N}, k)")
        if self.bands is not None:
            return hilbert._band_dot(self.bands, x, transpose)
        return (self.mat.T if transpose else self.mat) @ x

    def _sum(self, other: "OperatorMatrix", op) -> "OperatorMatrix":
        _same_spec(self, other)
        sign = self.adjoint_sign if self.adjoint_sign == other.adjoint_sign else 0
        if self.bands is None or other.bands is None:
            return OperatorMatrix(self.spec, op(self.mat, other.mat), adjoint_sign=sign)
        bands = dict(self.bands)
        for delta, (rows, cols, vals) in other.bands.items():
            bands[delta] = rows, cols, op(bands[delta][2] if delta in bands else 0, vals)
        return OperatorMatrix(self.spec, bands=bands, adjoint_sign=sign)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._sum(other, np.add)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._sum(other, np.subtract)

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        _same_spec(self, other)
        spec = self.spec
        if self.bands is None or other.bands is None:
            return OperatorMatrix(spec, self.mat @ other.mat)
        full: dict = {}  # delta -> (N,) entries (I, I - delta), 0 where not admissible
        for db, (rb, _, vb) in other.bands.items():
            at = np.full(spec.N, -1)
            at[rb] = np.arange(rb.size)
            for da, (ra, ca, va) in self.bands.items():
                k = at[ca]  # the entry of ``other`` in row J = I - da, if any
                ok = k >= 0
                out = full.setdefault(tuple(p + q for p, q in zip(da, db)),
                                      np.zeros(spec.N, dtype=complex))
                out[ra[ok]] += va[ok] * vb[k[ok]]
        bands = {}
        for delta, out in full.items():
            rows, cols = hilbert._band_index(spec, delta)
            bands[delta] = rows, cols, out[rows]
        return OperatorMatrix(spec, bands=bands)

    def __rmul__(self, scalar) -> "OperatorMatrix":
        c = complex(scalar)
        sign = self.adjoint_sign if c.imag == 0 else -self.adjoint_sign if c.real == 0 else 0
        if self.bands is None:
            return OperatorMatrix(self.spec, c * self.mat, adjoint_sign=sign)
        return OperatorMatrix(self.spec, adjoint_sign=sign, bands={
            delta: (rows, cols, c * vals) for delta, (rows, cols, vals) in self.bands.items()})

    def adjoint(self) -> "OperatorMatrix":
        if self.bands is None:
            return OperatorMatrix(self.spec, self.mat.conj().T, adjoint_sign=self.adjoint_sign)
        return OperatorMatrix(self.spec, adjoint_sign=self.adjoint_sign, bands={
            tuple(-q for q in delta): (cols, rows, vals.conj())
            for delta, (rows, cols, vals) in self.bands.items()})


def _same_spec(a: OperatorMatrix, b: OperatorMatrix) -> None:
    if a.spec.d != b.spec.d or a.spec.m != b.spec.m:
        raise DimensionMismatch(
            f"operators live at different levels: (d={a.spec.d}, m={a.spec.m}) "
            f"vs (d={b.spec.d}, m={b.spec.m})")


def identity_operator(spec: BasisSpec) -> OperatorMatrix:
    zero = (0,) * spec.d
    rows, cols = hilbert._band_index(spec, zero)
    return OperatorMatrix(spec, bands={zero: (rows, cols, np.ones(spec.N, dtype=complex))},
                          adjoint_sign=1)


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """[a, b] = a @ b - b @ a: banded when both are, anti-Hermitian when both are Hermitian."""
    out = a @ b - b @ a
    out.adjoint_sign = -a.adjoint_sign * b.adjoint_sign
    return out


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
        single = np.ndim(points) < 2
        ehat = hilbert.eval_matrix_normalized(self.spec, points)
        vals = np.einsum("ki,ik->k", ehat, self.op.dot(ehat.conj().T))
        return complex(vals[0]) if single else vals

    def cross(self, nu_pts, mu_pts) -> np.ndarray:
        """Two-point symbol on a (K, L) grid of (bra, ket) points.

        The quotient of <ehat_nu, A ehat_mu> by what^m, with the power taken
        by repeated squaring (``hilbert._power``).
        """
        nu_pts = hilbert._as_points(self.spec, nu_pts)
        mu_pts = hilbert._as_points(self.spec, mu_pts)
        ehat_nu = hilbert.eval_matrix_normalized(self.spec, nu_pts)
        ehat_mu = hilbert.eval_matrix_normalized(self.spec, mu_pts)
        weighted_vals = self.op.dot(ehat_nu.T, transpose=True).T @ ehat_mu.conj().T
        what = hilbert.normalized_pairing(nu_pts, mu_pts)
        mag = np.abs(what)
        bad = (mag == 0.0) | (self.spec.m * np.log(np.where(mag > 0, mag, 1.0))
                              < math.log(DEGENERATE_TOL))
        if np.any(bad):
            k, l = np.argwhere(bad)[0]
            raise DegenerateKernel(
                f"symbol requested at a degenerate pair (rows {k}, cols {l}): "
                f"|normalized pairing| = {mag[k, l]:.3e} at level m = {self.spec.m}")
        return weighted_vals / hilbert._power(what, self.spec.m)

    def grad(self, points):
        """Exact Wirtinger gradients (d/dmu, d/dmubar) of the diagonal symbol, shaped like ``points``.

        With row = ehat at one (d,) point or each of (n, d) points, zeta its
        unit lift and L_k the ladder gather ``BasisSpec._lowering``:
        d sigma / d mu_k = (L_k row) A row^H - m conj(zeta_k) zeta_d sigma and
        d sigma / d mubar_k = row A (L_k row)^H - m zeta_k zeta_d sigma.  One
        row table, one gather and two (N, n) products with A, whatever n.
        """
        spec, single = self.spec, np.ndim(points) < 2
        lift = hilbert.unit_lift(hilbert._as_points(spec, points))
        rows, (src, coef) = hilbert._lift_rows(spec, lift), spec._lowering
        low = coef * rows[:, src]  # (n, d, N): L_k row per point
        # A row^H and row A as (n, N, 1) columns: one mat-vec per point below.
        a_rows = self.op.dot(rows.conj().T).T[..., None]
        rows_a = self.op.dot(rows.T, transpose=True).T[..., None]
        zeta, sigma = lift[:, :spec.d], (rows[:, None] @ a_rows)[:, 0]
        scale = -spec.m * lift[:, spec.d, None] * sigma
        dmu = (low @ a_rows)[..., 0] + scale * zeta.conj()
        dmubar = (low.conj() @ rows_a)[..., 0] + scale * zeta
        return (dmu[0], dmubar[0]) if single else (dmu, dmubar)


def star_product(op1: OperatorMatrix, op2: OperatorMatrix, mu) -> complex:
    """Star product of the two symbols, evaluated at ``mu``.

    Computed by quadrature over the coherent overlap; the rule at the spec's
    level integrates the (polynomial x weight) integrand exactly, so this
    agrees with the diagonal symbol of ``op1 @ op2`` to rounding error.  The
    node sum of <psi_mu, A1 psi_nu><psi_nu, A2 psi_mu> is taken in the order
    (row A1) G (A2 row^H), with row the normalized basis row at mu and G the
    Gram bands of the node data (the diagonal at the default level); banded
    operators are applied by their bands.
    """
    _same_spec(op1, op2)
    spec = op1.spec
    mu = geometry.as_point(mu, d=spec.d)
    gram = hilbert._gram(spec, spec.node_data())
    row = hilbert.eval_matrix_normalized(spec, mu)[0]
    left = hilbert._band_dot(gram, op1.dot(row, transpose=True), transpose=True)
    return complex(left @ op2.dot(row.conj()))


def operator_from_symbol(spec: BasisSpec, symbol) -> OperatorMatrix:
    """Reconstruct the operator whose two-point symbol is ``symbol``.

    ``symbol`` is either a CovariantSymbol or a callable (nu_pts, mu_pts) ->
    (K, L) returning finite two-point symbol values.  Double quadrature over
    bra and ket nodes; for symbols of actual level-m operators the integrand
    is in the rule's exact family and recovery is at rounding error.  For a
    CovariantSymbol of A that quadrature is G A G with G the Gram bands, which
    is returned directly (banded when A is).  A plain callable costs (node
    count)^2 evaluations, taken in ket node blocks of about _BLOCK_BYTES /
    n_theta^d nodes, each against bra blocks of whole radial nodes, so a
    (bra, ket) table holds about _BLOCK_BYTES; the bra sum is ``hilbert.analyze``.
    """
    if isinstance(symbol, CovariantSymbol):
        gram = OperatorMatrix(spec, bands=hilbert._gram(spec, spec.node_data()), adjoint_sign=1)
        return gram @ symbol.op @ gram
    nd, out = spec.node_data(), np.zeros((spec.N, spec.N), dtype=complex)
    n_ang = nd.rule.n_theta ** spec.d
    for ket in quadrature.node_blocks(nd.rule, 16 * n_ang):
        lift = hilbert._lifts(nd, ket).conj().T
        ket_rows, bra_sum = hilbert._rows(nd, ket) * nd.wr[ket.r, None], 0
        for bra in quadrature.node_blocks(nd.rule, 16 * ket.r.size, n_ang):
            what = hilbert._lifts(nd, bra) @ lift
            mid = np.asarray(symbol(bra.nodes, ket.nodes)) * hilbert._power(what, spec.m)
            bra_sum = bra_sum + hilbert.analyze(spec, nd, nd.wr[bra.r, None] * mid, bra)
        out += bra_sum @ ket_rows
    return OperatorMatrix(spec, spec.c_m ** 2 * out)


@dataclass
class SweepResult:
    """Error decay rows plus log-log slopes of their e0 and e1 columns.

    Rows are (m, e0, e1) from correspondence_sweep and (m, norm, e0, e1) from
    toeplitz_sweep; a slope is None with fewer than two errors above its floor.
    """

    rows: list
    slope_e0: float | None
    slope_e1: float | None


def _fit_slope(ms: Sequence[int], errs: Sequence[float]) -> float | None:
    """Closed-form least-squares slope of log e against log m over the errors above
    SLOPE_FLOOR m eps; below it, a difference of O(1) quantities times m is rounding."""
    pairs = [(m, e) for m, e in zip(ms, errs) if e > SLOPE_FLOOR * m * np.finfo(float).eps]
    if len(pairs) < 2:
        return None
    lx = np.log([p[0] for p in pairs])
    ly = np.log([p[1] for p in pairs])
    lx -= np.mean(lx)
    return float(np.dot(lx, ly - np.mean(ly)) / np.dot(lx, lx))


def correspondence_sweep(f_op_builder: Callable[[int], OperatorMatrix],
                         g_op_builder: Callable[[int], OperatorMatrix],
                         m_list: Sequence[int], mu) -> SweepResult:
    """Semiclassical error decay for a family of operator pairs.

    Each builder maps a level m to an operator at that level.  At the chart
    point ``mu`` this records, per level,

        e0 = |(A1 * A2)(mu) - a1(mu) a2(mu)|
        e1 = |m ((A1 * A2) - (A2 * A1))(mu) - i {a1, a2}(mu)|

    with * the star product, a_i the diagonal symbols, and {,} the chart
    Poisson bracket ``geometry.poisson_bracket``, which reads the symbols'
    exact gradients (``CovariantSymbol.grad``).
    Both decay like 1/m for smooth bounded families; e1 is 0 for moment maps.
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
        e1 = abs(m * (star12 - star21) - 1j * geometry.poisson_bracket(s1, s2, pt))
        rows.append((int(m), float(e0), float(e1)))
    ms = [r[0] for r in rows]
    return SweepResult(rows=rows,
                       slope_e0=_fit_slope(ms, [r[1] for r in rows]),
                       slope_e1=_fit_slope(ms, [r[2] for r in rows]))
