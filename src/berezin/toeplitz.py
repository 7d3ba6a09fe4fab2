"""Toeplitz quantization of chart functions and its semiclassical sweeps.

T_f at level m is the compression of multiplication by f to the level-m
space, computed entirely on quadrature nodes:

    (T_f)_IJ = c_m * sum_l w_l f(nu_l) conj(Psihat_I(nu_l)) Psihat_J(nu_l)

against the core weight (1 + s)^-(d+1).  For functions of bounded weight
degree p (so (1+s)^p f is polynomial of degree <= p), the rule at level
ceil((m+p)/4) integrates these matrix elements exactly; norms then satisfy
||T_f|| <= sup|f| with defect O(1/m), and the rescaled Toeplitz commutator
approaches the quantized Poisson bracket.

The weight is U(1)^d-invariant, so a function with angular modes K (every
registry function, and the bracket of two of them, declares K) has T_f zero
off the bands I - J in K.  Its operator holds those bands only
(``hilbert._compress_bands``), and it is Hermitian when f is real.  Its
norm is then the largest |eigenvalue| over the index blocks that no mode
couples (``operator_norm``): single indices for K = {0}, chains in I_1 at
fixed (I_2, ..., I_d) for K = {e_1, -e_1}; each stack of equal-size blocks
is scattered straight from the bands.  The commutator defect is normed as
i m [T_f, T_g] + T_{f,g}, written in the operator algebra: for two real
functions it is Hermitian with bands K_f + K_g (band products, O(|K_f|
|K_g| N)), so a registry sweep holds one block stack at a time and never an
(N, N) operator.  At d = 2, m = 48 (N = 1,225) a norm (a defect) takes
10-20 ms (10 ms) from the blocks, 1.0 s (0.4 s) densely.  ``sup_estimate``
samples angles only where a mode is.  A plain callable has every mode of
the rule's angles, its bands are densified once, and its defect is dense,
normed by the SVD.
"""

from __future__ import annotations

import math

import numpy as np

from . import geometry, hilbert, quadrature
from .hilbert import BasisSpec
from .operators import OperatorMatrix, SweepResult, _fit_slope, commutator

# Grid points per block of sup_estimate: d = 2 takes three blocks, and the
# 20M points of d = 3 (1 GB as one array) stay a few MB at a time.
_SUP_BLOCK = 2 ** 15


def _weight_degree(f) -> int:
    return int(getattr(f, "weight_degree", 1))


def _default_level(spec: BasisSpec, f) -> int:
    return max(spec.level, quadrature.level_for(spec.m + _weight_degree(f)))


def project(spec: BasisSpec, f) -> np.ndarray:
    """Coefficients of the orthogonal projection of ``f`` into the level space.

    For ``f`` already a section (a polynomial of degree <= m) this returns its
    coefficient vector back.  ``f`` is evaluated one node block at a time.
    """
    nd = spec.node_data(_default_level(spec, f))
    out = 0
    for blk in quadrature.node_blocks(nd.rule, 16 * (spec.d + 2), nd.rule.n_theta ** spec.d):
        fv = np.asarray(f(blk.nodes), dtype=complex) * nd.hr[blk.r]
        out = out + hilbert.analyze(spec, nd, nd.wr[blk.r] * fv, blk)
    return spec.c_m * out


def toeplitz_matrix(spec: BasisSpec, f) -> OperatorMatrix:
    """Toeplitz operator of ``f`` at the spec's level.

    ``f`` is a vectorized evaluator over (n, d) node arrays; a ChartFunction's
    weight_degree (default 1 for plain callables) picks a rule exact for the
    matrix-element integrands.  When ``f`` declares angular modes the
    operator holds only the bands it has on that rule (``hilbert.band_modes``),
    and adjoint_sign 1 when ``f`` is real; otherwise it has every mode of the
    rule's angles and is densified once (products of (2m + 1)^d bands cost more).
    """
    nd = spec.node_data(_default_level(spec, f))
    modes = getattr(f, "modes", None)
    bands = hilbert._compress_bands(spec, nd, f, None if modes is None else modes(spec.d))
    if modes is None:
        return OperatorMatrix(spec, hilbert._densify(spec, bands))
    return OperatorMatrix(spec, bands=bands, adjoint_sign=int(getattr(f, "real", False)))


def _block_norm(spec: BasisSpec, bands: dict) -> float:
    """Largest |eigenvalue| of the Hermitian operator with these bands, block by block.

    A block is a set of indices that agree on every coordinate that no band
    offset touches; the operator has no entry between two blocks.  Blocks of
    one size are stacked in key order, each index at its place in the stable
    sort, and each stack is scattered straight from the bands and passed to
    ``eigvalsh`` (which reads each block's lower triangle).
    """
    key = np.zeros(spec.N, dtype=np.intp)
    for j in range(spec.d):
        if not any(delta[j] for delta in bands):
            key = key * (spec.m + 1) + spec._exponents[:, j]
    order = np.argsort(key, kind="stable")
    _, starts, inverse, sizes = np.unique(key[order], return_index=True,
                                          return_inverse=True, return_counts=True)
    block, pos = np.empty(spec.N, dtype=np.intp), np.empty(spec.N, dtype=np.intp)
    block[order] = inverse
    pos[order] = np.arange(spec.N) - starts[inverse]
    best = 0.0
    for size in sorted(set(sizes.tolist())):
        ids = np.flatnonzero(sizes == size)
        slot = np.full(sizes.size, -1)
        slot[ids] = np.arange(ids.size)
        stack = np.zeros((ids.size, size, size), dtype=complex)
        for rows, cols, vals in bands.values():
            at = slot[block[rows]]
            sel = at >= 0
            stack[at[sel], pos[rows[sel]], pos[cols[sel]]] = vals[sel]
        best = max(best, float(np.max(np.abs(np.linalg.eigvalsh(stack)))))
    return best


def operator_norm(op) -> float:
    """Spectral norm; accepts an operator wrapper or a bare matrix.

    A banded Hermitian operator is block diagonal, and its norm is the
    largest |eigenvalue| over the blocks (``_block_norm``); a banded
    anti-Hermitian A has the norm of the Hermitian 1j * A.  A bare matrix,
    or an operator without either structure, goes to the SVD.
    """
    if getattr(op, "bands", None) is None or op.adjoint_sign == 0:
        return float(np.linalg.norm(getattr(op, "mat", op), 2))
    return _block_norm(op.spec, (op if op.adjoint_sign == 1 else 1j * op).bands)


def bracket_function(f, g):
    """Pointwise chart Poisson bracket {f, g} as a vectorized evaluator.

    ``geometry.gradients`` supplies the gradients at all the points at once:
    a declared ``grad`` (every ChartFunction and CovariantSymbol) is evaluated
    and never differenced, and a plain callable, a vectorized evaluator over
    (n, d) arrays, takes one central stencil of 4d calls whatever n.  Both
    go through one ``geometry.bracket_from_gradients`` call.
    The returned callable carries a weight_degree attribute p_f + p_g + 1:
    the reduced bracket of bounded rational functions stays within that
    weight class, which keeps Toeplitz integrands exact.  When f and g both
    declare angular modes it declares K_f + K_g (the bracket is U(1)^d
    invariant) and is real when both are; otherwise it declares nothing.
    """

    def evaluate(points):
        pts = np.asarray(points, dtype=complex)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        return geometry.bracket_from_gradients(pts, *geometry.gradients(f, pts),
                                               *geometry.gradients(g, pts))

    evaluate.weight_degree = _weight_degree(f) + _weight_degree(g) + 1
    evaluate.__name__ = "bracket"
    if getattr(f, "modes", None) is not None and getattr(g, "modes", None) is not None:
        evaluate.modes = lambda d: tuple(sorted({tuple(p + q for p, q in zip(a, b))
                                                 for a in f.modes(d)
                                                 for b in g.modes(d)}))
        evaluate.real = bool(getattr(f, "real", False) and getattr(g, "real", False))
    return evaluate


def commutator_defect(spec: BasisSpec, f, g) -> float:
    """Spectral-norm defect || m [T_f, T_g] - i T_{{f,g}} || at the spec level."""
    tf, tg, tb = (toeplitz_matrix(spec, h) for h in (f, g, bracket_function(f, g)))
    return operator_norm(1j * (spec.m * commutator(tf, tg)) + tb)


def sup_estimate(f, d: int) -> float:
    """Estimate sup |f| over the compactified chart by dense grid sampling.

    Per dimension j: radii from u = r^2/(1+r^2) on a 16-point uniform [0, 1)
    grid plus a ring at u = 1 - 1e-12, times 16 uniform angles, or theta_j = 0
    alone if f declares modes and none touches j (f is then constant in theta_j).
    The grid hits u in {0, 1/2, 1} and the coordinate axes, where the bundled
    family takes its extrema: exact for all of them.  Blocks of _SUP_BLOCK,
    after its 17^d radial points pass the rules' bound.
    """
    u = np.append(np.linspace(0.0, 1.0, 16, endpoint=False), 1.0 - 1e-12)
    quadrature.check_radial(u.size ** d, "sup grid")
    r = np.sqrt(u / (1.0 - u))
    theta = 2.0 * np.pi * np.arange(16) / 16
    modes = f.modes(d) if getattr(f, "modes", None) is not None else None
    angles = [theta if modes is None or any(k[j] for k in modes) else theta[:1] for j in range(d)]
    rings = [(r[:, None] * np.exp(1j * t)[None, :]).ravel() for t in angles]
    shape = tuple(ring.size for ring in rings)
    n, best = math.prod(shape), 0.0
    for lo in range(0, n, _SUP_BLOCK):
        k = np.unravel_index(np.arange(lo, min(lo + _SUP_BLOCK, n)), shape)
        pts = np.stack([ring[kj] for ring, kj in zip(rings, k)], axis=1)
        best = max(best, float(np.max(np.abs(np.asarray(f(pts))))))
    return best


def toeplitz_sweep(f, g, m_list, d: int = 1) -> SweepResult:
    """Norm saturation and commutator correspondence, one basis per level.

    Rows are (m, ||T_f||, sup|f| - ||T_f||, commutator_defect(f, g)).  The
    sup is the grid estimate, so the table is self-contained; both defects
    decay like 1/m.  slope_e0 fits the norm defect, slope_e1 the commutator
    defect.
    """
    sup = sup_estimate(f, d)
    rows = []
    for m in m_list:
        spec = hilbert.build_basis(d, int(m))
        tf = toeplitz_matrix(spec, f)
        nrm = operator_norm(tf)
        tg, tb = toeplitz_matrix(spec, g), toeplitz_matrix(spec, bracket_function(f, g))
        defect = operator_norm(1j * (spec.m * commutator(tf, tg)) + tb)
        rows.append((int(m), nrm, float(sup - nrm), defect))
    ms = [r[0] for r in rows]
    return SweepResult(rows=rows, slope_e0=_fit_slope(ms, [r[2] for r in rows]),
                       slope_e1=_fit_slope(ms, [r[3] for r in rows]))
