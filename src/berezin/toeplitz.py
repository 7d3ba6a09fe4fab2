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
off the bands I - J in K; ``hilbert.compress`` assembles those bands only.
Such an operator carries its modes, and it is Hermitian when f is real.
Its norm is then the largest |eigenvalue| over the index blocks that no mode
couples (``operator_norm``): single indices for K = {0}, chains in I_1 at
fixed (I_2, ..., I_d) for K = {e_1, -e_1}.  The commutator defect
m [T_f, T_g] - i T_{f,g} of two real functions is anti-Hermitian with the
blocks of all three, formed per block.  At d = 2, m = 48 (N = 1,225) a norm
(a defect) takes 10-20 ms (10 ms) from the blocks, 1.0 s (0.4 s) densely.
``sup_estimate`` samples angles only where a mode is.  Plain callables keep
the radial-node loop, the full sup grid, the dense commutator and the SVD.
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass

from . import geometry, hilbert, quadrature
from .functions import ChartFunction
from .hilbert import BasisSpec
from .operators import OperatorMatrix, SweepResult, _fit_slope, commutator

# Grid points per block of sup_estimate: d = 2 takes three blocks, and the
# 20M points of d = 3 (1 GB as one array) stay a few MB at a time.
_SUP_BLOCK = 2 ** 15


@dataclass(eq=False)
class ToeplitzMatrix(OperatorMatrix):
    """Compression of multiplication by a named chart function."""

    symbol: str = ""


def _symbol_name(f) -> str:
    return str(getattr(f, "name", getattr(f, "__name__", "f")))


def _weight_degree(f) -> int:
    return int(getattr(f, "weight_degree", 1))


def _default_level(spec: BasisSpec, f) -> int:
    return max(spec.level, quadrature.level_for(spec.m + _weight_degree(f)))


def project(spec: BasisSpec, f) -> np.ndarray:
    """Coefficients of the orthogonal projection of ``f`` into the level space.

    For ``f`` already a section (a polynomial of degree <= m) this returns its
    coefficient vector back.
    """
    nd = spec.node_data(_default_level(spec, f))
    fv = np.asarray(f(nd.rule.nodes), dtype=complex) * nd.halfw
    return spec.c_m * hilbert.analyze(spec, nd, nd.wcore * fv)


def toeplitz_matrix(spec: BasisSpec, f) -> ToeplitzMatrix:
    """Toeplitz operator of ``f`` at the spec's level.

    ``f`` is a vectorized evaluator over (n, d) node arrays; a ChartFunction's
    weight_degree (default 1 for plain callables) picks a rule exact for the
    matrix-element integrands.  When ``f`` declares angular modes the
    operator carries the bands it has on that rule (``hilbert.band_modes``),
    and adjoint_sign 1 when ``f`` is real.
    """
    nd = spec.node_data(_default_level(spec, f))
    mat = hilbert.compress(spec, nd, f)
    modes = getattr(f, "modes", None)
    if modes is not None:
        modes = tuple(hilbert.band_modes(spec, modes(spec.d), nd.rule.n_theta))
    return ToeplitzMatrix(spec, mat, modes=modes, adjoint_sign=int(getattr(f, "real", False)),
                          symbol=_symbol_name(f))


def _block_norm(spec: BasisSpec, modes, blocks) -> float:
    """Largest |eigenvalue| of the Hermitian ``blocks(ix)`` over the blocks of ``modes``.

    A block is a set of indices that agree on every coordinate that no mode
    touches; an operator with these modes has no entry between two blocks.
    ``ix`` is the fancy index of the stacked blocks of one size.
    """
    key = np.zeros(spec.N, dtype=np.intp)
    for j in range(spec.d):
        if not any(k[j] for k in modes):
            key = key * (spec.m + 1) + spec._exponents[:, j]
    order = np.argsort(key, kind="stable")
    _, starts, sizes = np.unique(key[order], return_index=True, return_counts=True)
    stacks = (order[starts[sizes == size][:, None] + np.arange(size)]
              for size in set(sizes.tolist()))
    return max(float(np.max(np.abs(np.linalg.eigvalsh(blocks((idx[:, :, None], idx[:, None, :]))))))
               for idx in stacks)


def operator_norm(op) -> float:
    """Spectral norm; accepts an operator wrapper or a bare matrix.

    A Hermitian operator with declared ``modes`` is block diagonal
    (``_block_norm``), and its norm is the largest |eigenvalue| over the
    blocks (``eigvalsh`` reads each block's lower triangle).  A bare matrix,
    or an operator without that structure, goes to the SVD.
    """
    if getattr(op, "modes", None) is None or op.adjoint_sign != 1:
        return float(np.linalg.norm(getattr(op, "mat", op), 2))
    return _block_norm(op.spec, op.modes, lambda ix: op.mat[ix])


def _gradients(fn, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d/dmu, d/dmubar) at (n, d) points: analytic, else per-point differences."""
    if isinstance(fn, ChartFunction):
        return fn.grad_mu(pts), fn.grad_mubar(pts)
    diffs = np.array([geometry.wirtinger(fn, p) for p in pts], dtype=complex)
    return diffs[:, 0], diffs[:, 1]


def bracket_function(f, g):
    """Pointwise chart Poisson bracket {f, g} as a vectorized evaluator.

    Gradients at all nodes (analytic for a ChartFunction, else Wirtinger
    differences) go through one ``geometry.bracket_from_gradients`` call.
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
        return geometry.bracket_from_gradients(pts, *_gradients(f, pts), *_gradients(g, pts))

    evaluate.weight_degree = _weight_degree(f) + _weight_degree(g) + 1
    evaluate.__name__ = "bracket"
    if getattr(f, "modes", None) is not None and getattr(g, "modes", None) is not None:
        evaluate.modes = lambda d: tuple(sorted({tuple(p + q for p, q in zip(a, b))
                                                 for a in f.modes(d)
                                                 for b in g.modes(d)}))
        evaluate.real = bool(getattr(f, "real", False) and getattr(g, "real", False))
    return evaluate


def _defect(spec: BasisSpec, tf, tg, tb) -> float:
    """|| m [T_f, T_g] - i T_b || from the three assembled matrices.

    When all three declare modes and are Hermitian, the defect is anti-Hermitian
    with their blocks, and is formed and normed per block, in place; otherwise
    the dense commutator goes to the SVD.
    """
    ops = (tf, tg, tb)
    if any(t.modes is None or t.adjoint_sign != 1 for t in ops):
        return operator_norm(spec.m * commutator(tf, tg).mat - 1j * tb.mat)

    def hermitian_blocks(ix):  # i (m [A, B] - i C) on the blocks ix
        a, b = tf.mat[ix], tg.mat[ix]
        out = a @ b
        out -= b @ a
        out *= spec.m
        del a, b
        out -= 1j * tb.mat[ix]
        out *= 1j
        return out

    return _block_norm(spec, sum((t.modes for t in ops), ()), hermitian_blocks)


def commutator_defect(spec: BasisSpec, f, g) -> float:
    """Spectral-norm defect || m [T_f, T_g] - i T_{{f,g}} || at the spec level."""
    return _defect(spec, *(toeplitz_matrix(spec, h) for h in (f, g, bracket_function(f, g))))


def sup_estimate(f, d: int) -> float:
    """Estimate sup |f| over the compactified chart by dense grid sampling.

    Per dimension j: radii from u = r^2/(1+r^2) on a 16-point uniform [0, 1)
    grid plus a ring at u = 1 - 1e-12, times 16 uniform angles, or theta_j = 0
    alone if f declares modes and none touches j (f is then constant in theta_j).
    The grid hits u in {0, 1/2, 1} and the coordinate axes, where the bundled
    family takes its extrema: exact for all of them.  Blocks of _SUP_BLOCK.
    """
    u = np.append(np.linspace(0.0, 1.0, 16, endpoint=False), 1.0 - 1e-12)
    r = np.sqrt(u / (1.0 - u))
    theta = 2.0 * np.pi * np.arange(16) / 16
    modes = f.modes(d) if getattr(f, "modes", None) is not None else None
    angles = [theta if modes is None or any(k[j] for k in modes) else theta[:1] for j in range(d)]
    rings = [(r[:, None] * np.exp(1j * t)[None, :]).ravel() for t in angles]
    shape = tuple(ring.size for ring in rings)
    n, best = int(np.prod(shape)), 0.0
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
        defect = _defect(spec, tf, toeplitz_matrix(spec, g),
                         toeplitz_matrix(spec, bracket_function(f, g)))
        rows.append((int(m), nrm, float(sup - nrm), defect))
    ms = [r[0] for r in rows]
    return SweepResult(rows=rows, slope_e0=_fit_slope(ms, [r[2] for r in rows]),
                       slope_e1=_fit_slope(ms, [r[3] for r in rows]))
