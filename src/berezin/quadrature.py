"""Deterministic product quadrature over the chart, plus closed-form moments.

The chart integral of f against the 2^d-normalized Lebesgue measure is
approximated by a polar product rule: per complex dimension, a uniform
angular grid and Gauss-Legendre radial nodes composed with the
compactification u = r^2 / (1 + r^2).  For d >= 2 the radius of dimension j
is additionally scaled by sqrt(1 + sum_{k<j} r_k^2).

Exact family.  The integrands that the level-m space needs (Gram matrix, T_f,
star product, kernel checks) are

    P(nu, conj(nu)) * (1 + |nu|^2)^-(m' + d + 1),

with P of degree <= m' in nu and <= m' in conj(nu).  A level-L rule is exact
(to rounding) for them whenever m' <= m_max(L) = 4 L, with these counts per
dimension:

* angular, n_theta = 4 L + 1: the monomial nu^a conj(nu)^b carries the
  frequency a_j - b_j in dimension j, at most m' <= 4 L in modulus, and the
  uniform grid of 4 L + 1 angles integrates every such frequency exactly;
* radial, n_r = 2 L + ceil(d / 2).  After the angles only the moments
  prod_j rho_j^q_j (1 + sum rho)^-(m'+d+1) d rho remain, rho_j = r_j^2,
  |q| <= m'.  The cascade rho_j = u_j / (1 - u_j) * A_{j-1} with
  A_j = 1 + sum_{k<=j} rho_k = prod_{k<=j} 1 / (1 - u_k) turns this into
  u_j^q_j (1 - u_j)^(m' + j - 1 - sum_{k>=j} q_k) per dimension, a
  polynomial in u_j of degree m' + j - 1 - sum_{k>j} q_k <= m' + d - 1.
  Gauss-Legendre with n points is exact through degree 2 n - 1, so
  2 n - 1 >= 4 L + d - 1 gives n = 2 L + ceil(d / 2).  One node fewer
  breaks the Gram matrix at (d, m) = (1, 8), (2, 4) and (3, 4).

``build_rule(..., exact_family=True)`` gives that rule; the node tables of
``hilbert.BasisSpec`` use it.  The default rule keeps n_r = 8 L, a fourfold
radial margin for ``integrate`` on integrands outside the family.

Layout.  A rule keeps its factored form: ``radii`` (n_r^d, d) and
``radii_weights`` (n_r^d,) for the radial product grid, and ``n_theta``
uniform angles per dimension.  Node r * n_theta^d + k, radial index outer
and angle inner, is radii[r] * exp(2 pi i k_vec / n_theta) with weight
radii_weights[r], where k_vec is the C-order multi-index of k over
(n_theta,) * d.  ``node_blocks`` is the one loop over the nodes: it yields
them in this order, a bounded block at a time; no array over all of a
rule's nodes is formed, and only the radial grid is bounded (``RADIAL_CAP``).
``NodeBlock.radial``, rows of a radial table times the characters, forms
the nodes and unit lifts of ``hilbert``, whose node tables rely on the layout
to factor each basis row into a radial part times an angular character.

Rules are plain data; ``integrate`` evaluates the integrand vectorized over
each block, reduces it with numpy's fixed pairwise summation and adds the
block sums in block order, so results are bitwise reproducible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, NonFiniteIntegrand, ResourceLimit

# Radial points n_r^d of a rule: the one grid-sized thing still allocated.
RADIAL_CAP = 2 ** 22

# Bytes of per-node data in one block of ``node_blocks``.
_BLOCK_BYTES = 2 ** 19


def m_max(level: int) -> int:
    """Largest weighted-polynomial family integrated exactly at this level."""
    return 4 * int(level)


def level_for(m_eff: int) -> int:
    """Smallest level whose rule is exact for the family with parameter m_eff."""
    return max(1, math.ceil(m_eff / 4))


@dataclass
class QuadratureRule:
    """Product rule over C^d.

    ``radial_nodes``/``radial_weights`` are the shared, read-only 1-d
    Gauss-Legendre data in the compactified variable u; ``radii`` and
    ``radii_weights`` are the radial product grid and its weights (angular
    cell 2 pi / n_theta per dimension and the 2^d volume convention
    included).  The nodes are these times the angles, in the module's
    layout, and only ``node_blocks`` forms them.  ``exact_family`` records
    the radial sizing (see the module docstring).  ``coarse`` is the coarser
    companion of the same sizing used for error estimates; it stays None
    until the first ``integrate`` call on this rule builds it.
    """

    d: int
    level: int
    radial_nodes: np.ndarray
    radial_weights: np.ndarray
    n_theta: int
    radii: np.ndarray
    radii_weights: np.ndarray
    exact_family: bool = False
    coarse: "QuadratureRule | None" = field(default=None, repr=False)

    @property
    def node_count(self) -> int:
        return self.radii.shape[0] * self.n_theta ** self.d


class NodeBlock:
    """Nodes lo .. lo + n - 1 of a rule: radial index ``r`` (n,); the angle
    multi-indices ``k`` (n, d), ``nodes`` (n, d) and ``weights`` (n,) are
    formed on first read, bitwise the layout formula's."""

    def __init__(self, rule: QuadratureRule, lo: int, hi: int, angles, chars):
        self.rule, self.lo, self._angles, self._chars = rule, lo, angles, chars
        self.r, self._flat = np.divmod(np.arange(lo, hi), angles.shape[0])

    k = functools.cached_property(lambda self: self._angles[self._flat])
    weights = functools.cached_property(lambda self: self.rule.radii_weights[self.r])
    nodes = functools.cached_property(lambda self: self.radial(self.rule.radii))

    def radial(self, table: np.ndarray) -> np.ndarray:
        """(n, d): rows ``r`` of an (n_r^d, d) radial table times the angular characters."""
        r0, a = divmod(self.lo, self._angles.shape[0])
        grid = table[r0:int(self.r[-1]) + 1, None] * self._chars
        return np.ascontiguousarray(grid.reshape(-1, self.rule.d)[a:a + self.r.size])


def roots(n: int) -> np.ndarray:
    """exp(2 pi i k / n), k = 0 .. n - 1: the one table of the angular characters."""
    return np.exp(1j * (2.0 * np.pi * np.arange(n) / n))


def node_blocks(rule: QuadratureRule, row_bytes: int, min_nodes: int = 1):
    """The rule's nodes in layout order, one NodeBlock at a time.

    A block has max(min_nodes, _BLOCK_BYTES // row_bytes) nodes, ``row_bytes``
    being what the caller holds per node, rounded down to whole radial nodes;
    a larger radial node is cut into pieces of that many, so min_nodes =
    n_theta^d keeps radial nodes whole (the angular FFTs).
    """
    d, n, n_ang = rule.d, rule.node_count, rule.n_theta ** rule.d
    step = max(min_nodes, _BLOCK_BYTES // row_bytes)
    step -= step % n_ang if step >= n_ang else 0
    angles = np.indices((rule.n_theta,) * d).reshape(d, -1).T
    chars = roots(rule.n_theta)[angles]
    lo = 0
    while lo < n:
        hi = min(lo + step, n if step >= n_ang else (lo // n_ang + 1) * n_ang)
        yield NodeBlock(rule, lo, hi, angles, chars)
        lo = hi


@dataclass
class IntegrationResult:
    value: complex
    error_estimate: float


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only n-point Gauss-Legendre nodes and weights on [0, 1].

    Three Newton steps on the recurrence for P_n from Tricomi's asymptotic
    nodes (1 - (n-1)/(8 n^3)) cos(pi (4k - 1)/(4n + 2)), weights 2 / ((1 - x^2)
    P_n'(x)^2) at the final nodes, symmetrized: O(n^2), and at n = 257 the
    weights are 1.2e-12 off a 40-digit reference (``leggauss``: 1.4e-10).
    """
    k = np.arange(n, 0, -1)
    x = (1.0 - (n - 1.0) / (8.0 * n ** 3)) * np.cos(np.pi * (4.0 * k - 1.0) / (4.0 * n + 2.0))
    for step in range(4):
        p0, p1 = np.ones_like(x), x
        for j in range(1, n):
            p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        if step < 3:
            x = x - p1 / dp
    wx = 2.0 / ((1.0 - x * x) * dp * dp)
    x, wx = 0.5 * (x - x[::-1]), 0.5 * (wx + wx[::-1])
    u, gw = 0.5 * (x + 1.0), 0.5 * wx
    u.flags.writeable = gw.flags.writeable = False
    return u, gw


def _assemble(d: int, n_r: int, n_theta: int):
    """Radial rule arrays for given 1-d counts: (u, gw, radii, radii_weights)."""
    u, gw = _gauss_legendre(n_r)

    # radial cascade: dimension j is scaled by the accumulated 1 + sum r_k^2
    u_grid = np.stack(np.meshgrid(*([u] * d), indexing="ij"), axis=-1).reshape(-1, d)
    gw_grid = np.stack(np.meshgrid(*([gw] * d), indexing="ij"), axis=-1).reshape(-1, d)
    radii = np.empty_like(u_grid)
    wr = np.ones(u_grid.shape[0])
    acc = np.zeros(u_grid.shape[0])
    for j in range(d):
        uj = u_grid[:, j]
        r2 = (uj / (1.0 - uj)) * (1.0 + acc)
        radii[:, j] = np.sqrt(r2)
        # per-dimension measure 2 r dr dtheta; the factor 2 cancels against
        # the substitution rho drho = du / (2 (1-u)^2)
        wr *= gw_grid[:, j] * (2.0 * np.pi / n_theta) * (1.0 + acc) / (1.0 - uj) ** 2
        acc = acc + r2
    return u, gw, radii, wr


def _counts(d: int, level: int, exact_family: bool) -> tuple[int, int]:
    """Per-dimension (n_r, n_theta); level 0 is the level-1 rule's companion."""
    if level == 0:
        return _counts(d, 1, exact_family)[0] // 2, 3
    n_r = 2 * level + (d + 1) // 2 if exact_family else 8 * level
    return n_r, 4 * level + 1


def _make_rule(d: int, level: int, exact_family: bool) -> QuadratureRule:
    n_r, n_theta = _counts(d, level, exact_family)
    u, gw, radii, wr = _assemble(d, n_r, n_theta)
    return QuadratureRule(d, level, u, gw, n_theta, radii, wr, exact_family)


def build_rule(d: int, level: int, *, exact_family: bool = False) -> QuadratureRule:
    """Build the level rule for dimension d.

    Counts per dimension are n_theta = 4 * level + 1 angular and n_r =
    8 * level radial nodes, or n_r = 2 * level + ceil(d / 2) with
    ``exact_family`` (exact for the module's weighted-polynomial family and
    nothing more).  More than ``RADIAL_CAP`` radial points n_r^d are refused
    before anything is allocated; the node count is not bounded.  The
    error-estimate companion is not built here (``integrate``).
    """
    if d < 1:
        raise DimensionMismatch(f"dimension must be >= 1, got {d}")
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    check_radial(_counts(d, level, exact_family)[0] ** d, "rule")
    return _make_rule(d, level, exact_family)


def check_radial(points: int, what: str) -> None:
    """Raise ResourceLimit when ``points`` radial points exceed RADIAL_CAP (read at call time)."""
    if points > RADIAL_CAP:
        raise ResourceLimit(f"{what} would need {points} radial points, cap is {RADIAL_CAP}")


def _values(f: Callable, pts: np.ndarray) -> np.ndarray:
    """f at the (n, d) points, checked to be one value per point."""
    vals = np.asarray(f(pts))
    if vals.shape != (pts.shape[0],):
        raise DimensionMismatch(
            f"function returned shape {vals.shape}, expected ({pts.shape[0]},)")
    return vals


def _finite_values(f: Callable, pts: np.ndarray, lo: int, where: str) -> np.ndarray:
    """``_values``, refused with NonFiniteIntegrand naming the first non-finite point (lo + k)."""
    vals = _values(f, pts)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NonFiniteIntegrand(f"integrand non-finite at {where} {lo + k}: {pts[k]}")
    return vals


def integrate(f: Callable[[np.ndarray], np.ndarray], rule: QuadratureRule) -> IntegrationResult:
    """Integrate f over the chart against the 2^d Lebesgue convention.

    ``f`` receives (n, d) blocks of complex nodes and must return (n,) values.
    The error estimate compares against the rule's coarse companion: one
    level down with the same sizing, half the radial nodes and 3 angles below
    level 1.  The first call builds it and stores it as ``rule.coarse``; a
    companion of level 0 has none, and its estimate is 0.  Raises
    NonFiniteIntegrand naming the first offending node.
    """
    def reduce(rule):
        total = 0j
        for blk in node_blocks(rule, 16 * (rule.d + 3)):
            total += complex(np.sum(blk.weights * _finite_values(f, blk.nodes, blk.lo, "node")))
        return total

    value = reduce(rule)
    if rule.coarse is None and rule.level > 0:
        rule.coarse = _make_rule(rule.d, rule.level - 1, rule.exact_family)
    err = abs(value - reduce(rule.coarse)) if rule.coarse is not None else 0.0
    return IntegrationResult(value=value, error_estimate=float(err))


def moment(index: Sequence[int] | int, m: int, d: int) -> float:
    """Closed-form chart moment of |nu|^(2 I) against (1 + |nu|^2)^-m.

    moment(I, m, d) = (2 pi)^d * prod_i I_i! * (m - |I|)! / (m + d)!

    under the 2^d volume convention.  Exact integer arithmetic before the
    final float division.  Raises IndexOutOfRange when the integral diverges
    (|I| > m) or an entry is negative.
    """
    idx = (int(index),) if np.isscalar(index) else tuple(int(q) for q in index)
    if len(idx) != d:
        raise DimensionMismatch(f"index length {len(idx)} != dimension {d}")
    if any(q < 0 for q in idx):
        raise IndexOutOfRange(f"negative entry in index {idx}")
    q = sum(idx)
    if q > m:
        raise IndexOutOfRange(f"total degree {q} exceeds weight parameter {m}")
    num = math.factorial(m - q)
    for qi in idx:
        num *= math.factorial(qi)
    return (2.0 * math.pi) ** d * num / math.factorial(m + d)


def total_volume(d: int) -> float:
    """Chart volume (2 pi)^d / d! under the module's conventions."""
    return moment((0,) * d, 0, d)
