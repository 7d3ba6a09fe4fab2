"""Weighted polynomial Hilbert space on the chart at integer level m.

The space is spanned by monomials mu^I of total degree <= m, orthonormalized
by closed-form normalizations: with q = |I|,

    D_I = prod_i I_i! * (m - q)! / m!          (inverse multinomial weight)
    c_m = (m + d)! / ((2 pi)^d m!)             (inner-product prefactor)

so that Psi_I = mu^I / sqrt(D_I) satisfies the coherent-state resolution
sum_I conj(Psi_I(mu)) Psi_I(nu) = (1 + conj(mu) . nu)^m.  Evaluation works on
the unit lift zeta(nu) = (nu, 1) / sqrt(1 + |nu|^2) of the chart C^d into
C^(d+1): the normalized values ehat_I = Psi_I (1 + |nu|^2)^(-m/2) =
sqrt(1/D_I) zeta^(I, m-|I|) and the pairing zeta(nu) . conj(zeta(mu)) are
products of factors of modulus <= 1, finite at any m and any |nu| < 1e154
(where |nu|^2 still fits a double).  Every other path (raw values, node
tables, operators, pullbacks) goes through them.  At d = 1 node tables reach
m = 256; m = 512 is over the TABLE_BYTES budget.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import quadrature
from .errors import DimensionMismatch, IndexOutOfRange
from .geometry import as_point

SCHEMA = "berezin.basis/1"

# Largest (n, N) complex node table node_data may keep; larger requests
# raise ResourceLimit from build_rule before any table exists. Building a
# table adds one (n, m+1) power table and row blocks of scratch.
TABLE_BYTES = 2 ** 30

# Scratch bytes per block when eval_matrix_normalized gathers powers.
_GATHER_BYTES = 2 ** 25


def enumerate_indices(d: int, m: int) -> list[tuple[int, ...]]:
    """All exponent multi-indices with |I| <= m, graded lexicographic order."""
    if d < 1 or m < 0:
        raise ValueError(f"need d >= 1 and m >= 0, got d={d}, m={m}")
    out: list[tuple[int, ...]] = []

    def rec(prefix, remaining):
        if len(prefix) == d:
            out.append(tuple(prefix))
            return
        for q in range(remaining + 1):
            rec(prefix + [q], remaining - q)

    rec([], m)
    out.sort(key=lambda t: (sum(t), t))
    return out


@dataclass
class _NodeData:
    """Cached per-rule arrays: normalized basis matrix and weight pieces."""
    rule: quadrature.QuadratureRule
    lift: np.ndarray     # (n, d+1) unit lifts zeta of the nodes
    ehat: np.ndarray     # (n, N) normalized basis values on the unit lift
    halfw: np.ndarray    # (1+s)^(-m/2)
    wcore: np.ndarray    # rule weights times (1+s)^(-(d+1))


@dataclass(eq=False)
class BasisSpec:
    """Frozen description of one quantization level.

    Fields mirror the serialized form: dimension, level m, size N, the index
    order, the normalization vector D, the prefactor c_m and hbar = 1/m.
    ``level`` is the default quadrature level; finer rules are cached on
    demand by operations whose integrands need them.
    """

    d: int
    m: int
    N: int
    indices: tuple[tuple[int, ...], ...]
    D: np.ndarray
    c_m: float
    hbar: float
    level: int
    # Homogeneous exponents Ihat = (I, m - |I|), one (d+1,) row per index.
    _exponents: np.ndarray = field(default=None, repr=False)
    _positions: dict = field(default=None, repr=False)
    _nodes: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self._exponents is None:
            exps = np.array(self.indices, dtype=int).reshape(self.N, self.d)
            self._exponents = np.column_stack([exps, self.m - exps.sum(axis=1)])
        if self._positions is None:
            self._positions = {I: k for k, I in enumerate(self.indices)}

    def position(self, index: Sequence[int]) -> int:
        key = tuple(int(q) for q in index)
        if key not in self._positions:
            raise IndexOutOfRange(f"index {key} not admissible for d={self.d}, m={self.m}")
        return self._positions[key]

    def node_data(self, level: int | None = None) -> _NodeData:
        """Node tables on the exact-family rule of ``level``, built once.

        The rule's node count is capped so that ``ehat`` fits TABLE_BYTES.
        """
        lv = self.level if level is None else int(level)
        if lv not in self._nodes:
            cap = min(quadrature.NODE_CAP, TABLE_BYTES // (16 * self.N))
            rule = quadrature.build_rule(self.d, lv, cap, exact_family=True)
            log1ps = np.log1p(np.sum(np.abs(rule.nodes) ** 2, axis=1))
            self._nodes[lv] = _NodeData(
                rule=rule, ehat=eval_matrix_normalized(self, rule.nodes),
                lift=unit_lift(rule.nodes),
                halfw=np.exp(-(self.m / 2.0) * log1ps),
                wcore=rule.weights * np.exp(-(self.d + 1.0) * log1ps))
        return self._nodes[lv]


def build_basis(d: int, m: int, level: int | None = None) -> BasisSpec:
    """Construct the level-m basis description for dimension d.

    ``level`` defaults to the smallest quadrature level exact for the
    orthonormality family, ceil(m / 4).
    """
    if d < 1 or m < 1:
        raise ValueError(f"need d >= 1 and m >= 1, got d={d}, m={m}")
    indices = enumerate_indices(d, m)
    D = np.empty(len(indices))
    for k, I in enumerate(indices):
        mult = math.factorial(m)
        for qi in I:
            mult //= math.factorial(qi)
        mult //= math.factorial(m - sum(I))
        D[k] = 1.0 / mult
    ratio = math.factorial(m + d) // math.factorial(m)
    c_m = ratio / (2.0 * math.pi) ** d
    lv = quadrature.level_for(m) if level is None else int(level)
    return BasisSpec(d=d, m=m, N=len(indices), indices=tuple(indices), D=D,
                     c_m=c_m, hbar=1.0 / m, level=lv)


def unit_lift(points: np.ndarray) -> np.ndarray:
    """zeta(nu) = (nu, 1) / sqrt(1 + |nu|^2) per row of an (n, d) array: (n, d+1)."""
    r = 1.0 / np.sqrt(1.0 + np.sum(points.real ** 2 + points.imag ** 2, axis=1))
    return np.column_stack([points * r[:, None], r])


def normalized_pairing(nu_pts: np.ndarray, mu_pts: np.ndarray) -> np.ndarray:
    """what(nu_k, mu_l) = zeta(nu_k) . conj(zeta(mu_l)) as a (K, L) matrix.

    Equals (1 + nu . conj(mu)) / sqrt((1+|nu|^2)(1+|mu|^2)), |entries| <= 1.
    """
    return unit_lift(nu_pts) @ unit_lift(mu_pts).conj().T


def eval_matrix_normalized(spec: BasisSpec, points) -> np.ndarray:
    """Unit-norm rows ehat_I = sqrt(1/D_I) zeta^Ihat at many points; (n, N).

    One (n, m+1) power table is alive at a time; gathers use bounded scratch.
    """
    pts = np.asarray(points, dtype=complex)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.shape[1] != spec.d:
        raise DimensionMismatch(f"points have dimension {pts.shape[1]}, expected {spec.d}")
    lift = unit_lift(pts)
    n = lift.shape[0]
    # The rounded lift has |zeta|^2 = 1 + eps, so rows would carry (1+eps)^(m/2),
    # m ulps of noise; eps in extended precision scales it out of the zeta_h powers.
    eps = np.full(n, -1.0, dtype=np.longdouble)
    for part in lift.view(float).T:
        eps += np.square(part, dtype=np.longdouble)
    E = np.empty((n, spec.N), dtype=complex)
    powers = np.empty((n, spec.m + 1), dtype=complex)
    rows = max(1, _GATHER_BYTES // (16 * spec.N))
    # The homogeneous coordinate comes first so that its gather fills E.
    for j in (spec.d, *range(spec.d)):
        powers[:, 0] = np.exp(-(spec.m / 2.0) * np.log1p(eps)) if j == spec.d else 1.0
        powers[:, 1:] = lift[:, j, None]
        np.multiply.accumulate(powers, axis=1, out=powers)
        exps = spec._exponents[:, j]
        if j == spec.d:
            # mode="clip" writes into E directly; "raise" would buffer it.
            np.take(powers, exps, axis=1, out=E, mode="clip")
            continue
        for a in range(0, n, rows):
            E[a:a + rows] *= powers[a:a + rows, exps]
    E *= 1.0 / np.sqrt(spec.D)
    return E


def eval_matrix(spec: BasisSpec, points) -> np.ndarray:
    """Basis values Psi_I = mu^I / sqrt(D_I): the normalized rows times (1+s)^(m/2)."""
    E = eval_matrix_normalized(spec, points)
    s = np.sum(np.abs(np.atleast_2d(points)) ** 2, axis=1)
    E *= np.exp((spec.m / 2.0) * np.log1p(s))[:, None]
    return E


def basis_eval(spec: BasisSpec, index: Sequence[int], mu) -> complex:
    """Single basis function Psi_I(mu) = mu^I / sqrt(D_I)."""
    k = spec.position(index)
    return complex(eval_matrix(spec, as_point(mu, d=spec.d))[0, k])


def section_eval(spec: BasisSpec, v, points) -> np.ndarray:
    """Evaluate the section with coefficient vector v at the given points."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (spec.N,):
        raise DimensionMismatch(f"coefficient vector has shape {v.shape}, expected ({spec.N},)")
    return eval_matrix(spec, points) @ v


def coherent_eval(spec: BasisSpec, mu, nu) -> complex:
    """Coherent state of parameter mu evaluated at nu: (1 + conj(mu) . nu)^m."""
    return kernel_L(spec, nu, mu)


def coherent_coeffs(spec: BasisSpec, mu) -> np.ndarray:
    """Coefficient vector of the coherent state, conj(Psi_I(mu))."""
    return np.conj(eval_matrix(spec, as_point(mu, d=spec.d))[0])


def kernel_L(spec: BasisSpec, mu, nu) -> complex:
    """Two-point reproducing kernel (1 + mu . conj(nu))^m."""
    mu = as_point(mu, d=spec.d)
    nu = as_point(nu, d=spec.d)
    return complex((1.0 + np.vdot(nu, mu)) ** spec.m)


def log_kernel(spec: BasisSpec, mu, nu) -> complex:
    """Principal logarithm of the kernel, m * log(1 + mu . conj(nu)).

    Safe at magnitudes where the kernel itself would overflow a double.
    """
    mu = as_point(mu, d=spec.d)
    nu = as_point(nu, d=spec.d)
    return complex(spec.m * np.log(1.0 + np.vdot(nu, mu)))


def fs_weight_exponent(spec: BasisSpec) -> int:
    """Power K = m + d + 1 of (1 + |nu|^2) dividing every inner-product integrand."""
    return spec.m + spec.d + 1


def inner_product(spec: BasisSpec, f: Callable, g: Callable, level: int | None = None) -> complex:
    """Numeric inner product c_m * integral of conj(f) g against the level weight.

    ``f``/``g`` are vectorized evaluators taking the (n, d) node array.  Both
    factors are damped by (1 + s)^(-m/2) before multiplying so the product
    stays in range whenever each factor is o((1+s)^(m/2) * 1e150).
    """
    nd = spec.node_data(level)
    fv = np.asarray(f(nd.rule.nodes)) * nd.halfw
    gv = np.asarray(g(nd.rule.nodes)) * nd.halfw
    return spec.c_m * complex(np.sum(nd.wcore * np.conj(fv) * gv))


def gram_matrix(spec: BasisSpec, level: int | None = None) -> np.ndarray:
    """Numeric Gram matrix of the basis; identity when normalizations are right."""
    nd = spec.node_data(level)
    return spec.c_m * ((nd.ehat.conj().T * nd.wcore) @ nd.ehat)


def reproducing_residual(spec: BasisSpec, v, mu, level: int | None = None) -> float:
    """|<psi_mu, v> - v(mu)| with the pairing done by numeric integration.

    Contract: <= 1e-8 * (1 + |v(mu)|) at the spec's default level.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (spec.N,):
        raise DimensionMismatch(f"coefficient vector has shape {v.shape}, expected ({spec.N},)")
    mu = as_point(mu, d=spec.d)
    nd = spec.node_data(level)
    khat = (nd.lift.conj() @ unit_lift(mu.reshape(1, -1))[0]) ** spec.m
    smu = float(np.vdot(mu, mu).real)
    scale = np.exp(0.5 * spec.m * np.log1p(smu))
    paired_hat = spec.c_m * np.sum(nd.wcore * khat * (nd.ehat @ v))
    value_hat = complex(eval_matrix_normalized(spec, mu)[0] @ v)
    return float(abs(paired_hat - value_hat) * scale)


def resolution_check(spec: BasisSpec, v1, v2, level: int | None = None) -> float:
    """Defect of the resolution of the identity on a vector pair.

    |c_m * integral <v1, psi_mu><psi_mu, v2> dweight - <v1, v2>|; the
    (1+s)^(+-m) factors cancel analytically and are cancelled here too.
    """
    v1 = np.asarray(v1, dtype=complex)
    v2 = np.asarray(v2, dtype=complex)
    for v in (v1, v2):
        if v.shape != (spec.N,):
            raise DimensionMismatch(f"coefficient vector has shape {v.shape}, expected ({spec.N},)")
    nd = spec.node_data(level)
    f1 = nd.ehat @ v1
    f2 = nd.ehat @ v2
    integral = spec.c_m * complex(np.sum(nd.wcore * np.conj(f1) * f2))
    return float(abs(integral - complex(np.vdot(v1, v2))))


def to_json(spec: BasisSpec) -> str:
    payload = {
        "schema": SCHEMA,
        "d": spec.d,
        "m": spec.m,
        "N": spec.N,
        "hbar": spec.hbar,
        "c_m": spec.c_m,
        "level": spec.level,
        "indices": [list(I) for I in spec.indices],
        "D": [float(x) for x in spec.D],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def from_json(text: str) -> BasisSpec:
    payload = json.loads(text)
    if payload.get("schema") != SCHEMA:
        raise ValueError(f"unexpected schema {payload.get('schema')!r}")
    indices = tuple(tuple(int(q) for q in I) for I in payload["indices"])
    D = np.array(payload["D"], dtype=float)
    if len(indices) != payload["N"] or D.shape[0] != payload["N"]:
        raise ValueError("inconsistent serialized basis: N does not match arrays")
    return BasisSpec(d=int(payload["d"]), m=int(payload["m"]), N=int(payload["N"]),
                     indices=indices, D=D, c_m=float(payload["c_m"]),
                     hbar=float(payload["hbar"]), level=int(payload["level"]))


def save_spec(spec: BasisSpec, path) -> None:
    with open(path, "w") as fh:
        fh.write(to_json(spec))
        fh.write("\n")


def load_spec(path) -> BasisSpec:
    with open(path) as fh:
        return from_json(fh.read())
