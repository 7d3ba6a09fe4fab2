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
products of factors of modulus <= 1, finite at any m and any finite nu.
Rows at any points (raw values, symbols, radial rows, blocks a caller
streams into its own buffer) come from one evaluator, ``_lift_rows``.

The index set is held once, as the exponent table Ihat = (I, m - |I|) of
``BasisSpec``, read by array operations with no loop over indices and no
inverse table: ``_band_index`` reads positions off it, as shifts keep order.

Node tables use the U(1)^d symmetry of the weight: the quadrature rule is a
radial grid times a uniform angular grid, so on it ehat_I(r, theta) =
R_I(r) e^(i I . theta) exactly.  ``node_data`` keeps the radial lifts and
weights, and ``_NodeData.radial`` forms rows R of radial points where read.
Node sums walk ``quadrature.node_blocks``, one bounded block at a time, with
rows and unit lifts the radial ones times ``quadrature.roots`` (``_rows``,
``_lifts``).  ``synthesize`` (node values ehat v) and ``analyze`` (ehat^H x)
run through the angular FFT.  Compression (c_m sum_n w_n f_n conj(ehat_nI)
ehat_nJ: the Toeplitz matrices, and the Gram matrix T_1, ``_NodeData.gram``)
uses the symmetry once more.  A function with angular modes K (a callable
that declares none: every mode of the rule's angles) has entries only on
the bands I - J in K, each one radial column of Fourier coefficients times R.
``_contract``, the one band contraction, returns {delta: (rows, cols,
vals)}, applied by ``_band_dot`` and densified only by ``_densify``.  Node
sums hold about quadrature._BLOCK_BYTES, contractions _FOURIER_BYTES; only
the radial grid (quadrature.RADIAL_CAP) is grid-sized: memory is bounded,
time is not.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import geometry, quadrature
from .errors import DimensionMismatch, IndexOutOfRange
from .geometry import as_point

SCHEMA = "berezin.basis/1"

# Bytes of one chunk of ``_contract``'s input (its F and rows); the arrays of an empty band.
_FOURIER_BYTES = 2 ** 21
_NO_INDEX, _NO_VALUE = np.zeros(0, dtype=np.intp), np.zeros(0, dtype=complex)


def _one(pts: np.ndarray) -> np.ndarray:
    """The constant 1 at (n, d) points, whose compression is the Gram matrix."""
    return np.ones(pts.shape[0])


def _index_table(d: int, m: int) -> np.ndarray:
    """(N, d+1) exponents Ihat = (I, m - |I|) of |I| <= m, graded lexicographic order."""
    # Each prefix takes 0 .. m - |prefix| in the next coordinate; a stable sort grades it.
    exps = np.zeros((1, 0), dtype=np.intp)
    for _ in range(d):
        reps = m + 1 - exps.sum(axis=1)
        last = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        exps = np.column_stack([np.repeat(exps, reps, axis=0), last])
    deg = exps.sum(axis=1)
    order = np.argsort(deg, kind="stable")
    return np.column_stack([exps[order], m - deg[order]])


def enumerate_indices(d: int, m: int) -> list[tuple[int, ...]]:
    """All exponent multi-indices with |I| <= m, graded lexicographic order."""
    if d < 1 or m < 0:
        raise ValueError(f"need d >= 1 and m >= 0, got d={d}, m={m}")
    return list(map(tuple, _index_table(d, m)[:, :d].tolist()))


@dataclass
class _NodeData:
    """Cached per-rule radial arrays: the factors of the basis table and weight pieces.

    At node (r, k) the normalized basis row is R[r] * exp(i I . theta_k)
    (``_rows``, ``radial``); the angular mode of index I is ``flat[I]``, the
    C-order flat index of I mod n_theta on the (n_theta,)^d grid.
    """
    rule: quadrature.QuadratureRule
    spec: BasisSpec = field(repr=False)
    hr: np.ndarray       # (n_r^d,) (1+s)^(-m/2) at the radial points
    rlift: np.ndarray    # (n_r^d, d+1) unit lifts of the radial points
    flat: np.ndarray     # (N,) angular mode of each index
    wr: np.ndarray       # (n_r^d,) radial weights times (1+s)^(-(d+1))
    _last: tuple = field(default=(0, 0, None), repr=False)  # (lo, hi, rows) of ``radial``

    def radial(self, lo: int, hi: int) -> np.ndarray:
        """Read-only real rows R[lo:hi] by ``_lift_rows`` at the radial lifts; keeps the last."""
        if self._last[:2] != (lo, hi):
            self._last = (lo, hi, _lift_rows(self.spec, self.rlift[lo:hi]))
            self._last[2].flags.writeable = False
        return self._last[2]

    @functools.cached_property
    def gram(self) -> dict:
        """Bands of T_1, the Gram matrix on this rule (diagonal at the default level)."""
        return _compress_bands(self.spec, self, _one, [(0,) * self.spec.d])

    @functools.cached_property
    def ehat(self) -> np.ndarray:
        """Dense (n, N) basis table; its only reader is the benchmark tracer (bench/tracer.py)."""
        out = np.empty((self.rule.node_count, self.spec.N), dtype=complex)
        for blk in quadrature.node_blocks(self.rule, 16 * self.spec.N):
            out[blk.lo:blk.lo + blk.r.size] = _rows(self, blk)
        return out


@dataclass(eq=False)
class BasisSpec:
    """Frozen description of one quantization level.

    Fields mirror the serialized form: dimension, level m, size N, the index
    order (``_exponents``, read by ``indices``, ``position`` and ``_band_index``),
    the normalization vector D, the prefactor c_m and hbar = 1/m.
    ``level`` is the quadrature level of every query; Toeplitz matrices
    and projections raise it for their integrands (``toeplitz._default_level``).
    """

    d: int
    m: int
    N: int
    D: np.ndarray
    c_m: float
    hbar: float
    level: int
    # Homogeneous exponents Ihat = (I, m - |I|), one (d+1,) row per index.
    _exponents: np.ndarray = field(repr=False)
    _nodes: dict = field(default_factory=dict, repr=False)

    @functools.cached_property
    def indices(self) -> tuple[tuple[int, ...], ...]:
        """The multi-indices I in basis order, read from ``_exponents``."""
        return tuple(map(tuple, self._exponents[:, :self.d].tolist()))

    def position(self, index: Sequence[int]) -> int:
        key = tuple(int(q) for q in index)
        if len(key) != self.d or min(key) < 0 or sum(key) > self.m:
            raise IndexOutOfRange(f"index {key} not admissible for d={self.d}, m={self.m}")
        return int(np.flatnonzero(np.all(self._exponents[:, :self.d] == key, axis=1))[0])

    @functools.cached_property
    def _lowering(self) -> tuple[np.ndarray, np.ndarray]:
        """Ladder gather: (d Psi_I / d mu_k) (1+|mu|^2)^(-m/2) = coef[k, I] ehat[src[k, I]].

        src (d, N) is the position of I - e_k, the columns of band e_k at its
        rows, and coef = sqrt(I_k (m - |I| + 1)); both are 0 where I_k = 0.
        """
        src, exps = np.zeros((self.d, self.N), dtype=np.intp), self._exponents
        for k, step in enumerate(np.eye(self.d, dtype=np.intp)):
            rows, cols = _band_index(self, step)
            src[k, rows] = cols
        return src, np.sqrt(exps[:, :self.d].T * (exps[:, self.d] + 1.0))  # m - |I| + 1

    def node_data(self, level: int | None = None) -> _NodeData:
        """Node tables on the exact-family rule of ``level`` (default: the spec's), built once.

        The one accessor of other levels; each keeps its own Gram bands (``_NodeData.gram``).
        """
        lv = self.level if level is None else int(level)
        if lv not in self._nodes:
            self._nodes[lv] = _node_data(
                self, quadrature.build_rule(self.d, lv, exact_family=True))
        return self._nodes[lv]


def build_basis(d: int, m: int, level: int | None = None) -> BasisSpec:
    """Construct the level-m basis description for dimension d.

    ``level`` defaults to the smallest quadrature level exact for the
    orthonormality family, ceil(m / 4).
    """
    if d < 1 or m < 1 or (level is not None and level < 1):
        raise ValueError(f"need d, m and level >= 1, got d={d}, m={m}, level={level}")
    exps = _index_table(d, m)
    # Exact integer multinomials m! / (I! (m - |I|)!), divided column by column.
    fact = np.array([math.factorial(q) for q in range(m + 1)], dtype=object)
    mult = np.full(exps.shape[0], fact[m], dtype=object)
    for col in exps.T:
        mult //= fact[col]
    ratio = math.factorial(m + d) // math.factorial(m)
    c_m = ratio / (2.0 * math.pi) ** d
    lv = quadrature.level_for(m) if level is None else int(level)
    try:
        D = (1.0 / mult).astype(float)
    except OverflowError:
        raise OverflowError(f"build_basis(d={d}, m={m}): the largest multinomial "
                            "m!/(I!(m-|I|)!) exceeds the double range") from None
    return BasisSpec(d=d, m=m, N=exps.shape[0], D=D,
                     c_m=c_m, hbar=1.0 / m, level=lv, _exponents=exps)


def unit_lift(points: np.ndarray) -> np.ndarray:
    """zeta(nu) = (nu, 1) / sqrt(1 + |nu|^2) per row of an (n, d) array: (n, d+1).

    Each row is scaled by a power of two near its largest modulus before
    squaring, so |nu|^2 cannot overflow; the scaling is exact, and the lift is
    bitwise the unscaled formula wherever |nu|^2 is finite.
    """
    # Column by column: numpy's max over a short row axis is ~40x slower.
    _, e = np.frexp(functools.reduce(np.maximum, np.abs(points).T, 1.0))
    scaled = points * np.ldexp(1.0, -e)[:, None]
    r = 1.0 / np.sqrt(np.ldexp(1.0, -2 * e)
                      + np.sum(scaled.real ** 2 + scaled.imag ** 2, axis=1))
    scaled *= r[:, None]
    return np.column_stack([scaled, np.ldexp(r, -e)])


def normalized_pairing(nu_pts: np.ndarray, mu_pts: np.ndarray) -> np.ndarray:
    """what(nu_k, mu_l) = zeta(nu_k) . conj(zeta(mu_l)) as a (K, L) matrix.

    Equals (1 + nu . conj(mu)) / sqrt((1+|nu|^2)(1+|mu|^2)), |entries| <= 1.
    """
    return unit_lift(nu_pts) @ unit_lift(mu_pts).conj().T


def _as_points(spec: BasisSpec, points) -> np.ndarray:
    pts = np.asarray(points, dtype=complex)
    if pts.ndim < 2:
        pts = pts.reshape(1, -1)
    if pts.shape[1] != spec.d:
        raise DimensionMismatch(f"points have dimension {pts.shape[1]}, expected {spec.d}")
    return pts


def eval_matrix_normalized(spec: BasisSpec, points) -> np.ndarray:
    """Unit-norm rows ehat_I = sqrt(1/D_I) zeta^Ihat at many points; (n, N).

    One (n, m+1) power table is alive at a time; gathers use bounded scratch.
    """
    return _lift_rows(spec, unit_lift(_as_points(spec, points)))


def _log_row_scale(spec: BasisSpec, lift: np.ndarray) -> np.ndarray:
    """-(m/2) log |zeta|^2 per lift row, in extended precision.

    The rounded lift has |zeta|^2 = 1 + eps, so degree-m rows would carry
    (1+eps)^(m/2), m ulps of noise; this scale takes it out.
    """
    eps = np.full(lift.shape[0], -1.0, dtype=np.longdouble)
    for col in lift.T:
        eps += np.square(col.real, dtype=np.longdouble)
        eps += np.square(col.imag, dtype=np.longdouble)
    return -(spec.m / 2.0) * np.log1p(eps)


def _rows(nd: _NodeData, blk) -> np.ndarray:
    """Basis rows of a node block, R[r] times ``quadrature.roots`` at (k . I) mod n_theta."""
    n, R = nd.rule.n_theta, nd.radial(blk.r[0], blk.r[-1] + 1)
    modes = nd.spec._exponents[:, :nd.rule.d].T % n
    return quadrature.roots(n)[(blk.k @ modes) % n] * R[blk.r - blk.r[0]]


def _lifts(nd: _NodeData, blk) -> np.ndarray:
    """Unit lifts of a node block, the radial lifts through ``blk.radial``: (block, d+1)."""
    return np.column_stack([blk.radial(nd.rlift[:, :-1]), nd.rlift[blk.r, -1]])


def _lift_rows(spec: BasisSpec, lift: np.ndarray, out=None) -> np.ndarray:
    """eval_matrix_normalized from the (n, d+1) unit lifts of the points: the one row evaluator.

    Writes into the first n rows of ``out`` when given (a caller streaming
    blocks of points reuses one buffer), else into a fresh array of the
    lifts' dtype (real lifts, real rows); gathers use at most _BLOCK_BYTES.
    """
    n = lift.shape[0]
    E = np.empty((n, spec.N), dtype=lift.dtype) if out is None else out[:n]
    rows = max(1, min(n, quadrature._BLOCK_BYTES // (lift.itemsize * spec.N)))
    scratch = np.empty((rows, spec.N), dtype=lift.dtype)
    powers = np.empty((n, spec.m + 1), dtype=lift.dtype)
    # The homogeneous coordinate comes first so that its gather fills E.
    for j in (spec.d, *range(spec.d)):
        powers[:, 0] = np.exp(_log_row_scale(spec, lift)) if j == spec.d else 1.0
        powers[:, 1:] = lift[:, j, None]
        np.multiply.accumulate(powers, axis=1, out=powers)
        exps = spec._exponents[:, j]
        if j == spec.d:
            # mode="clip" writes into E directly; "raise" would buffer it.
            np.take(powers, exps, axis=1, out=E, mode="clip")
            continue
        for a in range(0, n, scratch.shape[0]):
            g = scratch[:n - a]
            np.take(powers[a:a + g.shape[0]], exps, axis=1, out=g, mode="clip")
            E[a:a + g.shape[0]] *= g
    E *= 1.0 / np.sqrt(spec.D)
    return E


def _node_data(spec: BasisSpec, rule: quadrature.QuadratureRule) -> _NodeData:
    """Node tables from the rule's factored form (``quadrature`` layout).

    At node (r, k) the lift is zeta_j = |zeta_j(radii[r])| exp(2 pi i k_j /
    n_theta), so ehat_I = R_rI Phi_kI: R_rI the real row at radii[r]
    (``_NodeData.radial``) and Phi_kI = exp(2 pi i ((k . I) mod n_theta) /
    n_theta), ``quadrature.roots`` at exact integers.  No row is formed here.
    """
    d, n_theta = spec.d, rule.n_theta
    flat = np.ravel_multi_index(tuple(spec._exponents[:, :d].T % n_theta), (n_theta,) * d)
    log1ps = np.log1p(np.sum(rule.radii ** 2, axis=1))
    return _NodeData(rule=rule, spec=spec, hr=np.exp(-(spec.m / 2.0) * log1ps),
                     rlift=unit_lift(rule.radii), flat=flat,
                     wr=rule.radii_weights * np.exp(-(d + 1.0) * log1ps))


def synthesize(spec: BasisSpec, nd: _NodeData, v, blk) -> np.ndarray:
    """ehat @ v at ``blk``'s nodes (whole radial nodes), (n,) or (n, k), of v (N,) or (N, k).

    At radial node r, R_rI v_I goes to angular mode ``flat[I]`` and an
    unnormalized inverse d-dim FFT over the angles gives sum_I R_rI v_I
    exp(i I . theta_k).  Below the default level n_theta can be <= m, and
    indices that agree mod n_theta share a mode; np.add.at sums them.
    """
    R, v = nd.radial(blk.r[0], blk.r[-1] + 1), np.asarray(v, dtype=complex)
    n_rad, n_theta, tail = R.shape[0], nd.rule.n_theta, v.shape[1:]
    grid = np.zeros((n_rad, n_theta ** spec.d) + tail, dtype=complex)
    np.add.at(grid, (slice(None), nd.flat), R.reshape(R.shape + (1,) * len(tail)) * v)
    grid = grid.reshape((n_rad,) + (n_theta,) * spec.d + tail)
    out = np.fft.ifftn(grid, axes=tuple(range(1, spec.d + 1)), norm="forward")
    return out.reshape((-1,) + tail)


def analyze(spec: BasisSpec, nd: _NodeData, x, blk) -> np.ndarray:
    """ehat^H x: coefficients (N,) or (N, k) of values x, (n,) or (n, k), at ``blk``'s nodes.

    A forward d-dim FFT over the angles per radial node, read at angular
    mode ``flat[I]`` and summed over the block's radial nodes with weights R_rI.
    """
    x, R = np.asarray(x), nd.radial(blk.r[0], blk.r[-1] + 1)
    n_rad, n_theta, tail = R.shape[0], nd.rule.n_theta, x.shape[1:]
    F = np.fft.fftn(x.reshape((n_rad,) + (n_theta,) * spec.d + tail),
                    axes=tuple(range(1, spec.d + 1)))
    F = F.reshape((n_rad, n_theta ** spec.d) + tail)[:, nd.flat]
    return np.einsum("ri,ri...->i...", R, F)


def band_modes(spec: BasisSpec, modes, n_theta: int, n_s) -> dict:
    """{delta: [c, ...]}: the differences I - J that modes k reach on n_theta angles.

    c is the C-order index of k mod n_s on an (n_s)-grid of samples.  The
    angular grid reads mode k at every delta in [-m, m]^d congruent to k
    mod n_theta.  At or above the default level that is delta = k alone;
    below it, n_theta <= m and a mode also reaches its aliases.
    """
    out: dict = {}
    ks = np.reshape(np.asarray(modes, dtype=np.intp), (-1, len(n_s)))  # (0, d) for no modes
    for k, c in zip(modes, np.ravel_multi_index(tuple(np.mod(ks, n_s).T), n_s).tolist()):
        axes = [range(-spec.m + (q + spec.m) % n_theta, spec.m + 1, n_theta) for q in k]
        for delta in itertools.product(*axes):
            out.setdefault(delta, []).append(c)
    return out


def _band_index(spec: BasisSpec, delta) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols): the positions of the indices I with I - delta admissible, and of I - delta.

    I - delta is admissible where Ihat >= (delta, -|delta|).  The shift moves
    |I| by |delta| and I_j by delta_j, so it keeps the graded lexicographic
    order, and cols are the rows of band -delta in order.  No I admits a
    delta whose positive or negative entries sum past m.
    """
    def admissible(shift):
        return np.flatnonzero((spec._exponents >= (*shift, -sum(shift))).all(1))
    if max(sum(q for q in delta if q > 0), -sum(q for q in delta if q < 0)) > spec.m:
        return _NO_INDEX, _NO_INDEX
    return admissible(delta), admissible([-q for q in delta])


def _contract(spec: BasisSpec, reach: dict, chunks) -> dict:
    """The one band contraction, {delta: (rows, cols, vals)} with rows, cols from ``_band_index``.

    vals = c_m sum_r F_r[delta] conj(X_rI) X_r(I - delta), where ``chunks``
    yields (A, X) for consecutive radial points, the rows X at them and
    F[delta] the sum of the columns ``reach[delta]`` of A.  A real X takes one
    (2, rows) x (rows, band) product of re F and im F per band and chunk.  A
    complex X takes real A: the diagonal is sum F (re^2 + im^2) and each
    -delta band the conjugate of the delta band, exactly Hermitian.
    """
    index, vals = {delta: _band_index(spec, delta) for delta in reach}, {}
    for A, x in chunks:
        hermitian, parts = x.dtype.kind == "c", np.empty((2, A.shape[0]))
        for delta, (rows, cols) in index.items():
            if not rows.size or hermitian and delta < tuple(-q for q in delta):
                continue
            col, xy = sum(A[:, k] for k in reach[delta]), x[:, rows]
            if hermitian:
                band = col @ (xy.real ** 2 + xy.imag ** 2 if not any(delta)
                              else xy.conj() * x[:, cols])
            else:
                xy *= x[:, cols]
                parts[0], parts[1] = col.real, col.imag
                band = parts @ xy
                band = band[0] + 1j * band[1]
            band *= spec.c_m
            vals[delta] = vals[delta] + band if delta in vals else band
    for delta, (rows, _) in index.items():
        if rows.size and delta not in vals:  # the mirror of a Hermitian band
            vals[delta] = vals[tuple(-q for q in delta)].conj()
    return {delta: (rows, cols, vals.get(delta, _NO_VALUE))
            for delta, (rows, cols) in index.items()}


def _compress_bands(spec: BasisSpec, nd: _NodeData, f: Callable, modes) -> dict:
    """The bands of T_f for ``modes`` (None: every mode of the rule's angles).

    (T_f)_{I, I - delta} = c_m sum_r F_r[delta] R_rI R_r(I-delta) (``_contract``),
    F_r[delta] n_theta^d wr_r times the Fourier coefficients f_k(r) of the
    modes k that reach delta (``band_modes``), exact from an FFT of f at
    2 B_j + 1 angles in dimension j, B_j = max |k_j|: n_r^d prod_j (2 B_j + 1)
    points, held _FOURIER_BYTES with their rows R and sampled _BLOCK_BYTES at a time.
    """
    d, n_theta, radii = spec.d, nd.rule.n_theta, nd.rule.radii
    if modes is None:  # every mode of the rule's angles, k in [-B, B]^d, 2 B + 1 = n_theta
        modes = (np.indices((n_theta,) * d).reshape(d, -1).T - n_theta // 2).tolist()
    if not len(modes):  # no band: nothing to sample
        return {}
    n_s = tuple(2 * max((abs(k[j]) for k in modes), default=0) + 1 for j in range(d))
    n_ang, n_rad = math.prod(n_s), radii.shape[0]
    angles = np.column_stack([quadrature.roots(n)[k]
                              for n, k in zip(n_s, np.indices(n_s).reshape(d, -1))])
    step = max(1, _FOURIER_BYTES // (16 * n_ang + 8 * spec.N))
    piece = max(1, quadrature._BLOCK_BYTES // (16 * d * n_ang))

    def chunks():
        fhat = np.empty((min(step, n_rad), n_ang), dtype=complex)
        for lo in range(0, n_rad, step):
            hi = min(lo + step, n_rad)
            for a in range(lo, hi, piece):
                b = min(a + piece, hi)
                vals = quadrature._values(f, (radii[a:b, None, :] * angles[None]).reshape(-1, d))
                fhat[a - lo:b - lo] = np.fft.fftn(
                    vals.reshape((-1,) + n_s), axes=tuple(range(1, d + 1))).reshape(-1, n_ang)
            fhat[:hi - lo] *= (nd.wr[lo:hi] * (n_theta ** d / n_ang))[:, None]
            yield fhat[:hi - lo], nd.radial(lo, hi)

    return _contract(spec, band_modes(spec, modes, n_theta, n_s), chunks())


def _densify(spec: BasisSpec, bands: dict) -> np.ndarray:
    """The dense (N, N) matrix of ``bands``: the one place a banded operator is densified."""
    out = np.zeros((spec.N, spec.N), dtype=complex)
    for rows, cols, vals in bands.values():
        out[rows, cols] = vals
    return out


def _band_dot(bands: dict, x, transpose: bool = False) -> np.ndarray:
    """A x (A^T x with ``transpose``) for the banded A and x of shape (N,) or (N, k).

    Within a band the rows are distinct, and so are the columns, so each band
    is one gather, one product and one scatter.
    """
    x = np.asarray(x)
    out = np.zeros(x.shape, dtype=np.result_type(x, complex))
    for rows, cols, vals in bands.values():
        src, dst = (rows, cols) if transpose else (cols, rows)
        out[dst] += vals.reshape(vals.shape + (1,) * (x.ndim - 1)) * x[src]
    return out


def eval_matrix(spec: BasisSpec, points) -> np.ndarray:
    """Basis values Psi_I = mu^I / sqrt(D_I): the normalized rows times (1+s)^(m/2).

    The scale is zeta_h^(-m) in log form, from the overflow-free lift.
    """
    lift = unit_lift(_as_points(spec, points))
    E = _lift_rows(spec, lift)
    E *= np.exp(-spec.m * np.log(lift[:, spec.d].real))[:, None]
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


def coherent_coeffs(spec: BasisSpec, mu) -> np.ndarray:
    """Coefficient vector of the coherent state, conj(Psi_I(mu))."""
    return np.conj(eval_matrix(spec, as_point(mu, d=spec.d))[0])


def kernel_L(spec: BasisSpec, mu, nu):
    """Two-point reproducing kernel (1 + mu . conj(nu))^m; shapes as ``geometry.pairing``."""
    out = np.power(geometry.pairing(mu, nu, spec.d), spec.m)
    return complex(out) if np.ndim(out) == 0 else out


def log_kernel(spec: BasisSpec, mu, nu):
    """Principal logarithm of the kernel, m * log(1 + mu . conj(nu)); shapes as ``kernel_L``.

    Safe at magnitudes where the kernel itself would overflow a double.
    """
    out = spec.m * np.log(geometry.pairing(mu, nu, spec.d))
    return complex(out) if np.ndim(out) == 0 else out


def inner_product(spec: BasisSpec, f: Callable, g: Callable) -> complex:
    """Numeric inner product c_m * integral of conj(f) g against the level weight.

    ``f``/``g`` are vectorized evaluators taking (n, d) node blocks.  Both
    factors are damped by (1 + s)^(-m/2) before multiplying so the product
    stays in range whenever each factor is o((1+s)^(m/2) * 1e150).
    """
    nd = spec.node_data()
    total = 0j
    for blk in quadrature.node_blocks(nd.rule, 16 * (spec.d + 4)):
        fv = np.asarray(f(blk.nodes)) * nd.hr[blk.r]
        gv = np.asarray(g(blk.nodes)) * nd.hr[blk.r]
        total += complex(np.sum(nd.wr[blk.r] * np.conj(fv) * gv))
    return spec.c_m * total


def gram_matrix(spec: BasisSpec) -> np.ndarray:
    """Numeric Gram matrix of the basis; identity when normalizations are right.

    Returns a dense copy of the bands cached on ``spec.node_data()``.
    """
    return _densify(spec, spec.node_data().gram)


def _power(z: np.ndarray, m: int) -> np.ndarray:
    """z ** m for an integer m >= 1 by repeated squaring, overwriting z.

    numpy's integer power squares only for m < 100; above that it takes a
    complex log and exp per entry, 30x the time of this loop at m = 512.
    """
    out = None
    while True:
        if m & 1:
            if out is None:
                out = z if m == 1 else z.copy()
            else:
                out *= z
        m >>= 1
        if not m:
            return out
        z *= z


def reproducing_residual(spec: BasisSpec, v, mu, relative: bool = False):
    """|<psi_mu, v> - v(mu)| with the pairing done by numeric integration.

    ``mu`` is one point (d,), which gives a float, or k points (k, d), which
    give a (k,) array, each bitwise the single-point residual.  The node sum
    runs over blocks of whole radial nodes, about _BLOCK_BYTES of unit lifts
    (``_lifts``) but at least one radial node, with wr times ``synthesize``
    on the block.  Each point's pairing with a block is added to its sum in
    block order.  ``relative`` divides by 1 + |v(mu)| in the normalized frame,
    |c_m <ehat_mu, v> - ehat(mu) v| / ((1+|mu|^2)^(-m/2) + |ehat(mu) v|):
    finite where (1+|mu|^2)^(m/2) overflows.

    Contract: <= 1e-8 * (1 + |v(mu)|) at the spec's level.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (spec.N,):
        raise DimensionMismatch(f"coefficient vector has shape {v.shape}, expected ({spec.N},)")
    single = np.ndim(mu) <= 1
    pts = as_point(mu, d=spec.d).reshape(1, -1) if single else _as_points(spec, mu)
    nd, lifts = spec.node_data(), unit_lift(pts)
    paired = np.zeros(pts.shape[0], dtype=complex)
    for blk in quadrature.node_blocks(nd.rule, 16 * (spec.d + 1), nd.rule.n_theta ** spec.d):
        wv, lift = synthesize(spec, nd, v, blk) * nd.wr[blk.r], _lifts(nd, blk)
        for j in range(pts.shape[0]):
            paired[j] += _power(np.conj(lift @ lifts[j].conj()), spec.m) @ wv
    value = np.sum(_lift_rows(spec, lifts) * v, axis=1)
    diff = np.abs(spec.c_m * paired - value)
    log1ps = np.log1p(np.sum(pts.real ** 2 + pts.imag ** 2, axis=1))
    out = (diff / (np.exp(-0.5 * spec.m * log1ps) + np.abs(value)) if relative
           else diff * np.exp(0.5 * spec.m * log1ps))
    return float(out[0]) if single else out


def resolution_check(spec: BasisSpec, v1, v2):
    """Defect of the resolution of the identity on vectors (N,), a float, or columns (N, k).

    |c_m * integral <v1, psi_mu><psi_mu, v2> dweight - <v1, v2>|, per column
    bitwise the single pair's: each column is summed as one contiguous row.
    The (1+s)^(+-m) factors cancel analytically and are cancelled here too,
    and the node sum is taken in the order v1^H G v2 with G the cached Gram
    bands: the same discrete sum as on the nodes.
    """
    v1, v2 = np.asarray(v1, dtype=complex), np.asarray(v2, dtype=complex)
    if v1.shape != v2.shape or v1.shape[:1] != (spec.N,) or v1.ndim > 2:
        raise DimensionMismatch(f"coefficient vectors have shapes {v1.shape} and {v2.shape}, "
                                f"expected ({spec.N},) or ({spec.N}, k) for both")

    def dot(a, b):
        return np.sum(np.ascontiguousarray(a.T).conj() * np.ascontiguousarray(b.T), axis=-1)

    gram_v2 = _band_dot(spec.node_data().gram, v2)
    out = np.abs(dot(v1, gram_v2) - dot(v1, v2))
    return float(out) if out.ndim == 0 else out


def _payload(spec: BasisSpec) -> dict:
    """The serialized form as a dict of JSON values: what ``to_json`` writes."""
    return {
        "schema": SCHEMA,
        "d": spec.d,
        "m": spec.m,
        "N": spec.N,
        "hbar": spec.hbar,
        "c_m": spec.c_m,
        "level": spec.level,
        "indices": spec._exponents[:, :spec.d].tolist(),
        "D": [float(x) for x in spec.D],
    }


def to_json(spec: BasisSpec) -> str:
    return json.dumps(_payload(spec), indent=2, sort_keys=True)


def from_json(text: str) -> BasisSpec:
    """Load a serialized basis; refuse a payload other than build_basis(d, m, level)'s."""
    payload = json.loads(text)
    if payload.get("schema") != SCHEMA:
        raise ValueError(f"unexpected schema {payload.get('schema')!r}")
    spec = build_basis(int(payload["d"]), int(payload["m"]), int(payload["level"]))
    if _payload(spec) != payload:
        raise ValueError(f"serialized basis differs from build_basis{spec.d, spec.m, spec.level}")
    return spec


def save_spec(spec: BasisSpec, path) -> None:
    with open(path, "w") as fh:
        fh.write(to_json(spec))
        fh.write("\n")


def load_spec(path) -> BasisSpec:
    with open(path) as fh:
        return from_json(fh.read())
