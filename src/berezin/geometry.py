"""Geometry of the affine chart of complex projective space.

Everything downstream (quadrature weights, Hilbert-space inner products,
semiclassical checks) lives in a single affine chart C^d carrying the
potential ln(1 + |mu|^2).  This module owns the conventions:

* metric: g[i, j] = d^2/dmu_i dmubar_j of the potential, a Hermitian
  positive matrix with the closed form
  ((1+|mu|^2) I - outer(conj(mu), mu)) / (1+|mu|^2)^2,
* volume: density (1 + |mu|^2)^-(d+1) against the doubled Lebesgue
  measure 2^d * prod_i dx_i dy_i (so the d=1 chart has total volume 2 pi),
* form matrix: ``fs_form`` returns 1j * transpose(metric); the bracket
  contracts with its inverse.  The constant is pinned so that the
  first-order commutator law of the operator layer holds with factor +1j;
  an exactly soluble rank-one case in the test suite locks the sign,
* two-point pairing: ``pairing`` is the one place where 1 + mu . conj(nu)
  is formed, for one pair or arrays of pairs; the diastasis and the
  reproducing kernel (``hilbert.kernel_L``, ``hilbert.log_kernel``) read it,
* derivatives: ``gradients`` is the one place that decides how a function
  is differentiated.  A declared ``grad(points) -> (d/dmu, d/dmubar)`` (every
  registry function and every covariant symbol) is evaluated and never
  differenced; any other callable takes one central ``wirtinger`` stencil
  (step 1e-5 * max(1, |mu|)) over one point or n points at once.
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

import numpy as np

from .errors import DerivativeFailure, DimensionMismatch, SingularPair

PAIRING_TOL = 1e-14
WIRTINGER_STEP = 1e-5


def as_point(mu, d: int | None = None, batch: bool = False) -> np.ndarray:
    """Coerce to a complex vector (d,), or with ``batch`` points (..., d), checking finiteness."""
    arr = np.atleast_1d(np.asarray(mu, dtype=complex))
    if arr.ndim != 1 and not batch:
        raise DimensionMismatch(f"chart point must be a vector, got shape {arr.shape}")
    if d is not None and arr.shape[-1] != d:
        raise DimensionMismatch(f"expected dimension {d}, got {arr.shape[-1]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("chart point has non-finite coordinates")
    return arr


def pairing(mu, nu, d: int | None = None):
    """Kernel pairing 1 + mu . conj(nu): the one place where it is formed.

    One (d,) pair gives a complex; points (..., d), broadcast against each
    other, give an array, each entry its pair's bitwise: the sum runs one
    column at a time in real arithmetic.  ``d`` checks the dimension.
    """
    mu = as_point(mu, d, batch=True)
    nu = as_point(nu, mu.shape[-1], batch=True)
    cols = list(zip(np.moveaxis(mu, -1, 0), np.moveaxis(nu, -1, 0)))
    re = functools.reduce(np.add, [a.real * b.real + a.imag * b.imag for a, b in cols])
    im = functools.reduce(np.add, [a.imag * b.real - a.real * b.imag for a, b in cols])
    w = (1.0 + re) + 1j * im
    return complex(w) if np.ndim(w) == 0 else w


def on_branch_cut(mu, nu, tol: float = 1e-12) -> bool:
    """Flag pairs whose pairing sits on the negative real axis.

    The potential takes the principal branch of the logarithm; its value for
    such pairs is left unspecified and callers are expected to check this
    predicate when they care.
    """
    w = pairing(mu, nu)
    return w.real < 0.0 and abs(w.imag) <= tol * max(1.0, abs(w))


def fs_potential(mu, nu=None) -> complex:
    """Two-point potential ln(1 + mu . conj(nu)), principal branch.

    With ``nu`` omitted this is the real potential at ``mu``.  Raises
    SingularPair when the pairing modulus falls below 1e-14.
    """
    w = pairing(mu, mu if nu is None else nu)
    if abs(w) < PAIRING_TOL:
        raise SingularPair(f"|1 + mu.conj(nu)| = {abs(w):.3e} below {PAIRING_TOL}")
    return complex(np.log(w))


def fs_metric(mu) -> np.ndarray:
    """Chart metric as a Hermitian (d, d) matrix.

    Entry (i, j) is the mixed second derivative of the potential with
    respect to (mu_i, conj(mu_j)).
    """
    mu = as_point(mu)
    a = pairing(mu, mu).real  # 1 + |mu|^2
    return (a * np.eye(mu.shape[0]) - np.outer(np.conj(mu), mu)) / a ** 2


def fs_metric_inverse(mu) -> np.ndarray:
    """Closed-form inverse metric (1 + |mu|^2) * (I + outer(conj(mu), mu))."""
    mu = as_point(mu)
    return pairing(mu, mu).real * (np.eye(mu.shape[0]) + np.outer(np.conj(mu), mu))


def fs_form(mu) -> np.ndarray:
    """Form-coefficient matrix 1j * transpose(metric) used by the bracket."""
    return 1j * fs_metric(mu).T


def fs_form_inverse(mu) -> np.ndarray:
    """Inverse of the form-coefficient matrix, in closed form.

    Product with ``fs_form`` is the identity to machine precision; the
    bracket contracts derivative vectors with this matrix.
    """
    return -1j * fs_metric_inverse(mu).T


def volume_density(mu) -> float:
    """Chart volume factor (1 + |mu|^2)^-(d+1) (against 2^d Lebesgue)."""
    mu = as_point(mu)
    return float(pairing(mu, mu).real ** (-(mu.shape[0] + 1)))


def lebesgue_volume_density(mu) -> float:
    """Volume density against plain Lebesgue measure prod dx_i dy_i."""
    mu = as_point(mu)
    return float(2 ** mu.shape[0]) * volume_density(mu)


def diastasis(mu, nu):
    """Two-point diastasis, real, <= 0, and exactly 0.0 at nu == mu; shapes as ``pairing``.

    log(p / (a b)) with p = |1 + mu . conj(nu)|^2 and a, b the diagonal
    pairings: at nu == mu the pairing is exactly a, so the ratio is bitwise
    1.0.  SingularPair when any pair sits at the pairing's zero set.
    """
    w = pairing(mu, nu)
    p = w.real * w.real + w.imag * w.imag
    if np.any(p < PAIRING_TOL**2):
        raise SingularPair("diastasis undefined: pairing at its zero set")
    out = np.log(p / (pairing(mu, mu).real * pairing(nu, nu).real))
    return float(out) if np.ndim(out) == 0 else out


def wirtinger(f: Callable, mu):
    """Central-difference Wirtinger derivatives of a scalar function at one point or n points.

    ``mu`` is one (d,) point, where ``f`` maps (d,) vectors to scalars, or
    (n, d) points, where ``f`` maps (n, d) arrays to (n,).  Either way ``f``
    is called 4d times, on the stencils mu +- h e_i and mu +- i h e_i with
    the per-row step h = 1e-5 * max(1, |mu_n|).  Returns (dmu, dmubar) shaped
    like ``mu``, the derivatives in mu_i and conj(mu_i).  DerivativeFailure
    names the coordinate (and the first bad row of n points) where an
    evaluation fails or a quotient is not finite.
    """
    pts = np.asarray(mu, dtype=complex)
    single = pts.ndim < 2
    if single:
        pts = as_point(pts)[None]
    elif pts.ndim != 2:
        raise DimensionMismatch(f"chart points must be (n, d), got shape {pts.shape}")
    n, d = pts.shape
    h = WIRTINGER_STEP * np.maximum(1.0, np.sqrt(np.sum(pts.real ** 2 + pts.imag ** 2, axis=1)))
    dmu, dmubar = np.empty((2, n, d), dtype=complex)

    def value(p) -> np.ndarray:
        a = np.asarray(f(p[0] if single else p), dtype=complex)
        if a.size != n:
            raise ValueError(f"evaluator returned shape {a.shape} for {n} points")
        return a.reshape(n)

    for i in range(d):
        e = np.zeros((n, d), dtype=complex)
        e[:, i] = h
        try:
            fx = (value(pts + e) - value(pts - e)) / (2.0 * h)
            e[:, i] *= 1j
            fy = (value(pts + e) - value(pts - e)) / (2.0 * h)
        except Exception as exc:  # stencil left the admissible domain
            raise DerivativeFailure(f"stencil evaluation failed at coordinate {i}: {exc}") from exc
        bad = ~(np.isfinite(fx) & np.isfinite(fy))
        if np.any(bad):
            row = "" if single else f", row {int(np.argmax(bad))}"
            raise DerivativeFailure(f"non-finite difference quotient at coordinate {i}{row}")
        dmu[:, i] = 0.5 * (fx - 1j * fy)
        dmubar[:, i] = 0.5 * (fx + 1j * fy)
    return (dmu[0], dmubar[0]) if single else (dmu, dmubar)


def gradients(fn: Callable, mu) -> tuple[np.ndarray, np.ndarray]:
    """Wirtinger gradients (d/dmu, d/dmubar) of ``fn`` at one (d,) point or (n, d) points.

    A declared ``fn.grad`` (every ChartFunction and CovariantSymbol has one),
    returning the pair shaped like ``mu``, is evaluated and never differenced;
    any other callable takes one ``wirtinger`` stencil over all the points.
    """
    if hasattr(fn, "grad"):
        return tuple(np.asarray(g, dtype=complex) for g in fn.grad(mu))
    return wirtinger(fn, mu)


def bracket_from_gradients(pts, dt_mu, dt_mubar, ds_mu, ds_mubar) -> np.ndarray:
    """Chart Poisson bracket {t, s} from Wirtinger gradients, vectorized.

    Arguments are (d,) vectors or (n, d) arrays, one row per point; the result
    has shape () or (n,).  {t, s} = ds_mu.W.dt_mubar - dt_mu.W.ds_mubar with W
    the inverse form matrix -i (1+s) (I + mu conj(mu)^T) of ``fs_form_inverse``,
    so a.W.b = -i (1+s) [(a.b) + (a.mu)(conj(mu).b)] with unconjugated dot
    products.  Exactly antisymmetric in (t, s).
    """
    pts = np.asarray(pts, dtype=complex)
    conj = pts.conj()

    def contract(a, b):
        return (np.sum(a * b, axis=-1)
                + np.sum(a * pts, axis=-1) * np.sum(conj * b, axis=-1))

    s = np.sum(np.abs(pts) ** 2, axis=-1)
    return -1j * (1.0 + s) * (contract(ds_mu, dt_mubar) - contract(dt_mu, ds_mubar))


def poisson_bracket(t: Callable, s: Callable, mu) -> complex:
    """Chart Poisson bracket of two scalar functions at a single point ``mu``.

    {t, s} = sum_ij W[i, j] * (dt/dmubar_j ds/dmu_i - ds/dmubar_j dt/dmu_i)
    with W the inverse form matrix; evaluated by ``bracket_from_gradients``.
    Antisymmetric in (t, s) by construction.  Gradients come from
    ``gradients``: a declared ``grad`` is evaluated, any other function is
    differenced by ``wirtinger``.
    """
    mu = as_point(mu)
    return complex(bracket_from_gradients(mu, *gradients(t, mu), *gradients(s, mu)))
