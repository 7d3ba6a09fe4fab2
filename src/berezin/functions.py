"""Named scalar functions on the chart used by sweeps and the CLI.

Each entry is smooth on the whole compactified space, bounded, and declares
its analytic Wirtinger gradients as ``grad`` (read by ``geometry.gradients``,
never differenced) plus the metadata sweeps need: the power of
(1 + |mu|^2) required to clear its denominator (weight_degree), its exact
sup norm for estimator tests, its angular modes and whether it is real.

The modes come from the U(1)^d symmetry of the chart weight: in polar
coordinates mu_j = r_j e^(i theta_j) each entry is a finite sum
f = sum_{k in K} f_k(r) e^(i k . theta), and ``modes(d)`` is that set K of
integer d-vectors.  Toeplitz assembly and operator norms use it
(``hilbert._compress_bands``, ``toeplitz.operator_norm``).

Evaluators are vectorized over an (n, d) complex array and return (n,).
``grad`` takes a single point (d,) or an (n, d) array of points and returns
the pair (d/dmu, d/dmubar), two arrays of that shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class ChartFunction:
    """A scalar observable on the chart with analytic, vectorized derivative data."""

    name: str
    evaluator: Callable          # (n, d) complex -> (n,)
    grad: Callable               # (d,) or (n, d) points -> (d/dmu_i, d/dmubar_i), same shape
    weight_degree: int           # min p with (1+|mu|^2)^p * f polynomial in mu, mubar
    sup_exact: float
    description: str
    modes: Callable              # d -> tuple of angular modes k (d-tuples of ints)
    real: bool                   # real-valued, so its Toeplitz operator is Hermitian

    def __call__(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=complex)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        return np.asarray(self.evaluator(pts))


def _s(pts: np.ndarray) -> np.ndarray:
    return np.sum(np.abs(pts) ** 2, axis=-1)


def _one(pts):
    return np.ones(pts.shape[0])


def _zero_grad(mu):
    return tuple(np.zeros((2, *mu.shape), dtype=complex))


def _quotient_grads(num, num_dmu1: complex, num_dmubar1: complex):
    """Analytic (d/dmu, d/dmubar) of f = num(mu_1) / w with w = 1 + |mu|^2.

    ``num`` is affine in (mu_1, mubar_1) with the given constant derivatives,
    so df/dmu_i = [i = 1] num_dmu1 / w - num * mubar_i / w^2, and df/dmubar_i
    likewise with num_dmubar1 and mu_i.  Returns one ``grad`` of (d,) or (n, d)
    points that forms w once for both.
    """

    def grad(mu):
        w = 1.0 + _s(mu)[..., None]
        q = -(num(mu[..., :1]) / w ** 2)
        dmu, dmubar = q * np.conj(mu), q * mu
        dmu[..., :1] += num_dmu1 / w
        dmubar[..., :1] += num_dmubar1 / w
        return dmu, dmubar

    return grad


def _radial(d: int) -> tuple:
    """{0}: functions of the radii alone."""
    return ((0,) * d,)


def _first_axis(d: int) -> tuple:
    """{e_1, -e_1}: functions of the radii times e^(+-i theta_1)."""
    e1 = (1,) + (0,) * (d - 1)
    return (e1, tuple(-q for q in e1))


def _re_rational(pts):
    return pts[:, 0].real / (1.0 + _s(pts))


def _im_rational(pts):
    return pts[:, 0].imag / (1.0 + _s(pts))


def _abs2_rational(pts):
    s = _s(pts)
    return s / (1.0 + s)


def _inv_rational(pts):
    return 1.0 / (1.0 + _s(pts))


_RE = _quotient_grads(lambda mu1: mu1.real, 0.5, 0.5)
_IM = _quotient_grads(lambda mu1: mu1.imag, -0.5j, 0.5j)
# s / (1 + s) = 1 - 1 / (1 + s) has the gradients of -1 / (1 + s).
_ABS2 = _quotient_grads(lambda mu1: -1.0, 0.0, 0.0)
_INV = _quotient_grads(lambda mu1: 1.0, 0.0, 0.0)

REGISTRY: dict[str, ChartFunction] = {
    "one": ChartFunction(
        name="one", evaluator=_one, grad=_zero_grad, weight_degree=0,
        sup_exact=1.0, description="constant 1", modes=_radial, real=True),
    "re_rational": ChartFunction(
        name="re_rational", evaluator=_re_rational, grad=_RE, weight_degree=1,
        sup_exact=0.5, description="Re mu_1 / (1 + |mu|^2)", modes=_first_axis, real=True),
    "im_rational": ChartFunction(
        name="im_rational", evaluator=_im_rational, grad=_IM, weight_degree=1,
        sup_exact=0.5, description="Im mu_1 / (1 + |mu|^2)", modes=_first_axis, real=True),
    "abs2_rational": ChartFunction(
        name="abs2_rational", evaluator=_abs2_rational, grad=_ABS2, weight_degree=1,
        sup_exact=1.0, description="|mu|^2 / (1 + |mu|^2)", modes=_radial, real=True),
    "inv_rational": ChartFunction(
        name="inv_rational", evaluator=_inv_rational, grad=_INV, weight_degree=1,
        sup_exact=1.0, description="1 / (1 + |mu|^2)", modes=_radial, real=True),
}


def get_function(name: str) -> ChartFunction:
    if name not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown function {name!r}; known: {known}")
    return REGISTRY[name]
