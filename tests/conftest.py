"""Shared fixtures: seeded RNG and a session-wide basis cache.

Basis construction caches quadrature node tables, so reusing one spec
per (d, m, level) keeps the suite fast without changing any semantics.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import berezin
from berezin import hilbert


_SPECS = {}


def get_basis(d, m, level=None):
    key = (d, m, level)
    if key not in _SPECS:
        _SPECS[key] = hilbert.build_basis(d, m, level=level)
    return _SPECS[key]


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)


@pytest.fixture(scope="session")
def basis():
    return get_basis


def sample_ball(rng, d, radius, n):
    """Uniform points in the complex d-ball of the given radius."""
    out = np.empty((n, d), dtype=complex)
    filled = 0
    while filled < n:
        block = rng.uniform(-radius, radius, size=(4 * n, 2 * d))
        pts = block[:, :d] + 1j * block[:, d:]
        keep = pts[np.linalg.norm(pts, axis=1) <= radius]
        take = min(n - filled, keep.shape[0])
        out[filled:filled + take] = keep[:take]
        filled += take
    return out


def layout_nodes(rule):
    """All nodes (n, d) and weights (n,) of a rule from the layout formula.

    Node r * n_theta^d + k is radii[r] * exp(i theta_k), theta_k = 2 pi
    k_vec / n_theta with k_vec the C-order multi-index of k, and its weight
    is radii_weights[r].  Test references only: the package forms nodes one
    block at a time (``quadrature.node_blocks``).
    """
    d, n_ang = rule.d, rule.n_theta ** rule.d
    theta = 2.0 * np.pi * np.arange(rule.n_theta) / rule.n_theta
    k = np.indices((rule.n_theta,) * d).reshape(d, -1).T
    nodes = (rule.radii[:, None] * np.exp(1j * theta[k])[None]).reshape(-1, d)
    return nodes, np.repeat(rule.radii_weights, n_ang)


def ladder_bands(spec, a, b):
    """T(x_a conj(x_b)) on the normalized basis, from the su(d+1) ladder algebra.

    x = zeta(nu) is the unit lift, with h = d its homogeneous slot, and e_Jhat
    the normalized basis vector of Jhat = (J, m - |J|).  In the Schwinger-boson
    form of Sym^m C^(d+1), T(x_a conj(x_b)) = (a_a^dag a_b + delta_ab) / (m + d
    + 1), where a_a^dag a_b e_Jhat = sqrt((Jhat_a + 1) Jhat_b) e_(Jhat + e_a -
    e_b) for a != b and Jhat_a e_Jhat for a = b.  Returns the one band
    {delta: (rows, cols, vals)}, delta = I - J in the chart coordinates, in
    O(N) and without quadrature: a reference for the Toeplitz operators of
    the registry functions.  Positions come from its own dict over the
    exponent table, not from ``hilbert._band_index``.
    """
    d, m = spec.d, spec.m
    J = spec._exponents
    step = np.zeros(d + 1, dtype=int)
    step[a] += 1
    step[b] -= 1
    cols = np.flatnonzero(np.all(J + step >= 0, axis=1))
    position = {I: k for k, I in enumerate(map(tuple, J.tolist()))}
    rows = np.array([position[I] for I in map(tuple, (J[cols] + step).tolist())], dtype=np.intp)
    if a == b:
        vals = J[:, a] + 1.0
    else:
        vals = np.sqrt((J[cols, a] + 1.0) * J[cols, b])
    return {tuple(step[:d]): (rows, cols, vals / (m + d + 1))}


def moment_matrix(name, d):
    """Hermitian A with the registry function ``name`` = x^H A x, x the unit lift.

    h = d is the homogeneous slot: one = sum_a |x_a|^2, inv_rational =
    |x_h|^2, abs2_rational = 1 - |x_h|^2, re_rational = Re(x_1 conj(x_h)) and
    im_rational = Im(x_1 conj(x_h)).
    """
    eye = np.eye(d + 1, dtype=complex)
    hh, h1 = np.outer(eye[d], eye[d]), np.outer(eye[d], eye[0])  # |x_h|^2, x_1 conj(x_h)
    return {"one": eye, "inv_rational": hh, "abs2_rational": eye - hh,
            "re_rational": (h1 + h1.T) / 2, "im_rational": -0.5j * (h1 - h1.T)}[name]


def ladder_operator(spec, A):
    """Dense T(x^H A x) = sum_ab A_ab T(x_b conj(x_a)) from ``ladder_bands``."""
    out = np.zeros((spec.N, spec.N), dtype=complex)
    for a, b in zip(*np.nonzero(A)):
        for rows, cols, vals in ladder_bands(spec, b, a).values():
            out[rows, cols] += A[a, b] * vals
    return out


def ladder_registry(spec):
    """Dense T_f of the five registry functions from ``ladder_bands``."""
    return {name: ladder_operator(spec, moment_matrix(name, spec.d))
            for name in ("one", "inv_rational", "abs2_rational", "re_rational", "im_rational")}


def admissible(mu, nu):
    """Pairs whose pairing cannot lose precision to cancellation."""
    bound = 1.0 + np.sum(np.abs(mu) * np.abs(nu))
    return bound <= 2.0 * abs(1.0 + np.vdot(nu, mu))


@pytest.fixture
def ball_sampler():
    return sample_ball


@pytest.fixture
def admissible_pair():
    return admissible


# A bare interpreter that starts the measured child and reports its exit code
# and peak RSS.  On Linux a process's ru_maxrss starts from the peak RSS of the
# process that spawned it, and the test process may have grown far past the
# bounds the memory tests assert; this launcher stays small.
_LAUNCHER = (
    "import os, sys\n"
    "pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[2:]], os.environ)\n"
    "_, status, usage = os.wait4(pid, 0)\n"
    "with open(sys.argv[1], 'w') as fh:\n"
    "    fh.write(f'{os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}')\n")


def run_child(args, tmp_path):
    """Run ``python *args`` in a fresh process with this package importable.

    Returns (exit code, stdout, stderr, peak RSS in KiB).  The peak is the
    child's own rusage (os.wait4), taken through ``_LAUNCHER``, so the
    memory of the test process does not count.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(berezin.__file__).parents[1]), env.get("PYTHONPATH", "")])
    out_path, err_path = tmp_path / "child.out", tmp_path / "child.err"
    report = tmp_path / "child.rusage"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        subprocess.run([sys.executable, "-c", _LAUNCHER, str(report), *args],
                       env=env, stdout=out, stderr=err, check=True)
    returncode, peak = (int(x) for x in report.read_text().split())
    return returncode, out_path.read_text(), err_path.read_text(), peak


@pytest.fixture
def child_process():
    return run_child
