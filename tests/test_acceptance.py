"""Acceptance criteria for the package, one printed verdict line per criterion.

Each test computes its criterion end to end at the stated tolerances, prints
exactly one "[criterion N] ...: PASS/FAIL" line, and then asserts.  Grids and
budgets are fixed here so the suite is reproducible run to run.
"""

import json
import time

import numpy as np
import pytest

from berezin import cli, hilbert, operators, pullback, toeplitz
from berezin.errors import OddLevel
from berezin.functions import get_function
from conftest import get_basis, sample_ball, admissible

MU0 = np.array([0.3 + 0.2j])
SWEEP_GRID = [4, 8, 16, 32, 64]
SLOPE_WINDOW = (-1.3, -0.7)


def verdict(n, label, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"[criterion {n}] {label}: {'PASS' if ok else 'FAIL'}{tail}")
    return ok


def admissible_pairs(rng, d, radius, n):
    mus = np.empty((n, d), dtype=complex)
    nus = np.empty((n, d), dtype=complex)
    filled = 0
    while filled < n:
        a = sample_ball(rng, d, radius, 2 * n)
        b = sample_ball(rng, d, radius, 2 * n)
        bound = 1.0 + np.sum(np.abs(a) * np.abs(b), axis=1)
        pair = np.abs(1.0 + np.sum(np.conj(b) * a, axis=1))
        keep = bound <= 2.0 * pair
        take = min(n - filled, int(np.sum(keep)))
        mus[filled:filled + take] = a[keep][:take]
        nus[filled:filled + take] = b[keep][:take]
        filled += take
    return mus, nus


def test_criterion_1_kernel_closed_form(rng):
    t0 = time.perf_counter()
    worst = 0.0
    for d in (1, 2):
        for m in (2, 4, 8, 16):
            spec = get_basis(d, m)
            mus, nus = admissible_pairs(rng, d, 2.0, 1000)
            sums = np.sum(np.conj(hilbert.eval_matrix(spec, mus))
                          * hilbert.eval_matrix(spec, nus), axis=1)
            closed = (1.0 + np.sum(np.conj(mus) * nus, axis=1)) ** m
            worst = max(worst, float(np.max(np.abs(sums - closed) / np.abs(closed))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    assert verdict(1, "kernel sum matches closed form on 8000 random pairs", ok,
                   f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_orthonormality_and_reproducing(rng):
    worst_gram = 0.0
    worst_ratio = 0.0
    grids = {1: (1, 2, 3, 4, 6, 8, 12, 16, 24, 32), 2: (1, 2, 3, 4, 6, 8)}
    for d, ms in grids.items():
        for m in ms:
            spec = get_basis(d, m)
            gram = hilbert.gram_matrix(spec)
            worst_gram = max(worst_gram, float(np.max(np.abs(gram - np.eye(spec.N)))))
            pts = sample_ball(rng, d, 1.0, 20)
            emat = hilbert.eval_matrix(spec, pts)
            for k in range(spec.N):
                v = np.zeros(spec.N)
                v[k] = 1.0
                for p, row in zip(pts, emat):
                    res = hilbert.reproducing_residual(spec, v, p)
                    worst_ratio = max(worst_ratio, res / (1.0 + abs(row[k])))
    ok = worst_gram <= 1e-8 and worst_ratio <= 1e-8
    assert verdict(2, "basis orthonormal and kernel reproduces sections", ok,
                   f"gram dev {worst_gram:.2e}, residual ratio {worst_ratio:.2e}")


def test_criterion_3_resolution_of_identity():
    worst = 0.0
    for m in (1, 2, 3, 4, 6, 8, 12, 16):
        spec = get_basis(1, m)
        eye = np.eye(spec.N)
        for i in range(spec.N):
            for j in range(spec.N):
                worst = max(worst, hilbert.resolution_check(spec, eye[i], eye[j]))
    ok = worst <= 1e-8
    assert verdict(3, "coherent resolution of the identity on all basis pairs", ok,
                   f"worst defect {worst:.2e}")


def test_criterion_4_star_product_against_matrix_product(rng):
    worst = 0.0
    for d, m_top in ((1, 8), (2, 4)):
        for _ in range(100):
            m = int(rng.integers(1, m_top + 1))
            spec = get_basis(d, m)
            a = operators.OperatorMatrix(
                spec, rng.normal(size=(spec.N, spec.N))
                + 1j * rng.normal(size=(spec.N, spec.N)))
            b = operators.OperatorMatrix(
                spec, rng.normal(size=(spec.N, spec.N))
                + 1j * rng.normal(size=(spec.N, spec.N)))
            mu = sample_ball(rng, d, 1.5, 1)[0]
            got = operators.star_product(a, b, mu)
            want = operators.symbol_eval(a @ b, mu, mu)
            worst = max(worst, abs(got - want) / abs(want))

    worst_norm = 0.0
    for d, m in ((1, 2), (1, 8), (2, 4)):
        spec = get_basis(d, m)
        ident = operators.identity_operator(spec)
        for _ in range(5):
            mu = sample_ball(rng, d, 1.5, 1)[0]
            worst_norm = max(worst_norm,
                             abs(operators.star_product(ident, ident, mu) - 1.0))
    ok = worst <= 1e-6 and worst_norm <= 1e-8
    assert verdict(4, "star product agrees with operator product symbols", ok,
                   f"worst rel err {worst:.2e}, identity defect {worst_norm:.2e}")


def test_criterion_5_correspondence_sweep():
    t0 = time.perf_counter()
    f = get_function("re_rational")
    g = get_function("im_rational")

    def build(fn):
        return lambda m: toeplitz.toeplitz_matrix(get_basis(1, m), fn)

    res = operators.correspondence_sweep(build(f), build(g), SWEEP_GRID, MU0)
    e0 = [r[1] for r in res.rows]
    e1 = [r[2] for r in res.rows]
    elapsed = time.perf_counter() - t0

    e0_decreasing = all(x > y for x, y in zip(e0, e0[1:]))
    slope_ok = res.slope_e0 is not None and SLOPE_WINDOW[0] <= res.slope_e0 <= SLOPE_WINDOW[1]
    # the first-order law is exact for this pair of moment-map components,
    # so e1 is rounding error and the sweep passes through the zero-floor
    # branch rather than a decay fit
    e1_ok = all(x > y for x, y in zip(e1, e1[1:])) or max(e1) <= 1e-10
    ok = e0_decreasing and slope_ok and e1_ok and elapsed < 300.0
    assert verdict(5, "semiclassical error sweep decays at the expected rate", ok,
                   f"slope {res.slope_e0:.3f}, max e1 {max(e1):.1e}, {elapsed:.1f}s")


def test_criterion_6_toeplitz_norm_and_commutator_sweeps():
    details = []
    ok = True
    for name in ("abs2_rational", "inv_rational"):
        fn = get_function(name)
        res = toeplitz.toeplitz_sweep(fn, fn, SWEEP_GRID)
        norms = [r[1] for r in res.rows]
        defects = [r[2] for r in res.rows]
        nondecreasing = all(x <= y + 1e-12 for x, y in zip(norms, norms[1:]))
        positive = all(x > 0 for x in defects)
        slope_ok = (res.slope_e0 is not None
                    and SLOPE_WINDOW[0] <= res.slope_e0 <= SLOPE_WINDOW[1])
        ok = ok and nondecreasing and positive and slope_ok
        details.append(f"{name} slope {res.slope_e0:.3f}")

    comm = toeplitz.toeplitz_sweep(get_function("re_rational"),
                                   get_function("im_rational"), SWEEP_GRID)
    cdef = [r[3] for r in comm.rows]
    nonincreasing = all(x >= y for x, y in zip(cdef, cdef[1:]))
    comm_ok = nonincreasing and comm.slope_e1 is not None and comm.slope_e1 <= -0.7
    ok = ok and comm_ok
    details.append(f"commutator slope {comm.slope_e1:.3f}")
    assert verdict(6, "compression norms saturate and commutators vanish", ok,
                   "; ".join(details))


def test_criterion_7_pullback_equivalence(rng):
    spec = get_basis(1, 8)
    worst_ip = 0.0
    for chart in (pullback.identity_chart(1), pullback.torus_chart()):
        eye = np.eye(spec.N)
        for i in range(spec.N):
            for j in range(spec.N):
                got = pullback.inner_product_on_manifold(spec, chart, eye[i], eye[j])
                worst_ip = max(worst_ip, abs(got - (1.0 if i == j else 0.0)))

    tc = pullback.torus_chart()
    mat = rng.normal(size=(spec.N, spec.N)) + 1j * rng.normal(size=(spec.N, spec.N))
    op = pullback.PulledOperator(operators.OperatorMatrix(spec, mat), tc)
    ident = pullback.PulledOperator(operators.identity_operator(spec), tc)
    pa, pb = tc.sample(rng, 2)
    za, zb = tc.forward(pa)[0], tc.forward(pb)[0]
    delegated = (pullback.pulled_symbol(op, pa, pb)
                 == operators.symbol_eval(op.base, za, zb)
                 and pullback.pulled_star(op, ident, pa)
                 == operators.star_product(op.base, ident.base, za))

    ident_chart = pullback.identity_chart(1)
    rot = pullback.equivalence_check(spec, ident_chart, pullback.rotation_chart(0.8),
                                     rng=np.random.default_rng(5))
    scal = pullback.equivalence_check(spec, ident_chart, pullback.scaling_chart(2.0),
                                      rng=np.random.default_rng(6))
    ok = (worst_ip <= 1e-8 and delegated and rot.equivalent and not scal.equivalent)
    assert verdict(7, "manifold pairing transports and isometries are recognized", ok,
                   f"ip dev {worst_ip:.2e}, rotation dev {rot.kernel_deviation:.1e}, "
                   f"scaling dev {scal.kernel_deviation:.1e}")


def test_criterion_8_holonomy():
    worst_eq = 0.0
    for m in (2, 4, 8, 16):
        h = pullback.holonomy(pullback.equator_path(), m)
        worst_eq = max(worst_eq, abs(h - 1.0))

    odd_rejected = False
    try:
        pullback.connection_integral(pullback.equator_path(), 3)
    except OddLevel:
        try:
            pullback.torus_holonomy(1, 0, 3)
        except OddLevel:
            odd_rejected = True

    base = (0.25, 0.25)
    table = {(k1, k2): pullback.torus_holonomy(k1, k2, 2, base=base)
             for k1 in range(-5, 6) for k2 in range(-5, 6)}
    worst_mult = 0.0
    for (a1, a2), ha in table.items():
        for (b1, b2), hb in table.items():
            if abs(a1 + b1) <= 5 and abs(a2 + b2) <= 5:
                worst_mult = max(worst_mult,
                                 abs(ha * hb - table[(a1 + b1, a2 + b2)]))

    refine = max(
        abs(pullback.holonomy(pullback.equator_path(), 4, segments=4096)
            - pullback.holonomy(pullback.equator_path(), 4, segments=8192)),
        abs(pullback.torus_holonomy(1, -1, 4, base=base, segments=4096)
            - pullback.torus_holonomy(1, -1, 4, base=base, segments=8192)))

    ok = (worst_eq <= 1e-8 and odd_rejected and worst_mult <= 1e-10
          and refine <= 1e-8)
    assert verdict(8, "holonomy values, parity guard, and cycle group law", ok,
                   f"equator {worst_eq:.1e}, mult {worst_mult:.1e}, refine {refine:.1e}")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    commands = {
        "basis.json": ["basis", "--d", "2", "--m", "16"],
        "kernel.csv": ["kernel-check", "--d", "1", "--m", "8",
                       "--pairs", "20", "--seed", "99"],
        "star.csv": ["star-sweep", "--m-list", "4,8",
                     "--f", "re_rational", "--g", "im_rational"],
        "toeplitz.csv": ["toeplitz-sweep", "--f", "abs2_rational",
                         "--g", "im_rational", "--m-list", "4,8"],
        "torus.csv": ["torus-holonomy", "--m", "2", "--kmax", "2"],
    }
    snapshots = []
    codes = []
    for tag in ("run1", "run2"):
        root = tmp_path / tag
        root.mkdir()
        for fname, argv in commands.items():
            codes.append(cli.main(argv + ["--out", str(root / fname)]))
        capsys.readouterr()
        files = sorted(p.name for p in root.iterdir())
        snapshots.append({name: (root / name).read_bytes() for name in files})

    same_files = set(snapshots[0]) == set(snapshots[1])
    same_bytes = same_files and all(
        snapshots[0][name] == snapshots[1][name] for name in snapshots[0])
    ok = all(c == 0 for c in codes) and same_bytes
    assert verdict(9, "every CLI command reproduces its artifacts byte for byte", ok,
                   f"{len(snapshots[0])} files per run, exit codes {sorted(set(codes))}")
