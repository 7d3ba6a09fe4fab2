"""Command-line front end.

Subcommands:
    basis           build a level basis, print its size, optionally save JSON
    kernel-check    sampled two-point kernel and reproducing identities
    star-sweep      star-product correspondence errors over a level list
    toeplitz-sweep  norm saturation and commutator correspondence sweeps
    torus-holonomy  cycle holonomy table for the square-torus presentation

Exit codes: 0 success, 1 property violation (a numerical gate failed),
2 configuration error (bad flags, config file, or requested objects),
3 numeric failure (integrand blew up, kernel degenerate, path too coarse,
linear algebra did not converge, overflow, out of memory).

Flags may also be supplied via --config FILE with key=value lines
('#' comments allowed); explicit flags win.  CSV floats are written with
%.17g so outputs round-trip and runs are byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import hilbert, operators, pullback, toeplitz
from .errors import (DegenerateKernel, DerivativeFailure, DimensionMismatch,
                     IndexOutOfRange, NonFiniteIntegrand, OddLevel, OutOfDomain,
                     PathTooCoarse, ResourceLimit, SingularPair)
from .functions import get_function
from .geometry import diastasis, pairing

# Fixed evaluation point for star sweeps: generic (no symmetry with the
# function family's axes), modest modulus, documented in the README.
MU0 = 0.3 + 0.2j

SLOPE_WINDOW = (-1.3, -0.7)

# Caught before _CONFIG_ERRORS: LinAlgError subclasses ValueError.
_NUMERIC_ERRORS = (NonFiniteIntegrand, ResourceLimit, DegenerateKernel,
                   PathTooCoarse, SingularPair, DerivativeFailure,
                   np.linalg.LinAlgError, OverflowError, MemoryError)
_CONFIG_ERRORS = (ValueError, KeyError, OSError, DimensionMismatch,
                  IndexOutOfRange, OddLevel, OutOfDomain)

_CONVERTERS = {
    "d": int, "m": int, "level": int, "seed": int, "pairs": int,
    "kmax": int, "segments": int, "tol": float,
    "m_list": lambda s: [int(tok) for tok in str(s).replace(" ", "").split(",") if tok],
    "f": str, "g": str, "out": str,
}


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _write_csv(path: str | None, header: list, rows: list) -> None:
    text = ",".join(header) + "\n"
    for row in rows:
        text += ",".join(_fmt(x) for x in row) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _write_sidecar(path: str | None, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).with_suffix(".json").write_text(text)


def _merge_config(args: argparse.Namespace) -> None:
    if not getattr(args, "config", None):
        return
    raw = Path(args.config).read_text()
    for lineno, line in enumerate(raw.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{args.config}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        dest = key.strip().replace("-", "_")
        if dest not in _CONVERTERS:
            raise ValueError(f"{args.config}:{lineno}: unknown key {key.strip()!r}")
        if not hasattr(args, dest):
            continue  # key valid globally but unused by this subcommand
        if getattr(args, dest) is None:
            setattr(args, dest, _CONVERTERS[dest](value.strip()))


def _require(args, names: list) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise ValueError(f"missing required option --{name.replace('_', '-')}")


def _default(args, **kwargs) -> None:
    for name, value in kwargs.items():
        if getattr(args, name) is None:
            setattr(args, name, value)


def _decreasing(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


def _slope_ok(slope) -> bool:
    return slope is not None and SLOPE_WINDOW[0] <= slope <= SLOPE_WINDOW[1]


def _sweep_functions(args):
    """Validate a sweep's --m-list, --f and --g; return the two functions."""
    _require(args, ["m_list", "f", "g"])
    _default(args, d=1)
    if args.d < 1:
        raise ValueError(f"--d must be >= 1, got {args.d}")
    if not args.m_list or sorted(set(args.m_list)) != args.m_list:
        raise ValueError("m-list must be non-empty and strictly increasing")
    return get_function(args.f), get_function(args.g)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_basis(args) -> int:
    _require(args, ["m"])
    _default(args, d=1)
    spec = hilbert.build_basis(args.d, args.m, level=args.level)
    sys.stdout.write(f"d={spec.d} m={spec.m} N={spec.N} level={spec.level} "
                     f"c_m={_fmt(spec.c_m)}\n")
    if args.out is not None:
        # The serialized BasisSpec is the artifact itself; no sidecar.
        hilbert.save_spec(spec, args.out)
    return 0


def _admissible_pair(rng, d: int):
    """Sample a chart pair on which the kernel power is well conditioned.

    Rejects pairs where |1 + mu . conj(nu)| is more than half cancelled
    relative to 1 + sum |mu_i| |nu_i|; accepted pairs lose at most one bit
    before the power is taken.
    """
    while True:
        mu = rng.normal(0.0, 0.7, d) + 1j * rng.normal(0.0, 0.7, d)
        nu = rng.normal(0.0, 0.7, d) + 1j * rng.normal(0.0, 0.7, d)
        bound = 1.0 + float(np.sum(np.abs(mu) * np.abs(nu)))
        pair = abs(1.0 + complex(np.vdot(nu, mu)))
        if bound <= 2.0 * pair:
            return mu, nu


def _draws(rng, spec, pairs: int):
    """v, then per pair mu, nu (``_admissible_pair``), va, vb: stacked (pairs, d) and (pairs, N)."""
    def gauss():
        return rng.normal(0.0, 1.0, spec.N) + 1j * rng.normal(0.0, 1.0, spec.N)

    v = gauss()
    draws = [(*_admissible_pair(rng, spec.d), gauss(), gauss()) for _ in range(pairs)]
    return (v, *(np.array(col) for col in zip(*draws)))


def _cmd_kernel_check(args) -> int:
    _require(args, ["m"])
    _default(args, d=1, seed=1234, pairs=50, tol=1e-8)
    if args.pairs < 1:
        raise ValueError(f"--pairs must be >= 1, got {args.pairs}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    if not 0.0 < args.tol < float("inf"):
        raise ValueError(f"--tol must be finite and > 0, got {args.tol}")
    spec = hilbert.build_basis(args.d, args.m, level=args.level)
    v, mus, nus, va, vb = _draws(np.random.default_rng(args.seed), spec, args.pairs)
    # |K(mu, nu)|^2 against its closed form, in log form: no overflow.
    log_rhs = spec.m * (diastasis(mus, nus) + np.log(pairing(mus, mus).real)
                        + np.log(pairing(nus, nus).real))
    rel_kernel = np.abs(np.expm1(2.0 * hilbert.log_kernel(spec, mus, nus).real - log_rhs))
    rel_repro = hilbert.reproducing_residual(spec, v, mus, relative=True)
    norm_a, norm_b = (np.sqrt(np.sum(x.real ** 2 + x.imag ** 2, axis=1)) for x in (va, vb))
    rel_ident = hilbert.resolution_check(spec, va.T, vb.T) / (norm_a * norm_b)
    # np.max propagates a NaN, so a NaN fails the gate.
    worst_k, worst_r, worst_i = (float(np.max(col)) for col in (rel_kernel, rel_repro, rel_ident))
    passed = bool(worst_k <= args.tol and worst_r <= args.tol and worst_i <= args.tol)
    _write_csv(args.out,
               ["pair", "kernel_rel_err", "reproducing_rel_err", "resolution_rel_err"],
               zip(range(args.pairs), rel_kernel, rel_repro, rel_ident))
    _write_sidecar(args.out, {
        "command": "kernel-check", "d": spec.d, "m": spec.m, "level": spec.level,
        "seed": args.seed, "pairs": args.pairs, "tol": args.tol,
        "worst_kernel_rel_err": worst_k, "worst_reproducing_rel_err": worst_r,
        "worst_resolution_rel_err": worst_i, "passed": passed})
    return 0 if passed else 1


def _cmd_star_sweep(args) -> int:
    f, g = _sweep_functions(args)
    mu0 = np.zeros(args.d, dtype=complex)
    mu0[0] = MU0

    def build(fn):
        return lambda m: toeplitz.toeplitz_matrix(hilbert.build_basis(args.d, m), fn)

    result = operators.correspondence_sweep(build(f), build(g), args.m_list, mu0)
    e0 = [r[1] for r in result.rows]
    e1 = [r[2] for r in result.rows]
    passed = _decreasing(e0)
    if len(result.rows) >= 3:
        passed = passed and _slope_ok(result.slope_e0)
    passed = bool(passed and (_decreasing(e1) or max(e1) <= 1e-10))
    _write_csv(args.out, ["m", "e0", "e1"], result.rows)
    _write_sidecar(args.out, {
        "command": "star-sweep", "d": args.d, "m_list": args.m_list,
        "f": args.f, "g": args.g, "mu0": [MU0.real, MU0.imag],
        "slope_e0": result.slope_e0, "slope_e1": result.slope_e1,
        "passed": passed})
    return 0 if passed else 1


def _cmd_toeplitz_sweep(args) -> int:
    f, g = _sweep_functions(args)
    result = toeplitz.toeplitz_sweep(f, g, args.m_list, d=args.d)
    ndef = [r[2] for r in result.rows]
    cdef = [r[3] for r in result.rows]
    passed = bool(all(x > 0.0 for x in ndef) and _decreasing(ndef) and _decreasing(cdef))
    if len(args.m_list) >= 3:
        passed = bool(passed and _slope_ok(result.slope_e0)
                      and result.slope_e1 is not None and result.slope_e1 <= -0.7)
    _write_csv(args.out, ["m", "norm", "defect"], [r[:3] for r in result.rows])
    if args.out is not None:
        cpath = str(Path(args.out).with_name(Path(args.out).stem + "_commutator.csv"))
    else:
        cpath = None
    _write_csv(cpath, ["m", "commutator_defect"], [(r[0], r[3]) for r in result.rows])
    _write_sidecar(args.out, {
        "command": "toeplitz-sweep", "d": args.d, "m_list": args.m_list,
        "f": args.f, "g": args.g,
        "norm_defect_slope": result.slope_e0, "commutator_defect_slope": result.slope_e1,
        "passed": passed})
    return 0 if passed else 1


def _cmd_torus_holonomy(args) -> int:
    _require(args, ["m"])
    _default(args, kmax=3, segments=4096)
    if args.kmax < 0:
        raise ValueError(f"--kmax must be >= 0, got {args.kmax}")
    # Both coordinates off the square's center lines, where a cycle integral
    # vanishes by parity; at 1/4 each cycle carries +-pi/sqrt(2).
    base = (0.25, 0.25)
    h10 = pullback.torus_holonomy(1, 0, args.m, segments=args.segments, base=base)
    h01 = pullback.torus_holonomy(0, 1, args.m, segments=args.segments, base=base)
    ks = range(-args.kmax, args.kmax + 1)
    cells = [(k1, k2, pullback.torus_holonomy(k1, k2, args.m, segments=args.segments, base=base))
             for k1 in ks for k2 in ks]
    rows = [(k1, k2, args.m, h.real, h.imag, float(np.angle(h))) for k1, k2, h in cells]
    # np.max propagates a NaN, so a NaN fails the gate.
    worst_mod = float(np.max([abs(abs(h) - 1.0) for _, _, h in cells]))
    worst_mult = float(np.max([abs(h - h10 ** k1 * h01 ** k2) for k1, k2, h in cells]))
    passed = worst_mod <= 1e-9 and worst_mult <= 1e-10
    _write_csv(args.out, ["k1", "k2", "m", "holonomy_re", "holonomy_im", "phase"], rows)
    _write_sidecar(args.out, {
        "command": "torus-holonomy", "m": args.m, "kmax": args.kmax,
        "segments": args.segments, "base": list(base),
        "worst_modulus_defect": worst_mod, "worst_multiplicativity_defect": worst_mult,
        "passed": passed})
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# parser and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="berezin",
                                     description="Berezin quantization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *names):
        p.add_argument("--config", default=None, help="key=value defaults file")
        p.add_argument("--out", default=None, help="CSV output path (JSON sidecar beside it)")
        if "d" in names:
            p.add_argument("--d", type=int, default=None, help="chart dimension (default 1)")
        if "m" in names:
            p.add_argument("--m", type=int, default=None, help="quantization level")
        if "m_list" in names:
            p.add_argument("--m-list", dest="m_list", type=_CONVERTERS["m_list"],
                           default=None, help="comma-separated increasing levels")
        if "level" in names:
            p.add_argument("--level", type=int, default=None, help="quadrature level override")
        if "seed" in names:
            p.add_argument("--seed", type=int, default=None, help="rng seed (default 1234)")
        if "fg" in names:
            p.add_argument("--f", default=None, help="first registry function")
            p.add_argument("--g", default=None, help="second registry function")

    p = sub.add_parser("basis", help="build a level basis")
    common(p, "d", "m", "level")
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("kernel-check", help="sampled kernel and reproducing identities")
    common(p, "d", "m", "level", "seed")
    p.add_argument("--pairs", type=int, default=None, help="sample pairs (default 50)")
    p.add_argument("--tol", type=float, default=None, help="gate tolerance (default 1e-8)")
    p.set_defaults(func=_cmd_kernel_check)

    p = sub.add_parser("star-sweep", help="star-product correspondence sweep")
    common(p, "d", "m_list", "fg")
    p.set_defaults(func=_cmd_star_sweep)

    p = sub.add_parser("toeplitz-sweep", help="norm and commutator sweeps")
    common(p, "d", "m_list", "fg")
    p.set_defaults(func=_cmd_toeplitz_sweep)

    p = sub.add_parser("torus-holonomy", help="torus cycle holonomy table")
    common(p, "m")
    p.add_argument("--kmax", type=int, default=None, help="max |k| per cycle (default 3)")
    p.add_argument("--segments", type=int, default=None, help="path segments (default 4096)")
    p.set_defaults(func=_cmd_torus_holonomy)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        _merge_config(args)
        return args.func(args)
    except _NUMERIC_ERRORS as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 3
    except _CONFIG_ERRORS as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
