"""The benchmark's workloads: the steps each one runs and the checks on them.

A step is one operation.  A CLI step goes through ``berezin.cli.main(argv)``,
the path users take, and writes ``<name>.csv`` plus its sidecar into the
repetition's artifact directory.  A library step covers a layer the CLI
cannot reach; its returned dict is written as ``<name>.json`` there, so that
it takes part in the byte-identity check like any other artifact.

An operation fails when it exits 2 or 3, raises, or when its check below
finds an output outside the stated tolerance.  Exit 1 is a FAIL verdict of a
numerical gate: it is recorded, but it is not a failure.

Checks use stated tolerances, not byte identity with a recorded run, so that
a change in rounding (for instance from resized quadrature rules) does not
count as a failure.  Byte identity is checked only between repetitions of
one run, which share their seed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

NAMES = ("sweeps", "star-d2", "checks-d2")

# ||T_abs2|| = (m + d)/(m + d + 1) in closed form; the seed matches it to
# about 1e-12 at m = 128.
NORM_TOL = 1e-9
# star-d2 e0 is an O(1/m) error of size 1e-2 and must match the recorded
# value to this relative tolerance.  e1 is at rounding level (1e-11) in the
# recorded run, so only its distance from the record is bounded.
E0_RTOL = 1e-8
E1_ATOL = 1e-9
# The torus-holonomy CLI gates: |h| = 1 and h(k1, k2) = h10^k1 h01^k2.
TORUS_MODULUS_TOL = 1e-9
TORUS_MULT_TOL = 1e-10
# Chart parameters of the equivalence probes (as in acceptance criterion 7).
ROTATION_THETA = 0.8
SCALING_A = 2.0

# Full and tiny sizes.  The tiny ones keep every step and check and finish
# in about a second; the benchmark's own tests run them.
SIZES = {
    False: {"d1_m": "8,16,32,64,128", "d2_m": "4,8", "star_m": "4,8,12",
            "check_m": 12, "pairs": 100, "kmax": 3},
    True: {"d1_m": "4,8,16", "d2_m": "1,2", "star_m": "2,4",
           "check_m": 4, "pairs": 10, "kmax": 1},
}


@dataclass(frozen=True)
class Step:
    """One operation: CLI arguments (``--out`` is appended) or a library call."""

    name: str
    check: Callable[[Path, "Step"], list]
    argv: tuple = ()
    call: Callable[[], dict] | None = None
    expect: object = None


def steps(workload: str, seed: int, tiny: bool) -> list[Step]:
    """The steps of one repetition of ``workload`` at the given seed."""
    size = SIZES[tiny]
    if workload == "sweeps":
        return [
            Step("sweep_d1", _check_norms, argv=(
                "toeplitz-sweep", "--f", "abs2_rational", "--g", "im_rational",
                "--m-list", size["d1_m"])),
            Step("sweep_d2", _check_norms, argv=(
                "toeplitz-sweep", "--d", "2", "--f", "abs2_rational", "--g", "im_rational",
                "--m-list", size["d2_m"])),
        ]
    if workload == "star-d2":
        return [Step("star_d2", _check_star, argv=(
            "star-sweep", "--d", "2", "--m-list", size["star_m"],
            "--f", "re_rational", "--g", "im_rational"))]
    if workload == "checks-d2":
        m = size["check_m"]
        shared: dict = {}
        return [
            Step("kernel_d2", _check_kernel, argv=(
                "kernel-check", "--d", "2", "--m", str(m), "--pairs", str(size["pairs"]),
                "--seed", str(seed))),
            Step("torus", _check_torus, argv=(
                "torus-holonomy", "--m", "2", "--kmax", str(size["kmax"]))),
            Step("equiv_rotation", _check_equivalence, expect=True,
                 call=lambda: _equivalence(shared, m, seed, "rotation")),
            Step("equiv_scaling", _check_equivalence, expect=False,
                 call=lambda: _equivalence(shared, m, seed, "scaling")),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")


# ---------------------------------------------------------------------------
# library calls (run in the child process, where berezin is imported)

def _equivalence(shared: dict, m: int, seed: int, kind: str) -> dict:
    """Identity chart against a rotated or rescaled one at d = 2.

    Both probes of a repetition share one basis spec through ``shared``, so
    the node table is built once and read by the second call, as a user
    comparing presentations would do.
    """
    import numpy as np
    from berezin import hilbert, pullback

    if "spec" not in shared:
        shared["spec"] = hilbert.build_basis(2, m)
    other = (pullback.rotation_chart(ROTATION_THETA, d=2) if kind == "rotation"
             else pullback.scaling_chart(SCALING_A, d=2))
    rep = pullback.equivalence_check(shared["spec"], pullback.identity_chart(2), other,
                                     rng=np.random.default_rng(seed))
    return {"chart": other.name, "m": m, "seed": seed, "equivalent": rep.equivalent,
            "inner_product_deviation": rep.inner_product_deviation,
            "kernel_deviation": rep.kernel_deviation, "tol": rep.tol,
            "pairs_used": rep.pairs_used}


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems (empty when the output holds)


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _sidecar(outdir: Path, step: Step) -> dict:
    return json.loads((outdir / f"{step.name}.json").read_text())


def _missing_levels(rows: list[dict], step: Step) -> list:
    """A problem when the table's m column is not the requested m-list."""
    asked = step.argv[step.argv.index("--m-list") + 1].split(",")
    got = [row["m"] for row in rows]
    return [] if got == asked else [f"{step.name}: rows for m={got}, asked for m={asked}"]


def _check_norms(outdir: Path, step: Step) -> list:
    d = _sidecar(outdir, step)["d"]
    rows = _rows(outdir / f"{step.name}.csv")
    problems = _missing_levels(rows, step)
    for row in rows:
        m, norm = int(row["m"]), float(row["norm"])
        exact = (m + d) / (m + d + 1)
        if not abs(norm - exact) <= NORM_TOL:
            problems.append(f"{step.name}: ||T_abs2|| = {norm!r} at m={m}, "
                            f"closed form {exact!r}, tol {NORM_TOL}")
    commutators = _rows(outdir / f"{step.name}_commutator.csv")
    problems += _missing_levels(commutators, step)
    for row in commutators:
        if not math.isfinite(float(row["commutator_defect"])):
            problems.append(f"{step.name}: non-finite commutator defect at m={row['m']}")
    return problems


def _check_star(outdir: Path, step: Step) -> list:
    reference = json.loads(Path(__file__).with_name("reference.json").read_text())["star_d2"]
    rows = _rows(outdir / f"{step.name}.csv")
    problems = _missing_levels(rows, step)
    for row in rows:
        m, e0, e1 = row["m"], float(row["e0"]), float(row["e1"])
        ref_e0, ref_e1 = reference[m]
        if not abs(e0 - ref_e0) <= E0_RTOL * abs(ref_e0):
            problems.append(f"{step.name}: e0 = {e0!r} at m={m}, recorded {ref_e0!r}")
        if not abs(e1 - ref_e1) <= E1_ATOL:
            problems.append(f"{step.name}: e1 = {e1!r} at m={m}, recorded {ref_e1!r}")
    return problems


def _check_kernel(outdir: Path, step: Step) -> list:
    side = _sidecar(outdir, step)
    return [f"{step.name}: {key} = {side[key]!r} exceeds tol {side['tol']!r}"
            for key in ("worst_kernel_rel_err", "worst_reproducing_rel_err",
                        "worst_resolution_rel_err")
            if not side[key] <= side["tol"]]


def _check_torus(outdir: Path, step: Step) -> list:
    side = _sidecar(outdir, step)
    problems = []
    if not side["worst_modulus_defect"] <= TORUS_MODULUS_TOL:
        problems.append(f"{step.name}: modulus defect {side['worst_modulus_defect']!r}")
    if not side["worst_multiplicativity_defect"] <= TORUS_MULT_TOL:
        problems.append(f"{step.name}: multiplicativity defect "
                        f"{side['worst_multiplicativity_defect']!r}")
    return problems


def _check_equivalence(outdir: Path, step: Step) -> list:
    report = _sidecar(outdir, step)
    if report["equivalent"] is not step.expect:
        return [f"{step.name}: {report['chart']} equivalent={report['equivalent']}, "
                f"expected {step.expect}"]
    return []
