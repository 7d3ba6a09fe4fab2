"""CLI surface: exit codes, artifact formats, config merging, determinism."""

import json
import sys
import time
import warnings

import numpy as np
import pytest

from berezin import cli, geometry, hilbert, pullback, quadrature, toeplitz


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_basis_reports_dimensions(capsys, tmp_path):
    rc, out, _ = run(capsys, "basis", "--d", "1", "--m", "2")
    assert rc == 0
    assert "N=3" in out

    out_path = tmp_path / "b.json"
    rc, out, _ = run(capsys, "basis", "--d", "2", "--m", "16", "--out", str(out_path))
    assert rc == 0
    assert "N=153" in out
    spec = hilbert.load_spec(out_path)
    assert spec.N == 153


def test_basis_rejects_degenerate_level(capsys):
    rc, _, err = run(capsys, "basis", "--m", "0")
    assert rc == 2
    assert "configuration error" in err


def test_kernel_check_passes_and_writes_artifacts(capsys, tmp_path):
    out = tmp_path / "kc.csv"
    rc, _, _ = run(capsys, "kernel-check", "--d", "1", "--m", "6",
                   "--pairs", "10", "--out", str(out))
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "pair,kernel_rel_err,reproducing_rel_err,resolution_rel_err"
    assert len(lines) == 11
    meta = json.loads(out.with_suffix(".json").read_text())
    assert meta["passed"] is True
    assert meta["worst_kernel_rel_err"] <= 1e-8
    assert meta["seed"] == 1234


def test_kernel_check_fails_on_coarse_rule(capsys, tmp_path):
    out = tmp_path / "kc.csv"
    rc, _, _ = run(capsys, "kernel-check", "--d", "1", "--m", "16",
                   "--level", "1", "--pairs", "5", "--out", str(out))
    assert rc == 1
    meta = json.loads(out.with_suffix(".json").read_text())
    assert meta["passed"] is False


def test_kernel_check_streams_to_stdout(capsys):
    rc, out, _ = run(capsys, "kernel-check", "--d", "1", "--m", "4", "--pairs", "3")
    assert rc == 0
    assert out.startswith("pair,kernel_rel_err")


def test_kernel_check_survives_kernel_overflow(capsys, tmp_path, monkeypatch):
    # |K(mu, mu)|^2 = 5^512 ~ 1e358 at mu = 2, m = 256 is past the largest
    # double; the check compares the kernel with its closed form in log form.
    monkeypatch.setattr(cli, "_admissible_pair",
                        lambda rng, d: (np.array([2.0 + 0j]), np.array([2.0 + 0j])))
    out = tmp_path / "kc.csv"
    rc, _, err = run(capsys, "kernel-check", "--m", "256", "--pairs", "2", "--out", str(out))
    assert rc == 0, err
    meta = json.loads(out.with_suffix(".json").read_text())
    assert meta["passed"] is True
    for key in ("worst_kernel_rel_err", "worst_reproducing_rel_err",
                "worst_resolution_rel_err"):
        assert meta[key] <= meta["tol"]


def test_kernel_check_matches_per_pair_reference(capsys, tmp_path):
    # The reference checks one pair at a time, drawing mu, nu, va, vb per
    # pair, through the library's single-pair calls.  The command draws every
    # pair first and forms each column in one array pass, so equal kernel and
    # resolution columns prove the draw order unchanged and the array forms
    # bitwise the single-pair ones; the reproducing column, formed in the
    # normalized frame, moves at rounding level only.
    d, m, pairs, seed = 2, 6, 20, 31
    out = tmp_path / "kc.csv"
    rc, _, _ = run(capsys, "kernel-check", "--d", str(d), "--m", str(m), "--pairs",
                   str(pairs), "--seed", str(seed), "--out", str(out))
    assert rc == 0
    spec = hilbert.build_basis(d, m)
    rng = np.random.default_rng(seed)
    v = rng.normal(0.0, 1.0, spec.N) + 1j * rng.normal(0.0, 1.0, spec.N)
    want = []
    for k in range(pairs):
        mu, nu = cli._admissible_pair(rng, spec.d)
        log_rhs = spec.m * (geometry.diastasis(mu, nu)
                            + np.log(geometry.pairing(mu, mu).real)
                            + np.log(geometry.pairing(nu, nu).real))
        rel_kernel = abs(np.expm1(2.0 * hilbert.log_kernel(spec, mu, nu).real - log_rhs))
        value = abs(hilbert.section_eval(spec, v, mu.reshape(1, -1))[0])
        rel_repro = hilbert.reproducing_residual(spec, v, mu) / (1.0 + value)
        va = rng.normal(0.0, 1.0, spec.N) + 1j * rng.normal(0.0, 1.0, spec.N)
        vb = rng.normal(0.0, 1.0, spec.N) + 1j * rng.normal(0.0, 1.0, spec.N)
        norm_a, norm_b = (np.sqrt(np.sum(x.real ** 2 + x.imag ** 2)) for x in (va, vb))
        rel_ident = hilbert.resolution_check(spec, va, vb) / (norm_a * norm_b)
        want.append((k, rel_kernel, rel_repro, rel_ident))
    got = np.loadtxt(out, delimiter=",", skiprows=1)
    want = np.array(want)
    np.testing.assert_array_equal(got[:, [0, 1, 3]], want[:, [0, 1, 3]])
    assert np.max(np.abs(got[:, 2] - want[:, 2])) <= 1e-14


def test_kernel_check_d1_m512_memory(tmp_path, child_process):
    # The README runs kernel-check to m = 512 at d = 1 (131,841 nodes).  The
    # residuals are batched over the pairs without an (n, pairs) pairing
    # table, which would be 105 MB here; the run peaked at 69 MiB.
    argv = ["kernel-check", "--d", "1", "--m", "512", "--pairs", "50"]
    returncode, _, err, peak = child_process(
        ["-m", "berezin.cli", *argv, "--out", str(tmp_path / "kc.csv")], tmp_path)
    assert returncode == 0, err
    assert json.loads((tmp_path / "kc.json").read_text())["passed"] is True
    assert peak < 96 * 1024  # KiB on Linux


def test_kernel_check_d1_m1024_is_finite(capsys, tmp_path):
    # (1 + |mu|^2)^(m/2) and v(mu) overflow at m = 1024, and their quotient
    # read NaN (exit 1); the relative reproducing error is formed in the
    # normalized frame instead.
    out = tmp_path / "kc.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, _, err = run(capsys, "kernel-check", "--m", "1024", "--pairs", "50",
                         "--out", str(out))
    assert rc == 0, err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    meta = json.loads(out.with_suffix(".json").read_text())
    assert meta["passed"] is True
    for key in ("worst_kernel_rel_err", "worst_reproducing_rel_err",
                "worst_resolution_rel_err"):
        assert np.isfinite(meta[key]) and meta[key] <= meta["tol"], key
    assert np.all(np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1)))


def test_basis_overflow_names_the_level(capsys):
    # From m = 1030 at d = 1 the largest multinomial m!/(I!(m-|I|)!) has no
    # double; the refusal names the level and the cause, exit 3.
    rc, _, err = run(capsys, "kernel-check", "--m", "1030", "--pairs", "1")
    assert rc == 3, err
    assert "m=1030" in err and "multinomial" in err


def test_kernel_check_d3_m16_memory(tmp_path, child_process):
    # 4.9M nodes.  The residuals run over one block of radial nodes at a
    # time, so no array spans the grid; with the node-length lifts, weights
    # and node values held whole the run peaked at 774 MiB.
    argv = ["kernel-check", "--d", "3", "--m", "16", "--pairs", "10"]
    returncode, _, err, peak = child_process(
        ["-m", "berezin.cli", *argv, "--out", str(tmp_path / "kc.csv")], tmp_path)
    assert returncode == 0, err
    assert json.loads((tmp_path / "kc.json").read_text())["passed"] is True
    assert peak < 256 * 1024  # KiB on Linux


def test_star_sweep_artifacts(capsys, tmp_path):
    out = tmp_path / "star.csv"
    rc, _, _ = run(capsys, "star-sweep", "--m-list", "4,8",
                   "--f", "re_rational", "--g", "im_rational", "--out", str(out))
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "m,e0,e1"
    assert len(lines) == 3
    token = lines[1].split(",")[1]
    assert token == "%.17g" % float(token)  # full-precision round trip
    meta = json.loads(out.with_suffix(".json").read_text())
    assert meta["passed"] is True
    assert meta["m_list"] == [4, 8]
    assert meta["slope_e0"] < 0.0


def test_star_sweep_equal_pair_passes_by_floor(capsys, tmp_path):
    out = tmp_path / "star.csv"
    rc, _, _ = run(capsys, "star-sweep", "--m-list", "4,8",
                   "--f", "re_rational", "--g", "re_rational", "--out", str(out))
    assert rc == 0


def test_sweeps_fit_slopes_without_least_squares(monkeypatch, tmp_path):
    # The sidecar slopes are the closed-form fit: neither sweep reaches
    # numpy's polynomial fit or its least-squares solver.
    def refuse(*args, **kwargs):
        raise AssertionError("least-squares solver called")

    monkeypatch.setattr(np, "polyfit", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    out = tmp_path / "a.csv"
    for argv, keys in (
            (["star-sweep", "--f", "re_rational", "--g", "im_rational"], ["slope_e0"]),
            (["toeplitz-sweep", "--f", "abs2_rational", "--g", "im_rational"],
             ["norm_defect_slope", "commutator_defect_slope"])):
        assert cli.main(argv + ["--m-list", "4,8,16,32,64", "--out", str(out)]) == 0, argv
        meta = json.loads(out.with_suffix(".json").read_text())
        assert all(isinstance(meta[key], float) for key in keys), meta


def test_star_sweep_single_level_has_null_slope(capsys, tmp_path):
    out = tmp_path / "star.csv"
    rc, _, _ = run(capsys, "star-sweep", "--m-list", "8",
                   "--f", "re_rational", "--g", "im_rational", "--out", str(out))
    assert rc == 0
    meta = json.loads(out.with_suffix(".json").read_text())
    assert meta["slope_e0"] is None
    assert meta["slope_e1"] is None


def test_star_sweep_configuration_errors(capsys, tmp_path):
    rc, _, err = run(capsys, "star-sweep", "--m-list", "4,8",
                     "--f", "re_rational", "--g", "nope")
    assert rc == 2
    assert "unknown function" in err
    rc, _, err = run(capsys, "star-sweep", "--m-list", "8,4",
                     "--f", "re_rational", "--g", "im_rational")
    assert rc == 2
    assert "strictly increasing" in err


def test_toeplitz_sweep_artifacts(capsys, tmp_path):
    out = tmp_path / "tp.csv"
    rc, _, _ = run(capsys, "toeplitz-sweep", "--f", "abs2_rational",
                   "--g", "im_rational", "--m-list", "4,8", "--out", str(out))
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "m,norm,defect"
    comm = (tmp_path / "tp_commutator.csv").read_text().splitlines()
    assert comm[0] == "m,commutator_defect"
    assert len(comm) == 3
    meta = json.loads(out.with_suffix(".json").read_text())
    assert meta["passed"] is True
    assert meta["norm_defect_slope"] is not None

    rc, _, err = run(capsys, "toeplitz-sweep", "--f", "zzz", "--g", "im_rational",
                     "--m-list", "4,8")
    assert rc == 2
    assert "unknown function" in err


def test_toeplitz_sweep_reaches_m256(capsys, tmp_path):
    # Raw basis powers overflowed at d = 1 from m = 167 and the SVD failed.
    out = tmp_path / "tp.csv"
    rc, _, err = run(capsys, "toeplitz-sweep", "--f", "abs2_rational", "--g", "im_rational",
                     "--m-list", "64,128,256", "--out", str(out))
    assert rc == 0, err
    for path in (out, tmp_path / "tp_commutator.csv"):
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert rows.shape[0] == 3 and np.all(np.isfinite(rows))


def test_star_sweep_d2_m24_memory(capsys, tmp_path, child_process):
    # Node data hold radial and angular factors, never an (n, N) table: the
    # d=2 m=24 table alone would be 984 MB, and this run peaked at 3.6 GB
    # when star products read it.  The child's own rusage gives its peak.
    argv = ["star-sweep", "--d", "2", "--m-list", "8,16,24", "--f", "re_rational",
            "--g", "im_rational"]
    returncode, _, err, peak = child_process(
        ["-m", "berezin.cli", *argv, "--out", str(tmp_path / "child.csv")], tmp_path)
    assert returncode == 1, err  # the d=2 slope gate
    assert peak < 512 * 1024  # KiB on Linux
    rc, _, _ = run(capsys, *argv, "--out", str(tmp_path / "here.csv"))
    assert rc == 1
    assert (tmp_path / "child.csv").read_bytes() == (tmp_path / "here.csv").read_bytes()


def test_toeplitz_sweep_d2_m48_memory(tmp_path, child_process):
    # Registry operators are held as bands and normed block by block; no
    # (N, N) operator is built.  With dense operators this run peaked at
    # 130 MiB; the bound was fixed before the first run.
    argv = ["toeplitz-sweep", "--d", "2", "--f", "abs2_rational", "--g", "im_rational",
            "--m-list", "16,32,48"]
    returncode, _, err, peak = child_process(
        ["-m", "berezin.cli", *argv, "--out", str(tmp_path / "tp.csv")], tmp_path)
    assert returncode == 0, err
    assert peak < 96 * 1024  # KiB on Linux


def test_star_sweep_d2_m48_memory(tmp_path, child_process):
    # Star sweeps of registry functions read only the radial table and
    # weights of a basis; no array over the m = 48 grid (1.4M nodes) is
    # built.  Building them peaked at 1,147 MiB; the bound was fixed before
    # the first run.
    argv = ["star-sweep", "--d", "2", "--f", "re_rational", "--g", "im_rational",
            "--m-list", "16,32,48"]
    returncode, _, err, peak = child_process(
        ["-m", "berezin.cli", *argv, "--out", str(tmp_path / "star.csv")], tmp_path)
    assert returncode == 0, err
    assert peak < 384 * 1024  # KiB on Linux


def test_sweeps_do_not_import_numpy_polynomial(tmp_path, child_process):
    # The Gauss-Legendre rule comes from asymptotic nodes and the Legendre
    # recurrence; importing numpy.polynomial cost 5-8 ms per process.
    script = (
        "import sys\n"
        "from berezin import cli\n"
        "for argv in (['star-sweep', '--d', '2', '--m-list', '4,8'],\n"
        "             ['toeplitz-sweep', '--m-list', '4,8,16']):\n"
        "    cli.main([*argv, '--f', 're_rational', '--g', 'im_rational',\n"
        f"              '--out', {str(tmp_path / 'out.csv')!r}])\n"
        "sys.exit(int('numpy.polynomial' in sys.modules))\n")
    returncode, _, err, _ = child_process(["-c", script], tmp_path)
    assert returncode == 0, err
    assert (tmp_path / "out_commutator.csv").exists()


def test_linear_algebra_failure_is_a_numeric_failure(capsys, monkeypatch):
    # LinAlgError subclasses ValueError; it must not report as a config error
    def fail(op):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(toeplitz, "operator_norm", fail)
    rc, _, err = run(capsys, "toeplitz-sweep", "--f", "abs2_rational",
                     "--g", "im_rational", "--m-list", "2")
    assert rc == 3
    assert "numeric failure: SVD did not converge" in err


def test_over_budget_table_is_a_numeric_failure(capsys, monkeypatch):
    # d=8 m=8 needs 8^8 = 16.8M radial points, over quadrature.RADIAL_CAP:
    # refused before any rule is assembled
    def never(*args):
        raise AssertionError("rule assembled for an over-budget request")

    monkeypatch.setattr(quadrature, "_assemble", never)
    start = time.perf_counter()
    rc, _, err = run(capsys, "kernel-check", "--d", "8", "--m", "8")
    assert time.perf_counter() - start < 1.0
    assert rc == 3
    assert "numeric failure" in err and "radial points" in err


def test_over_budget_sup_grid_is_a_numeric_failure(capsys):
    # The sup grid of a d=20 sweep has 17^20 radial points, over
    # quadrature.RADIAL_CAP: refused before any sampling, not reported as a
    # configuration error by an overflowing grid count.
    start = time.perf_counter()
    rc, _, err = run(capsys, "toeplitz-sweep", "--d", "20", "--m-list", "1",
                     "--f", "abs2_rational", "--g", "im_rational")
    assert time.perf_counter() - start < 1.0
    assert rc == 3
    assert "numeric failure" in err and "radial points" in err, err


def test_torus_holonomy_artifacts(capsys, tmp_path):
    out = tmp_path / "th.csv"
    rc, _, _ = run(capsys, "torus-holonomy", "--m", "2", "--kmax", "1",
                   "--out", str(out))
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k1,k2,m,holonomy_re,holonomy_im,phase"
    assert len(lines) == 10  # 3 x 3 class grid
    meta = json.loads(out.with_suffix(".json").read_text())
    assert meta["passed"] is True
    assert meta["worst_modulus_defect"] <= 1e-9
    assert meta["worst_multiplicativity_defect"] <= 1e-10
    assert meta["base"] == [0.25, 0.25]


def test_torus_holonomy_integrates_each_cycle_once(capsys, tmp_path):
    # 51 holonomies share the same two cycle integrals i_u and i_v.
    pullback._torus_cycle_integral.cache_clear()
    out = tmp_path / "th.csv"
    rc, _, _ = run(capsys, "torus-holonomy", "--m", "2", "--kmax", "3", "--out", str(out))
    assert rc == 0
    info = pullback._torus_cycle_integral.cache_info()
    assert (info.misses, info.hits) == (2, 100)
    i_u = pullback._torus_cycle_integral(0, 0.25, 4096)
    i_v = pullback._torus_cycle_integral(1, 0.25, 4096)
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (49, 6)
    for k1, k2, m, re, im, phase in rows:
        h = complex(np.exp(-1j * (m * (k1 * i_u + k2 * i_v))))
        assert (re, im, phase) == (h.real, h.imag, np.angle(h)), (k1, k2)


def test_torus_holonomy_rejects_odd_level(capsys):
    rc, _, err = run(capsys, "torus-holonomy", "--m", "3", "--kmax", "1")
    assert rc == 2
    assert "even level" in err


SWEEP_FG = ("--f", "re_rational", "--g", "im_rational")

# Arguments below their minimum, with the part of the message that names them.
BAD_ARGUMENTS = [
    (("toeplitz-sweep", "--d", "-1", "--m-list", "4,8") + SWEEP_FG, "--d must be >= 1"),
    (("toeplitz-sweep", "--d", "0", "--m-list", "4,8") + SWEEP_FG, "--d must be >= 1"),
    (("star-sweep", "--d", "0", "--m-list", "4,8") + SWEEP_FG, "--d must be >= 1"),
    (("star-sweep", "--m-list", ",") + SWEEP_FG, "m-list must be non-empty"),
    (("toeplitz-sweep", "--m-list", ",") + SWEEP_FG, "m-list must be non-empty"),
    (("kernel-check", "--m", "4", "--pairs", "-1"), "--pairs must be >= 1"),
    (("torus-holonomy", "--m", "2", "--kmax", "-1"), "--kmax must be >= 0"),
    (("torus-holonomy", "--m", "2", "--segments", "0"), "segments must be >= 1"),
    (("torus-holonomy", "--m", "2", "--segments", "-5"), "segments must be >= 1"),
    (("basis", "--m", "4", "--level", "0"), "level=0"),
    (("kernel-check", "--m", "4", "--pairs", "0"), "--pairs must be >= 1"),
    (("kernel-check", "--m", "4", "--tol", "0"), "--tol must be finite and > 0"),
    (("kernel-check", "--m", "4", "--tol", "-1"), "--tol must be finite and > 0"),
    (("kernel-check", "--m", "4", "--tol", "nan"), "--tol must be finite and > 0"),
    (("kernel-check", "--m", "4", "--seed", "-1"), "--seed must be >= 0"),
]


@pytest.mark.parametrize("argv, message", BAD_ARGUMENTS)
def test_arguments_below_their_minimum_are_configuration_errors(capsys, tmp_path, argv, message):
    # Checked before anything is computed or written.
    out = tmp_path / "out.csv"
    rc, _, err = run(capsys, *argv, "--out", str(out))
    assert rc == 2
    assert "configuration error" in err and message in err
    assert not out.exists() and not out.with_suffix(".json").exists()


def test_nan_fails_the_torus_and_kernel_gates(capsys, tmp_path, monkeypatch):
    # The worst value of a gate propagates NaN, so a NaN fails (exit 1)
    # instead of passing as max(0.0, nan) = 0.0.
    monkeypatch.setattr(pullback, "torus_holonomy", lambda *args, **kwargs: complex("nan"))
    monkeypatch.setattr(hilbert, "reproducing_residual",
                        lambda spec, v, mus, **kwargs: np.full(len(mus), np.nan))
    for argv in (("torus-holonomy", "--m", "2", "--kmax", "1"),
                 ("kernel-check", "--m", "4", "--pairs", "3")):
        out = tmp_path / f"{argv[0]}.csv"
        rc, _, _ = run(capsys, *argv, "--out", str(out))
        assert rc == 1, argv
        assert json.loads(out.with_suffix(".json").read_text())["passed"] is False


def test_config_file_merging(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m=4\nd=1\n")
    rc, out, _ = run(capsys, "basis", "--config", str(cfg))
    assert rc == 0
    assert "m=4" in out
    # explicit flags win over the file
    rc, out, _ = run(capsys, "basis", "--config", str(cfg), "--m", "6")
    assert rc == 0
    assert "m=6" in out


def test_config_file_rejections(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("zzz=1\n")
    rc, _, err = run(capsys, "basis", "--config", str(bad))
    assert rc == 2
    assert "zzz" in err

    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("m\n")
    rc, _, err = run(capsys, "basis", "--config", str(malformed))
    assert rc == 2


def test_repeat_runs_are_byte_identical(capsys, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"kc_{tag}.csv"
        rc, _, _ = run(capsys, "kernel-check", "--d", "1", "--m", "6",
                       "--pairs", "8", "--seed", "77", "--out", str(out))
        assert rc == 0
        outs.append((out.read_bytes(), out.with_suffix(".json").read_bytes()))
    assert outs[0] == outs[1]


def test_cli_imports_only_numpy_and_the_standard_library(tmp_path, child_process):
    # numpy is the only runtime dependency; a fresh interpreter shows every
    # top-level module the CLI pulls in.
    probe = ("import sys; before = set(sys.modules); import berezin.cli; "
             "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))")
    returncode, out, err, _ = child_process(["-c", probe], tmp_path)
    assert returncode == 0, err
    out = out.split()
    assert "berezin" in out
    assert set(out) - set(sys.stdlib_module_names) <= {"berezin", "numpy"}
