"""CLI surface: exit codes, artifact formats, config merging, determinism."""

import json
import time

import numpy as np
import pytest

from berezin import cli, hilbert, quadrature, toeplitz


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
    # d=3 m=12 needs 1.12M nodes x N=455, an 8 GB table: refused before
    # any rule or table is assembled
    def never(*args):
        raise AssertionError("rule assembled for an over-budget request")

    monkeypatch.setattr(quadrature, "_assemble", never)
    start = time.perf_counter()
    rc, _, err = run(capsys, "kernel-check", "--d", "3", "--m", "12")
    assert time.perf_counter() - start < 1.0
    assert rc == 3
    assert "numeric failure" in err


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


def test_torus_holonomy_rejects_odd_level(capsys):
    rc, _, err = run(capsys, "torus-holonomy", "--m", "3", "--kmax", "1")
    assert rc == 2
    assert "even level" in err


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
