"""CLI behaviour: report content, reproducibility, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entrywise.cli import main

A2_JSON = (
    '{"n": 3, "entries": ['
    '[{"re": 5}, {"re": -5}, {"re": 1}],'
    '[{"re": -5}, {"re": 5}, {"re": -1}],'
    '[{"re": 1}, {"re": -1}, {"re": 2}]]}'
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_threshold_example(capsys):
    code, rep = run_json(
        capsys, "threshold", "--c", "1,1", "--M", "2", "--N", "2", "--rho", "1",
        "--backend", "exact",
    )
    assert code == 0
    assert rep["results"]["threshold_constant"] == "5"
    assert rep["results"]["partial_chain"] == ["1", "5"]


def test_threshold_float_backend(capsys):
    code, rep = run_json(
        capsys, "threshold", "--c", "1", "--M", "4", "--N", "1", "--rho", "2"
    )
    assert code == 0
    assert rep["results"]["threshold_constant"] == 16.0


def test_threshold_m_less_than_n(capsys):
    code, rep = run_json(
        capsys, "threshold", "--c", "1,1", "--M", "1", "--N", "2", "--rho", "1"
    )
    assert code == 0
    assert rep["results"]["threshold_constant"] == 1.0


def test_threshold_verdicts(capsys):
    code, rep = run_json(
        capsys, "threshold", "--c", "1,1", "--M", "2", "--N", "2", "--rho", "1",
        "--cprime", "-0.21",
    )
    assert code == 0
    assert rep["results"]["verdict"] == "inadmissible"
    # leading-dash fraction must ride in the same token as the flag
    code, rep = run_json(
        capsys, "threshold", "--c", "1,1", "--M", "2", "--N", "2", "--rho", "1",
        "--cprime=-1/5",
    )
    assert rep["results"]["verdict"] == "boundary"


@pytest.mark.parametrize(
    "backend, cprime, verdict",
    [
        ("exact", "-1/5", "boundary"),
        ("exact", "-1000000000000001/5000000000000000", "inadmissible"),
        ("exact", "-999999999999999/5000000000000000", "admissible"),
        ("float", "-1000000000000001/5000000000000000", "boundary"),
        ("float", "-999999999999999/5000000000000000", "boundary"),
    ],
)
def test_threshold_verdict_exact_under_exact_backend(capsys, backend, cprime, verdict):
    # the bound is -1/5; only the float backend keeps a 1e-12 boundary band
    code, rep = run_json(
        capsys, "threshold", "--c", "1,1", "--M", "2", "--N", "2", "--rho", "1",
        "--backend", backend, f"--cprime={cprime}",
    )
    assert code == 0
    assert rep["results"]["verdict"] == verdict


def test_threshold_empirical_close_to_constant(capsys):
    code, rep = run_json(
        capsys, "threshold", "--c", "1,1", "--M", "2", "--N", "2", "--rho", "1",
        "--empirical",
    )
    assert code == 0
    assert abs(rep["results"]["empirical_sharpness"] - 5.0) <= 1e-2


def test_threshold_empirical_stays_below_the_constant_at_n_28(capsys):
    # the Jacobi-Trudi hooks printed 1.456e+21 above the constant 1.104e+21 here
    code, rep = run_json(
        capsys, "threshold", "--c", ",".join(["1"] * 28), "--M", "30", "--N", "28",
        "--rho", "1", "--empirical",
    )
    assert code == 0
    assert rep["results"]["empirical_sharpness"] <= rep["results"]["threshold_constant"]


def test_bad_coefficients_exit_3(capsys):
    code, out, err = run(
        capsys, "threshold", "--c", "1,-1", "--M", "2", "--N", "2", "--rho", "1"
    )
    assert code == 3
    assert "error" in err


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "not-a-thing"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_stdout_reproducible(capsys):
    args = ["rayleigh", "--rank-one", "0.9,0.5,0.2", "--c", "1,1,1", "--M", "3"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "runtime" not in out1  # wall clock stays on stderr


def test_rayleigh_rank_one_three_values(capsys):
    code, rep = run_json(
        capsys, "rayleigh", "--rank-one", "0.9,0.5,0.2", "--c", "1,1,1", "--M", "3"
    )
    assert code == 0
    r = rep["results"]
    vals = [r["spectral_radius"], r["variational"], r["rank_one_closed_form"]]
    assert max(vals) - min(vals) <= 1e-8 * max(1.0, max(vals))
    assert r["max_relative_gap"] <= 1e-8


def test_rayleigh_zero_matrix_exit_3(capsys):
    code, out, err = run(
        capsys, "rayleigh", "--rank-one", "0,0", "--c", "1,1", "--M", "2"
    )
    assert code == 3


def test_rayleigh_linalg_error_exit_3(capsys, monkeypatch):
    # LinAlgError subclasses ValueError: when the variational route's fallback
    # solve on the range of Hp fails as well, the command exits 3 with its message
    from entrywise import psd

    assert issubclass(np.linalg.LinAlgError, ValueError)

    def failing_pair_eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("generalized eigenproblem failed")

    monkeypatch.setattr(psd, "_pair_eigh", failing_pair_eigh)
    code, out, err = run(capsys, "rayleigh", "--rank-one", "0.9,0.7", "--c", "1,1", "--M", "2")
    assert code == 3
    assert out == ""
    assert "error: generalized eigenproblem failed" in err.splitlines()


def test_rayleigh_probe_shows_jump(capsys, tmp_path):
    f = tmp_path / "corner.json"
    f.write_text(
        '{"n": 2, "entries": [[{"re": 1}, {"re": 1}], [{"re": 1}, {"re": 1}]], "rho": 1}'
    )
    code, rep = run_json(
        capsys, "rayleigh", "--matrix", str(f), "--c", "1,1", "--M", "2",
        "--probe-discontinuity",
    )
    assert code == 0
    r = rep["results"]
    assert r["probe_relative_jump"] > 0.1
    assert abs(r["probe_on_point"] - 0.5) < 1e-9
    rows = rep["witnesses"]["probe_rows"]
    assert len(rows) == 6


def test_rayleigh_scalar(capsys):
    code, rep = run_json(
        capsys, "rayleigh", "--rank-one", "0.7", "--c", "2", "--M", "3"
    )
    assert code == 0
    want = 0.7**6 / 2.0  # A = |u|^2 = 0.49; value 0.49^3 / h_c(0.49)... h_c = 2
    assert abs(rep["results"]["spectral_radius"] - 0.49**3 / 2.0) < 1e-12
    assert want == pytest.approx(0.49**3 / 2.0)


def test_stratify_example(capsys, tmp_path):
    f = tmp_path / "a2.json"
    f.write_text(A2_JSON)
    code, rep = run_json(capsys, "stratify", "--matrix", str(f), "--group", "s1")
    assert code == 0
    r = rep["results"]
    assert r["partition"] == "1,2|3"
    assert r["offdiagonal_ok"] is True
    assert r["kernel_dim"] == 0
    assert r["block_kernel_dim"] == 1
    assert "kernel_max_angle" not in r  # dims differ, no angle reported


def test_stratify_all_ones(capsys, tmp_path):
    f = tmp_path / "ones.json"
    f.write_text('{"n": 2, "entries": [[{"re": 1}, {"re": 1}], [{"re": 1}, {"re": 1}]]}')
    code, rep = run_json(capsys, "stratify", "--matrix", str(f))
    assert code == 0
    assert rep["results"]["partition"] == "1,2"
    assert rep["results"]["kernel_dim"] == 1
    assert rep["results"]["kernel_max_angle"] <= 1e-8


def test_stratify_non_psd_exit_3(capsys, tmp_path):
    f = tmp_path / "bad.json"
    f.write_text('{"n": 2, "entries": [[{"re": 1}, {"re": 3}], [{"re": 3}, {"re": 1}]]}')
    code, out, err = run(capsys, "stratify", "--matrix", str(f))
    assert code == 3
    assert "eigenvalue" in err


def test_missing_matrix_file_exit_3(capsys, tmp_path):
    missing = tmp_path / "absent.json"
    code, out, err = run(capsys, "rayleigh", "--c", "1,1", "--M", "2", "--matrix", str(missing))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "absent.json" in err
    assert "Traceback" not in err


def test_verify_identity_clean(capsys):
    code, rep = run_json(
        capsys, "verify-identity", "--which", "pencil", "--max-n", "2",
        "--max-m", "4", "--trials", "5",
    )
    assert code == 0
    assert rep["results"]["failures"] == 0
    # N=1: M in 1..4, N=2: M in 2..4, 5 trials each
    assert rep["results"]["cases"] == 35


def test_experiment_sharpness(capsys):
    code, rep = run_json(capsys, "experiment", "sharpness")
    assert code == 0
    assert rep["results"]["closed_form"] == 5.0
    assert abs(rep["results"]["empirical"] - 5.0) <= 1e-2


def test_experiment_horn_witness(capsys):
    code, rep = run_json(capsys, "experiment", "horn-witness", "--cprime", "-0.21")
    assert code == 0
    assert rep["results"]["witness_found"] is True
    W = np.array(rep["witnesses"]["matrix"], dtype=float)
    assert W.shape == (2, 2)


def test_experiment_power(capsys):
    code, rep = run_json(
        capsys, "experiment", "power-nonpreservation", "--N", "2", "--alpha", "0.5"
    )
    assert code == 0
    assert rep["results"]["witness_found"] is True
    assert rep["results"]["dimension"] == 3


def test_experiment_closure_probe(capsys):
    code, rep = run_json(
        capsys, "experiment", "closure-probe", "--target", "1,2|3", "--source", "1|2|3"
    )
    assert code == 0
    assert rep["results"]["path_in_source"] is True
    assert rep["results"]["limit_in_target"] is True


def test_experiment_closure_probe_missing_args(capsys):
    code, out, err = run(capsys, "experiment", "closure-probe")
    assert code == 3


def test_experiment_cross_dim(capsys):
    code, rep = run_json(capsys, "experiment", "cross-dim", "--draws", "20")
    assert code == 0
    assert rep["results"]["chain_violations"] == 0
    assert rep["results"]["cross_dim_violations"] == 0
    assert rep["results"]["min_ratio"] >= 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ["threshold", "--c", "1,1", "--M", "2", "--N", "2", "--rho", "1/0"],
        ["threshold", "--c", "1,1", "--M", "2", "--N", "2", "--rho", "1", "--cprime", "1/0"],
        ["experiment", "sharpness", "--rho", "1/0"],
        ["experiment", "power-nonpreservation", "--rho", "1/0"],
    ],
)
def test_zero_denominator_exit_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("error:")
    assert out == ""


def test_threshold_wrong_coefficient_count_exit_3(capsys):
    code, out, err = run(
        capsys, "threshold", "--c", "1,1,1", "--N", "2", "--M", "2", "--rho", "1"
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("command", ["stratify", "rayleigh"])
def test_non_finite_matrix_exit_3(capsys, tmp_path, command, literal):
    f = tmp_path / "bad.json"
    f.write_text(
        '{"n": 2, "entries": [[{"re": 1}, {"re": %s}], [{"re": 0}, {"re": 1}]]}' % literal
    )
    extra = ["--c", "1,1", "--M", "2"] if command == "rayleigh" else []
    code, out, err = run(capsys, command, "--matrix", str(f), *extra)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "non-finite" in err


@pytest.mark.parametrize("cell", ['{"re": null}', '{"re": [1]}', '{"re": 1, "im": {}}'])
def test_bad_matrix_cell_exit_3(capsys, tmp_path, cell):
    f = tmp_path / "bad.json"
    f.write_text('{"n": 1, "entries": [[%s]]}' % cell)
    code, out, err = run(capsys, "stratify", "--matrix", str(f))
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "row 1, column 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "power-nonpreservation", "--rho", "1e400"],
        ["experiment", "horn-witness", "--rho", "1e400"],
        ["experiment", "horn-witness", "--cprime", "1e400"],
        ["experiment", "sharpness", "--rho", "1e400", "--grid", "4"],
        ["threshold", "--c", "1e400,1", "--M", "2", "--N", "2", "--rho", "1"],
        ["threshold", "--c", "1,1", "--M", "2000", "--N", "2", "--rho", "3"],
        ["rayleigh", "--c", "1e400,1", "--M", "2", "--rank-one", "0.9,0.7"],
    ],
)
def test_float_overflow_exit_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "which, sizes, named",
    [
        ("pencil", ["--max-n", "-1"], "max_n"),
        ("moments", ["--max-m", "-1"], "max_m"),
        ("cauchy-binet", ["--max-n", "1", "--max-m", "20"], "0..9"),
        ("cauchy-binet", ["--max-m", "11"], "0..9"),
        ("pencil", ["--max-n", "4", "--max-m", "2"], "max_m >= max_n"),
    ],
)
def test_verify_identity_bad_sizes_exit_3(capsys, which, sizes, named):
    code, out, err = run(capsys, "verify-identity", "--which", which, *sizes, "--trials", "1")
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and named in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["power-nonpreservation", "--budget", "-1"], "budget"),
        (["horn-witness", "--budget", "-5"], "budget"),
        (["cross-dim", "--draws", "-3"], "draws"),
    ],
)
def test_experiment_negative_size_exit_3(capsys, argv, named):
    code, out, err = run(capsys, "experiment", *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and named in err


@pytest.mark.parametrize(
    "argv, results",
    [
        (["power-nonpreservation", "--budget", "0"], {"trials": 0, "witness_found": False}),
        (["horn-witness", "--budget", "0"], {"budget": 0, "witness_found": False}),
        (["cross-dim", "--draws", "0"], {"draws": 0, "min_ratio": None}),
    ],
)
def test_experiment_zero_size_is_an_empty_run(capsys, argv, results):
    code, rep = run_json(capsys, "experiment", *argv)
    assert code == 0
    assert results.items() <= rep["results"].items()


GOLDEN_PSD3 = str(Path(__file__).parent / "golden" / "psd3.json")
TOL_COMMANDS = {
    "threshold": ["threshold", "--c", "1,1", "--M", "2", "--N", "2", "--rho", "1"],
    "verify-identity": ["verify-identity", "--which", "pencil", "--max-n", "1", "--trials", "1"],
    "rayleigh": ["rayleigh", "--rank-one", "0.9,0.5", "--c", "1,1", "--M", "3"],
    "stratify": ["stratify", "--matrix", GOLDEN_PSD3],
    "experiment": ["experiment", "horn-witness", "--budget", "500"],
}


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", sorted(TOL_COMMANDS))
def test_unusable_tol_exit_3(capsys, command, tol):
    # a NaN tol fails every comparison and an infinite one passes them all
    code, out, err = run(capsys, *TOL_COMMANDS[command], f"--tol={tol}")
    assert code == 3
    assert out == ""
    assert err.startswith("error: --tol ")


@pytest.mark.parametrize("command", sorted(TOL_COMMANDS))
def test_zero_tol_is_valid(capsys, command):
    code, out, _ = run(capsys, *TOL_COMMANDS[command], "--tol=0")
    assert code == 0 and out


def test_import_leaves_scipy_unloaded():
    # scipy is imported by the two routines that use it, when they run: a
    # cold CLI call that needs neither does not pay for it
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, entrywise, entrywise.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
