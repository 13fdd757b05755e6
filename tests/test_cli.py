"""CLI behaviour: report content, reproducibility, exit codes."""

import json

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
