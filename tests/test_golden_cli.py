"""Golden CLI stdout: fixed invocations against recorded output, byte for byte.

The CLI promises stdout that is reproducible for fixed inputs, so every case
below runs ``cli.main`` in-process from ``tests/golden/`` (matrix paths are
relative and print the same) and compares the exit code and the whole of
stdout with ``tests/golden/<name>.txt``.  After an intended change of
output, record the golden files again with
``PYTHONPATH=src python3 tests/test_golden_cli.py``.
"""

import os
from pathlib import Path

import pytest

from entrywise.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "threshold_exact": (0, ["threshold", "--c", "1,1", "--M", "2", "--N", "2", "--rho", "1",
                            "--backend", "exact", "--cprime=-1/5"]),
    "threshold_float_boundary": (0, ["threshold", "--c", "1,1", "--M", "2", "--N", "2",
                                     "--rho", "1", "--cprime=-1/5"]),
    "threshold_empirical_json": (0, ["threshold", "--c", "1,2,3", "--M", "5", "--N", "3",
                                     "--rho", "3/2", "--cprime=-1/1000", "--empirical",
                                     "--json"]),
    "threshold_empirical_root": (0, ["threshold", "--c", "1,1", "--M", "2", "--N", "2",
                                     "--rho", "197/5", "--empirical"]),
    "identity_pencil": (0, ["verify-identity", "--which", "pencil", "--max-n", "2",
                            "--trials", "2", "--backend", "exact"]),
    "identity_cauchy_binet": (0, ["verify-identity", "--which", "cauchy-binet", "--max-n", "2",
                                  "--max-m", "3", "--trials", "2", "--json"]),
    "identity_decomposition": (0, ["verify-identity", "--which", "decomposition", "--max-n", "2",
                                   "--max-m", "3", "--trials", "2"]),
    "identity_moments": (0, ["verify-identity", "--which", "moments", "--max-n", "3",
                             "--max-m", "4", "--trials", "1"]),
    "rayleigh_probe": (0, ["rayleigh", "--c", "1,1", "--M", "2", "--rank-one", "0.9,0.7",
                           "--probe-discontinuity"]),
    "rayleigh_matrix_json": (0, ["rayleigh", "--c", "1,1,1", "--M", "3", "--matrix",
                                 "psd3.json", "--json"]),
    "stratify_trivial": (0, ["stratify", "--matrix", "twoblock4.json", "--group", "trivial"]),
    "stratify_s1_json": (0, ["stratify", "--matrix", "twoblock4.json", "--group", "s1",
                             "--json"]),
    "stratify_psd3": (0, ["stratify", "--matrix", "psd3.json", "--group", "cx"]),
    "experiment_sharpness": (0, ["experiment", "sharpness", "--grid", "40"]),
    "experiment_horn_witness": (0, ["experiment", "horn-witness", "--json"]),
    "experiment_power": (0, ["experiment", "power-nonpreservation", "--N", "3", "--alpha", "1.5",
                             "--budget", "500", "--json"]),
    "experiment_power_random": (0, ["experiment", "power-nonpreservation", "--alpha", "0.5",
                                    "--tol", "1e-3", "--budget", "500"]),
    "experiment_power_none": (0, ["experiment", "power-nonpreservation", "--N", "4",
                                  "--alpha", "2.01", "--budget", "30"]),
    "experiment_closure_probe": (0, ["experiment", "closure-probe", "--target", "1,2,3|4",
                                     "--source", "1,2|3|4", "--group", "s1", "--steps", "4"]),
    "experiment_cross_dim": (0, ["experiment", "cross-dim", "--draws", "10"]),
    "stratify_not_psd": (3, ["stratify", "--matrix", "notpsd2.json"]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name, capsys, monkeypatch):
    code, argv = CASES[name]
    monkeypatch.chdir(GOLDEN)
    assert main(argv) == code
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    import contextlib
    import io

    os.chdir(GOLDEN)
    for name, (code, argv) in sorted(CASES.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            got = main(argv)
        if got != code:
            raise SystemExit(f"{name}: exit code {got}, expected {code}")
        (GOLDEN / f"{name}.txt").write_text(buf.getvalue(), encoding="utf-8")
        print(f"recorded {name}")
