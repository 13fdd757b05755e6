"""Every precondition the package checks: the exception and its message, and
for each check the CLI reaches, exit status 3 with that message on stderr.

One row per check.  A row's CLI invocation may read a matrix file, written
from the row's JSON where the argument list says MATRIX.
"""

import math
import re
import warnings

import numpy as np
import pytest

import entrywise
from entrywise import strata
from entrywise.backends import Backend, det_exact
from entrywise.cli import _fractions, main
from entrywise.experiments import (
    CrossDimConfig,
    IdentitySuiteConfig,
    PowerSearchConfig,
    run_cross_dim,
    run_identity_suite,
    run_power_nonpreservation,
)
from entrywise.hadamard import (
    PencilSpec,
    cauchy_binet_lhs,
    cauchy_binet_rhs,
    entrywise_poly,
    hadamard_decomposition,
    pencil_det_closed_form,
    rank_one_outer,
    vandermonde_solve_moments,
)
from entrywise.matrixio import load_matrix, parse_partition, parse_scalar
from entrywise.partitions import StrictTuple, staircase_complement
from entrywise.psd import discontinuity_probe, rayleigh_constant, rayleigh_variational
from entrywise.samplers import psd_disc_samples
from entrywise.schur import principal_specialization, schur_eval_ssyt_oracle
from entrywise.strata import (
    GroupTag,
    IndexPartition,
    closure_probe,
    generate_in_stratum,
    refinement_leq,
    singleton_partition,
    verify_offdiagonal_structure,
)
from entrywise.threshold import (
    cross_dim_inequality_check,
    horn_necessity_witness,
    lmi_check,
    pd_refinement_check,
    preserves_positivity_check,
    threshold_constant,
)

MATRIX = "MATRIX"
HALF = np.array([[1.0, 0.5], [0.5, 1.0]])
TARGET, SOURCE = IndexPartition(((0, 1), (2,))), IndexPartition(((0,), (1,), (2,)))


def _probe_cli(rho):
    """The discontinuity probe on a 2 x 2 matrix file whose radius is rho."""
    argv = ["rayleigh", "--c", "1,1", "--M", "2", "--matrix", MATRIX, "--probe-discontinuity"]
    cells = '[[{"re": 1}, {"re": 0.5}], [{"re": 0.5}, {"re": 1}]]'
    return argv, f'{{"n": 2, "rho": {rho}, "entries": {cells}}}'


# (id, call, exception type, message, CLI argument list or (arguments, matrix JSON) or None)
ROWS = [
    # threshold
    ("threshold-rho", lambda: threshold_constant((1, 1), 2, 2, 0), ValueError,
     "rho must be positive", ["threshold", "--c", "1,1", "--M", "2", "--N", "2", "--rho", "0"]),
    ("threshold-exponent", lambda: threshold_constant((1, 1), -1, 2, 1), ValueError,
     "exponent must be non-negative",
     ["threshold", "--c", "1,1", "--M", "-1", "--N", "2", "--rho", "1"]),
    ("threshold-empty-c", lambda: _fractions(","), ValueError, "empty coefficient list",
     ["threshold", "--c", ",", "--M", "2", "--N", "2", "--rho", "1"]),
    ("cross-dim-N", lambda: cross_dim_inequality_check((1,), 2, 1, 1.0), ValueError,
     "need N >= 2", None),
    ("cross-dim-M", lambda: cross_dim_inequality_check((1, 1, 1), 2, 3, 1.0), ValueError,
     "need M >= N, got M=2, N=3", None),
    ("pd-refinement-N", lambda: pd_refinement_check((1,), 3, 1.0, [[0.5]]), ValueError,
     "need N >= 2", None),
    ("pd-refinement-M", lambda: pd_refinement_check((1, 1, 1), 2, 1.0, 0.5 * np.eye(3)),
     ValueError, "need M >= N, got M=2, N=3", None),
    ("lmi-disc", lambda: lmi_check((1, 1), 2, 1.0, 2 * HALF), ValueError,
     "entries exceed the closed disc of radius 1.0", None),
    ("pd-refinement-disc", lambda: pd_refinement_check((1, 1), 2, 1.0, 2 * HALF), ValueError,
     "entries exceed the closed disc of radius 1.0", None),
    ("positivity-samples", lambda: preserves_positivity_check({0: 1.0}, 2, 1.0, 0), ValueError,
     "samples must be positive", None),
    # a negative count used to slice the near-corner rows from the end
    ("sampler-count", lambda: list(psd_disc_samples(2, 1.0, -3, np.random.default_rng(0))),
     ValueError, "count must be non-negative", None),
    # f[A] overflows: its NaN eigenvalues used to pass as positive
    ("positivity-overflow",
     lambda: preserves_positivity_check({0: 1.0, 1: 1e308, 2: 1e308}, 2, 1.0, 50),
     ValueError, "matrix has a non-finite entry", None),
    ("horn-overflow", lambda: horn_necessity_witness({0: 1e308, 1: 1e308, 2: -1.0}, 2, 1.0, 100),
     ValueError, "matrix has a non-finite entry",
     ["experiment", "horn-witness", "--c", "1e308,1e308", "--M", "2", "--N", "2",
      "--budget", "100"]),
    ("pd-refinement-overflow", lambda: pd_refinement_check((1e308, 1e308), 2, 1.0, HALF),
     ValueError, "matrix has a non-finite entry", None),
    # C = 1/5e-324 overflows to inf, and C h_c[A] - A^(o2) with it
    ("lmi-overflow", lambda: lmi_check((5e-324, 1.0), 2, 1.0, HALF), ValueError,
     "matrix has a non-finite entry", None),
    # hadamard
    ("pencil-coefficients", lambda: PencilSpec(1, (), 2), ValueError,
     "at least one pencil coefficient required", None),
    ("pencil-exponent", lambda: PencilSpec(1, (1,), -1), ValueError,
     "exponent must be non-negative", None),
    ("hadamard-decomposition-exponent", lambda: hadamard_decomposition(HALF, -1), ValueError,
     "exponent must be non-negative", None),
    ("rows-square", lambda: entrywise_poly({1: 1}, [[1, 2]]), ValueError,
     "square matrix required", None),
    ("entrywise-poly-exponents", lambda: entrywise_poly({-1: 1}, HALF), ValueError,
     "exponents must be non-negative", None),
    ("outer-lengths", lambda: rank_one_outer([1, 2], [1]), ValueError,
     "vectors must have equal length", None),
    ("pencil-closed-form-lengths",
     lambda: pencil_det_closed_form(PencilSpec(1, (1,), 2), [1], [1, 2]), ValueError,
     "u and v must be nonempty with equal length", None),
    ("pencil-closed-form-coefficient-count",
     lambda: pencil_det_closed_form(PencilSpec(1, (1, 1), 3), [1], [2]), ValueError,
     "need 1 coefficients, got 2", None),
    ("pencil-closed-form-M",
     lambda: pencil_det_closed_form(PencilSpec(1, (1, 1), 1), [1, 2], [3, 4]), ValueError,
     "need M >= N, got M=1, N=2", None),
    ("pencil-closed-form-zero-coefficient",
     lambda: pencil_det_closed_form(PencilSpec(1, (1, 0), 3), [1, 2], [3, 4]), ValueError,
     "closed form requires nonzero coefficients", None),
    ("cauchy-binet-empty", lambda: cauchy_binet_lhs({}, [1], [1]), ValueError,
     "at least one exponent required", None),
    ("cauchy-binet-exponents", lambda: cauchy_binet_rhs({-1: 1}, [1], [1]), ValueError,
     "exponents must be non-negative", None),
    ("cauchy-binet-lengths", lambda: cauchy_binet_rhs({1: 1}, [1], []), ValueError,
     "u and v must be nonempty with equal length", None),
    ("moments-empty", lambda: vandermonde_solve_moments([], 2), ValueError,
     "u must be nonempty", None),
    ("moments-M", lambda: vandermonde_solve_moments([1, 2], 1), ValueError,
     "need M >= N, got M=1, N=2", None),
    # partitions and Schur functions
    ("strict-negative", lambda: StrictTuple((-1,)), ValueError,
     "entries must be non-negative", None),
    ("strict-order", lambda: StrictTuple((1, 2)), ValueError,
     "entries must be strictly decreasing", None),
    ("staircase-order", lambda: staircase_complement((1, 1)), ValueError,
     "entries must be strictly decreasing", None),
    ("ssyt-oracle-length", lambda: schur_eval_ssyt_oracle((1, 0), [1]), ValueError,
     "partition length 2 != point length 1", None),
    ("principal-specialization-length", lambda: principal_specialization((1, 0), 1, 3),
     ValueError, "partition length 2 != N = 3", None),
    # strata
    ("partition-empty", lambda: IndexPartition(()), ValueError, "empty partition", None),
    ("partition-empty-block", lambda: IndexPartition(((0,), ())), ValueError, "empty block",
     None),
    ("partition-range", lambda: IndexPartition(((0, 2),)), ValueError,
     "blocks must partition a contiguous index range from 0", None),
    ("partition-range-parsed", lambda: parse_partition("1,3"), ValueError,
     "bad partition '1,3': blocks must partition a contiguous index range from 0",
     ["experiment", "closure-probe", "--target", "1,3", "--source", "1|3"]),
    ("refinement-ground-set",
     lambda: refinement_leq(singleton_partition(2), singleton_partition(3)), ValueError,
     "partitions must share a ground set", None),
    ("offdiagonal-size",
     lambda: verify_offdiagonal_structure(np.eye(2), singleton_partition(3), GroupTag.TRIVIAL),
     ValueError, "partition size does not match matrix", None),
    ("closure-ground-set", lambda: closure_probe(IndexPartition(((0, 1, 2, 3),)), SOURCE),
     ValueError, "partitions must share a ground set",
     ["experiment", "closure-probe", "--target", "1,2,3,4", "--source", "1|2|3"]),
    ("closure-steps", lambda: closure_probe(TARGET, SOURCE, 0), ValueError,
     "steps must be positive",
     ["experiment", "closure-probe", "--target", "1,2|3", "--source", "1|2|3", "--steps", "0"]),
    ("closure-group", lambda: closure_probe(TARGET, SOURCE, 2, "trivial"), ValueError,
     "unknown group 'trivial'", None),
    # matrix files and scalars
    ("matrix-not-object", lambda: load_matrix("[]"), ValueError,
     "matrix JSON must be an object with an 'entries' field",
     (["stratify", "--matrix", MATRIX], "[]")),
    ("matrix-no-rows", lambda: load_matrix('{"entries": []}'), ValueError,
     "'entries' must be a nonempty list of rows",
     (["stratify", "--matrix", MATRIX], '{"entries": []}')),
    ("scalar-float", lambda: parse_scalar("x", Backend.FLOAT), ValueError,
     "cannot parse scalar 'x'", ["rayleigh", "--c", "1", "--M", "1", "--rank-one", "x"]),
    ("scalar-exact", lambda: parse_scalar("1/0", Backend.EXACT), ValueError,
     "cannot parse scalar '1/0'", None),
    ("exact-square", lambda: det_exact([[1, 2]]), ValueError, "square matrix required", None),
    ("exact-scalar", lambda: det_exact([[1.5]]), TypeError,
     "exact backend scalar required, got float", None),
    # Rayleigh routes
    ("probe-rho-zero", lambda: discontinuity_probe((1, 1), 2, 2, 0.0, (0.1,)), ValueError,
     "rho must be positive", _probe_cli(0)),
    ("probe-rho-negative", lambda: discontinuity_probe((1, 1), 2, 2, -1.0, (0.1,)), ValueError,
     "rho must be positive", _probe_cli(-1)),
    ("probe-rho-infinite", lambda: discontinuity_probe((1, 1), 2, 2, math.inf, (0.1,)),
     ValueError, "rho must be finite", _probe_cli("1e400")),
    # h_c[A] overflows
    ("rayleigh-overflow", lambda: rayleigh_constant((1, 1, 1), 3, 1e200 * np.eye(3)),
     ValueError, "matrix has a non-finite eigenvalue", None),
    ("rayleigh-variational-overflow",
     lambda: rayleigh_variational((1, 1, 1), 3, 1e200 * np.eye(3)),
     ValueError, "matrix has a non-finite eigenvalue", None),
    # A^(oM) overflows: the spectral route used to return NaN, the variational
    # route to raise scipy's "array must not contain infs or NaNs"
    ("rayleigh-power-overflow", lambda: rayleigh_constant((1, 1), 2, np.full((2, 2), 1e200)),
     ValueError, "A^(oM) has a non-finite entry",
     (["rayleigh", "--c", "1,1", "--M", "2", "--matrix", MATRIX],
      '{"entries": [[{"re": 1e200}, {"re": 1e200}], [{"re": 1e200}, {"re": 1e200}]]}')),
    ("rayleigh-variational-power-overflow",
     lambda: rayleigh_variational((1, 1), 2, np.full((2, 2), 1e200)),
     ValueError, "A^(oM) has a non-finite entry", None),
    # A^(oM) and h_c[A] are finite, but their compressed forms overflow: a
    # bare LAPACK call would return 0.0
    ("rayleigh-variational-compressed-overflow",
     lambda: rayleigh_variational((1, 1, 1, 1), 1, 3.7e102 * np.ones((4, 4))),
     ValueError, "compressed Rayleigh pair has a non-finite entry", None),
    # experiments
    ("identity-which", lambda: run_identity_suite(IdentitySuiteConfig("nope")), ValueError,
     "unknown identity 'nope'; choose from ('pencil', 'cauchy-binet', 'decomposition', 'moments')",
     None),
    ("identity-trials", lambda: run_identity_suite(IdentitySuiteConfig("pencil", trials=0)),
     ValueError, "trials must be positive",
     ["verify-identity", "--which", "pencil", "--trials", "0"]),
    ("power-N", lambda: run_power_nonpreservation(PowerSearchConfig(N=1)), ValueError,
     "N must be at least 2", ["experiment", "power-nonpreservation", "--N", "1"]),
    ("power-alpha", lambda: run_power_nonpreservation(PowerSearchConfig(alpha=3.0)), ValueError,
     "alpha must lie in (0, 1)", ["experiment", "power-nonpreservation", "--alpha", "3"]),
    ("power-rho", lambda: run_power_nonpreservation(PowerSearchConfig(rho=0)), ValueError,
     "rho must be positive", ["experiment", "power-nonpreservation", "--rho", "0"]),
    # a NaN or infinite radius used to end in LinAlgError
    ("power-rho-nan", lambda: run_power_nonpreservation(PowerSearchConfig(rho=math.nan)),
     ValueError, "rho must be positive", None),
    ("power-rho-infinite", lambda: run_power_nonpreservation(PowerSearchConfig(rho=math.inf)),
     ValueError, "rho must be finite", None),
    ("cross-dim-sizes", lambda: run_cross_dim(CrossDimConfig(1, 1, 0, 0)), ValueError,
     "need max_n >= 2 and max_m >= max_n", ["experiment", "cross-dim", "--max-n", "1"]),
]


@pytest.mark.parametrize("call, kind, message", [r[1:4] for r in ROWS], ids=[r[0] for r in ROWS])
def test_precondition_raises(call, kind, message):
    with np.errstate(all="ignore"), pytest.raises(kind, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("row", [
    "positivity-overflow", "horn-overflow", "pd-refinement-overflow", "lmi-overflow",
    "rayleigh-overflow", "rayleigh-variational-overflow", "rayleigh-power-overflow",
    "rayleigh-variational-power-overflow", "rayleigh-variational-compressed-overflow",
])
def test_overflow_raises_without_a_warning(row):
    call, kind, message = next(r[1:4] for r in ROWS if r[0] == row)
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        with pytest.raises(kind, match=f"^{re.escape(message)}$"):
            call()


CLI_ROWS = [(r[0], r[3], r[4]) for r in ROWS if r[4] is not None]


@pytest.mark.parametrize("message, cli", [r[1:] for r in CLI_ROWS], ids=[r[0] for r in CLI_ROWS])
def test_precondition_exits_3(capsys, tmp_path, message, cli):
    argv, matrix = cli if isinstance(cli, tuple) else (cli, None)
    if matrix is not None:
        path = tmp_path / "m.json"
        path.write_text(matrix)
        argv = [str(path) if a == MATRIX else a for a in argv]
    with np.errstate(all="ignore"):
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert f"error: {message}" in captured.err.splitlines()


def test_unrealizable_stratum_raises(monkeypatch):
    monkeypatch.setattr(strata, "_MAX_ATTEMPTS", 0)
    with pytest.raises(RuntimeError, match=r"^could not realize stratum \(\(0,\),\) for trivial$"):
        generate_in_stratum(singleton_partition(1), GroupTag.TRIVIAL)


def test_zero_samples_draw_nothing():
    rng = np.random.default_rng(0)
    assert list(psd_disc_samples(2, 1.0, 0, rng)) == []
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_public_names():
    assert entrywise.__all__ == [
        "Backend", "GaussianRational", "approx_eq", "det_exact", "solve_exact",
        "Partition", "StrictTuple", "hook_partition", "hook_dimension",
        "staircase_complement", "schur_eval", "schur_eval_ssyt_oracle", "ssyt_count",
        "principal_specialization", "PencilSpec", "hadamard_power", "entrywise_poly",
        "h_matrix", "pencil_det_direct", "pencil_det_closed_form", "cauchy_binet_lhs",
        "cauchy_binet_rhs", "hadamard_decomposition", "decomposition_residual",
        "vandermonde_solve_moments", "CoefficientTuple", "threshold_constant",
        "partial_constants", "admissible", "admissible_verdict",
        "preserves_positivity_check", "empirical_sharpness", "horn_necessity_witness",
        "cross_dim_inequality_check", "lmi_check", "pd_refinement_check", "psd_check",
        "moore_penrose_sqrt", "RayleighResult", "rayleigh_constant", "rayleigh_rank_one",
        "rayleigh_variational", "DiscontinuityProbe", "discontinuity_probe", "GroupTag",
        "IndexPartition", "SubspaceBasis", "stratify", "verify_offdiagonal_structure",
        "simultaneous_kernel", "kernel_for_partition", "subspace_max_angle",
        "rank_bound_check", "generate_in_stratum", "closure_probe", "__version__",
    ]
    assert len(entrywise.__all__) == 56
