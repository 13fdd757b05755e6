"""Identity-sweep driver: failure reporting and sweep-size validation."""

import hashlib
import json

import pytest

from entrywise import experiments
from entrywise.experiments import IdentitySuiteConfig, run_identity_suite


def _off_by_one(side):
    return lambda *args: side(*args) + 1


# One side of each identity, as entrywise.experiments imports it, made wrong.
WRONG_SIDES = {
    "pencil": ("pencil_det_closed_form", _off_by_one),
    "cauchy-binet": ("cauchy_binet_rhs", _off_by_one),
    "decomposition": ("decomposition_residual", lambda side: lambda *args: [[1]]),
    "moments": (
        "vandermonde_solve_moments",
        lambda side: lambda *args: [x + 1 for x in side(*args)],
    ),
}

# Result and digest of the arguments of every case for seed 7: together they
# pin the case counts, the first counterexample and the whole draw stream.
EXPECTED_FAILURES = {
    "pencil": (
        {"which": "pencil", "cases": 25, "failures": 25,
         "counterexample": {"N": 1, "M": 1, "t": "-3", "u": ["1/3+3i"]}},
        "1931e378cb0b8ff1",
    ),
    "cauchy-binet": (
        {"which": "cauchy-binet", "cases": 10, "failures": 10,
         "counterexample": {"N": 1, "exponents": [2, 6]}},
        "0ac21dbe04d0eaea",
    ),
    "decomposition": (
        {"which": "decomposition", "cases": 40, "failures": 40,
         "counterexample": {"N": 1, "M": 0}},
        "3490f354e1d11f71",
    ),
    "moments": (
        {"which": "moments", "cases": 25, "failures": 25,
         "counterexample": {"N": 1, "M": 1, "u": ["1/3+3i"]}},
        "3b97f27e99fd9e33",
    ),
}


@pytest.mark.parametrize("which", experiments.IDENTITY_KINDS)
def test_wrong_side_fails_every_case(monkeypatch, which):
    name, make_wrong = WRONG_SIDES[which]
    wrong = make_wrong(getattr(experiments, name))
    seen = hashlib.sha256()

    def recording(*args):
        seen.update(json.dumps(args, default=str).encode())
        return wrong(*args)

    monkeypatch.setattr(experiments, name, recording)
    out = run_identity_suite(IdentitySuiteConfig(which, max_n=2, max_m=3, trials=5, seed=7))
    expected, digest = EXPECTED_FAILURES[which]
    assert out["failures"] == out["cases"]
    assert out == expected
    assert seen.hexdigest()[:16] == digest


@pytest.mark.parametrize("which", experiments.IDENTITY_KINDS)
@pytest.mark.parametrize("field", ["max_n", "max_m"])
def test_negative_sweep_size_rejected(which, field):
    with pytest.raises(ValueError, match=field):
        run_identity_suite(IdentitySuiteConfig(which, **{field: -1}))


def test_cauchy_binet_exponent_count_bounded_by_pool():
    # at most 10 distinct exponents can be drawn from 0..9, whatever the seed
    for seed in range(3):
        with pytest.raises(ValueError, match=r"max_m.*0\.\.9"):
            run_identity_suite(IdentitySuiteConfig("cauchy-binet", max_m=11, trials=1, seed=seed))
    out = run_identity_suite(IdentitySuiteConfig("cauchy-binet", max_n=1, max_m=10, trials=3))
    assert out == {"which": "cauchy-binet", "cases": 3, "failures": 0}


@pytest.mark.parametrize("which", ["pencil", "moments"])
def test_pencil_sweep_rejects_max_m_below_max_n(which):
    # M runs from N, so max_m < max_n would silently drop every N > max_m
    for max_n, max_m in ((4, 2), (0, 3)):
        with pytest.raises(ValueError, match="max_m >= max_n"):
            run_identity_suite(IdentitySuiteConfig(which, max_n=max_n, max_m=max_m, trials=1))
    out = run_identity_suite(IdentitySuiteConfig(which, max_n=2, max_m=2, trials=1))
    assert out == {"which": which, "cases": 3, "failures": 0}
