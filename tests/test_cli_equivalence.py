"""The CLI's one-pass parse and its report rendering against their references.

``cli.main`` parses a command that starts with a subcommand name with that
subcommand's parser alone.  Every argument list below must give the same exit
code, stdout and stderr (the ``runtime_s`` line aside) as a parse through the
top-level parser's ``parse_args``, and every valid one the same namespace.
``report.jsonable`` dispatches on the exact type of a node before it falls
back to a chain of ``isinstance`` tests; the chain alone, kept below as the
reference, must give equal values of equal types.
"""

import collections
import enum
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from entrywise import cli
from entrywise.backends import GaussianRational
from entrywise.report import jsonable, partition_to_text
from entrywise.strata import GroupTag, IndexPartition

GOLDEN = Path(__file__).parent / "golden"

THRESHOLD = ["threshold", "--c", "1,1", "--M", "2", "--N", "2", "--rho", "1"]

VALID = {
    "threshold": THRESHOLD,
    "threshold-json-exact": THRESHOLD + ["--json", "--backend", "exact", "--seed", "3"],
    "threshold-cprime-equals": THRESHOLD + ["--cprime=-1/5"],
    "threshold-abbreviation": THRESHOLD + ["--emp", "--grid", "10"],
    "threshold-bad-tol": THRESHOLD + ["--tol", "nan"],
    "verify-identity": ["verify-identity", "--which", "pencil", "--max-n", "2", "--trials", "1"],
    "rayleigh": ["rayleigh", "--c", "1,1", "--M", "2", "--rank-one", "0.9,0.7"],
    "stratify": ["stratify", "--matrix", "twoblock4.json", "--group", "s1", "--json"],
    "experiment": ["experiment", "closure-probe", "--target", "1,2|3", "--source", "1|2|3",
                   "--steps", "2"],
    "experiment-after-dashes": ["experiment", "--grid", "4", "--", "sharpness"],
}

USAGE = {
    "help": ["-h"],
    "subcommand-help": ["threshold", "-h"],
    "experiment-help": ["experiment", "--help"],
    "no-subcommand": [],
    "unknown-subcommand": ["bogus"],
    "option-first": ["--seed", "1"] + THRESHOLD,
    "dashes-first": ["--"] + THRESHOLD,
    "unrecognized": THRESHOLD + ["--bogus"],
    "unrecognized-several": THRESHOLD + ["--bogus", "x", "-q"],
    "missing": ["threshold", "--c", "1,1"],
    "invalid-choice": ["stratify", "--matrix", "twoblock4.json", "--group", "nope"],
    "invalid-experiment": ["experiment", "nope"],
    "bad-int": ["threshold", "--c", "1,1", "--M", "two", "--N", "2", "--rho", "1"],
    "cprime-separate": THRESHOLD + ["--cprime", "-1/5"],
    "mutually-exclusive": ["rayleigh", "--c", "1", "--M", "1", "--matrix", "a", "--rank-one", "1"],
    "token-after-dashes": THRESHOLD + ["--", "x"],
    "option-after-dashes": ["experiment", "--", "sharpness", "--grid", "4"],
}


def _outcome(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, [line for line in err.splitlines() if not line.startswith("runtime_s ")]


def _two_pass(argv):
    return cli.build_parser().parse_args(argv)


@pytest.mark.parametrize("argv", list({**VALID, **USAGE}.values()),
                         ids=list({**VALID, **USAGE}))
def test_main_matches_a_parse_through_the_top_level_parser(capsys, monkeypatch, argv):
    monkeypatch.chdir(GOLDEN)
    once = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "_parse", _two_pass)
    assert _outcome(capsys, argv) == once


@pytest.mark.parametrize("argv", list(VALID.values()), ids=list(VALID))
def test_valid_commands_parse_to_the_same_namespace(argv):
    # sorted reprs, so that a NaN option compares equal to itself
    once, twice = cli._parse(argv), _two_pass(argv)
    assert repr(sorted(vars(once).items())) == repr(sorted(vars(twice).items()))


def test_usage_cases_exit_as_usage_errors(capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    help_cases = {"help", "subcommand-help", "experiment-help"}
    for name, argv in USAGE.items():
        code, out, _ = _outcome(capsys, argv)
        assert code == (0 if name in help_cases else 2), name
        assert (out.startswith("usage: entrywise") if name in help_cases else out == ""), name
    _, _, err = _outcome(capsys, USAGE["unrecognized"])
    assert err[-1] == "entrywise: error: unrecognized arguments: --bogus"


def test_argv_none_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["entrywise"] + THRESHOLD + ["--bogus"])
    assert _outcome(capsys, None)[0] == 2
    monkeypatch.setattr("sys.argv", ["entrywise"] + THRESHOLD)
    code, out, _ = _outcome(capsys, None)
    assert code == 0 and "  threshold_constant = 5.0" in out.splitlines()


def reference_jsonable(obj):
    """The isinstance chain that rendered every report before the type dispatch."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (Fraction, GaussianRational)):
        return str(obj)
    if isinstance(obj, complex):
        if obj.imag == 0.0:
            return obj.real
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, IndexPartition):
        return partition_to_text(obj)
    if isinstance(obj, np.generic):
        return reference_jsonable(obj.item())
    if isinstance(obj, np.ndarray):
        return [reference_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_jsonable(v) for v in obj]
    return str(obj)


def _same(a, b) -> bool:
    """Equal values of equal types all the way down; floats by repr (nan, -0.0)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float):
        return repr(a) == repr(b)
    return a == b


Point = collections.namedtuple("Point", "x y")


class Level(enum.IntEnum):
    LOW = 1


class Keys(dict):
    pass


VALUES = {
    "none": None,
    "bools": [True, False, np.bool_(True), np.bool_(False)],
    "numpy-scalars": (np.float64(1.5), np.int64(-3), np.float32(0.25), np.complex128(2 + 0j)),
    "special-floats": [-0.0, math.nan, math.inf, -math.inf, np.float64(-0.0), np.float64(math.nan)],
    "exact": [Fraction(-1, 5), Fraction(4), GaussianRational(Fraction(1, 2), 3),
              GaussianRational(2)],
    "complex": [complex(1.5, 0.0), complex(-0.0, 0.0), complex(1, -2), 3j],
    "enums": [GroupTag.UNIT_CIRCLE, Level.LOW],
    "partition": IndexPartition(((0, 2), (1,))),
    "arrays": [np.array([[1.0, -0.0], [math.nan, 2.0]]), np.array([1 + 2j, 3 + 0j]),
               np.array([True, False]), np.arange(3), np.zeros((0,))],
    "tuples": ((1, 2.0), (), Point(1.0, Fraction(1, 3)), Point(Point(1, 2), [3])),
    "keys": {1: "a", 2.5: [1], Fraction(1, 2): None, (1, 2): {"x": 1}, None: 0, False: 1,
             GroupTag.TRIVIAL: 2, "s": "t"},
    "subclasses": [Keys(a=Fraction(1, 3)), collections.OrderedDict(b=np.int64(1))],
    "other": [range(2), b"bytes", slice(1), object()],
    "nested": {"results": {"witness": {"probe_rows": [{"epsilon": 0.1, "value": np.float64(2)}],
                                       "basis": np.eye(2, dtype=complex)},
                           "verdict": "boundary", "bound": Fraction(-1, 5), "n": 3}},
}


@pytest.mark.parametrize("value", list(VALUES.values()), ids=list(VALUES))
def test_jsonable_matches_the_isinstance_chain(value):
    assert _same(jsonable(value), reference_jsonable(value))
    assert _same(jsonable([value, {"k": value}]), reference_jsonable([value, {"k": value}]))
