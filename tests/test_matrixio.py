"""Matrix JSON parsing, scalar literals, and the partition text form."""

import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from entrywise.backends import Backend, GaussianRational
from entrywise.matrixio import (
    load_matrix,
    parse_partition,
    parse_scalar,
    parse_vector,
)
from entrywise.report import partition_to_text
from entrywise.strata import IndexPartition


def test_parse_scalar_float_forms():
    assert parse_scalar("2.5") == 2.5
    assert parse_scalar("1+2i") == 1 + 2j
    assert parse_scalar("-3i") == -3j
    assert parse_scalar("0.5-0.25j") == 0.5 - 0.25j
    assert parse_scalar("i") == 1j


def test_parse_scalar_exact_forms():
    half_i = parse_scalar("3/4+1/2i", Backend.EXACT)
    assert half_i == GaussianRational(Fraction(3, 4), Fraction(1, 2))
    assert parse_scalar("0.1", Backend.EXACT) == GaussianRational(Fraction(1, 10), Fraction(0))
    assert parse_scalar("-i", Backend.EXACT) == GaussianRational(Fraction(0), Fraction(-1))
    assert parse_scalar("2", Backend.EXACT) == GaussianRational(Fraction(2), Fraction(0))


def test_parse_scalar_rejects_garbage():
    with pytest.raises(ValueError):
        parse_scalar("totally not a number")
    with pytest.raises(ValueError):
        parse_scalar("", Backend.EXACT)


def test_parse_vector():
    v = parse_vector("1, 2+i, -0.5", Backend.FLOAT)
    assert v == [1 + 0j, 2 + 1j, -0.5 + 0j]
    with pytest.raises(ValueError):
        parse_vector("   ", Backend.FLOAT)


def test_load_matrix_float_and_rho():
    text = '{"n": 2, "entries": [[{"re": 1}, {"re": 0, "im": 1}], [{"re": 0, "im": -1}, {"re": 2}]], "rho": 2.5}'
    A, rho = load_matrix(text, Backend.FLOAT)
    assert rho == 2.5
    assert A.dtype == complex
    assert A[0, 1] == 1j and A[1, 0] == -1j


def test_load_matrix_exact_decimal_is_rational():
    text = '{"entries": [[{"re": 0.1}]]}'
    rows, rho = load_matrix(text, Backend.EXACT)
    assert rho is None
    assert rows[0][0] == GaussianRational(Fraction(1, 10), Fraction(0))


def test_load_matrix_errors():
    with pytest.raises(ValueError):
        load_matrix("not json", Backend.FLOAT)
    with pytest.raises(ValueError):
        load_matrix('{"entries": [[{"re": 1}], [{"re": 2}]]}', Backend.FLOAT)  # ragged
    with pytest.raises(ValueError):
        load_matrix('{"entries": [[{"im": 1}]]}', Backend.FLOAT)  # missing re
    with pytest.raises(ValueError):
        load_matrix('{"n": 3, "entries": [[{"re": 1}]]}', Backend.FLOAT)  # n mismatch


@pytest.mark.parametrize("backend", list(Backend))
@pytest.mark.parametrize(
    "text,where",
    [
        ('{"entries": [[{"re": 1}, {"re": null}], [{"re": 0}, {"re": 1}]]}', "row 1, column 2"),
        ('{"entries": [[{"re": 1}, {"re": 0}], [{"re": 0, "im": [1]}, {"re": 1}]]}', "row 2, column 1"),
        ('{"entries": [[{"re": {"x": 1}}]]}', "row 1, column 1"),
        ('{"entries": [[{"re": 1}]], "rho": [1]}', "'rho'"),
        ('{"entries": [[{"re": 1}]], "rho": {}}', "'rho'"),
    ],
    ids=["null", "list", "object", "rho-list", "rho-object"],
)
def test_load_matrix_names_bad_cell(text, where, backend):
    with pytest.raises(ValueError, match=re.escape(where)):
        load_matrix(text, backend)


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@given(st.lists(st.lists(finite, min_size=2, max_size=2), min_size=2, max_size=2))
def test_dump_load_roundtrip_exact_floats(rows):
    A = np.array(
        [[complex(rows[0][0], rows[0][1]), complex(rows[1][0], rows[1][1])],
         [complex(rows[1][0], rows[0][1]), complex(rows[0][0], rows[1][1])]]
    )
    cells = [[{"re": z.real, "im": z.imag} for z in row] for row in A.tolist()]
    B, _ = load_matrix(json.dumps({"n": 2, "entries": cells}), Backend.FLOAT)
    # bitwise identical: json writes repr, which round-trips doubles
    assert np.array_equal(A, B)


def test_partition_text_roundtrip():
    pi = IndexPartition(((0, 1), (2,)))
    assert partition_to_text(pi) == "1,2|3"
    assert parse_partition("1,2|3") == pi
    assert parse_partition("3|1,2") == pi
    with pytest.raises(ValueError):
        parse_partition("0,1|2")  # 1-based
    with pytest.raises(ValueError):
        parse_partition("1,1|2")
    with pytest.raises(ValueError):
        parse_partition("1,|2")
