"""Partition shapes, hooks, staircase complements."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from entrywise.partitions import (
    Partition,
    StrictTuple,
    hook_dimension,
    hook_partition,
    staircase_complement,
)


def test_partition_validation():
    Partition((3, 1, 0))
    Partition(())
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_hook_partition_shape():
    assert hook_partition(3, 2, 0).parts == (2, 1)
    assert hook_partition(3, 2, 1).parts == (2, 0)
    assert hook_partition(7, 4, 1).parts == (4, 1, 1, 0)
    # j = N-1 leaves a single row
    assert hook_partition(5, 3, 2).parts == (3, 0, 0)


def test_hook_partition_bounds():
    with pytest.raises(ValueError):
        hook_partition(2, 3, 0)  # needs M >= N
    with pytest.raises(ValueError):
        hook_partition(4, 2, 2)  # j < N


def test_hook_weight():
    # weight M - N + 1 + (N - j - 1) = M - j
    for M in range(2, 9):
        for N in range(1, M + 1):
            for j in range(N):
                assert hook_partition(M, N, j).weight == M - j


def test_hook_dimension_frozen_values():
    assert hook_dimension(3, 2, 0) == 2
    assert hook_dimension(3, 2, 1) == 3
    assert hook_dimension(5, 3, 2) == 10
    assert hook_dimension(2, 2, 0) == 1
    assert hook_dimension(2, 2, 1) == 2


def test_staircase_complement_examples():
    assert staircase_complement((3, 1, 0)).parts == (1, 0, 0)
    assert staircase_complement(StrictTuple((5, 2, 1))).parts == (3, 1, 1)
    assert staircase_complement(StrictTuple((4, 3, 2, 1, 0))).parts == (0,) * 5


@given(st.sets(st.integers(min_value=0, max_value=30), min_size=1, max_size=6))
def test_staircase_complement_weight(exponents):
    e = tuple(sorted(exponents, reverse=True))
    lam = staircase_complement(e)
    n = len(e)
    assert lam.weight == sum(e) - n * (n - 1) // 2
    assert len(lam.parts) == n
