"""Integer partitions, hook shapes, and their closed-form dimension counts."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing tuple of non-negative integers, trailing zeros explicit.

    The tuple length fixes the ambient number of variables; evaluation
    routines require the point to have exactly this length.
    """

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        if any(p < 0 for p in parts):
            raise ValueError("partition parts must be non-negative")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("partition parts must be weakly decreasing")

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, idx):
        return self.parts[idx]

    @property
    def weight(self) -> int:
        return sum(self.parts)


@dataclass(frozen=True)
class StrictTuple:
    """Strictly decreasing tuple of non-negative integers (largest first)."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = tuple(int(e) for e in self.entries)
        object.__setattr__(self, "entries", entries)
        if any(e < 0 for e in entries):
            raise ValueError("entries must be non-negative")
        if any(entries[i] <= entries[i + 1] for i in range(len(entries) - 1)):
            raise ValueError("entries must be strictly decreasing")

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def _require_hook(M: int, N: int, j: int) -> None:
    if not (0 <= j < N <= M):
        raise ValueError(f"need 0 <= j < N <= M, got M={M}, N={N}, j={j}")


def _require_m_ge_n(M: int, N: int) -> None:
    if M < N:
        raise ValueError(f"need M >= N, got M={M}, N={N}")


def hook_partition(M: int, N: int, j: int) -> Partition:
    """Hook shape (M-N+1, 1^(N-j-1), 0^j) of length N.

    Requires 0 <= j < N <= M; these are the shapes indexing the lower-degree
    Hadamard powers in the pencil determinant expansion.
    """
    _require_hook(M, N, j)
    return Partition((M - N + 1,) + (1,) * (N - j - 1) + (0,) * j)


def staircase_complement(nprime) -> Partition:
    """Partition obtained by subtracting the staircase from a strict tuple.

    For entries d_0 > d_1 > ... > d_{N-1} >= 0 returns
    (d_0 - (N-1), d_1 - (N-2), ..., d_{N-1}), always a partition: its last
    part is d_{N-1} >= 0, and d_k >= d_{k+1} + 1 makes it weakly decreasing.
    """
    if not isinstance(nprime, StrictTuple):
        nprime = StrictTuple(tuple(nprime))
    entries = nprime.entries
    n = len(entries)
    return Partition(tuple(entries[k] - (n - 1 - k) for k in range(n)))


def hook_dimension(M: int, N: int, j: int) -> int:
    """Number of semistandard tableaux of hook_partition(M, N, j) with entries in {1..N}.

    Closed form binom(M, j) * binom(M-j-1, N-j-1); cross-checked against
    explicit tableau enumeration in the test suite.
    """
    _require_hook(M, N, j)
    return comb(M, j) * comb(M - j - 1, N - j - 1)
