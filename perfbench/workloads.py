"""Operation lists of the benchmark workloads.

A workload is built once per process from a seed. It holds a fixed list of
operations, each one call into entrywise with inputs built here, and a deep
correctness check run on the results of the untimed warm pass.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    # Cheap check of every result, timed passes included (run outside the timer).
    check: Callable[[object], bool] = lambda result: True
    # True for operations kept although a known program fault makes them fail
    # on every run; their failures are counted but do not void `correct`.
    known_fault: bool = False


@dataclass
class Workload:
    ops: list[Op]
    # Checks on the warm pass's results against independent computations;
    # returns a description of each problem found.
    deep_check: Callable[[list], list[str]]


MODULES = {
    "exact-identities": "wl_exact",
    "float-positivity": "wl_float",
    "strata": "wl_strata",
    "cli-session": "wl_cli",
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Build a workload; `workdir` receives any input files it writes."""
    return importlib.import_module(MODULES[name]).build(seed, workdir)
