"""Structured run reports shared by the CLI subcommands.

Stdout must be byte-for-byte reproducible for fixed inputs, so the rendered
report never includes wall-clock time; runtime goes to stderr separately.
Exact values (Fraction, GaussianRational) are rendered as strings to keep
them lossless in JSON output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

import numpy as np

from .backends import GaussianRational
from .strata import IndexPartition


def partition_to_text(pi: IndexPartition) -> str:
    """Render an IndexPartition 1-based, e.g. {{0,1},{2}} -> "1,2|3"."""
    return "|".join(",".join(str(i + 1) for i in b) for b in pi.blocks)


_LEAVES = frozenset((type(None), bool, int, float, str))


def jsonable(obj):
    """obj as JSON-ready values: exact scalars as strings, arrays and tuples as lists.

    The exact type of a node picks its rule first; any other type, subclasses
    such as ``np.float64`` and namedtuples included, takes the first rule of
    the ``isinstance`` chain that it matches.
    """
    kind = type(obj)
    if kind in _LEAVES:
        return obj
    if kind is dict:
        return {str(k): jsonable(v) for k, v in obj.items()}
    if kind is list or kind is tuple:
        return [jsonable(v) for v in obj]
    if isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (Fraction, GaussianRational)):
        return str(obj)
    if isinstance(obj, complex):
        if obj.imag == 0.0:
            return obj.real
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, IndexPartition):
        return partition_to_text(obj)
    if isinstance(obj, np.generic):
        return jsonable(obj.item())
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return str(obj)


@dataclass
class Report:
    command: str
    inputs: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    runtime_s: float = 0.0

    def to_jsonable(self) -> dict:
        out = {
            "command": self.command,
            "inputs": jsonable(self.inputs),
            "tolerances": jsonable(self.tolerances),
            "results": jsonable(self.results),
        }
        if self.witnesses:
            out["witnesses"] = jsonable(self.witnesses)
        return out

    def render_json(self) -> str:
        return json.dumps(self.to_jsonable(), indent=2, sort_keys=True)

    def render_text(self) -> str:
        lines = [f"entrywise {self.command}"]
        for section in ("inputs", "tolerances", "results", "witnesses"):
            payload = jsonable(getattr(self, section))
            if not payload:
                continue
            lines.append(f"{section}:")
            for key in sorted(payload):
                lines.append(f"  {key} = {_fmt(payload[key])}")
        return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return repr(value) if isinstance(value, float) else str(value)
