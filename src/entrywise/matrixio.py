"""Parsing matrices, vectors, and scalars at the CLI boundary.

Matrix files are JSON: {"n": N, "entries": [[{"re": .., "im": ..}, ..], ..]}
with an optional "rho" radius field.  Under the exact backend every numeric
literal is parsed as a Fraction (floats included, so "0.1" means 1/10 exactly)
and entries become GaussianRational; under the float backend entries become a
complex ndarray.  Scalars accept "a+bi" literals with either i or j.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from .backends import Backend, GaussianRational
from .strata import IndexPartition


def parse_partition(text: str) -> IndexPartition:
    """Parse 1-based blocks "1,2|3" into a 0-based IndexPartition."""
    blocks = []
    for chunk in text.split("|"):
        idx = []
        for tok in chunk.split(","):
            tok = tok.strip()
            if not tok:
                raise ValueError(f"empty index in partition {text!r}")
            i = int(tok)
            if i < 1:
                raise ValueError(f"partition indices are 1-based, got {i}")
            idx.append(i - 1)
        blocks.append(tuple(idx))
    try:
        return IndexPartition(tuple(blocks))
    except ValueError as exc:
        raise ValueError(f"bad partition {text!r}: {exc}") from None


def parse_scalar(text: str, backend: Backend = Backend.FLOAT):
    s = text.strip().replace(" ", "").replace("I", "i").replace("J", "i").replace("j", "i")
    if not s:
        raise ValueError("empty scalar literal")
    if backend is Backend.FLOAT:
        try:
            return complex(s.replace("i", "j"))
        except ValueError:
            raise ValueError(f"cannot parse scalar {text!r}") from None
    try:
        return _parse_exact(s)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse scalar {text!r}") from None


def _parse_exact(s: str) -> GaussianRational:
    if not s.endswith("i"):
        return GaussianRational(Fraction(s), Fraction(0))
    body = s[:-1]
    re_part, im_part = "", body
    # split at the last sign that is not a leading sign or an exponent sign
    for pos in range(len(body) - 1, 0, -1):
        if body[pos] in "+-" and body[pos - 1] not in "eE+-/":
            re_part, im_part = body[:pos], body[pos:]
            break
    if im_part in ("", "+"):
        im = Fraction(1)
    elif im_part == "-":
        im = Fraction(-1)
    else:
        im = Fraction(im_part)
    re = Fraction(re_part) if re_part else Fraction(0)
    return GaussianRational(re, im)


def parse_vector(text: str, backend: Backend = Backend.FLOAT) -> list:
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty vector literal")
    return [parse_scalar(p, backend) for p in parts]


def _number(value, backend: Backend, where: str):
    """A JSON number as a Fraction (exact) or float; ValueError naming `where`."""
    try:
        return Fraction(value) if backend is Backend.EXACT else float(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValueError(f"bad number {value!r} for {where}") from None


def _entry_from_cell(cell, backend: Backend, i: int, j: int):
    if not isinstance(cell, dict) or "re" not in cell:
        raise ValueError("matrix entries must be objects with 're' (and optional 'im')")
    where = f"entry (row {i + 1}, column {j + 1})"
    re = _number(cell["re"], backend, where)
    im = _number(cell.get("im", 0), backend, where)
    if backend is Backend.EXACT:
        return GaussianRational(re, im)
    return complex(re, im)


def load_matrix(text: str, backend: Backend = Backend.FLOAT):
    """Parse matrix JSON; returns (matrix, rho_or_None).

    Exact backend: list-of-lists of GaussianRational, rho as Fraction.
    Float backend: complex ndarray, rho as float.
    """
    try:
        if backend is Backend.EXACT:
            obj = json.loads(text, parse_float=Fraction)
        else:
            obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid matrix JSON: {exc}") from None
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ValueError("matrix JSON must be an object with an 'entries' field")
    entries = obj["entries"]
    if not isinstance(entries, list) or not entries:
        raise ValueError("'entries' must be a nonempty list of rows")
    n = obj.get("n", len(entries))
    if len(entries) != n or any(not isinstance(r, list) or len(r) != n for r in entries):
        raise ValueError(f"'entries' must be an {n} x {n} grid matching 'n'")
    rows = [[_entry_from_cell(c, backend, i, j) for j, c in enumerate(r)]
            for i, r in enumerate(entries)]
    rho = obj.get("rho")
    if rho is not None:
        rho = _number(rho, backend, "'rho'")
    if backend is Backend.EXACT:
        return rows, rho
    return np.array(rows, dtype=complex), rho


def load_matrix_file(path: str, backend: Backend = Backend.FLOAT):
    with open(path, "r", encoding="utf-8") as fh:
        return load_matrix(fh.read(), backend)
