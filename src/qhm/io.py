"""Reading and writing distance matrices.

Two formats: CSV (n lines of n comma-separated decimals) and JSON
({"labels": [...], "dist": [[...], ...]}, labels optional). Non-finite
entries are rejected at parse time with their position.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from contextlib import nullcontext

import numpy as np

from .errors import NonFiniteEntryError, ParseError, ShapeError
from .metric import MetricSpace
from .tolerances import Tolerances


def _open_for(path_or_file, mode: str):
    """The file as a context manager: a path is opened and closed, a file object left open."""
    if hasattr(path_or_file, "read") or hasattr(path_or_file, "write"):
        return nullcontext(path_or_file)
    return open(path_or_file, mode)


def read_csv(path_or_file, tol: Tolerances | None = None) -> MetricSpace:
    with _open_for(path_or_file, "r") as f:
        rows: list[list[float]] = []
        for lineno, line in enumerate(f, start=1):
            text = line.strip()
            if not text:
                continue
            row = []
            for colno, token in enumerate(text.split(","), start=1):
                try:
                    value = float(token)
                except ValueError:
                    raise ParseError(f"bad number {token.strip()!r}", lineno, colno) from None
                if not math.isfinite(value):
                    raise NonFiniteEntryError(f"at line {lineno}, column {colno}")
                row.append(value)
            rows.append(row)
    if not rows:
        raise ParseError("empty input")
    n = len(rows)
    for lineno, row in enumerate(rows, start=1):
        if len(row) != n:
            raise ShapeError(f"line {lineno} has {len(row)} entries, expected {n}")
    return MetricSpace(np.array(rows), tol=tol)


def write_csv(space: MetricSpace, path_or_file) -> None:
    with _open_for(path_or_file, "w") as f:
        for row in space.dist:
            f.write(",".join(repr(float(x)) for x in row) + "\n")


def _reject_constant(name: str):
    raise NonFiniteEntryError(f"JSON constant {name}")


def read_json(path_or_file, tol: Tolerances | None = None) -> MetricSpace:
    with _open_for(path_or_file, "r") as f:
        try:
            doc = json.load(f, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.msg, exc.lineno, exc.colno) from None
    if not isinstance(doc, dict) or "dist" not in doc:
        raise ParseError('expected a JSON object with a "dist" key')
    dist = doc["dist"]
    if not isinstance(dist, list) or not all(isinstance(r, list) for r in dist):
        raise ShapeError('"dist" must be a list of rows')
    for i, row in enumerate(dist):
        for j, x in enumerate(row):
            if not isinstance(x, (int, float)) or isinstance(x, bool):
                raise ParseError(f"non-numeric entry at dist[{i}][{j}]")
    labels = doc.get("labels")
    if labels is not None and (
        not isinstance(labels, list) or not all(isinstance(s, str) for s in labels)
    ):
        raise ParseError('"labels" must be a list of strings')
    try:
        arr = np.array(dist, dtype=float)
    except ValueError:
        raise ShapeError("rows of unequal length") from None
    return MetricSpace(arr, labels=labels, tol=tol)


def write_json(space: MetricSpace, path_or_file) -> None:
    doc: dict = {}
    if space.labels is not None:
        doc["labels"] = list(space.labels)
    doc["dist"] = [[float(x) for x in row] for row in space.dist]
    with _open_for(path_or_file, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def guess_format(path: str) -> str:
    ext = os.path.splitext(str(path))[1].lower()
    return "json" if ext == ".json" else "csv"


def load(path, fmt: str | None = None, tol: Tolerances | None = None) -> MetricSpace:
    fmt = fmt or guess_format(path)
    if fmt == "json":
        return read_json(path, tol=tol)
    if fmt == "csv":
        return read_csv(path, tol=tol)
    raise ValueError(f"unknown format {fmt!r}")


def dump(space: MetricSpace, path_or_file, fmt: str = "csv") -> None:
    if fmt == "json":
        write_json(space, path_or_file)
    elif fmt == "csv":
        write_csv(space, path_or_file)
    else:
        raise ValueError(f"unknown format {fmt!r}")


def matrix_digest(space: MetricSpace) -> str:
    """SHA-256 of the distance matrix (shape plus row-major float64 bytes)."""
    h = hashlib.sha256()
    h.update(f"{space.n}:".encode())
    h.update(np.ascontiguousarray(space.dist, dtype=float).tobytes())
    return h.hexdigest()
