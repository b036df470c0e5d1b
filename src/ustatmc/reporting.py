"""Deterministic CSV/JSON emission.

Floats are written with 17 significant digits so files round-trip exactly
and identical runs produce byte-identical artifacts.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


def fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(path: str | Path, fieldnames: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A header line, then one line per row of values in ``fieldnames``
    order, written as the rows come, so a long table is never held whole."""
    with Path(path).open("w") as out:
        out.write(",".join(fieldnames) + "\n")
        out.writelines(",".join(map(fmt, row)) + "\n" for row in rows)


def write_json(path: str | Path, obj) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2, default=_coerce) + "\n")


def _coerce(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")
