"""The channel-file reader, and the JSON and CSV rendering of report records.

Channel files: a matrix is an array of rows, each row an array of
[re, im] float pairs.  Report records hold plain Python values, converted
where each record is built, so rendering converts no numpy or complex
value.  Python's json round-trips doubles through repr, so JSON is
drift-free; CSV numerics are written with 17 significant digits for the
same reason.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .errors import FormatError


def matrix_from_pairs(rows: Any) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise FormatError("matrix must be a nonempty array of rows")
    width = None
    out = []
    for row in rows:
        if not isinstance(row, list) or (width is not None and len(row) != width):
            raise FormatError("matrix rows must be arrays of equal length")
        width = len(row)
        line = []
        for entry in row:
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
            ):
                raise FormatError("matrix entries must be [re, im] number pairs")
            try:
                line.append(complex(entry[0], entry[1]))
            except OverflowError as exc:        # an integer past the float range
                raise FormatError("matrix entry is beyond the float range") from exc
        out.append(line)
    if width == 0:
        raise FormatError("matrix rows must be nonempty")
    matrix = np.array(out, dtype=np.complex128)
    if not np.isfinite(matrix).all():           # NaN, Infinity, or a float literal such as 1e400
        raise FormatError("matrix entries must be finite")
    return matrix


def channel_from_dict(data: Any):
    from .channels import KrausChannel

    if not isinstance(data, dict):
        raise FormatError("channel record must be a JSON object")
    try:
        name = data.get("name", "")
        input_dim = data["input_dim"]
        output_dim = data["output_dim"]
        kraus = data["kraus"]
    except KeyError as exc:
        raise FormatError(f"channel record is missing field {exc}") from exc
    if any(isinstance(d, bool) or not isinstance(d, int) for d in (input_dim, output_dim)):
        raise FormatError("input_dim and output_dim must be integers")
    if not isinstance(kraus, list) or not kraus:
        raise FormatError("kraus must be a nonempty array of matrices")
    ops = [matrix_from_pairs(mat) for mat in kraus]
    for a in ops:
        if a.shape != (output_dim, input_dim):
            raise FormatError(
                f"kraus operator has shape {a.shape}, expected ({output_dim}, {input_dim})"
            )
    return KrausChannel(input_dim=input_dim, output_dim=output_dim,
                        kraus_ops=ops, name=str(name))


def load_channel(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read channel file {path}: {exc}") from exc
    return channel_from_dict(data)


def jsonable(obj, field: str = "report"):
    """JSON-safe data from report records, dicts and sequences; raises on a non-finite float.

    A report record is a `typing.NamedTuple`; it renders as the object of its
    fields (``_asdict``), not as the array a plain tuple renders as.  Any
    other value is returned as it is.
    """
    if isinstance(obj, tuple) and hasattr(obj, "_asdict"):
        obj = obj._asdict()
    if isinstance(obj, dict):
        return {str(k): jsonable(v, f"{field}.{k}") for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v, f"{field}[{i}]") for i, v in enumerate(obj)]
    if isinstance(obj, float) and not math.isfinite(obj):
        raise ValueError(f"{field} is {obj}, not a finite number")
    return obj


def canonical_json(obj) -> str:
    """Deterministic JSON rendering: sorted keys, fixed layout, trailing newline."""
    return json.dumps(jsonable(obj), indent=2, sort_keys=True) + "\n"


def csv_number(x, field: str = "value") -> str:
    """Full round-trip decimal formatting (17 significant digits) for CSV cells."""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, int):
        return str(x)
    if not math.isfinite(x):
        raise ValueError(f"{field} is {x}, not a finite number")
    return format(x, ".17g")
