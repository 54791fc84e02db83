"""The channel-file reader, and the JSON and CSV rendering of report records.

Channel files: a matrix is an array of rows, each row an array of
[re, im] float pairs.  A record's ``kraus`` is read in one pass: one
recursive check requires nested lists of exactly (len(kraus), output_dim,
input_dim, 2), every dimension at least 1 and every leaf a number (not a
boolean), and refuses any other structure with one message naming the
expected shape; one float conversion (an integer past the float range is
refused) and one finiteness check then hand its complex128 view to
`KrausChannel`, which copies it once.

Report records hold plain Python values, converted where each record is
built, so rendering converts no numpy or complex value.  Python's json
round-trips doubles through repr, so JSON is drift-free; CSV numerics are
written with 17 significant digits for the same reason.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .errors import FormatError


def _has_shape(x: Any, shape: tuple) -> bool:
    """Whether x is nested lists of exactly this shape whose leaves are numbers, not booleans."""
    if not isinstance(x, list) or len(x) != shape[0]:
        return False
    if len(shape) == 1:
        return not any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in x)
    return all(_has_shape(y, shape[1:]) for y in x)


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
    shape = (len(kraus) if isinstance(kraus, list) else 0, output_dim, input_dim, 2)
    if min(shape) < 1 or not _has_shape(kraus, shape):
        raise FormatError(f"kraus must be a nonempty array of {output_dim} x {input_dim} "
                          "(output_dim x input_dim, each at least 1) matrices of [re, im] "
                          "number pairs")
    try:
        pairs = np.array(kraus, dtype=float)
    except OverflowError as exc:                # an integer past the float range
        raise FormatError("matrix entry is beyond the float range") from exc
    if not np.isfinite(pairs).all():            # NaN, Infinity, or a float literal such as 1e400
        raise FormatError("matrix entries must be finite")
    return KrausChannel(input_dim=input_dim, output_dim=output_dim,
                        kraus_ops=pairs.view(np.complex128)[..., 0], name=str(name))


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
