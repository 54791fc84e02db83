"""Wire formats: channel JSON schema round-trips and CSV number rendering."""

import json
import math

import numpy as np
import pytest

from qcap import channels as qch
from qcap import serialize
from qcap.errors import FormatError, InvariantViolationError
import oracles


def test_channel_round_trip_is_exact(rng):
    ch = qch.haar_random_channel(3, 2, 2, rng, name="probe")
    blob = serialize.canonical_json(oracles.channel_to_dict(ch))
    back = serialize.channel_from_dict(json.loads(blob))
    assert back.name == "probe"
    assert back.input_dim == 3 and back.output_dim == 2
    for a, b in zip(ch.kraus_ops, back.kraus_ops):
        assert np.array_equal(a, b)          # zero drift, not just allclose


def test_channel_file_round_trip(tmp_path, rng):
    ch = qch.phase_flip(0.25)
    path = tmp_path / "chan.json"
    oracles.save_channel(ch, path)
    back = serialize.load_channel(path)
    assert oracles.channels_equal(ch, back)


def test_malformed_channel_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"input_dim": 2, "output_dim": 2}')
    with pytest.raises(FormatError):
        serialize.load_channel(path)
    path.write_text("not json at all")
    with pytest.raises(FormatError):
        serialize.load_channel(path)


def test_non_cp_channel_fails_invariant(tmp_path):
    ch = qch.identity_channel(2)
    data = oracles.channel_to_dict(ch)
    data["kraus"].append(data["kraus"][0])      # duplicate identity: defect 1
    path = tmp_path / "noncp.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InvariantViolationError):
        serialize.load_channel(path)


def test_matrix_pairs_schema_errors():
    with pytest.raises(FormatError):
        serialize.matrix_from_pairs([[1.0, 2.0]])
    with pytest.raises(FormatError):
        serialize.matrix_from_pairs([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])
    with pytest.raises(FormatError):
        serialize.matrix_from_pairs([])


@pytest.mark.parametrize("entry", [[True, 0.0], [1.0, False], [10**400, 0],
                                   [math.nan, 0.0], [0.0, math.inf], [-math.inf, 0.0]])
def test_matrix_entries_must_be_floats(entry):
    # JSON booleans are not numbers here, an integer must fit a float, and a float must be finite
    with pytest.raises(FormatError):
        serialize.matrix_from_pairs([[entry]])


def test_csv_number_round_trip():
    values = [1 / 3, 0.1, 2**-52, 123456.789, 0.875]
    for v in values:
        assert float(serialize.csv_number(v)) == v
    assert serialize.csv_number(7) == "7"
    assert serialize.csv_number(True) == "true"


def test_canonical_json_is_deterministic():
    rec = {"b": 1.25, "a": [np.float64(0.1), np.int64(3)], "c": complex(1, -2)}
    assert serialize.canonical_json(rec) == serialize.canonical_json(rec)
    assert '"a"' in serialize.canonical_json(rec)


def test_non_finite_floats_name_their_field():
    with pytest.raises(ValueError, match=r"report\.b\[1\]\.x is inf, not a finite number"):
        serialize.canonical_json({"a": 1.0, "b": [0.5, {"x": math.inf}]})
    # the first field reached is named
    with pytest.raises(ValueError, match=r"report\.b is nan"):
        serialize.canonical_json({"b": np.float64("nan"), "a": math.inf})
    with pytest.raises(ValueError, match=r"report\.c\[0\] is inf"):
        serialize.canonical_json({"c": complex(math.inf, 0.0)})
    with pytest.raises(ValueError, match=r"report\.m\[1\]\[0\]\[1\] is nan"):
        serialize.canonical_json({"m": np.array([[1, 2], [complex(0, math.nan), 3]])})
    with pytest.raises(ValueError, match="bound is -inf"):
        serialize.csv_number(-math.inf, "bound")
