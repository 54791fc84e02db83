"""Wire formats: channel JSON schema round-trips, report records and CSV number rendering."""

import json
import math

import numpy as np
import pytest

from qcap import channels as qch
from qcap import random_coding as rc
from qcap import serialize
from qcap import typicality as tp
from qcap.errors import FormatError, InvariantViolationError
import oracles


def test_channel_round_trip_is_exact(rng):
    ops = qch.haar_random_channel(3, 2, 2, rng).kraus_ops
    ch = qch.KrausChannel(input_dim=3, output_dim=2, kraus_ops=ops, name="probe")
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
    rec = {"b": 1.25, "a": [0.1, 3], "c": {"z": True, "y": None}}
    assert serialize.canonical_json(rec) == serialize.canonical_json(rec)
    assert '"a"' in serialize.canonical_json(rec)


def test_non_finite_floats_name_their_field():
    with pytest.raises(ValueError, match=r"report\.b\[1\]\.x is inf, not a finite number"):
        serialize.canonical_json({"a": 1.0, "b": [0.5, {"x": math.inf}]})
    # the first field reached is named
    with pytest.raises(ValueError, match=r"report\.b is nan"):
        serialize.canonical_json({"b": math.nan, "a": math.inf})
    with pytest.raises(ValueError, match="bound is -inf"):
        serialize.csv_number(-math.inf, "bound")


@pytest.fixture(scope="module")
def records():
    """One instance of every report record, each from the call that makes it."""
    ch = qch.phase_flip(0.25)
    info = qch.classify(ch)
    moments = rc.haar_moment_suite(2, 16, 3)
    curve = rc.hamming_rate_curve(info, 2, 0.1, range(1, 4))
    verification = tp.verify_reduction_bounds(ch, range(1, 4), 0.1)
    table = tp.achievable_rate_table(ch, 0.1, 0.1, range(1, 3))
    type_class = tp._typical_classes((0.75, 0.25), [np.array([0]), np.array([1])], 0.8, 3, 0.5)[0]
    made = [info, rc.mc_code_values(ch, 1, 4, 3)[0], rc.closed_forms(ch, 1), moments,
            moments.checks[0], curve, curve.rows[0], type_class, verification.typical_decay,
            verification.reports[0], verification, table.rows[0], table]
    return {type(r).__name__: r for r in made}


_RECORDS = ["ChannelInfoReport", "EnsembleEstimate", "ClosedForms", "HaarMomentReport",
            "MomentCheck", "HammingCurve", "HammingPoint", "TypeClass", "DecayFit",
            "ReducedChannelReport", "ReductionVerification", "RateRow", "RateTable"]


@pytest.mark.parametrize("name", _RECORDS)
def test_a_record_renders_as_the_object_of_its_fields(records, name):
    # a named tuple, rendered through its fields and not as a plain tuple's array
    record = records[name]
    assert isinstance(record, tuple) and record._fields
    assert serialize.jsonable(record) == serialize.jsonable(record._asdict())
    assert isinstance(serialize.jsonable(record), dict)
    json.dumps(serialize.jsonable(record))      # every field is a plain value
