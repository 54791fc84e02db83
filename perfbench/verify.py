"""Checks of one qcap JSON report against the references recorded in references.json.

Ensemble reports: both 4-sigma ``pass`` flags are true, both estimates used
the requested sample count, and the closed forms and the upper bound match
the references within `REL_TOL`.  Monte Carlo estimates are not compared,
since a documented change of stream mapping may alter them.

Typicality and rate-demo reports: everything except the embedded ``config``
matches the reference report, integers and booleans exactly and floats
within `REL_TOL`; typicality reports also need ``counts_within_bounds`` and
``norms_within_bounds`` to be true.
"""

from __future__ import annotations

import json
from pathlib import Path

REL_TOL = 1e-12
REFERENCES = Path(__file__).with_name("references.json")


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def compare(actual, expected, path: str = "report") -> list[str]:
    """Differences between two decoded JSON values, one message each."""
    if expected is None or isinstance(expected, (bool, str)):
        ok = type(actual) is type(expected) and actual == expected
        return [] if ok else [f"{path}: {actual!r} != {expected!r}"]
    if isinstance(expected, int):
        ok = type(actual) is int and actual == expected
        return [] if ok else [f"{path}: count {actual!r} != {expected!r}"]
    if isinstance(expected, float):
        ok = (isinstance(actual, (int, float)) and not isinstance(actual, bool)
              and (actual == expected
                   or abs(actual - expected) <= REL_TOL * max(abs(actual), abs(expected))))
        return [] if ok else [f"{path}: {actual!r} != {expected!r} within {REL_TOL:g} relative"]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: expected a list of {len(expected)} items"]
        return [msg for i, (a, e) in enumerate(zip(actual, expected))
                for msg in compare(a, e, f"{path}[{i}]")]
    if not isinstance(actual, dict) or actual.keys() != expected.keys():
        return [f"{path}: expected keys {sorted(expected)}"]
    return [msg for key in expected for msg in compare(actual[key], expected[key],
                                                       f"{path}.{key}")]


def check_ensemble(report: dict, reference: dict, samples: int) -> list[str]:
    errors = []
    for quantity in ("deviation_sq", "fidelity_bound"):
        part = report[quantity]
        if part["pass"] is not True:
            errors.append(f"{quantity}.pass is {part['pass']!r}")
        if part["estimate"]["sample_count"] != samples:
            errors.append(f"{quantity}.estimate.sample_count is "
                          f"{part['estimate']['sample_count']!r}, requested {samples}")
        errors += compare(part["closed_form"], reference["closed_form"][quantity],
                          f"{quantity}.closed_form")
    errors += compare(report["deviation_sq"]["upper_bound"], reference["upper_bound"],
                      "deviation_sq.upper_bound")
    return errors


def check_series(subcommand: str, report: dict, reference: dict) -> list[str]:
    body = {key: value for key, value in report.items() if key != "config"}
    errors = compare(body, reference["report"])
    if subcommand == "typicality":
        for flag in ("counts_within_bounds", "norms_within_bounds"):
            if report[flag] is not True:
                errors.append(f"{flag} is {report[flag]!r}")
    return errors


def check_report(subcommand: str, text: str, reference: dict, samples: int | None) -> list[str]:
    """Every failed output check of one job's report; empty when it is correct."""
    try:
        report = json.loads(text)
        if subcommand == "ensemble":
            return check_ensemble(report, reference, samples)
        return check_series(subcommand, report, reference)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    except (KeyError, TypeError) as exc:
        return [f"report lacks an expected field: {exc!r}"]
