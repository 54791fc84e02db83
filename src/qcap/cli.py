"""Command-line front end: channel specs in, experiment reports out.

    qcap <info|bound|ensemble|moments|typicality|rate-demo>
         --channel <file|builtin:name:params> [--code-dim K] [--rate R]
         [--n-min a --n-max b] [--epsilon e] [--samples s] --seed S
         [--format json|csv] [--out path] [--threads T]

One parser serves all six subcommands; options may precede the subcommand.
Every JSON report embeds the fully resolved run configuration, carries no
timestamps, and renders with sorted keys, so identical configurations give
byte-identical output on one numpy/BLAS build, at any BLAS thread count when
numpy carries its bundled OpenBLAS (`linalg.one_blas_thread`).  Exit
codes: 0 success, 2 input error (or a non-finite report number), 3 domain
invariant violation, 4 resource cap exceeded; `main` maps each error's type
to its code in one clause.  A builtin channel spec is only parsed here, by
one registry (`_BUILTINS`) that names each builtin's constructor and the
converters of its parameters, the required ones first and at most one
optional; its constructor in `channels` refuses bad sizes (exit 2) and its
build peak (exit 4) before it allocates.  A channel file is read by
`serialize.load_channel`, which checks the whole Kraus array against the
record's declared shape in one pass.

Sampling is one serial pass for `bound` and `ensemble` alike: each code's
normals come from its own stream, and a chunk of codes takes one batched QR
and one D-kernel call, for both `ensemble` estimates or for every `bound`
column with its state form.  ``--threads`` (>= 1) is accepted, with no
effect: a thread pool over samples never beat the serial loop on a 2-core
host.
"""

from __future__ import annotations

import argparse
import io
import math
import sys

from . import channels as qch
from . import codes, linalg, random_coding as rc, serialize, typicality as tp
from .errors import CapExceededError, FormatError, InvariantViolationError

# stream index reserved for builtin channel construction, clear of sample indices
CHANNEL_STREAM_INDEX = 1 << 48


class _Parser(argparse.ArgumentParser):
    def error(self, message):       # one stderr line, without the multi-line usage block
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="qcap",
                description="channel-coding numerics: bounds, ensembles, typicality demos")
    p.add_argument("subcommand", choices=tuple(_COMMANDS))
    p.add_argument("--channel", required=True,
                   help="channel JSON file or builtin:name:params")
    p.add_argument("--code-dim", type=int, default=None)
    p.add_argument("--rate", type=float, default=None)
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", dest="master_seed", metavar="SEED", type=int, required=True)
    p.add_argument("--format", dest="output_format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; sampling is serial")
    return p


# ------------------------------------------------------------------ channel resolution

def _check_seed(seed: int, what: str) -> int:
    """seed, or a ValueError naming ``what`` when it is outside a stream key's [0, 2^64)."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"{what} must be in [0, 2^64), got {seed}")
    return seed


def _seed_stream(seed: str | int):
    """The construction stream of a SEED parameter, or of ``--seed`` when SEED is omitted."""
    return rc.sample_stream(_check_seed(int(seed), "SEED"), CHANNEL_STREAM_INDEX)


# each builtin's constructor, looked up at each call (so that a constructor wrapped after
# import, as the benchmark's tracer wraps it, is the one called), and its parameters'
# converters: the required ones, then the one optional one (None for none); a missing SEED is
# --seed, a missing DIM the constructor's default
_BUILTINS = {
    "identity": (lambda *a: qch.identity_channel(*a), (int,), None),
    "phase_flip": (lambda *a: qch.phase_flip(*a), (float,), None),
    "depolarizing": (lambda *a: qch.depolarizing(*a), (float,), int),
    "haar_random": (lambda *a: qch.haar_random_channel(*a), (int, int, int), _seed_stream),
    "random_unitary": (lambda *a: qch.random_unitary_channel(*a), (int, int), _seed_stream),
}


def _parse_builtin(spec: str, master_seed: int) -> qch.KrausChannel:
    parts = spec.split(":")
    if len(parts) != 3:
        raise FormatError("builtin channel spec must look like builtin:name:params")
    _, name, raw = parts
    if name not in _BUILTINS:
        raise FormatError(f"unknown builtin channel {name!r}")
    build, required, optional = _BUILTINS[name]
    params = raw.split(",")
    most = len(required) + (optional is not None)
    if optional is _seed_stream and len(params) == len(required):
        params.append(master_seed)
    try:
        if not len(required) <= len(params) <= most:
            raise ValueError(f"got {len(params)} parameters, expected {len(required)}"
                             + (f" to {most}" if optional else ""))
        return build(*(convert(p) for convert, p in zip((*required, optional), params)))
    except (InvariantViolationError, FormatError):
        raise
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad parameters for builtin channel {name!r}: {exc}") from exc


def resolve_channel(args: argparse.Namespace) -> qch.KrausChannel:
    if args.channel.startswith("builtin:"):
        return _parse_builtin(args.channel, args.master_seed)
    return serialize.load_channel(args.channel)


def _config_record(args: argparse.Namespace) -> dict:
    """Embedded experiment description: everything that determines the numbers.

    Execution knobs that cannot change any result (thread count, output
    destination) are excluded, so runs differing only in those are
    byte-comparable.
    """
    record = dict(vars(args))
    del record["threads"], record["out"]
    return record


def _require(args: argparse.Namespace, **fields) -> None:
    for attr, flag in fields.items():
        if getattr(args, attr) is None:
            raise ValueError(f"{args.subcommand} requires {flag}")


def _epsilon(args: argparse.Namespace) -> float:
    _require(args, epsilon="--epsilon")
    if not 0.0 < args.epsilon < math.inf:
        raise ValueError("--epsilon must be positive and finite")
    return args.epsilon


def _n_range(args: argparse.Namespace) -> range:
    _require(args, n_min="--n-min", n_max="--n-max")
    if args.n_min < 1 or args.n_max < args.n_min:
        raise ValueError("need 1 <= n-min <= n-max")
    return range(args.n_min, args.n_max + 1)


# ------------------------------------------------------------------ subcommands

# a command's record, without its config, and its CSV header and rows
_Report = tuple[dict, list[str], list[list]]


def cmd_info(args: argparse.Namespace, ch: qch.KrausChannel) -> _Report:
    report = qch.classify(ch)
    record = {"channel_name": ch.name, "input_dim": ch.input_dim, "output_dim": ch.output_dim,
              "report": report}
    return record, list(report._fields), [list(report)]


def cmd_bound(args: argparse.Namespace, ch: qch.KrausChannel) -> _Report:
    _require(args, code_dim="--code-dim")
    if not 1 <= args.code_dim <= ch.input_dim:
        raise ValueError("need 1 <= code_dim <= input_dim")
    samples = args.samples if args.samples is not None else 1
    # each report's dict, row and rendering (measured 138-148 entries as JSON, 45-51 as CSV)
    linalg.check_entries(192 * samples, f"keeping {samples} bound reports")
    values = rc.bound_values(ch, args.code_dim, samples, args.master_seed)
    header = ["sample", *codes.BOUND_COLUMNS]
    rows = [[i, *row] for i, row in enumerate(values.tolist())]
    record = {"reports": [dict(zip(header, r)) for r in rows]}
    return record, header, rows


def cmd_ensemble(args: argparse.Namespace, ch: qch.KrausChannel) -> _Report:
    _require(args, code_dim="--code-dim", samples="--samples")
    k, n, seed = args.code_dim, args.samples, args.master_seed
    d2_mc, bound_mc = rc.mc_code_values(ch, k, n, seed)
    closed = rc.closed_forms(ch, k)
    d2_exact, bound_analytic = closed.deviation_sq, closed.fidelity_bound
    d2_pass = abs(d2_mc.mean - d2_exact) <= max(4.0 * d2_mc.std_error, 1e-12)
    bound_pass = bound_mc.mean >= bound_analytic - 4.0 * bound_mc.std_error
    record = {
        "deviation_sq": {"estimate": d2_mc, "closed_form": d2_exact,
                         "upper_bound": closed.upper_bound, "pass": d2_pass},
        "fidelity_bound": {"estimate": bound_mc, "closed_form": bound_analytic,
                           "pass": bound_pass},
    }
    header = ["quantity", "mean", "std_error", "sample_count", "reference", "pass"]
    rows = [
        ["deviation_sq", d2_mc.mean, d2_mc.std_error, d2_mc.sample_count, d2_exact, d2_pass],
        ["fidelity_bound", bound_mc.mean, bound_mc.std_error, bound_mc.sample_count,
         bound_analytic, bound_pass],
    ]
    return record, header, rows


def cmd_moments(args: argparse.Namespace, ch: qch.KrausChannel) -> _Report:
    _require(args, samples="--samples")
    report = rc.haar_moment_suite(ch.input_dim, args.samples, args.master_seed)
    record = {"report": report, "all_pass": report.all_pass}
    return record, list(rc.MomentCheck._fields), [list(c) for c in report.checks]


def cmd_typicality(args: argparse.Namespace, ch: qch.KrausChannel) -> _Report:
    eps = _epsilon(args)
    ns = _n_range(args)
    verification = tp.verify_reduction_bounds(ch, ns, eps)
    # The sequence_* keys repeat the reduced reports' typical-class counts
    # under their own names; they stay so that the report keeps its keys.
    entropy = verification.info.entropy_exchange
    reports = verification.reports
    record = {
        "kraus_weights": verification.weights,
        "sequence_reports": [{"typical_count": r.length, "count_bound": r.length_bound,
                              "mass": r.typical_transmission, "entropy": entropy}
                             for r in reports],
        "sequence_decay": verification.typical_decay,
        "channel_reports": reports,
        "counts_within_bounds": verification.counts_within_bounds,
        "norms_within_bounds": verification.norms_within_bounds,
        "typical_decay": verification.typical_decay,
        "reduced_decay": verification.reduced_decay,
    }
    header = ["n", "length", "length_bound", "typical_transmission", "transmission",
              "frobenius_sq", "frobenius_bound"]
    rows = [[r.n, r.length, r.length_bound, r.typical_transmission,
             r.transmission, r.frobenius_sq, r.frobenius_bound] for r in reports]
    return record, header, rows


def cmd_rate_demo(args: argparse.Namespace, ch: qch.KrausChannel) -> _Report:
    _require(args, rate="--rate")
    eps = _epsilon(args)
    ns = _n_range(args)
    table = tp.achievable_rate_table(ch, args.rate, eps, ns)
    record = {
        "coherent_information": table.info.coherent_information,
        "geometric_decay_expected": table.geometric_decay_expected,
        "rows": table.rows,
    }
    if table.info.is_unital:
        record["unital_curve"] = rc.hamming_rate_curve(table.info, ch.output_dim, args.rate, ns)
    header = ["n", "K_n", "reduced_length", "transmission", "penalty", "bound"]
    rows = [[r.n, r.code_dim, r.reduced_length, r.transmission, r.penalty, r.bound]
            for r in table.rows]
    return record, header, rows


_COMMANDS = {
    "info": cmd_info,
    "bound": cmd_bound,
    "ensemble": cmd_ensemble,
    "moments": cmd_moments,
    "typicality": cmd_typicality,
    "rate-demo": cmd_rate_demo,
}


# ------------------------------------------------------------------ rendering

def render_csv(header: list[str], rows: list[list]) -> str:
    import csv      # here, its one user, so that JSON runs do not load it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        # other cells go to the writer as they are: it writes None as an empty cell
        writer.writerow([serialize.csv_number(x, name) if isinstance(x, (int, float, bool))
                         else x for name, x in zip(header, row)])
    return buf.getvalue()


def run(args: argparse.Namespace) -> str:
    """The command's rendered report: its channel resolved first, its config record added last."""
    record, header, rows = _COMMANDS[args.subcommand](args, resolve_channel(args))
    record["config"] = _config_record(args)
    if args.output_format == "csv":
        return render_csv(header, rows)
    return serialize.canonical_json(record)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_seed(args.master_seed, "--seed")
        if args.threads < 1:
            raise ValueError("--threads must be >= 1")
        text = run(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (CapExceededError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # FormatError and InvariantViolationError are ValueErrors: the latter is matched first
        return (4 if isinstance(exc, CapExceededError)
                else 3 if isinstance(exc, InvariantViolationError) else 2)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
