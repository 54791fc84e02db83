"""Outside-in spans around qcap's public functions, for the traced benchmark run.

`Tracer.install` replaces every public function of the traced modules with a
wrapper that records one span per call: job id, span id, parent span id,
name, start and end (``time.perf_counter``).  A name that a module imported
from another one (``from .channels import kraus_stack``) is replaced in every
qcap namespace that holds it, so calls through any import path are seen.
Spans stay in memory and are written once, by `Tracer.dump`, when the job
ends.  `layer_metrics` turns the dumps of a run's traced jobs into the
per-layer metrics listed in `PER_LAYER`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import Counter, defaultdict
from statistics import median

TRACED_MODULES = ("cli", "random_coding", "linalg", "codes", "channels", "typicality",
                  "serialize")

# The compressed-Gram kernel: codes._compressed_gram_blocks runs inside each of these.
KERNEL_SPANS = ("codes.deviation_frobenius_sq", "codes.fidelity_bound_kraus")

# (name, unit, better) of every per-layer metric the traced run reports.
PER_LAYER = (
    ("random_coding.sample_stream.calls", "count", "lower"),
    ("random_coding.sample_stream.self_s", "s", "lower"),
    ("linalg.haar_isometry.calls", "count", "lower"),
    ("linalg.haar_isometry.self_s", "s", "lower"),
    ("random_coding.mc_deviation_sq.self_s", "s", "lower"),
    ("random_coding.mc_average_bound.self_s", "s", "lower"),
    ("random_coding.codes_per_sample", "ratio", "lower"),
    ("codes.deviation_frobenius_sq.calls", "count", "lower"),
    ("codes.deviation_frobenius_sq.self_s", "s", "lower"),
    ("codes.fidelity_bound_kraus.calls", "count", "lower"),
    ("codes.fidelity_bound_kraus.self_s", "s", "lower"),
    # Computed from operand shapes (gram_flops), divided by the kernels' self time.
    ("codes.kernel.gflop_per_s", "GFLOP/s", "higher"),
    ("channels.kraus_stack.calls", "count", "lower"),
    ("channels.kraus_stack.self_s", "s", "lower"),
    ("cli.resolve_channel.self_s", "s", "lower"),
    ("linalg.haar_unitary.calls", "count", "lower"),
    ("linalg.haar_unitary.self_s", "s", "lower"),
    ("random_coding.exact_average_deviation_sq.self_s", "s", "lower"),
    ("random_coding.averaged_fidelity_bound.self_s", "s", "lower"),
    ("channels.minimal_kraus.calls", "count", "lower"),
    ("typicality.kraus_distribution.calls", "count", "lower"),
    ("typicality.reduced_channel_report.calls", "count", "lower"),
    ("typicality.reduced_channel_report.self_s", "s", "lower"),
    ("typicality.typical_subspace.self_s", "s", "lower"),
    ("typicality.typical_sequences.self_s", "s", "lower"),
    ("typicality.sequences_enumerated", "count", "lower"),
    # Computed: sum over n of length * M'^n (diagonal branch) or M'^(2n) (dense).
    ("typicality.kron_entries", "count", "lower"),
    ("serialize.canonical_json.self_s", "s", "lower"),
    ("serialize.report_bytes", "B", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def gram_flops(code, ch) -> int:
    """Computed real flops of one compressed-Gram contraction.

    ``A_i B`` costs N*out*M*K complex multiply-adds and the Gram blocks
    ``(A_i B)^dagger (A_j B)`` cost N^2*K^2*out more; each is 8 real flops.
    """
    n, out, m, k = len(ch), ch.output_dim, ch.input_dim, code.code_dim
    return 8 * (n * out * m * k + n * n * k * k * out)


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


class Tracer:
    """Span recorder for one job; install it after ``import qcap.cli``."""

    def __init__(self, job_id: int):
        self.job_id = job_id
        self.spans: list[tuple] = []
        self.kernel_flops = 0
        self.reduced_reports: list[tuple[int, int, int]] = []  # (n, length, M')
        self._stack: list[int] = []
        self._next_id = 0

    def install(self) -> None:
        hooks = {name: self._count_kernel for name in KERNEL_SPANS}
        hooks["typicality.reduced_channel_report"] = self._count_reduced
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"qcap.{short}"]
            for name, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    span = f"{short}.{name}"
                    wrappers[obj] = self._wrap(span, obj, hooks.get(span))
        for modname, module in list(sys.modules.items()):
            if modname != "qcap" and not modname.startswith("qcap."):
                continue
            for name, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(module, name, wrappers[obj])

    def _wrap(self, name, fn, hook):
        spans, stack, clock, job = self.spans, self._stack, time.perf_counter, self.job_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((job, span_id, parent, name, start, end))
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # Hooks run after the span closes; they read arguments as qcap passes them.
    def _count_kernel(self, args, kwargs, _result) -> None:
        self.kernel_flops += gram_flops(_arg(args, kwargs, 0, "code"), _arg(args, kwargs, 1, "ch"))

    def _count_reduced(self, args, kwargs, result) -> None:
        ch = _arg(args, kwargs, 0, "ch")
        self.reduced_reports.append((result.n, result.length, ch.output_dim))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"job": self.job_id, "spans": self.spans,
                       "kernel_flops": self.kernel_flops,
                       "reduced_reports": self.reduced_reports}, fh)


def job_profile(dump: dict) -> tuple[Counter, dict]:
    """Call counts and self times by span name for one job's dump.

    Self time is a span's duration minus the durations of its direct
    children; calls nest strictly within one thread, so children never
    overlap.
    """
    covered = defaultdict(float)
    for _, _, parent, _, start, end in dump["spans"]:
        if parent is not None:
            covered[parent] += end - start
    calls, self_s = Counter(), defaultdict(float)
    for _, span_id, _, name, start, end in dump["spans"]:
        calls[name] += 1
        self_s[name] += end - start - covered[span_id]
    return calls, self_s


def layer_metrics(dumps: list[dict], *, samples: int, branch: str | None,
                  report_bytes: float, overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics of a run from its traced jobs, which share one configuration.

    Counts are per job; self times are the median over jobs of each job's
    total self time in that function.  `samples` is the requested sample
    count per job (0 when the job samples nothing) and `branch` the
    reduced-channel branch the workload takes ("diagonal" or "dense").
    """
    profiles = [job_profile(d) for d in dumps]
    jobs = len(profiles)
    kernel_s = sum(p[1][name] for p in profiles for name in KERNEL_SPANS)
    kernel_flops = sum(d["kernel_flops"] for d in dumps)
    kron_power = 2 if branch == "dense" else 1
    derived = {
        "random_coding.codes_per_sample":
            sum(p[0]["random_coding.sample_code"] for p in profiles) / (jobs * samples)
            if samples else 0.0,
        "codes.kernel.gflop_per_s": kernel_flops / kernel_s / 1e9 if kernel_s else 0.0,
        "typicality.sequences_enumerated":
            sum(length for d in dumps for _, length, _ in d["reduced_reports"]) / jobs,
        "typicality.kron_entries":
            sum(length * dim ** (kron_power * n)
                for d in dumps for n, length, dim in d["reduced_reports"]) / jobs,
        "serialize.report_bytes": report_bytes,
        "trace.overhead_frac": overhead_frac,
    }
    metrics = {}
    for name, _, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if name in derived:
            metrics[name] = derived[name]
        elif field == "calls":
            metrics[name] = sum(p[0][span] for p in profiles) / jobs
        else:
            metrics[name] = median(p[1][span] for p in profiles)
    return metrics
