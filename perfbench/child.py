"""One benchmark job in a fresh interpreter: time ``import qcap.cli``, then ``cli.main``.

    python3 child.py job SPANS_PATH|- JOB_ID QCAP_ARGS...
    python3 child.py provenance

`job` prints one JSON line with the exit code, the import time (setup_s),
the wall time of ``qcap.cli.main(QCAP_ARGS)`` (job_s), the process's peak
RSS and the file qcap was imported from.  With a SPANS_PATH the job runs
under `tracer.Tracer` and its spans are written there after main returns.
`provenance` prints the interpreter, numpy and BLAS versions and the BLAS
thread count.  The parent puts qcap's ``src`` directory on PYTHONPATH.
"""

import ctypes
import json
import platform
import resource
import sys
import time


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance() -> dict:
    import numpy as np

    import qcap.cli

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_version = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_version, "blas_threads": _blas_threads(),
            "qcap_file": qcap.cli.__file__}


def job(spans_path: str, job_id: int, argv: list[str]) -> int:
    start = time.perf_counter()
    import qcap.cli
    setup_s = time.perf_counter() - start

    tracer = None
    if spans_path != "-":
        from tracer import Tracer

        tracer = Tracer(job_id)
        tracer.install()
    start = time.perf_counter()
    try:
        code = qcap.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    job_s = time.perf_counter() - start
    if tracer is not None:
        tracer.dump(spans_path)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"exit": code, "setup_s": setup_s, "job_s": job_s,
                      "peak_rss_mib": peak_kib / 1024.0, "qcap_file": qcap.cli.__file__}))
    return code


if __name__ == "__main__":
    if sys.argv[1:2] == ["provenance"]:
        print(json.dumps(provenance()))
        raise SystemExit(0)
    if sys.argv[1:2] != ["job"] or len(sys.argv) < 4:
        raise SystemExit(__doc__)
    raise SystemExit(job(sys.argv[2], int(sys.argv[3]), sys.argv[4:]))
