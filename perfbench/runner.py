"""One repetition of a workload, run in a fresh interpreter.

Usage: python3 perfbench/runner.py SPEC.json

The spec names the workload, size, seed, work directory, the stages to
run and whether to trace.  Set-up (interpreter start, imports and
input generation) is timed from the parent's monotonic spawn time to
the start of the first stage.  Each stage is the real ``mwgp`` CLI
entry point called in this process, so CPU time (self and pool
children) and peak RSS belong to the process that ran the stages.
The result is written as JSON to the path the spec gives.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import resource
import sys
import time


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    import numpy as np
    import scipy
    import mwgp.cli
    import workloads

    plan = workloads.generate(spec["workload"], spec["size"], spec["seed"],
                              spec["work"])
    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.install()
    result = {
        "plan": plan,
        "profiles_sha256": file_sha256(plan["profiles"]),
        "stage_s": {},
        "stage_rc": {},
        "env": {"python": sys.version.split()[0], "numpy": np.__version__,
                "scipy": scipy.__version__, "mwgp": mwgp.cli.__version__,
                "mwgp_path": os.path.dirname(mwgp.cli.__file__),
                "blas_threads": blas_threads()},
    }
    setup_end = time.monotonic()
    result["setup_s"] = setup_end - spec["t_spawn"]
    cpu0 = cpu_seconds()
    for name, argv in plan["stages"]:
        if name not in spec["stages"]:
            continue
        argv = [spec["workers"] if a == "NPROC" else a for a in argv]
        if name in spec["out"]:
            argv[argv.index("--out") + 1] = os.path.join(spec["work"],
                                                         spec["out"][name])
        rec = tracer.open(f"stage.{name}") if tracer else None
        start = time.perf_counter()
        try:
            rc = mwgp.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        result["stage_s"][name] = time.perf_counter() - start
        if rec:
            tracer.close(rec)
        result["stage_rc"][name] = rc
        if rc != 0:
            break
    result["cpu_s"] = cpu_seconds() - cpu0
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        result["trace"] = tracer.summary()
        tracer.write_spans(os.path.join(spec["work"], "spans.jsonl"))
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
