"""One repetition of a benchmark workload, in a fresh process.

    python3 bench/child.py ROOT RESULT WORKLOAD SEED TRACE TINY OUTDIR
    python3 bench/child.py ROOT RESULT --setup-only

run.py starts this script and owns its arguments.  The first thing it does
is import berezin from ROOT/src and take the time, so that the parent can
measure set-up from just before it started the process.  It then runs the
workload's steps, with the layers wrapped by the tracer when TRACE is 1,
and writes RESULT as JSON.  The parent checks the artifacts in OUTDIR.
"""

import sys
import time

sys.path.insert(0, sys.argv[1] + "/src")
import berezin.cli  # noqa: E402

SETUP_END = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _blas() -> dict:
    """Runtime OpenBLAS configuration and thread count, where numpy has one."""
    import ctypes

    import numpy as np

    info = {"numpy": np.__version__, "blas": None, "blas_threads": None}
    libs = sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*"))
    if libs:
        lib = ctypes.CDLL(str(libs[0]))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.argtypes, config.restype = [], ctypes.c_char_p
                threads.argtypes, threads.restype = [], ctypes.c_int
                info["blas"] = config().decode()
                info["blas_threads"] = threads()
                break
    return info


def _run_step(step, outdir: Path) -> dict:
    """Run one operation; exceptions are recorded, never raised."""
    try:
        if step.call is None:
            code = berezin.cli.main(list(step.argv) + ["--out", str(outdir / f"{step.name}.csv")])
            return {"name": step.name, "exit": code}
        payload = step.call()
        (outdir / f"{step.name}.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return {"name": step.name, "exit": 0}
    except Exception:
        return {"name": step.name, "exit": None, "error": traceback.format_exc()}


def main(argv: list) -> int:
    result_path = Path(argv[1])
    if argv[2] == "--setup-only":
        result_path.write_text(json.dumps({"setup_end": SETUP_END}))
        return 0
    workload, seed, trace, tiny, outdir = argv[2], int(argv[3]), argv[4] == "1", argv[5] == "1", Path(argv[6])
    import workloads
    from tracer import Tracer

    tracer = Tracer()
    if trace:
        tracer.install()
    steps = workloads.steps(workload, seed, tiny)
    outdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    outcomes = [_run_step(step, outdir) for step in steps]
    wall = time.perf_counter() - start
    result = {
        "setup_end": SETUP_END, "wall_s": wall, "steps": outcomes,
        "berezin": str(Path(berezin.__file__).resolve()),
        "env": {"python": platform.python_version(), "nproc": os.cpu_count(), **_blas()},
    }
    if trace:
        result["layers"] = tracer.metrics()
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
