"""One rep of a workload in a fresh process: set-up, then the timed body.

    python3 perfbench/rep.py <spec.json>

The spec names the workload, size, seed, work directory, result path and a
mode: ``plain`` (nothing wrapped), ``count`` (only the alignment cost sum is
counted) or ``trace`` (every public function is traced). Set-up generates
the inputs. The body is a list of steps; each is timed with
``perf_counter``, and the calibration loop (``calibration.py``) is timed
before the first step and after every step. The result JSON holds the end of
set-up on the system-wide monotonic clock, so the parent can take set-up time
from the moment it spawned this process.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import confmon  # noqa: E402

from calibration import calibrate, scaled  # noqa: E402
from tracer import CostCounter, Tracer  # noqa: E402
from workloads import setup  # noqa: E402


def platform_info() -> dict:
    import numpy

    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__
    blas = _openblas()
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_core": blas.get("core"),
        "blas_threads": blas.get("threads"),
        "cpu_features": sorted(k for k, v in __cpu_features__.items() if v),
    }


def _openblas() -> dict:
    """Kernel name and thread count of the OpenBLAS numpy loaded, if any."""
    import ctypes
    import glob

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", "_64", ""):
            for prefix in ("scipy_openblas", "openblas"):
                core = getattr(lib, f"{prefix}_get_corename{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if core is not None and threads is not None:
                    core.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    return {"core": core().decode(), "threads": threads()}
    return {}


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    workdir = Path(spec["workdir"])
    prepared = setup(spec["workload"], spec["size"], spec["seed"], workdir)

    tracer = counter = None
    if spec["mode"] == "trace":
        tracer = Tracer()
        tracer.install(confmon)
    elif spec["mode"] == "count":
        counter = CostCounter()
        counter.install(confmon)

    setup_end = time.monotonic()
    rounds = [calibrate()]
    wall = wall_ref = 0.0
    ops = []
    for name, step in prepared.steps:
        t0 = time.perf_counter()
        ok = step()
        elapsed = time.perf_counter() - t0
        rounds.append(calibrate())
        wall += elapsed
        wall_ref += scaled(elapsed, (rounds[-2] + rounds[-1]) / 2)
        ops.append((name, ok))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "setup_end": setup_end,
        "wall_s": wall,
        "wall_ref_s": wall_ref,
        "calibration_rounds_s": rounds,
        "peak_rss_mb": peak_kb / 1024.0,
        "traces": prepared.traces,
        "expect": prepared.expect,
        "ops": ops,
        "platform": platform_info(),
    }
    if counter is not None:
        result["cost_sum"] = counter.cost_sum
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["cost_sum"] = result["layers"]["alignment.cost_sum"]
        (workdir / "spans.json").write_text(json.dumps(tracer.dump()), encoding="utf-8")
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
