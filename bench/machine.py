"""The machine a run measures on: its stamp and its current speed.

On a shared host the speed of a core drifts by tens of percent over minutes.
The benchmark times a fixed reference loop, which uses no gainlab code,
around every timed step and rescales the step's time to the speed at which
the loop takes ``REFERENCE_SECONDS``. A change to gainlab moves the step's
time and not the loop's, so it shows in full; a slower host moves both.
"""

import os
import platform
import time

import numpy as np

# Iterations of the reference loop, and its time on the 2-core Xeon the
# benchmark was calibrated on, with one BLAS thread and the host quiet.
REFERENCE_REPS = 6000
REFERENCE_SECONDS = 0.12


def reference_seconds() -> float:
    """Time one pass of the reference loop: small SPD factorizations and
    products driven from Python, the same mix of work as a gainlab trial."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4))
    eye = np.eye(4)
    spd = a @ a.T + 4.0 * eye
    h = rng.standard_normal((3, 4))
    acc = 0.0
    start = time.perf_counter()
    for i in range(REFERENCE_REPS):
        m = spd + (i % 7) * 0.01 * eye
        factor = np.linalg.cholesky(m)
        if not np.all(np.isfinite(factor)):
            raise ArithmeticError("reference loop produced a non-finite factor")
        acc += 2.0 * float(np.sum(np.log(np.diag(factor))))
        acc += float(np.trace(h @ m @ h.T))
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise ArithmeticError("reference loop produced a non-finite sum")
    return elapsed


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """Rescale a time measured between two reference-loop timings."""
    return seconds * REFERENCE_SECONDS / ((before + after) / 2.0)


def stamp(pinned_vars) -> dict:
    """nproc, CPU model, Python/numpy/scipy versions, BLAS and thread pins."""
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads_env": {var: os.environ.get(var) for var in pinned_vars},
    }
