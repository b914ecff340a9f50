"""Fresh-interpreter entry points used by perfbench/run.py.

    python3 child.py probe
        print the machine fingerprint as one JSON line
    python3 child.py setup CONFIG
        import steinunlearn.cli, load CONFIG, print time.monotonic()
    python3 child.py experiment CONFIG RESULT_JSON [TRACE_DIR]
        time `steinunlearn experiment --config CONFIG` and write its wall
        time and exit code to RESULT_JSON; with TRACE_DIR, wrap the layers
        first and write the spans there after the run

The parent sets PYTHONPATH to the checkout's src/ and pins BLAS to one
thread; this file only reads what it is given.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

PROBE_SECONDS = 1.0
PROBE_SIZE = 160
PROBE_MATMULS = 100
BURST_FACTOR = 1.5


def probe() -> dict:
    """Versions, BLAS and CPU details, plus the floor of a fixed numpy loop.

    The loop times blocks of PROBE_MATMULS matrix products for
    PROBE_SECONDS; the floor is the 10th percentile of the block times and
    the burst share is the fraction of blocks slower than BURST_FACTOR times
    the floor.
    """
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    a = np.random.default_rng(0).standard_normal((PROBE_SIZE, PROBE_SIZE))
    blocks = []
    deadline = time.perf_counter() + PROBE_SECONDS
    while time.perf_counter() < deadline:
        t0 = time.perf_counter()
        for _ in range(PROBE_MATMULS):
            a @ a
        blocks.append(time.perf_counter() - t0)
    blocks.sort()
    floor = blocks[len(blocks) // 10]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(np),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "loop_floor_ms": round(floor * 1e3, 4),
        "loop_median_ms": round(blocks[len(blocks) // 2] * 1e3, 4),
        "loop_burst_share": round(sum(b > BURST_FACTOR * floor for b in blocks) / len(blocks), 4),
        "loop_blocks": len(blocks),
    }


def _blas_threads(np) -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it can be asked."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def setup(config_path: str) -> None:
    import steinunlearn.cli  # noqa: F401  (the import is what is timed)
    from steinunlearn.config import load_config

    load_config(config_path)
    print(repr(time.monotonic()))


def experiment(config_path: str, result_path: str, trace_dir: str | None) -> int:
    from steinunlearn import cli

    tracer = None
    if trace_dir is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    rc = cli.main(["experiment", "--config", config_path])
    experiment_s = time.perf_counter() - t0
    Path(result_path).write_text(json.dumps({"rc": rc, "experiment_s": experiment_s}))
    if tracer is not None:
        tracer.write(Path(trace_dir))
    return rc


def main(argv: list[str]) -> int:
    mode = argv[0] if argv else ""
    if mode == "probe" and len(argv) == 1:
        print(json.dumps(probe(), sort_keys=True))
        return 0
    if mode == "setup" and len(argv) == 2:
        setup(argv[1])
        return 0
    if mode == "experiment" and len(argv) in (3, 4):
        return experiment(argv[1], argv[2], argv[3] if len(argv) == 4 else None)
    print(__doc__, file=sys.stderr)
    return 64


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
