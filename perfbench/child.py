"""One measured blochlab call in a fresh interpreter; run by ``run.py``.

    python3 perfbench/child.py setup CONFIG
    python3 perfbench/child.py run CONFIG OUTDIR SUBCOMMAND
    python3 perfbench/child.py trace CONFIG OUTDIR SUBCOMMAND

``setup`` times the import of ``blochlab.cli`` plus config -> scenario and
reports the machine's library versions.  ``run`` times ``blochlab.cli.main``
on one subcommand after the import.  ``trace`` does the same with every public
blochlab function wrapped by ``tracing.Tracer``.  Times are CPU seconds
(user + system) and wall seconds; each mode also reports ``kernel_s``, the
CPU time of a fixed reference kernel run next to the timed call (before and
after a command, averaged, each in a forked process; after the set-up).  The caller puts ``src`` on
``PYTHONPATH``.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def _kernel() -> float:
    """CPU seconds of a fixed reference computation.

    Three parts, one for each way the workloads use the machine: FFTs of a
    cache-sized batch at length 769, FFTs and elementwise products of a 12 MB
    batch, and an interpreter loop.  Run next to a measured call, its time
    tracks the speed the shared machine gives this process at that moment.
    """
    import numpy as np
    from scipy import fft as sfft

    rng = np.random.default_rng(0)
    small = rng.standard_normal((48, 769)) + 1j * rng.standard_normal((48, 769))
    big = rng.standard_normal((1024, 769)) + 1j * rng.standard_normal((1024, 769))
    c0 = time.process_time()
    for _ in range(25):
        small = sfft.ifft(sfft.fft(small, axis=1) * 0.5, axis=1) * 2.0
    for _ in range(2):
        big = sfft.ifft(sfft.fft(big, axis=1) * 0.5, axis=1) * 2.0
        big = big * np.conj(big) + 0.5 * big
    acc = 0
    for i in range(1000000):
        acc += i * i
    return time.process_time() - c0


def _kernel_apart() -> float:
    """``_kernel()`` in a forked process, so that its arrays stay out of this
    process's peak RSS."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.write(write, repr(_kernel()).encode())
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read) as fh:
        text = fh.read()
    os.waitpid(pid, 0)
    return float(text)


def _setup(config: str) -> dict:
    t0, c0 = time.perf_counter(), time.process_time()
    from blochlab.config import load_config
    import blochlab.cli  # noqa: F401  (the import is part of what is timed)

    with open(config) as fh:
        load_config(fh.read()).scenario()
    cpu, wall = time.process_time() - c0, time.perf_counter() - t0
    return {"setup_s": cpu, "setup_wall_s": wall, "kernel_s": _kernel(), **_versions()}


def _command(config: str, outdir: str, subcommand: str, traced: bool) -> dict:
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    import blochlab.cli

    argv = [subcommand, "--config", config, "--out", outdir, "--threads", "1"]
    before = _kernel_apart()
    t0, c0 = time.perf_counter(), time.process_time()
    code = blochlab.cli.main(argv)
    cpu, wall = time.process_time() - c0, time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    kernel = (before + _kernel_apart()) / 2.0
    result = {"exit": code, "cpu_s": cpu, "wall_s": wall, "kernel_s": kernel, "rss_mb": rss_mb}
    if tracer is not None:
        result["trace"] = tracer.report()
    return result


def main(argv) -> int:
    mode = argv[0]
    if mode == "setup":
        result = _setup(argv[1])
    elif mode in ("run", "trace"):
        result = _command(argv[1], argv[2], argv[3], traced=mode == "trace")
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
