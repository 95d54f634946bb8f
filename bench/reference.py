"""Fixed reference work that gauges the host's current speed.

The benchmark's host is a share of a larger machine whose speed drifts by
10-60% in phases that last from seconds to minutes.  A run times this kernel
once after each pass and scales its pass times by
``REF_S / mean(reference times)``, so a slow phase slows the reference and
the passes alike and cancels out.  Set-up samples have their own reference,
a fresh interpreter's ``import numpy`` (``numpy_import_seconds``), because
set-up is mostly imports, which slow down in other phases than numerical
code does.

The kernel does not call noisyqfi, so a change to the program moves the
scaled times in full.  It is a dense Hermitian eigensolve plus streaming
over arrays larger than the per-core caches: on the box the benchmark was
written on, that mix tracked the workloads' slow phases more closely than
pure-Python loops or many small numpy calls, which slow down more.

Run as a script, it serves the run: it builds its inputs once, warms up,
then times one call per line read from standard input and prints the
seconds.  Being its own process keeps its arrays out of the run's peak
memory, and being long-lived keeps first-call and page-fault costs out of
the timings.  It exits at the end of its input.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# Time of one warm call on the 2-core Xeon VM the benchmark was written on
# (Python 3.11, numpy 2.4, OpenBLAS on one thread) in one of its fast
# phases.  It only sets the unit: scaled times read as seconds of that box
# at that speed.
REF_S = 0.37
# Median time of a fresh interpreter's ``import numpy`` on the same box;
# it too only sets the unit.
IMPORT_REF_S = 0.1

NUMPY_IMPORT = ("import time; start = time.perf_counter(); import numpy; "
                "print(repr(time.perf_counter() - start))")


class Kernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        self.dense = dense + dense.conj().T
        self.stream = rng.standard_normal(1 << 20)
        self.out = np.empty_like(self.stream)

    def seconds(self) -> float:
        """Run the kernel once; return its wall time."""
        start = time.perf_counter()
        for _ in range(100):
            np.linalg.eigvalsh(self.dense)
        for _ in range(128):
            np.multiply(self.stream, 1.0001, out=self.out)
            self.out += self.stream
        return time.perf_counter() - start


def numpy_import_seconds(cwd) -> float:
    """Time ``import numpy`` in a fresh interpreter, the set-up samples' reference."""
    proc = subprocess.run([sys.executable, "-c", NUMPY_IMPORT], capture_output=True,
                          text=True, timeout=60, cwd=cwd, check=True)
    return float(proc.stdout)


def serve() -> None:
    kernel = Kernel()
    kernel.seconds()
    for _ in sys.stdin:
        print(repr(kernel.seconds()), flush=True)


if __name__ == "__main__":
    serve()
