"""The command line: ``python -m latefuse`` and the installed ``latefuse`` command.

BLAS runs on one thread unless the caller set one of the three thread
variables: latefuse's largest BLAS call is 29x1877x29, and a second OpenBLAS
thread adds nothing but its idle spin to the CPU time.  numpy reads the
variables once, when it loads, so they are set before ``cli`` imports it.
"""

import os

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(name in os.environ for name in _BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))

from .cli import main  # noqa: E402  (after the thread variables)

if __name__ == "__main__":
    raise SystemExit(main())
