"""The command line: ``python -m latefuse`` and the installed ``latefuse`` command.

Two settings hold for its own process, made before ``cli`` imports numpy.
BLAS runs on one thread unless the caller set one of the three thread
variables: latefuse's largest BLAS call is 29x1877x29, and a second OpenBLAS
thread adds nothing but its idle spin to the CPU time.  And OpenSSL stays
unloaded: the first ``default_rng`` imports ``secrets`` -> ``hmac`` ->
``_hashlib``, which maps 3.4 MB of libcrypto that latefuse, hashing nothing,
never uses.  Without ``_hashlib``, ``hashlib`` falls back to CPython's builtin
hash modules, and logs an error for each algorithm they lack, so it is
blocked only where they cover all of hashlib's always-supported ones.
"""

import importlib.util
import os
import sys

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(name in os.environ for name in _BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))

_SHA2 = ("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512")
if all(importlib.util.find_spec(name) for name in ("_md5", "_sha1", "_sha3", "_blake2", *_SHA2)):
    sys.modules.setdefault("_hashlib", None)

from .cli import main  # noqa: E402  (after the thread variables and _hashlib)

if __name__ == "__main__":
    raise SystemExit(main())
