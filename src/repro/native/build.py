"""Compile-on-demand loader for the native hot-path kernels.

The kernels ship as C source (``kernels.c``) and are compiled to a
shared object on first use with whatever C compiler the host provides.
The build artifact is tagged with a hash of the source so editing the
kernels invalidates stale objects, and the compile is atomic (build to a
temp file, ``os.replace`` into place) so concurrent processes never load
a half-written library.

The kernels draw their random numbers through numpy's own distribution
code: they include numpy's ``bitgen.h`` and link the static
``libnpyrandom.a`` numpy ships, so they advance the simulator's
``Generator`` objects exactly as the Python calls would.  The artifact
tag therefore also hashes the numpy version, the bytes of that library
and the compile flags: a numpy upgrade rebuilds rather than reusing a
library whose distributions may no longer match the Python side.

``kernels.c`` is the single source of truth for the C ABI: it exports a
name→value table (``noc_abi``) of every pointer-table, cfg and ctr slot
and every ``#define`` the Python model restates.  The loader reads that
table once per process and checks the Python constants against it, so
a layout drift fails on the first native load instead of silently
corrupting results.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile

import numpy as np

__all__ = [
    "NativeAbiError", "NativeBuildError", "load_library", "native_available",
]


class NativeBuildError(RuntimeError):
    """The native kernels could not be compiled or loaded."""


class NativeAbiError(NativeBuildError):
    """The Python side disagrees with the ABI ``kernels.c`` exports.

    A bug, not a host limitation: :func:`native_available` re-raises it
    rather than reporting the backend as merely unavailable.
    """


_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "kernels.c")
_BUILD_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_build")

#: numpy's C random API: ``numpy/random/bitgen.h`` under the include
#: dir and ``libnpyrandom.a`` in the lib dir.
_NPY_INCLUDE = np.get_include()
_NPY_LIB_DIR = os.path.join(os.path.dirname(np.random.__file__), "lib")

#: ``-ffp-contract=off`` keeps the compiler from fusing a multiply and
#: an add into one FMA, which would round differently from numpy.
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

_lib = None


def _find_compiler():
    candidates = [os.environ.get("CC"), "cc", "gcc", "clang"]
    for cc in candidates:
        if cc and shutil.which(cc):
            return cc
    return None


def _npyrandom_lib() -> str:
    """Path of ``libnpyrandom.a``, checking ``bitgen.h`` is there too."""
    header = os.path.join(_NPY_INCLUDE, "numpy", "random", "bitgen.h")
    lib = os.path.join(_NPY_LIB_DIR, "libnpyrandom.a")
    missing = [path for path in (header, lib) if not os.path.isfile(path)]
    if missing:
        raise NativeBuildError(
            f"numpy {np.__version__} does not ship its C random API here "
            f"(missing {', '.join(missing)}); use backend='numpy' instead"
        )
    return lib


def _compile(so_path: str) -> None:
    cc = _find_compiler()
    if cc is None:
        raise NativeBuildError(
            "no C compiler found (tried $CC, cc, gcc, clang); "
            "use backend='numpy' instead"
        )
    os.makedirs(_BUILD_DIR, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=_BUILD_DIR, suffix=".so.tmp")
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *_CFLAGS, "-I", _NPY_INCLUDE, "-o", tmp, _SRC,
             "-L", _NPY_LIB_DIR, "-lnpyrandom", "-lm"],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise NativeBuildError(
                f"compiling kernels.c with {cc!r} failed:\n{proc.stderr}"
            )
        os.replace(tmp, so_path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_library():
    """The compiled kernel library, building it on first call.

    Raises :class:`NativeBuildError` when no compiler is available or
    the build fails; the result is cached for the process lifetime.
    """
    global _lib
    if _lib is not None:
        return _lib
    digest = hashlib.sha256()
    for path in (_SRC, _npyrandom_lib()):
        with open(path, "rb") as f:
            digest.update(f.read())
    digest.update(np.__version__.encode())
    digest.update(" ".join(_CFLAGS).encode())
    tag = digest.hexdigest()[:16]
    so_path = os.path.join(_BUILD_DIR, f"kernels-{tag}.so")
    if not os.path.exists(so_path):
        _compile(so_path)
    try:
        lib = ctypes.CDLL(so_path)
    except OSError as exc:  # corrupt artifact: rebuild once
        os.unlink(so_path)
        _compile(so_path)
        try:
            lib = ctypes.CDLL(so_path)
        except OSError as exc2:
            raise NativeBuildError(f"loading {so_path} failed: {exc2}") from exc
    lib.noc_run.argtypes = [
        ctypes.POINTER(ctypes.c_void_p),
        ctypes.POINTER(ctypes.c_longlong),
        ctypes.POINTER(ctypes.c_longlong),
        ctypes.c_longlong,
        ctypes.c_longlong,
    ]
    lib.noc_run.restype = None
    lib.abi = _read_abi(lib)
    _check_python_mirrors(lib.abi)
    _lib = lib
    return lib


def _read_abi(lib) -> dict:
    """The ``{name: value}`` table ``noc_abi`` exports."""
    names = ctypes.POINTER(ctypes.c_char_p)()
    values = ctypes.POINTER(ctypes.c_longlong)()
    lib.noc_abi.argtypes = [
        ctypes.POINTER(type(names)), ctypes.POINTER(type(values)),
    ]
    lib.noc_abi.restype = ctypes.c_longlong
    count = lib.noc_abi(ctypes.byref(names), ctypes.byref(values))
    return {names[i].decode(): values[i] for i in range(count)}


def _check_python_mirrors(abi: dict) -> None:
    """Raise :class:`NativeAbiError` naming every Python constant that
    differs from the ``kernels.c`` value it restates."""
    from repro.native.accel import _ARB_CODES, _LOC_CODES
    from repro.network import engine, flit
    from repro.network.base import NetworkStats
    from repro.network.injection import InjectionThrottleGate

    mirrors = [
        (c_name, f"{owner.__name__}.{attr}", getattr(owner, attr))
        for c_name, owner, attr in (
            ("NODE_MASK", flit, "_NODE_MASK"),
            ("SRC_SHIFT", flit, "_SRC_SHIFT"),
            ("KIND_SHIFT", flit, "_KIND_SHIFT"),
            ("CBIT", flit, "CBIT_MASK"),
            ("SEQ_SHIFT", flit, "_SEQ_SHIFT"),
            ("SEQ_MASK", flit, "_SEQ_MASK"),
            ("HOPS_SHIFT", flit, "_HOPS_SHIFT"),
            ("HOPS_MASK", flit, "_HOPS_MASK"),
            ("HOP_ONE", flit, "HOP_ONE"),
            ("SEQ_RING", flit, "SEQ_RING"),
            ("KIND_REQUEST", flit, "FLIT_REQUEST"),
            ("KIND_REPLY", flit, "FLIT_REPLY"),
            ("HIST_BUCKETS", NetworkStats, "LATENCY_HIST_BUCKETS"),
            ("THROTTLE_MAX", InjectionThrottleGate, "MAX_COUNT"),
            ("KEY_MAX", engine, "_KEY_MAX"),
        )
    ]
    # oldest_first -> ARB_OLDEST, youngest_first -> ARB_YOUNGEST, ...
    mirrors += [
        (f"ARB_{policy.split('_')[0].upper()}",
         f"repro.native.accel._ARB_CODES[{policy!r}]", code)
        for policy, code in _ARB_CODES.items()
    ]
    mirrors += [
        (f"LOC_{locality.upper()}",
         f"repro.native.accel._LOC_CODES[{locality!r}]", code)
        for locality, code in _LOC_CODES.items()
    ]
    drift = [
        f"{py_name} = {int(value)} but kernels.c "
        + (f"defines {c_name} = {abi[c_name]}" if c_name in abi
           else f"exports no {c_name}")
        for c_name, py_name, value in mirrors
        if abi.get(c_name) != int(value)
    ]
    if drift:
        raise NativeAbiError(
            "Python constants drifted from kernels.c: " + "; ".join(drift)
        )


def native_available() -> bool:
    """Whether the compiled backend can be built and loaded here."""
    try:
        load_library()
    except NativeAbiError:
        raise
    except NativeBuildError:
        return False
    return True
