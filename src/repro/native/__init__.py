"""Compiled hot-path backend (``SimulationConfig.backend = "native"``).

C implementations of the per-cycle simulator phases (behavior, cores,
memory, network, ejection), run a whole segment of cycles per call and
bit-identical to the pure-numpy reference: their random draws go
through numpy's own distribution code on the simulator's own
generators.  The kernels compile on demand from ``kernels.c`` against
numpy's ``libnpyrandom``; hosts without a C compiler (or a numpy
without that library) keep the default numpy backend.
"""

from repro.native.accel import NativeAccel, NativeUnsupported
from repro.native.build import (
    NativeAbiError,
    NativeBuildError,
    load_library,
    native_available,
)

__all__ = [
    "NativeAbiError",
    "NativeAccel",
    "NativeBuildError",
    "NativeUnsupported",
    "load_library",
    "native_available",
]
