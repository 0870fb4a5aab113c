"""Print the OpenBLAS kernel ("core") that numpy runs, as `OpenBLAS core: <name>`.

The kernel sets whether a row of a matrix product has the same bits at any
row count: true on SkylakeX, not on Haswell (ROADMAP item 15).  numpy's
wheels bundle a DYNAMIC_ARCH OpenBLAS that picks its kernel from the CPU,
and `OPENBLAS_CORETYPE=Haswell` (or another core name) picks one for a
single process.  The name is read through ctypes from the library under
`numpy.libs`; where it cannot be read the script prints `unknown`.  It
always exits 0.

    python tools/blas_core.py
"""

import ctypes
import pathlib
import sys


def core_name() -> str:
    import numpy

    libs = pathlib.Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


if __name__ == "__main__":
    try:
        name = core_name()
    except Exception as exc:  # a probe reports what it could not read, and never fails
        print(f"blas_core: {exc!r}", file=sys.stderr)
        name = "unknown"
    print(f"OpenBLAS core: {name}")
