"""Pin every loaded OpenBLAS to one thread for the duration of a block.

numpy and scipy each ship their own OpenBLAS (numpy's with 64-bit
integers), so both are found by scanning the libraries mapped into the
process and called through ctypes. Where no OpenBLAS can be found (a
different BLAS, or no /proc/self/maps), the pin does nothing.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager

# scipy-openblas builds prefix and, with 64-bit ints, suffix the symbols.
_SYMBOL_FORMS = ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}")


def _symbol(lib, stem: str):
    return next((getattr(lib, f.format(stem)) for f in _SYMBOL_FORMS
                 if hasattr(lib, f.format(stem))), None)


def openblas_thread_controls() -> list:
    """(get_num_threads, set_num_threads) of every OpenBLAS in this process."""
    try:
        with open("/proc/self/maps") as handle:
            paths = sorted({line.split(maxsplit=5)[5].rstrip("\n")  # a path may hold spaces
                            for line in handle if "openblas" in line.lower()})
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        get, set_ = _symbol(lib, "get_num_threads"), _symbol(lib, "set_num_threads")
        if get is None or set_ is None:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        controls.append((get, set_))
    return controls


@contextmanager
def single_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread.

    Yields 1, or None when no OpenBLAS was found to pin. The setting is
    process-global while the block runs; the previous counts come back
    on exit, also when the block raises.
    """
    controls = openblas_thread_controls()
    previous = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield 1 if controls else None
    finally:
        for (_, set_), count in zip(controls, previous):
            set_(count)
