"""Scoped thread count for every OpenBLAS library the process has loaded.

numpy and scipy wheels each bundle their own OpenBLAS, and both start one
thread per CPU.  A search makes many small BLAS calls — Cholesky factors and
triangular solves of at most a few hundred rows — where the threads cost
more in hand-offs than they save: on a 2-vCPU VM a 157x157 Cholesky took
~6 ms at two threads against 0.41 ms at one.  :func:`blas_threads` sets the
count of every loaded OpenBLAS for the duration of a ``with`` block, through
the libraries' own exported setters (stdlib :mod:`ctypes`, no dependency).
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from typing import Callable, Iterator, List, Tuple

#: Memory map listing the shared libraries the process has loaded.
MAPS_PATH = "/proc/self/maps"

#: (getter, setter) symbol pairs, tried in order: numpy's 64-bit-integer
#: build, scipy's build, then plain OpenBLAS wheels.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

_Control = Tuple[Callable[[], int], Callable[[int], None]]


def _openblas_controls() -> List[_Control]:
    """``(get, set)`` thread-count functions of every loaded OpenBLAS.

    Empty where ``/proc/self/maps`` does not exist (not Linux) or lists no
    OpenBLAS.  A mapping that cannot be opened, such as a ``(deleted)``
    path, is skipped; a library mapped under two paths counts once.
    """
    try:
        # surrogateescape: a path that is not UTF-8 reaches dlopen unchanged
        with open(MAPS_PATH, encoding="utf-8", errors="surrogateescape") as maps:
            paths = sorted(
                {line.split(maxsplit=5)[-1].rstrip() for line in maps if "openblas" in line}
            )
    except OSError:
        return []
    controls: List[_Control] = []
    setters = set()
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            getter = getattr(library, get_name, None)
            setter = getattr(library, set_name, None)
            if getter is None or setter is None:
                continue
            address = ctypes.cast(setter, ctypes.c_void_p).value
            if address not in setters:
                setters.add(address)
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                controls.append((getter, setter))
            break
    return controls


@contextmanager
def blas_threads(count: int) -> Iterator[None]:
    """Run the block with every loaded OpenBLAS set to ``count`` threads.

    The count is process-wide: other threads of the process see it while
    the block runs.  Each library's previous count is restored on exit,
    also when the block raises.  Search results do not depend on the
    count: outcomes are byte-identical at one and two threads
    (``tests/test_utils_blas.py``).  Only OpenBLAS is handled; where none
    is loaded, or ``/proc/self/maps`` does not exist, the block runs
    unchanged.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    controls = _openblas_controls()
    previous = [get() for get, _ in controls]
    for _, set_threads in controls:
        set_threads(count)
    try:
        yield
    finally:
        for (_, set_threads), threads in zip(controls, previous):
            set_threads(threads)
