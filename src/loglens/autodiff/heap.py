"""Keep op arrays on the malloc heap.

glibc serves every block above its mmap threshold (128 KiB at first, raised
only after such a block is freed) from a fresh mapping, so a large op output
or gradient is page-faulted in when written and unmapped when freed, once per
op per batch. Raising the threshold keeps those blocks on the heap, where
freed memory is reused; raising the trim threshold too stops ``free`` from
handing the top of the heap back to the kernel after every batch. Both are
needed: setting either one switches off glibc's dynamic threshold, and either
alone fits slower than the default.

The setting is process-wide and made once, on import. Where the C library
has no ``mallopt`` (not glibc), nothing is changed.
"""

from __future__ import annotations

import ctypes

# mallopt parameter numbers, from glibc's <malloc.h>
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

MMAP_THRESHOLD_BYTES = 32 * 1024 * 1024   # the largest glibc accepts on 64-bit
TRIM_THRESHOLD_BYTES = 128 * 1024 * 1024


def _set_thresholds() -> tuple[int, int] | None:
    """``mallopt``'s return values (1 on success) for the mmap and the trim
    threshold, or None where there is no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES),
            mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES))


MALLOPT_RESULTS = _set_thresholds()
