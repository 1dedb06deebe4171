"""The engine keeps large op arrays on the malloc heap (``loglens.autodiff.heap``)."""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from loglens.autodiff import heap

try:
    ctypes.CDLL(None).mallopt
    HAS_MALLOPT = True
except (AttributeError, OSError, TypeError):
    HAS_MALLOPT = False

# Eight live 2 MiB arrays at a time, as an op's outputs and gradients are:
# glibc's default threshold serves each from a fresh mapping, so every round
# faults all their pages in again (about 200k minor faults in all); on the
# heap the pages are reused (a few thousand). One array at a time would not
# show it: after the first free, glibc's dynamic threshold keeps it on the
# heap anyway.
PROBE = """
import json, resource, sys
import numpy as np
import loglens.autodiff
from loglens.autodiff import heap
start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    arrays = [np.ones(2 * 1024 * 1024 // 8) for _ in range(8)]
    del arrays
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start
print(json.dumps({"faults": faults, "mallopt": heap.MALLOPT_RESULTS}))
"""


@pytest.mark.skipif(not HAS_MALLOPT, reason="the C library has no mallopt (not glibc)")
def test_large_arrays_reuse_heap_pages():
    src = str(Path(heap.__file__).parents[2])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    for name in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"):
        env.pop(name, None)
    run = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, check=True)
    result = json.loads(run.stdout)
    assert result["mallopt"] == [1, 1]
    assert result["faults"] < 20_000

