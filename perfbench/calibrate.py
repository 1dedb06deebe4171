"""A reference kernel that measures how fast the host runs right now.

On a shared host the speed one process gets swings between a fast and a slow
state (here by a factor of up to 1.7) as neighbours come and go on the same
physical cores, and the share of time spent in each state drifts over minutes.
A median of raw pass times follows that share, so it differs from run to run
by tens of percent. The benchmark therefore times this kernel right before
and right after every timed step and scales the step's wall time by
``REFERENCE_S / kernel time``: what the step would take on the host when the
kernel takes ``REFERENCE_S``.

The kernel is fixed code that imports nothing from loglens, so a change to
the program does not move it. It mixes the kinds of work the program does:
an LSTM layer's forward pass written out in numpy (float64, batch 128, hidden
64, 10 steps: interpreter overhead around many small array operations, as in
``loglens.autodiff``); regex matching, token masking, dictionary counting and
timestamp parsing over log lines; and building, sorting and serialising a
few thousand small records (as in ``loglens.ingest`` and
``loglens.sequencing``). The record part matters: its working set is larger,
and a host in its slow state slows it more, as it slows the program.

Measured on a two-vCPU Intel Xeon virtual machine, six to eight runs of 25
seconds per workload, the spread (quartile distance over median) of the
median pass across runs was, raw / scaled by the kernel without the record
part / scaled by this kernel: ``train`` 0.084 / 0.073 / 0.053, ``detect``
0.20 / 0.056 / 0.031, ``ingest`` 0.11 / 0.079 / 0.052. The fastest raw pass of
a run spread more than the median raw pass (0.20 and 0.29 on ``train`` and
``ingest``).
"""

from __future__ import annotations

import json
import re
import time

import numpy as np

# kernel seconds when that host ran at its fast state: the scale of every
# reported time
REFERENCE_S = 0.055

_LINE = re.compile(r"^(\d{4}-\d\d-\d\d \d\d:\d\d:\d\d) (\w+) (.*)$")


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _log(lines: int) -> list[str]:
    out = []
    for n in range(lines):
        stamp = time.strftime("%Y-%m-%d %H:%M:%S",
                              time.gmtime(1_700_000_000 + n * 7 // 3))
        out.append(f"{stamp} INFO open read blk_{n % 97} size {n * 31 % 4096} "
                   "write close")
    return out


class Kernel:
    """The fixed reference work; each call records its seconds."""

    batch, hidden, steps, repeats, lines, records = 128, 64, 10, 6, 700, 2500

    def __init__(self):
        rng = np.random.default_rng(0)
        h = self.hidden
        self.xs = [rng.standard_normal((self.batch, h)) for _ in range(self.steps)]
        self.w = rng.standard_normal((2 * h, 4 * h)) * 0.1
        self.b = np.zeros(4 * h)
        self.log = _log(self.lines)
        self.record_log = [line + f" node{n % 13}"
                           for n, line in enumerate(_log(self.records))]
        self.seconds: list[float] = []
        self()  # warm-up: first-call costs are not host speed
        self.seconds.clear()

    def __call__(self) -> float:
        """Run the kernel once; return (and keep) the seconds it took."""
        start = time.perf_counter()
        h, w, b = self.hidden, self.w, self.b
        for _ in range(self.repeats):
            hs = np.zeros((self.batch, h))
            cs = np.zeros((self.batch, h))
            for x in self.xs:
                gates = np.concatenate([x, hs], axis=1) @ w + b
                i, f = _sigmoid(gates[:, :h]), _sigmoid(gates[:, h:2 * h])
                o, g = _sigmoid(gates[:, 2 * h:3 * h]), np.tanh(gates[:, 3 * h:])
                cs = f * cs + i * g
                hs = o * np.tanh(cs)
        counts: dict = {}
        for line in self.log:
            stamp, _, content = _LINE.match(line).groups()
            key = " ".join("<*>" if any(ch.isdigit() for ch in tok) else tok
                           for tok in content.split())
            counts[key] = counts.get(key, 0) + 1
            time.strptime(stamp, "%Y-%m-%d %H:%M:%S")
        records = []
        for line in self.record_log:
            stamp, level, content = _LINE.match(line).groups()
            key = " ".join("<*>" if any(ch.isdigit() for ch in tok) else tok
                           for tok in content.split())
            counts[key] = counts.get(key, 0) + 1
            records.append({"t": stamp, "level": level, "key": key,
                            "content": content})
        records.sort(key=lambda r: (r["key"], r["t"]))
        json.dumps(records)
        self.seconds.append(time.perf_counter() - start)
        return self.seconds[-1]


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between kernel runs of ``before``
    and ``after`` seconds into a time at the reference speed."""
    return REFERENCE_S / ((before + after) / 2)
