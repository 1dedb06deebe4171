"""Time each family's fit on the acceptance suite's fixture data.

    python tools/fixture_fits.py [--families lstm_forecast,cnn ...]

Run from the root of a loglens checkout; the program is imported from
``src/``. It builds the dataset of the acceptance criteria 3-6 (the spec and
detector configs of ``tests/test_acceptance.py``), fits each family as the
``trained`` fixture does, in one process, and prints one JSON object: per
family, the wall seconds of the fit with the user and sys CPU seconds and the
minor page faults the process took during it, and the fit's peak traced
memory in MB, then the totals (the process total includes the traced fits).
The peak comes from a second fit of the same family under ``tracemalloc``, so
that tracing does not slow the timed one. BLAS is pinned to one thread unless
the environment already sets it.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_acceptance as acceptance  # noqa: E402
from loglens.bench import split, strip_anomalies  # noqa: E402
from loglens.detectors import build_detector  # noqa: E402
from loglens.sequencing import PartitionSpec, partition  # noqa: E402
from loglens.syngen import generate  # noqa: E402


class Meter:
    """Wall time, CPU time and minor faults of this process since it was made."""

    def __init__(self):
        self.wall = time.perf_counter()
        self.usage = resource.getrusage(resource.RUSAGE_SELF)

    def read(self) -> dict:
        now = resource.getrusage(resource.RUSAGE_SELF)
        return {"wall_s": round(time.perf_counter() - self.wall, 3),
                "user_s": round(now.ru_utime - self.usage.ru_utime, 3),
                "sys_s": round(now.ru_stime - self.usage.ru_stime, 3),
                "minor_faults": now.ru_minflt - self.usage.ru_minflt}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--families", default=",".join(acceptance.DETECTOR_CONFIGS),
                        help="comma-separated families to fit, in order")
    args = parser.parse_args(argv)
    families = args.families.split(",")
    unknown = set(families) - set(acceptance.DETECTOR_CONFIGS)
    if unknown:
        parser.error(f"unknown families: {', '.join(sorted(unknown))}")

    total = Meter()
    # the sets the ``dataset`` fixture builds
    ds = generate(acceptance.ACCEPT_SPEC)
    train, _ = split(partition(ds.records, PartitionSpec("identifier")), 0.8, seed=7)
    normal_train, _ = strip_anomalies(train)
    result = {"dataset": total.read(), "fits": {}}
    for family in families:
        fit_on = train if family in acceptance.SUPERVISED else normal_train
        config = acceptance.DETECTOR_CONFIGS[family]
        meter = Meter()
        build_detector(config).fit(fit_on, ds.vocab)
        result["fits"][family] = meter.read()
        tracemalloc.start()
        build_detector(config).fit(fit_on, ds.vocab)
        result["fits"][family]["peak_traced_mb"] = round(
            tracemalloc.get_traced_memory()[1] / 1e6, 2)
        tracemalloc.stop()
    result["fits_total"] = {
        key: round(sum(fit[key] for fit in result["fits"].values()), 3)
        for key in ("wall_s", "user_s", "sys_s", "minor_faults")}
    result["total"] = total.read()
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
