"""Time ``loglens syngen`` at one size, then ``loglens partition`` of its CSV
and ``loglens parse`` of it rendered as a raw log.

    python tools/syngen_scale.py [--sequences N] [--root CHECKOUT]

Run from the root of a loglens checkout. The spec is the acceptance suite's
generator spec (``ACCEPT_SPEC`` in ``tests/test_acceptance.py``) with
``n_sequences`` set to ``--sequences``. Each command runs in its own child
from the ``src/`` of ``--root`` (default: this checkout), so two checkouts can
be compared with one spec: ``syngen``, then ``partition --mode identifier``
and ``partition --mode sliding --size 21600 --stride 3600`` (6 h windows every
hour) of the CSV it wrote, then ``parse --format`` of that CSV rendered as a
raw log as ``perfbench/inputs.render_raw_log`` renders one: each row becomes a
line with a UTC stamp (``RAW_EPOCH`` plus its timestamp, so one second per
line) and its template with the identifier and a number in place of each
``<*>``, read with ``RAW_FORMAT``. Files go to a temporary directory, which
is deleted afterwards. Prints one JSON object: the spec, the records written,
and for each command its wall seconds and records (or lines) per second
(Python start-up and imports included) and its peak RSS.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT)]

from perfbench.inputs import RAW_EPOCH, RAW_FORMAT  # noqa: E402
from test_acceptance import ACCEPT_SPEC  # noqa: E402

SLIDING = ["--mode", "sliding", "--size", "21600", "--stride", "3600"]


def _timed(argv: list[str], env: dict, tmp: Path) -> tuple[str, float, float]:
    """Run ``loglens`` with ``argv`` in a child: its standard output, wall
    seconds and peak RSS in MB. Exits with the child's code if it fails."""
    with open(tmp / "out.txt", "w+") as out, open(tmp / "err.txt", "w+") as err:
        started = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "loglens.cli", *argv],
                                 env=env, stdout=out, stderr=err)
        # this child's own resource use, not the largest of all children's
        _, status, usage = os.wait4(child.pid, 0)
        seconds = time.perf_counter() - started
        child.returncode = os.waitstatus_to_exitcode(status)
        if child.returncode != 0:
            err.seek(0)
            print(err.read(), file=sys.stderr)
            raise SystemExit(child.returncode)
        out.seek(0)
        return out.read(), seconds, usage.ru_maxrss / 1024


def _render_raw(csv_path: Path, raw_path: Path) -> int:
    """Write the parsed CSV at ``csv_path`` as a raw log; the lines written."""
    rng = random.Random("syngen-scale-raw")
    lines = 0
    with open(csv_path, encoding="utf-8", newline="") as src, \
            open(raw_path, "w", encoding="utf-8") as out:
        for row in csv.DictReader(src):
            stamp = time.strftime(RAW_FORMAT["timestamp_format"],
                                  time.gmtime(RAW_EPOCH + int(row["Timestamp"])))
            content = row["EventTemplate"].replace(
                "<*>", f"{row['Identifier']} {rng.randrange(1, 1 << 20)}")
            out.write(f"{stamp} {content}\n")
            lines += 1
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sequences", type=int, default=ACCEPT_SPEC.n_sequences,
                        help="n_sequences of the spec (default: the acceptance spec's)")
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout whose src/ the children run")
    args = parser.parse_args(argv)
    spec = dataclasses.asdict(dataclasses.replace(ACCEPT_SPEC, n_sequences=args.sequences))
    env = dict(os.environ, PYTHONPATH=str(args.root.resolve() / "src"))

    with tempfile.TemporaryDirectory(prefix="syngen-scale-") as tmp:
        tmp = Path(tmp)
        spec_path, csv_path = tmp / "spec.json", tmp / "syn.csv"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        printed, seconds, peak = _timed(
            ["syngen", "--spec", str(spec_path), "--out", str(csv_path)], env, tmp)
        # "wrote N records (K templates) to PATH"
        records = int(printed.split()[1])
        result = {"spec": spec, "records": records, "seconds": round(seconds, 3),
                  "records_per_s": round(records / seconds),
                  "peak_rss_mb": round(peak, 1), "partition": {}}
        for mode, flags in (("identifier", ["--mode", "identifier"]), ("sliding", SLIDING)):
            _, seconds, peak = _timed(["partition", "--input", str(csv_path), *flags,
                                       "--out", str(tmp / f"{mode}.jsonl")], env, tmp)
            result["partition"][mode] = {"seconds": round(seconds, 3),
                                         "records_per_s": round(records / seconds),
                                         "peak_rss_mb": round(peak, 1)}
        raw_path, format_path = tmp / "raw.log", tmp / "format.json"
        lines = _render_raw(csv_path, raw_path)
        format_path.write_text(json.dumps(RAW_FORMAT), encoding="utf-8")
        csv_path.unlink()
        _, seconds, peak = _timed(["parse", "--input", str(raw_path), "--format",
                                   str(format_path), "--out", str(tmp / "parsed.csv")],
                                  env, tmp)
        result["parse"] = {"lines": lines, "seconds": round(seconds, 3),
                           "lines_per_s": round(lines / seconds),
                           "peak_rss_mb": round(peak, 1)}
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
