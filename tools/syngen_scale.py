"""Time ``loglens syngen`` at one size, in a child process.

    python tools/syngen_scale.py [--sequences N] [--root CHECKOUT]

Run from the root of a loglens checkout. The spec is the acceptance suite's
generator spec (``ACCEPT_SPEC`` in ``tests/test_acceptance.py``) with
``n_sequences`` set to ``--sequences``. The child runs ``loglens syngen`` from
the ``src/`` of ``--root`` (default: this checkout), so two checkouts can be
compared with one spec. It writes into a temporary directory, which is
deleted afterwards. Prints one JSON object: the spec, the records written,
the child's wall seconds and records per second (Python start-up and imports
included), and the child's peak RSS.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_acceptance import ACCEPT_SPEC  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sequences", type=int, default=ACCEPT_SPEC.n_sequences,
                        help="n_sequences of the spec (default: the acceptance spec's)")
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout whose src/ the child runs")
    args = parser.parse_args(argv)
    spec = dataclasses.asdict(dataclasses.replace(ACCEPT_SPEC, n_sequences=args.sequences))

    with tempfile.TemporaryDirectory(prefix="syngen-scale-") as tmp:
        spec_path = Path(tmp) / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(args.root.resolve() / "src"))
        started = time.perf_counter()
        child = subprocess.run(
            [sys.executable, "-m", "loglens.cli", "syngen", "--spec", str(spec_path),
             "--out", str(Path(tmp) / "syn.csv")],
            env=env, capture_output=True, text=True, check=False)
        seconds = time.perf_counter() - started
    if child.returncode != 0:
        print(child.stderr, file=sys.stderr)
        return child.returncode
    # "wrote N records (K templates) to PATH"
    records = int(child.stdout.split()[1])
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({
        "spec": spec,
        "records": records,
        "seconds": round(seconds, 3),
        "records_per_s": round(records / seconds),
        "peak_rss_mb": round(peak_kb / 1024, 1),
    }, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
