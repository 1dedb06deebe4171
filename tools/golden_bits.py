"""Digest the bits each detector family trains and scores to, on one tiny
fixed config, so that a change which moves a last bit is seen by a test.

    python tools/golden_bits.py            # print the digests as JSON
    python tools/golden_bits.py --record   # rewrite tests/data/golden-bits.json

Run from anywhere; the program is imported from the checkout's ``src/``. The
data is a syngen log (20 templates, 400 sequences, seed 3) partitioned by
identifier and split 80/20. Each family is fitted in both input modes (hidden
16, two layers, 2 epochs) on the sequences ``bench.fit_set`` gives it, and
predicts the held-out sequences twice: all in one call, and one sequence per
call. An entry holds the sha256 of the ``save_params`` bytes, the reprs of
``epoch_losses_`` and of the threshold (None for families without one), and
a sha256 over the reprs of the verdicts of each of the two predicts.
``split_moves_scores`` is true where the two predicts differ: a score that
depends on which other sequences share its call.

``tests/test_golden_bits.py`` recomputes the file in-process and in child
interpreters with other BLAS thread counts and hash seeds. A change that moves
bits re-records the file and names each moved entry in CHANGES.md. BLAS
threads are left as the environment sets them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden-bits.json"
sys.path.insert(0, str(ROOT / "src"))

from loglens.autodiff import save_params  # noqa: E402
from loglens.bench import fit_set, split  # noqa: E402
from loglens.detectors import FAMILIES, DetectorConfig, build_detector  # noqa: E402
from loglens.sequencing import PartitionSpec, partition  # noqa: E402
from loglens.syngen import GeneratorSpec, generate  # noqa: E402

SPEC = GeneratorSpec(n_templates=20, n_sequences=400, anomaly_rate=0.1,
                     mean_length=12, seed=3)


def _verdicts_digest(verdicts) -> str:
    text = repr([(v.anomalous, v.score, v.position) for v in verdicts])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests() -> dict:
    """Every family x input mode's entry, keyed by the config's name."""
    ds = generate(SPEC)
    train, test = split(partition(ds.records, PartitionSpec("identifier")), 0.8,
                        seed=5)
    entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        params_path = Path(tmp) / "params.llns"
        for family in FAMILIES:
            for semantics in (False, True):
                config = DetectorConfig(family=family, semantics=semantics,
                                        window_size=4, hidden=16, layers=2,
                                        max_len=12, epochs=2, batch_size=32,
                                        lr=5e-3, seed=11)
                detector = build_detector(config).fit(fit_set(config, train),
                                                      ds.vocab)
                save_params(detector.params_.copy_values(), params_path)
                one_call = _verdicts_digest(detector.predict(test))
                per_sequence = _verdicts_digest(
                    [v for s in test for v in detector.predict([s])])
                entries[config.name] = {
                    "params_sha256": hashlib.sha256(
                        params_path.read_bytes()).hexdigest(),
                    "epoch_losses": repr(detector.epoch_losses_),
                    "threshold": repr(getattr(detector, "threshold_", None)),
                    "verdicts_one_call_sha256": one_call,
                    "verdicts_per_sequence_sha256": per_sequence,
                    "split_moves_scores": one_call != per_sequence,
                }
    return entries


def render(entries: dict) -> str:
    return json.dumps(entries, indent=1, sort_keys=True) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help=f"write the digests to {GOLDEN.relative_to(ROOT)}")
    args = parser.parse_args(argv)
    text = render(digests())
    if args.record:
        GOLDEN.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
