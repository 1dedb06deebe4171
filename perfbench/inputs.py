"""Seeded inputs for the three workloads.

Every input is a pure function of the workload size and the input variant
(``seed % VARIANTS``), so the same seed always gives the same inputs and every
seed has a recorded reference in ``reference.json``.
"""

from __future__ import annotations

import bisect
import json
import random
import time
from dataclasses import dataclass, replace
from pathlib import Path

from loglens import bench, sequencing, syngen
from loglens.detectors import DetectorConfig

# inputs cycle through this many recorded variants
VARIANTS = 16

# the acceptance-suite generator spec
ACCEPT_SPEC = dict(n_templates=50, anomaly_rate=0.05, mean_length=20,
                   automaton_branching=3)
# every variant draws its sequences from one generated log source: one
# automaton and one template set, as one system's logs would have. Variants
# then differ in the sessions they hold, not in the grammar behind them: with
# a generator seed per variant, the vocabulary ran from 45 to 50 templates,
# and in ten runs of ``train`` the two fastest were the two smallest
SOURCE_SEED = 0
SOURCE_SEQUENCES = 2000

# the acceptance-suite detector configs; workloads override only ``epochs``
DETECTOR_CONFIGS = {
    "lstm_forecast": DetectorConfig(
        family="lstm_forecast", k=10, hidden=64, layers=1, lr=3e-3, seed=11),
    "transformer_forecast": DetectorConfig(
        family="transformer_forecast", k=10, hidden=64, layers=1, heads=4,
        seed=11),
    "autoencoder": DetectorConfig(
        family="autoencoder", window_size=2, hidden=64, lr=5e-3,
        threshold_quantile=1.0, seed=11),
    "bilstm_attention": DetectorConfig(
        family="bilstm_attention", semantics=True, max_len=30, hidden=64,
        lr=5e-3, seed=11),
    "cnn": DetectorConfig(
        family="cnn", semantics=True, max_len=30, hidden=64, lr=5e-3, seed=11),
}
FAMILIES = tuple(DETECTOR_CONFIGS)

# format of the rendered raw log, as ``loglens parse --format`` reads it
RAW_FORMAT = {
    "timestamp_regex": r"^(\d{4}-\d\d-\d\d \d\d:\d\d:\d\d) (.*)$",
    "timestamp_format": "%Y-%m-%d %H:%M:%S",
    "content_group": 2,
    "identifier_regex": r"\b(seq_\d+)\b",
}
RAW_EPOCH = 1_700_000_000  # first timestamp of a rendered log (UTC seconds)


def detector_configs(epochs: dict) -> list[DetectorConfig]:
    return [replace(DETECTOR_CONFIGS[f], epochs=epochs[f]) for f in FAMILIES]


def syngen_sequences(n_sequences: int, variant: int):
    """``n_sequences`` identifier-partitioned sequences of the log source,
    drawn by ``variant`` and kept in generation order, and the source's
    vocabulary."""
    spec = syngen.GeneratorSpec(n_sequences=SOURCE_SEQUENCES, seed=SOURCE_SEED,
                                **ACCEPT_SPEC)
    dataset = syngen.generate(spec)
    source = sequencing.partition(dataset.records,
                                  sequencing.PartitionSpec("identifier"))
    drawn = random.Random(f"perfbench-draw-{variant}").sample(
        range(len(source)), n_sequences)
    return [source[i] for i in sorted(drawn)], dataset.vocab


def syngen_events(n_events: int, variant: int):
    """The first sequences drawn by ``syngen_sequences`` whose events add up
    to ``n_events`` or just past it, and the source's vocabulary.

    Sequence lengths differ between draws, so a fixed sequence count would
    give each variant a different amount of training work; a fixed event count
    keeps it within one sequence.
    """
    # the generator's mean length is 20 events; a tenth more sequences than
    # that suggests always suffices
    sequences, vocab = syngen_sequences(n_events * 11 // 200, variant)
    total = 0
    for count, seq in enumerate(sequences, 1):
        total += len(seq.events)
        if total >= n_events:
            return sequences[:count], vocab
    raise ValueError(f"variant {variant} has only {total} events")


@dataclass
class DetectInputs:
    train: list          # fit set, anomalies included (supervised families)
    stream: list         # held-out sequences plus noise-injected copies
    vocab: object        # training vocabulary
    extended: object     # vocabulary extended with the pseudo-event templates


def detect_inputs(n_train: int, n_stream: int, noise_ratio: float,
                  variant: int) -> DetectInputs:
    """A fit set and a held-out stream drawn from one generator.

    The stream carries ``noise_ratio`` extra noise-injected copies of its own
    sequences, so its verdicts exercise the unseen-template path.
    """
    sequences, vocab = syngen_sequences(n_train + n_stream, variant)
    train, test = bench.split(sequences, n_train / (n_train + n_stream),
                              seed=variant)
    noise = bench.NoiseSpec(ratio=noise_ratio,
                            synonym_table=bench.builtin_synonyms(),
                            seed=variant)
    stream, extended = bench.inject_noise(test, noise, vocab)
    return DetectInputs(train=train, stream=stream, vocab=vocab,
                        extended=extended)


@dataclass
class RawLog:
    path: Path
    format_path: Path
    lines: int
    identifiers: int
    timestamps: list     # sorted timestamps of every line


def render_raw_log(n_sequences: int, variant: int, directory: Path,
                   start_every: int, event_gap: int) -> RawLog:
    """Write a syngen dataset as a raw, time-ordered log.

    Sequence ``i`` starts ``start_every`` seconds after sequence ``i - 1`` and
    its events follow each other by 1 to ``2 * event_gap - 1`` seconds, so
    many sequences are open at once and their lines interleave. Each ``<*>``
    becomes the sequence identifier followed by a number.
    """
    sequences, vocab = syngen_sequences(n_sequences, variant)
    rng = random.Random(f"perfbench-raw-{variant}")
    lines = []
    for index, seq in enumerate(sequences):
        t = RAW_EPOCH + index * start_every
        for order, event in enumerate(seq.events):
            content = vocab.templates[event].replace(
                "<*>", f"{seq.origin} {rng.randrange(1, 1 << 20)}")
            lines.append((t, index, order, content))
            t += rng.randint(1, 2 * event_gap - 1)
    lines.sort()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "raw.log"
    format_path = directory / "format.json"
    with open(path, "w", encoding="utf-8") as fh:
        for t, _, _, content in lines:
            stamp = time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime(t))
            fh.write(f"{stamp} {content}\n")
    format_path.write_text(json.dumps(RAW_FORMAT), encoding="utf-8")
    return RawLog(path=path, format_path=format_path, lines=len(lines),
                  identifiers=len(sequences),
                  timestamps=[t for t, _, _, _ in lines])


def sliding_windows(timestamps: list, size: int, stride: int) -> tuple[int, int]:
    """(windows holding a record, records summed over those windows), by
    enumerating window starts over sorted timestamps.

    Starts fall every ``stride`` seconds from the first timestamp; the last
    start is the first whose window ``[lo, lo + size)`` reaches past the last
    timestamp.
    """
    t0, t_max = timestamps[0], timestamps[-1]
    windows = events = 0
    lo = t0
    while True:
        inside = (bisect.bisect_left(timestamps, lo + size)
                  - bisect.bisect_left(timestamps, lo))
        if inside:
            windows += 1
            events += inside
        if lo + size > t_max:
            return windows, events
        lo += stride
