"""Partition parsed records into event sequences, window them for
forecasting, and encode events as indices or semantic vectors."""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigurationError
from .ingest import EventVocabulary, LogRecord, LABEL_ANOMALY, LABEL_NORMAL, tokenize_template
from .rng import Rng

FIXED = "fixed"
SLIDING = "sliding"
IDENTIFIER = "identifier"


@dataclass
class PartitionSpec:
    mode: str
    partition_size: int = 0        # seconds, fixed/sliding
    stride: int = 0                # seconds, sliding only

    def __post_init__(self):
        if self.mode not in (FIXED, SLIDING, IDENTIFIER):
            raise ConfigurationError(f"unknown partition mode {self.mode!r}")
        if self.mode in (FIXED, SLIDING) and self.partition_size <= 0:
            raise ConfigurationError("partition_size must be positive")
        if self.mode == SLIDING:
            if not 0 < self.stride <= self.partition_size:
                raise ConfigurationError(
                    "sliding stride must satisfy 0 < stride <= partition_size"
                )


@dataclass
class EventSequence:
    events: list[int]
    label: str | None
    origin: str

    @property
    def is_anomalous(self) -> bool:
        return self.label == LABEL_ANOMALY


@dataclass
class WindowSpec:
    window_size: int = 10
    step_size: int = 1

    def __post_init__(self):
        if self.window_size < 1 or self.step_size < 1:
            raise ConfigurationError("window_size and step_size must be >= 1")


@dataclass
class Window:
    inputs: list[int]
    target: int
    position: int      # index of the target event within its sequence


def _sequence_label(records: list[LogRecord]) -> str | None:
    labels = [r.label for r in records if r.label is not None]
    if not labels:
        return None
    return LABEL_ANOMALY if LABEL_ANOMALY in labels else LABEL_NORMAL


def _to_sequence(records: list[LogRecord], origin: str) -> EventSequence:
    return _sequence_of(sorted(records, key=lambda r: (r.timestamp, r.line_no)), origin)


def _sequence_of(ordered: list[LogRecord], origin: str) -> EventSequence:
    """The sequence of records already in (timestamp, line_no) order."""
    events = [r.event_id for r in ordered]
    if any(e is None for e in events):
        raise ConfigurationError("partition requires records with event ids")
    return EventSequence(events=events, label=_sequence_label(ordered), origin=origin)


def partition(records: list[LogRecord], spec: PartitionSpec) -> list[EventSequence]:
    """Group records into sequences by time interval or shared identifier.

    Fixed intervals tile [t0, t_max]; sliding intervals start every ``stride``
    seconds and keep trailing partial windows that still contain records;
    identifier mode yields one sequence per distinct identifier. Empty groups
    are omitted and within-sequence order is chronological with line-number
    tiebreak.
    """
    if not records:
        return []
    if spec.mode == IDENTIFIER:
        groups: dict[str, list[LogRecord]] = {}
        for rec in records:
            if rec.identifier is not None:
                groups.setdefault(rec.identifier, []).append(rec)
        if not groups:
            raise ConfigurationError("identifier partitioning found no identifiers")
        return [_to_sequence(recs, origin) for origin, recs in groups.items()]

    t0 = min(r.timestamp for r in records)
    t_max = max(r.timestamp for r in records)
    size = spec.partition_size
    if spec.mode == FIXED:
        groups_by_index: dict[int, list[LogRecord]] = {}
        for rec in records:
            groups_by_index.setdefault((rec.timestamp - t0) // size, []).append(rec)
        return [_to_sequence(groups_by_index[i], str(i))
                for i in sorted(groups_by_index)]

    # sliding: start every stride; the last start is the first one whose
    # window already reaches past t_max (kept only if it has records). Sorted
    # once, each window [lo, lo + size) is a contiguous slice.
    stride = spec.stride
    ordered = sorted(records, key=lambda r: (r.timestamp, r.line_no))
    stamps = [r.timestamp for r in ordered]
    sequences = []
    for j in range(max(1, (t_max - t0 - size) // stride + 2)):
        lo = t0 + j * stride
        first, end = bisect_left(stamps, lo), bisect_left(stamps, lo + size)
        if end > first:
            sequences.append(_sequence_of(ordered[first:end], str(j)))
    return sequences


def make_windows(seq: EventSequence, spec: WindowSpec) -> list[Window]:
    """Forecasting windows: inputs are the m events before each target.

    Targets sit at positions m, m+s, m+2s, ...; sequences of length <= m
    yield no windows (callers treat those as short).
    """
    m, s = spec.window_size, spec.step_size
    events = seq.events
    return [
        Window(inputs=events[t - m:t], target=events[t], position=t)
        for t in range(m, len(events), s)
    ]


def window_arrays(sequences: list[EventSequence], spec: WindowSpec
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every window ``make_windows`` yields for ``sequences``, in the same
    order, as arrays: inputs ``(N, m)``, targets ``(N,)``, the index of each
    window's sequence ``(N,)`` and each target's position in it ``(N,)``.

    Event ids are returned unclamped.
    """
    m, s = spec.window_size, spec.step_size
    lengths = np.fromiter((len(seq.events) for seq in sequences), dtype=np.int64,
                          count=len(sequences))
    # targets sit at m, m+s, ... < L: ceil((L - m) / s) of them
    counts = np.maximum(lengths - m + s - 1, 0) // s
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return np.empty((0, m), dtype=np.int64), empty, empty, empty
    events = np.fromiter((e for seq in sequences for e in seq.events),
                         dtype=np.int64, count=int(lengths.sum()))
    owner = np.repeat(np.arange(len(sequences)), counts)
    first_window = np.cumsum(counts) - counts
    positions = m + s * (np.arange(total) - first_window[owner])
    starts = np.cumsum(lengths) - lengths
    # view row j is events[j:j + m + 1]: a window's inputs, then its target
    rows = np.lib.stride_tricks.sliding_window_view(events, m + 1)[
        starts[owner] + positions - m]
    return rows[:, :m], rows[:, m], owner, positions


# ---------------------------------------------------------------------------
# semantic encoding


class SemanticEncoder:
    """Maps templates to d-dimensional vectors via word-vector averaging.

    Each distinct word across the vocabulary's templates receives a seeded
    random vector (assigned in first-appearance order, so the encoder is a
    pure function of vocabulary, dim, and seed). A template's vector is the
    arithmetic mean of its words' vectors, optionally inverse-document-
    frequency weighted; wordless templates and the reserved unknown id map to
    the zero vector. Word vectors never change after construction: tables for
    extended vocabularies reuse them, and unknown words are skipped.
    """

    def __init__(self, vocab: EventVocabulary, dim: int, seed: int,
                 tfidf: bool = False):
        if dim < 1:
            raise ConfigurationError("semantic dim must be >= 1")
        self.dim = dim
        self.seed = seed
        self.tfidf = tfidf
        self.word_vectors: dict[str, np.ndarray] = {}
        rng = Rng(seed)
        template_words = [tokenize_template(t) for t in vocab.templates]
        for words in template_words:
            for word in words:
                if word not in self.word_vectors:
                    self.word_vectors[word] = rng.uniform(-1.0, 1.0, (dim,))
        self._doc_freq: dict[str, int] = {}
        for words in template_words:
            for word in set(words):
                self._doc_freq[word] = self._doc_freq.get(word, 0) + 1
        self._n_templates = max(1, len(template_words))
        self.template_vectors = self.table_for(vocab)

    def vector_for(self, template: str) -> np.ndarray:
        """Mean (or tf-idf weighted) vector of the template's known words."""
        vec = np.zeros(self.dim)
        total = 0.0
        for word in tokenize_template(template):
            wv = self.word_vectors.get(word)
            if wv is None:
                continue
            if self.tfidf:
                df = self._doc_freq.get(word, 1)
                weight = np.log((1.0 + self._n_templates) / df)
            else:
                weight = 1.0
            vec += weight * wv
            total += weight
        return vec / total if total > 0 else vec

    def table_for(self, vocab: EventVocabulary) -> np.ndarray:
        """(n_ids, dim) matrix for any vocabulary sharing this word space;
        the final row (unknown id) is zero."""
        table = np.zeros((vocab.n_ids, self.dim))
        for i, template in enumerate(vocab.templates):
            table[i] = self.vector_for(template)
        return table


# ---------------------------------------------------------------------------
# serialization


def write_sequences(sequences: list[EventSequence], path) -> None:
    """JSON-lines: one {origin, label, events} object per sequence."""
    with open(path, "w", encoding="utf-8") as fh:
        for seq in sequences:
            fh.write(json.dumps(
                {"origin": seq.origin, "label": seq.label, "events": seq.events}
            ) + "\n")


def read_sequences(path) -> list[EventSequence]:
    sequences = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            doc = json.loads(line)
            sequences.append(EventSequence(
                events=[int(e) for e in doc["events"]],
                label=doc.get("label"),
                origin=str(doc["origin"]),
            ))
    return sequences
