"""Partition parsed records into event sequences, window them for
forecasting, and encode events as indices or semantic vectors."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigurationError, FormatError
from .ingest import (
    ANOMALY,
    LABEL_ANOMALY,
    LABELS,
    NO_LABEL,
    NORMAL,
    EventVocabulary,
    LogRecord,
    ParsedLog,
    open_utf8,
    read_vocab,
    tokenize_template,
    write_vocab,
)
from .rng import Rng
from .schema import Spec

FIXED = "fixed"
SLIDING = "sliding"
IDENTIFIER = "identifier"


@dataclass
class PartitionSpec(Spec):
    definition = "partition"
    mode: str = IDENTIFIER
    partition_size: int = 0        # seconds, fixed/sliding
    stride: int = 0                # seconds, sliding only

    def __post_init__(self):
        super().__post_init__()
        if self.mode in (FIXED, SLIDING) and self.partition_size <= 0:
            raise ConfigurationError("partition_size must be positive")
        if self.mode == SLIDING and not 0 < self.stride <= self.partition_size:
            raise ConfigurationError(
                "sliding stride must satisfy 0 < stride <= partition_size")


@dataclass
class EventSequence:
    events: list[int]
    label: str | None
    origin: str

    @property
    def is_anomalous(self) -> bool:
        return self.label == LABEL_ANOMALY


@dataclass
class WindowSpec(Spec):
    definition = "window"
    window_size: int
    step_size: int


@dataclass
class Window:
    inputs: list[int]
    target: int
    position: int      # index of the target event within its sequence


def partition(log: ParsedLog | list[LogRecord], spec: PartitionSpec) -> list[EventSequence]:
    """Group a parsed log's rows into sequences by time interval or shared
    identifier; ``perfbench``'s ``LogRecord`` lists go through ``from_records``.

    Fixed intervals tile [t0, t_max]; sliding intervals start every ``stride``
    seconds and keep trailing partial windows that still contain records;
    identifier mode yields one sequence per distinct identifier, in
    first-appearance order. Empty groups are omitted and within-sequence
    order is chronological with line-number tiebreak.

    One stable sort orders the rows (by identifier first in identifier mode),
    so every sequence is a slice of the ordered rows. A sequence is labeled
    anomalous if any of its rows is, else normal if any row is labeled.
    """
    if not isinstance(log, ParsedLog):
        log = ParsedLog.from_records(log)
    if not len(log):
        return []
    order, firsts, ends, origins = _slices(log, spec)
    events, labels = log.event_id[order], log.label[order]
    # a log made here from records is freed before the sequences are built
    del log, order
    if np.any(events < 0):      # every ordered row lands in a sequence
        raise ConfigurationError("partition requires records with event ids")
    verdicts = np.full(len(firsts), NO_LABEL)
    # a labeled row makes a sequence normal, an anomalous one anomalous
    for verdict, rows in ((NORMAL, labels != NO_LABEL), (ANOMALY, labels == ANOMALY)):
        counts = _prefix_counts(rows)
        verdicts[counts[ends] > counts[firsts]] = verdict
    del labels, rows, counts
    events = events.tolist()
    return [EventSequence(events=events[first:end], label=LABELS[verdict],
                          origin=str(origin))
            for first, end, verdict, origin in zip(
                firsts.tolist(), ends.tolist(), verdicts.tolist(), origins)]


def _slices(log: ParsedLog, spec: PartitionSpec) -> tuple:
    """The row order, and each sequence's ``[first, end)`` slice of it and
    origin."""
    if spec.mode == IDENTIFIER:
        order = np.lexsort((log.line_no, log.timestamp, log.identifier))
        # rows without an identifier (code -1) sort first and join no sequence
        order = order[np.count_nonzero(log.identifier < 0):]
        if not len(order):
            raise ConfigurationError("identifier partitioning found no identifiers")
        bounds = np.searchsorted(log.identifier[order],
                                 np.arange(len(log.identifiers) + 1))
        return order, bounds[:-1], bounds[1:], log.identifiers

    order = np.lexsort((log.line_no, log.timestamp))
    t0 = int(log.timestamp[order[0]])
    # offsets from t0 are exact in uint64 however wide the int64 stamps range
    offsets = (log.timestamp[order] - t0).view(np.uint64)
    size = spec.partition_size
    if size > int(offsets[-1]):     # one interval holds every row
        return order, np.array([0]), np.array([len(order)]), [0]
    if spec.mode == FIXED:
        keys = offsets // np.uint64(size)
        firsts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        return order, firsts, np.append(firsts[1:], len(order)), keys[firsts].tolist()

    # sliding: start every stride; the last start is the first one whose
    # window already reaches past t_max (kept only if it has records). With
    # more starts than rows, only the windows that hold a row are made, so
    # memory follows the rows, not the span over the stride.
    last = (int(offsets[-1]) - size) // spec.stride + 1
    windows = (np.arange(last + 1, dtype=np.uint64) if last < len(order)
               else _windows_with_rows(offsets, size, spec.stride, last))
    starts = windows * np.uint64(spec.stride)
    firsts = np.searchsorted(offsets, starts, side="left")
    # a window whose end passes the last uint64 holds every later row
    room = np.uint64(2**64 - 1) - starts
    ends = np.where(room < size, len(order), np.searchsorted(
        offsets, starts + np.minimum(room, np.uint64(size)), side="left"))
    kept = np.flatnonzero(ends > firsts)
    return order, firsts[kept], ends[kept], windows[kept].tolist()


def _windows_with_rows(offsets: np.ndarray, size: int, stride: int,
                       last: int) -> np.ndarray:
    """The sliding windows, up to start ``last``, that hold a row of the
    sorted ``offsets``. Offset d lies in windows (d - size) // stride + 1 to
    d // stride, so these run from the first window to the last, broken only
    between two rows more than size - stride apart that no window holds
    both of."""
    gap = size - stride
    runs, lo = [], 0
    for row in np.flatnonzero(np.diff(offsets) > gap).tolist():
        hi, after = int(offsets[row]) // stride, (int(offsets[row + 1]) - gap) // stride
        if after > hi:
            runs.append((lo, hi))
            lo = after
    runs.append((lo, last))
    return np.concatenate([np.arange(first, end + 1, dtype=np.uint64)
                           for first, end in runs])


def _prefix_counts(mask: np.ndarray) -> np.ndarray:
    """``counts[i]`` is the number of true entries in ``mask[:i]``."""
    counts = np.zeros(len(mask) + 1, dtype=np.int64)
    np.cumsum(mask, out=counts[1:])
    return counts


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
    arithmetic mean of its words' vectors; wordless templates and the reserved
    unknown id map to the zero vector. Word vectors never change after
    construction: tables for extended vocabularies reuse them, and unknown
    words are skipped.
    """

    def __init__(self, vocab: EventVocabulary, dim: int, seed: int):
        self.dim = dim
        self.word_vectors: dict[str, np.ndarray] = {}
        rng = Rng(seed)
        for template in vocab.templates:
            for word in tokenize_template(template):
                if word not in self.word_vectors:
                    self.word_vectors[word] = rng.uniform(-1.0, 1.0, (dim,))

    def vector_for(self, template: str) -> np.ndarray:
        """Mean vector of the template's known words."""
        vec = np.zeros(self.dim)
        total = 0.0
        for word in tokenize_template(template):
            wv = self.word_vectors.get(word)
            if wv is not None:
                vec += wv
                total += 1.0
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


def write_sequences(sequences: list[EventSequence], vocab: EventVocabulary,
                    path) -> None:
    """JSON-lines: one {origin, label, events} object per sequence, as
    ``json.dumps`` writes it, and beside it ``<path>.vocab.json``, the
    vocabulary the event ids index (``write_vocab``). Each distinct event's
    text is made once."""
    distinct = set().union(*(seq.events for seq in sequences))
    text = dict(zip(distinct, map(json.dumps, distinct)))
    with open(path, "w", encoding="utf-8") as fh:
        for seq in sequences:
            fh.write(f'{{"origin": {json.dumps(seq.origin)}, "label": '
                     f'{json.dumps(seq.label)}, "events": '
                     f'[{", ".join(map(text.__getitem__, seq.events))}]}}\n')
    write_vocab(vocab, f"{path}.vocab.json")


def read_sequences(path, known: EventVocabulary | None = None
                   ) -> tuple[list[EventSequence], EventVocabulary]:
    """The sequences and vocabulary ``write_sequences`` wrote, as
    ``read_parsed`` reads a CSV: the ``known`` templates keep their ids, the
    file's other templates get ids after them, and each event is mapped by
    its template's text; an id outside the file's vocabulary is the unknown
    id. The vocabulary returned is ``known`` extended by the file's templates.

    A line that is not such an object, whose events are not integer ids
    >= 0, or whose label is neither null, normal nor anomaly, is a
    ``FormatError`` naming the file and the line, a file that is not UTF-8
    one naming the file, and a malformed sidecar one naming the sidecar.
    """
    templates = read_vocab(f"{path}.vocab.json").templates
    vocab = EventVocabulary(known.templates if known is not None else [])
    new_id = [*map(vocab.add, templates), vocab.unknown_id]
    n_templates = len(templates)
    sequences = []
    with open_utf8(path) as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
                events = doc["events"]
                if not isinstance(events, list) or not all(
                        type(e) is int and e >= 0 for e in events):
                    raise ValueError("events are not integer ids >= 0")
                label = doc.get("label")
                if label not in LABELS:
                    raise ValueError(f"unrecognized label {label!r}")
                sequences.append(EventSequence(
                    [new_id[min(e, n_templates)] for e in events], label, str(doc["origin"])))
            except KeyError as err:
                raise FormatError(f"{path}: line {line_no}: missing key {err}") from None
            except (TypeError, ValueError) as err:
                raise FormatError(f"{path}: line {line_no}: {err}") from None
    return sequences, vocab
