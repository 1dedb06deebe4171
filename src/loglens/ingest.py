"""Log ingestion: raw-line reading, template extraction, pre-parsed CSV I/O.

Two pathways feed partitioning: parse raw text with the built-in
token-similarity clusterer, or load a pre-parsed CSV that already carries
ground-truth templates. Both give a columnar ``ParsedLog`` and an
``EventVocabulary``. Benchmarks should prefer the pre-parsed pathway so parser
quality never contaminates detector comparisons.
"""

from __future__ import annotations

import calendar
import csv
import functools
import io
import json
import re
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from itertools import chain, islice
from operator import itemgetter

import numpy as np

from .exceptions import ConfigurationError, FormatError

PLACEHOLDER = "<*>"

PARSED_COLUMNS = ["LineId", "Timestamp", "Identifier", "EventTemplate", "Label"]

LABEL_NORMAL = "normal"
LABEL_ANOMALY = "anomaly"

# a ParsedLog's label codes index this tuple
LABELS = (None, LABEL_NORMAL, LABEL_ANOMALY)
NO_LABEL, NORMAL, ANOMALY = range(3)

_INT64 = np.iinfo(np.int64)


@dataclass
class LogRecord:
    """One log line, kept for ``partition``'s list branch (see there)."""

    line_no: int
    timestamp: int
    identifier: str | None
    content: str
    event_id: int | None = None
    label: str | None = None


class EventVocabulary:
    """Distinct log templates with dense, stable integer ids.

    Ids run 0..n-1 in first-appearance order. The id ``n`` (== ``unknown_id``)
    is reserved for events unseen at training time and never maps to a
    template string.
    """

    def __init__(self, templates: list[str] | None = None):
        self.templates: list[str] = []
        self.id_of: dict[str, int] = {}
        for t in templates or []:
            self.add(t)

    def add(self, template: str) -> int:
        existing = self.id_of.get(template)
        if existing is not None:
            return existing
        new_id = len(self.templates)
        self.templates.append(template)
        self.id_of[template] = new_id
        return new_id

    def __len__(self) -> int:
        return len(self.templates)

    @property
    def unknown_id(self) -> int:
        return len(self.templates)

    @property
    def n_ids(self) -> int:
        """Number of event ids including the reserved unknown id."""
        return len(self.templates) + 1

    def extended(self, new_templates: list[str]) -> "EventVocabulary":
        vocab = EventVocabulary(self.templates)
        for t in new_templates:
            vocab.add(t)
        return vocab

    def __eq__(self, other) -> bool:
        return isinstance(other, EventVocabulary) and self.templates == other.templates


@contextmanager
def open_utf8(path):
    """``path`` open for reading as UTF-8 text, newlines untranslated. Bytes
    that are not UTF-8, or CSV that ``csv`` refuses (a field over its size
    limit), raise a ``FormatError`` naming the file."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            yield fh
    except (UnicodeDecodeError, csv.Error) as err:
        raise FormatError(f"{path}: {err}") from None


def read_json(path):
    """The document in the JSON file ``path``, the one reader of every JSON
    input. A file that is not UTF-8 or does not parse is a ``FormatError``
    naming it."""
    with open_utf8(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as err:  # JSONDecodeError is a ValueError
            raise FormatError(f"{path}: {err}") from None


def write_vocab(vocab: EventVocabulary, path) -> None:
    """The templates in id order, as a JSON array: the format of a model's
    ``vocab.json`` and of the ``<out>.vocab.json`` beside a sequences JSONL."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(vocab.templates, indent=1) + "\n")


def read_vocab(path) -> EventVocabulary:
    """The vocabulary ``write_vocab`` wrote; anything but a JSON array of
    distinct strings is a ``FormatError`` naming the file."""
    doc = read_json(path)
    if not (isinstance(doc, list) and all(isinstance(t, str) for t in doc)
            and len(set(doc)) == len(doc)):
        raise FormatError(f"{path}: expected a JSON array of distinct strings")
    return EventVocabulary(doc)


@dataclass(eq=False)
class ParsedLog:
    """A log as columns, one entry per row: raw, parsed or generated.

    ``line_no``, ``timestamp`` and ``event_id`` are int64 (an event id of -1
    means none). ``identifier`` holds codes into ``identifiers``, which lists
    each identifier once in first-appearance order (-1 means none), and
    ``label`` holds codes into ``LABELS``. A row's content is its event's
    text, ``templates[event_id]``; in a raw log every row is its own event.
    """

    line_no: np.ndarray
    timestamp: np.ndarray
    event_id: np.ndarray
    identifier: np.ndarray
    identifiers: list[str]
    label: np.ndarray
    templates: list[str] | dict[int, str]

    def __len__(self) -> int:
        return len(self.line_no)

    @classmethod
    def from_records(cls, records: list[LogRecord]) -> "ParsedLog":
        """The columns of ``records``, for ``partition``'s list branch. A label
        that is neither None nor anomaly counts as normal, and each event's
        text is the content of its first record. A line number or timestamp
        outside int64 is a ``ConfigurationError``."""
        try:
            line_no = np.array([rec.line_no for rec in records], dtype=np.int64)
            stamp = np.array([rec.timestamp for rec in records], dtype=np.int64)
            event = np.array([-1 if rec.event_id is None else rec.event_id
                              for rec in records], dtype=np.int64)
        except OverflowError:
            raise ConfigurationError("line numbers, timestamps and event ids "
                                     "must fit in int64") from None
        idents = [rec.identifier for rec in records]
        identifiers = [name for name in dict.fromkeys(idents) if name is not None]
        codes = {None: -1, **{name: code for code, name in enumerate(identifiers)}}
        label_codes = {None: NO_LABEL, LABEL_ANOMALY: ANOMALY}
        # read backwards, each event's first record is written last
        templates = {rec.event_id: rec.content for rec in reversed(records)}
        templates.pop(None, None)
        return cls(line_no, stamp, event,
                   np.array(list(map(codes.__getitem__, idents)), dtype=np.int64),
                   identifiers,
                   np.array([label_codes.get(rec.label, NORMAL) for rec in records],
                            dtype=np.int8),
                   templates)


# a stamp that a usable timestamp_format reads back from its own text
_SAMPLE_STAMP = datetime(2001, 2, 3, 4, 5, 6, 789000, tzinfo=timezone.utc)


@dataclass
class FormatSpec:
    """How to pull timestamp, identifier, and content out of a raw line.

    ``timestamp_regex`` must match the whole interesting part of the line with
    group 1 capturing the timestamp text (parsed with ``timestamp_format``,
    interpreted as UTC) and group ``content_group`` capturing the free-text
    message. ``identifier_regex`` group 1, when given, is searched inside the
    content. A spec that cannot work this way, such as a ``timestamp_format``
    that ``time.strptime`` cannot read back from the text it formats, is a
    ``FormatError`` naming its key.
    """

    timestamp_regex: str
    timestamp_format: str
    content_group: int
    identifier_regex: str | None = None

    def __post_init__(self):
        if not isinstance(self.timestamp_format, str):
            raise FormatError("format spec timestamp_format must be a string")
        try:
            time.strptime(_SAMPLE_STAMP.strftime(self.timestamp_format),
                          self.timestamp_format)
        except ValueError as err:
            raise FormatError(f"format spec timestamp_format "
                              f"{self.timestamp_format!r} is unusable: {err}") from None
        groups = _groups(self.timestamp_regex, "timestamp_regex")
        if groups < 1:
            raise FormatError("format spec timestamp_regex needs group 1 "
                              "for the timestamp")
        group = self.content_group
        if isinstance(group, bool) or not isinstance(group, int) \
                or not 1 <= group <= groups:
            raise FormatError(f"format spec content_group must be an integer "
                              f"in [1, {groups}], the groups of "
                              f"timestamp_regex; got {group!r}")
        if self.identifier_regex is not None and \
                _groups(self.identifier_regex, "identifier_regex") < 1:
            raise FormatError("format spec identifier_regex needs group 1 "
                              "for the identifier")

    @classmethod
    def from_json(cls, doc: dict) -> "FormatSpec":
        if not isinstance(doc, dict):
            raise FormatError("format spec must be a JSON object")
        try:
            return cls(doc["timestamp_regex"], doc["timestamp_format"],
                       doc["content_group"], doc.get("identifier_regex"))
        except KeyError as missing:
            raise FormatError(f"format spec missing key {missing}") from None

    @classmethod
    def load(cls, path) -> "FormatSpec":
        doc = read_json(path)
        try:
            return cls.from_json(doc)
        except FormatError as err:
            raise FormatError(f"{path}: {err}") from None


def _groups(pattern: str, key: str) -> int:
    """The number of groups in ``pattern``, a string that must compile."""
    if not isinstance(pattern, str):
        raise FormatError(f"format spec {key} must be a string")
    try:
        return re.compile(pattern).groups
    except re.error as err:
        raise FormatError(f"format spec {key} does not compile: {err}") from None


def read_raw(path, spec: FormatSpec) -> tuple[ParsedLog, list[tuple[int, str]]]:
    """Read a raw log file as a ``ParsedLog`` of one event per line, its
    content; lines that do not match become rejects, not errors.

    A log is written in time order, so most lines repeat the previous line's
    timestamp text: the last text and its epoch seconds are kept and reused,
    which holds memory at one entry however many distinct stamps there are.
    """
    line_pattern = re.compile(spec.timestamp_regex)
    id_pattern = re.compile(spec.identifier_regex) if spec.identifier_regex else None
    numbers = array("q")    # each line's number, timestamp and identifier code
    contents: list[str] = []
    codes: dict[str, int] = {}
    rejects: list[tuple[int, str]] = []
    last_stamp, last_timestamp = None, 0
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            match = line_pattern.search(line)
            if match is None:
                rejects.append((line_no, line))
                continue
            try:
                stamp = match.group(1)
                if stamp != last_stamp:
                    last_timestamp = calendar.timegm(
                        time.strptime(stamp, spec.timestamp_format))
                    last_stamp = stamp
                content = match.group(spec.content_group).strip()
            except (ValueError, IndexError):
                rejects.append((line_no, line))
                continue
            code = -1
            if id_pattern is not None:
                id_match = id_pattern.search(content)
                if id_match is not None:
                    code = codes.setdefault(id_match.group(1), len(codes))
            numbers.extend((line_no, last_timestamp, code))
            contents.append(content)
    line_nos, timestamps, identifiers = np.frombuffer(numbers, np.int64).reshape(-1, 3).T.copy()
    return ParsedLog(line_nos, timestamps, np.arange(len(contents), dtype=np.int64), identifiers,
                     list(codes), np.full(len(contents), NO_LABEL, np.int8), contents), rejects


def write_rejects(rejects: list[tuple[int, str]], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line_no, line in rejects:
            fh.write(f"{line_no}\t{line}\n")


# ---------------------------------------------------------------------------
# pre-parsed CSV

# rows read, or written, per step: memory holds one step's strings
CSV_ROWS = 1024


def _parsed_rows(fh, path):
    """The reader after the header, the header's width and a getter of each
    of a row's ``PARSED_COLUMNS`` fields."""
    reader = csv.reader(fh)
    header = next(reader, [])
    for column in PARSED_COLUMNS:
        if column not in header:
            raise FormatError(f"{path}: missing required column {column!r}")
    # a repeated header name means its last column, as with csv.DictReader
    index = {name: i for i, name in enumerate(header)}
    return reader, len(header), [itemgetter(index[column]) for column in PARSED_COLUMNS]


def _raise_row_error(path) -> None:
    """Raise the ``FormatError`` of the first bad row of ``path``, read row
    by row."""
    with open_utf8(path) as fh:
        reader, width, fields = _parsed_rows(fh, path)
        for row in filter(None, reader):
            where = f"{path}: line {reader.line_num}"
            try:
                line_id, stamp, _, _, label = (field(row) for field in fields)
            except IndexError:
                raise FormatError(f"{where}: {len(row)} fields, the header "
                                  f"has {width}") from None
            try:
                values = int(line_id), int(stamp)
            except ValueError:
                raise FormatError(f"{where}: LineId and Timestamp must be "
                                  f"integers, got {line_id!r} and {stamp!r}") from None
            if not all(_INT64.min <= value <= _INT64.max for value in values):
                raise FormatError(f"{where}: LineId and Timestamp must fit in "
                                  f"int64, got {line_id!r} and {stamp!r}")
            label = label.strip()
            if label and label not in (LABEL_NORMAL, LABEL_ANOMALY):
                raise FormatError(f"{where}: unrecognized label {label!r}")


def read_parsed(path, known: EventVocabulary | None = None
                ) -> tuple[ParsedLog, EventVocabulary]:
    """Load a pre-parsed CSV (LineId, Timestamp, Identifier, EventTemplate, Label).

    Columns are found by name in the header, so their order is free; a row
    that lacks one of them, whose LineId or Timestamp is not an integer
    within int64, or whose Label is neither empty, normal nor anomaly, is a
    ``FormatError`` naming the file and the line, as is a file that is not
    UTF-8. Rows are converted ``CSV_ROWS`` at a time, a column at a time;
    identifier codes follow first appearance, and so do event ids, after the
    ids of the ``known`` templates, which keep theirs. The vocabulary returned is ``known`` extended by the file's
    other templates.
    """
    vocab = EventVocabulary(known.templates if known is not None else [])
    identifier_codes = {"": -1}
    label_codes: dict[str, int] = {}
    chunks = []
    with open_utf8(path) as fh:
        reader, _, fields = _parsed_rows(fh, path)
        while block := list(islice(reader, CSV_ROWS)):
            rows = list(filter(None, block))
            n = len(rows)
            try:
                line_ids, stamps, identifiers, templates, labels = (
                    list(map(field, rows)) for field in fields)
                line_no = np.fromiter(map(int, line_ids), np.int64, n)
                timestamp = np.fromiter(map(int, stamps), np.int64, n)
                for label in dict.fromkeys(labels):
                    if label not in label_codes:
                        label_codes[label] = LABELS.index(label.strip() or None)
            except (IndexError, ValueError, OverflowError):
                _raise_row_error(path)
                raise
            for template in dict.fromkeys(templates):
                vocab.add(template)
            for identifier in dict.fromkeys(identifiers):
                identifier_codes.setdefault(identifier, len(identifier_codes) - 1)
            chunks.append((
                line_no, timestamp,
                np.fromiter(map(vocab.id_of.__getitem__, templates), np.int64, n),
                np.fromiter(map(identifier_codes.__getitem__, identifiers), np.int64, n),
                np.fromiter(map(label_codes.__getitem__, labels), np.int8, n)))
    columns = [np.concatenate(column) for column in zip(*chunks)] if chunks else \
        [np.empty(0, np.int64)] * 4 + [np.empty(0, np.int8)]
    line_no, timestamp, event_id, identifier, label = columns
    return ParsedLog(line_no, timestamp, event_id, identifier,
                     list(identifier_codes)[1:], label, vocab.templates), vocab


def _csv_field(field) -> str:
    """``field`` as ``csv.writer`` writes it in a row of more than one field
    (a lone empty field is quoted)."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow((field, ""))
    return buffer.getvalue()[:-3]       # less ",\r\n"


class ParsedWriter:
    """The writer of every pre-parsed CSV: on the open text file ``fh``, it
    writes the header, then rows of ``PARSED_COLUMNS`` as ``csv.writer``
    would. Each call of ``writerows`` quotes each distinct identifier,
    template and label once."""

    def __init__(self, fh):
        self._fh = fh
        csv.writer(fh).writerow(PARSED_COLUMNS)

    def writerows(self, rows) -> None:
        quoted = functools.cache(_csv_field)
        rows = iter(rows)
        while block := list(islice(rows, CSV_ROWS)):
            self._fh.write("".join([
                f"{line_no},{stamp},{quoted(identifier)},{quoted(template)},"
                f"{quoted(label)}\r\n"
                for line_no, stamp, identifier, template, label in block]))


def write_parsed(log: ParsedLog, path) -> None:
    """Write ``log``, whose every row has an event, as a pre-parsed CSV,
    converting ``CSV_ROWS`` rows of its columns at a time."""
    identifiers = [*log.identifiers, ""]     # code -1 is the last
    labels = [label or "" for label in LABELS]
    blocks = (slice(start, start + CSV_ROWS) for start in range(0, len(log), CSV_ROWS))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        ParsedWriter(fh).writerows(chain.from_iterable(
            zip(log.line_no[rows].tolist(), log.timestamp[rows].tolist(),
                map(identifiers.__getitem__, log.identifier[rows].tolist()),
                map(log.templates.__getitem__, log.event_id[rows].tolist()),
                map(labels.__getitem__, log.label[rows].tolist()))
            for rows in blocks))


# ---------------------------------------------------------------------------
# template extraction

# a whitespace-delimited token carrying a digit (counts, ids, hex, addresses)
# or a path separator is a parameter
_PARAMETER = re.compile(r"(?<!\S)\S*[\d/]\S*")


def mask_parameters(content: str) -> str:
    """``content`` with every parameter-looking token replaced by the placeholder."""
    return _PARAMETER.sub(PLACEHOLDER, content)


def check_similarity_threshold(threshold: float) -> None:
    if not 0.0 < threshold <= 1.0:
        raise ConfigurationError(f"similarity_threshold must be in (0, 1], got {threshold!r}")


def parse_templates(log: ParsedLog, similarity_threshold: float = 0.5
                    ) -> tuple[EventVocabulary, ParsedLog]:
    """Cluster the contents of ``log``'s rows into templates: the log
    returned is ``log`` with template ids and ``templates = vocab.templates``.

    A row joins the best-matching existing template when the token counts
    agree and the fraction of position-wise equal tokens reaches the
    threshold (the lowest id wins a tie); positions that disagree become
    placeholders. Otherwise its masked tokens found a new template.
    Deterministic given row order.

    Candidates come from an index per token count, from (position, token) to
    the templates holding that token there, so the equal-position counts are
    summed over the row's own tokens only. The choice depends only on the
    masked line and the current templates, so it is memoised by masked line
    until a template is created or changed: a hit gets the same template,
    whose merge would change nothing.
    """
    check_similarity_threshold(similarity_threshold)
    template_tokens: list[tuple[str, ...]] = []
    postings: dict[int, dict[tuple[int, str], set[int]]] = {}
    empty_id = None     # the one template of no tokens, which every empty line matches
    assignments = array("q")
    chosen: dict[str, int] = {}

    for content in map(log.templates.__getitem__, log.event_id):
        masked = mask_parameters(content)
        best_id = chosen.get(masked)
        if best_id is not None:
            assignments.append(best_id)
            continue
        tokens = tuple(masked.split())
        index = postings.setdefault(len(tokens), {})
        if not tokens:
            best_id = empty_id
        else:
            counts: Counter = Counter()
            for key in enumerate(tokens):
                counts.update(index.get(key, ()))
            if counts:
                top = max(counts.values())
                if top / len(tokens) >= similarity_threshold:
                    best_id = min(tid for tid, count in counts.items() if count == top)
        if best_id is None:
            best_id = len(template_tokens)
            template_tokens.append(tokens)
            for key in enumerate(tokens):
                index.setdefault(key, set()).add(best_id)
            if not tokens:
                empty_id = best_id
            chosen.clear()
        else:
            existing = template_tokens[best_id]
            changed = [i for i, (a, b) in enumerate(zip(existing, tokens))
                       if a != b and a != PLACEHOLDER]
            if not changed:
                chosen[masked] = best_id
            else:
                merged = list(existing)
                for i in changed:
                    index[(i, existing[i])].discard(best_id)
                    index.setdefault((i, PLACEHOLDER), set()).add(best_id)
                    merged[i] = PLACEHOLDER
                template_tokens[best_id] = tuple(merged)
                chosen.clear()
        assignments.append(best_id)

    # merging can collapse two templates onto the same masked string; densify
    vocab = EventVocabulary()
    remap = np.array([vocab.add(" ".join(tokens)) for tokens in template_tokens], np.int64)
    return vocab, replace(log, event_id=remap[assignments], templates=vocab.templates)


_CAMEL_BOUNDARY = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")
_NON_ALNUM = re.compile(r"[^0-9A-Za-z]+")


def tokenize_template(template: str) -> list[str]:
    """Lowercased words of a template: split on non-alphanumerics and
    camelCase boundaries, dropping placeholders and pure digits."""
    words: list[str] = []
    for chunk in _NON_ALNUM.split(template):
        if not chunk:
            continue
        for piece in _CAMEL_BOUNDARY.split(chunk):
            if piece and not piece.isdigit():
                words.append(piece.lower())
    return words
