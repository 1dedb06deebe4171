"""Log ingestion: raw-line reading, template extraction, pre-parsed CSV I/O,
and the one reader of JSON inputs.

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
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain, islice
from operator import itemgetter

import numpy as np

from .exceptions import ConfigurationError, FormatError
from .schema import SchemaError, Spec, check_schema, schema_default

PLACEHOLDER = "<*>"
# the schema node of the template parser's threshold: its bounds and default
SIMILARITY_THRESHOLD = "#/properties/dataset/properties/similarity_threshold"

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


class _NotJson(str):
    """A ``NaN``, ``Infinity`` or ``-Infinity``: ``json`` reads them, but JSON
    has no such number."""


def read_json(path):
    """The document in the JSON file ``path``, the one reader of every JSON
    input. A file that is not UTF-8 or does not parse, or that holds a
    ``_NotJson`` constant, is a ``FormatError`` naming it (and the
    constant's JSON pointer)."""
    constants = []
    with open_utf8(path) as fh:
        try:
            doc = json.load(fh, parse_constant=lambda c: constants.append(c) or _NotJson(c))
        except (ValueError, RecursionError) as err:  # JSONDecodeError is a ValueError
            raise FormatError(f"{path}: {err}") from None
    nodes = [("", doc)] if constants else []
    while nodes:  # depth first, in document order
        pointer, node = nodes.pop()
        if isinstance(node, _NotJson):
            raise FormatError(f"{path}: {pointer or '/'}: {node} is not a JSON number")
        items = (node.items() if isinstance(node, dict)
                 else enumerate(node) if isinstance(node, list) else ())
        nodes += reversed([(f"{pointer}/{key}", value) for key, value in items])
    return doc


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
    """A log as columns, one entry per row: parsed or generated.

    ``line_no``, ``timestamp`` and ``event_id`` are int64 (an event id of -1
    means none). ``identifier`` holds codes into ``identifiers``, which lists
    each identifier once in first-appearance order (-1 means none), and
    ``label`` holds codes into ``LABELS``. A row's content is its event's
    text, ``templates[event_id]``.
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
class FormatSpec(Spec):
    """How to pull timestamp, identifier, and content out of a raw line.

    ``timestamp_regex`` must match the whole interesting part of the line with
    group 1 capturing the timestamp text (parsed with ``timestamp_format``,
    interpreted as UTC) and group ``content_group`` capturing the free-text
    message. ``identifier_regex`` group 1, when given, is searched inside the
    content. A spec that cannot work this way, such as a ``timestamp_format``
    that ``time.strptime`` cannot read back from its own text, is a
    ``SchemaError`` at its key."""

    definition = "format_spec"
    timestamp_regex: str
    timestamp_format: str
    content_group: int
    identifier_regex: str | None = None

    def __post_init__(self):
        super().__post_init__()
        try:
            time.strptime(_SAMPLE_STAMP.strftime(self.timestamp_format),
                          self.timestamp_format)
        except ValueError as err:
            raise SchemaError("/timestamp_format", f"{self.timestamp_format!r} "
                              f"is unusable: {err}") from None
        for key, group_1 in (("timestamp_regex", "timestamp"),
                             ("identifier_regex", "identifier")):
            pattern = getattr(self, key)
            try:
                groups = 1 if pattern is None else re.compile(pattern).groups
            except re.error as err:
                raise SchemaError(f"/{key}", f"does not compile: {err}") from None
            if groups < 1:
                raise SchemaError(f"/{key}", f"needs group 1 for the {group_1}")
            if key == "timestamp_regex" and self.content_group > groups:
                raise SchemaError("/content_group", f"must be in [1, {groups}], the "
                                  f"groups of timestamp_regex; got {self.content_group}")


def read_raw(path, spec: FormatSpec,
             similarity_threshold: float = schema_default(SIMILARITY_THRESHOLD)
             ) -> tuple[ParsedLog, list[tuple[int, str]]]:
    """Read a raw log file as a ``ParsedLog`` of ``parse_templates``' ids, which
    parses each message as its line is read; unmatched lines become rejects.

    A log is written in time order, so most lines repeat the previous line's
    timestamp text: the last text and its epoch seconds are kept and reused,
    which holds memory at one entry however many distinct stamps there are.
    """
    line_pattern = re.compile(spec.timestamp_regex)
    id_pattern = re.compile(spec.identifier_regex) if spec.identifier_regex else None
    line_nos, timestamps, identifiers = array("q"), array("q"), array("q")
    codes: dict[str, int] = {}
    rejects: list[tuple[int, str]] = []

    def messages():
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
                line_nos.append(line_no)
                timestamps.append(last_timestamp)
                identifiers.append(code)
                yield content

    vocab, event_id = parse_templates(messages(), similarity_threshold)
    line_no, timestamp, identifier = (np.frombuffer(column, np.int64) for column in
                                      (line_nos, timestamps, identifiers))
    return ParsedLog(line_no, timestamp, event_id, identifier, list(codes),
                     np.full(len(event_id), NO_LABEL, np.int8), vocab.templates), rejects


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


def parse_templates(contents,
                    similarity_threshold: float = schema_default(SIMILARITY_THRESHOLD)
                    ) -> tuple[EventVocabulary, np.ndarray]:
    """Cluster the messages ``contents`` into templates, read once in order:
    the vocabulary and each message's template id, an int64 array. A
    threshold the run-config schema refuses is a ``SchemaError`` raised
    before the first message is read.

    A message joins the best-matching existing template when the token counts
    agree and the fraction of position-wise equal tokens reaches the
    threshold (the lowest id wins a tie); positions that disagree become
    placeholders. Otherwise its masked tokens found a new template.
    Deterministic given row order.

    Candidates come from an index per token count, from (position, token) to
    the templates holding that token there, so the equal-position counts are
    summed over the message's own tokens only. The choice depends only on the
    masked line and the current templates, so it is memoised by masked line
    until a template is created or changed: a hit gets the same template,
    whose merge would change nothing.
    """
    check_schema(similarity_threshold, {"$ref": SIMILARITY_THRESHOLD},
                 "/dataset/similarity_threshold")
    template_tokens: list[tuple[str, ...]] = []
    postings: dict[int, dict[tuple[int, str], set[int]]] = {}
    empty_id = None     # the one template of no tokens, which every empty line matches
    assignments = array("q")
    chosen: dict[str, int] = {}

    for content in contents:
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
    # in place, every id being in range ("clip" does not buffer the output)
    vocab = EventVocabulary()
    remap = np.array([vocab.add(" ".join(tokens)) for tokens in template_tokens], np.int64)
    ids = np.frombuffer(assignments, np.int64)
    return vocab, np.take(remap, ids, out=ids, mode="clip")


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
