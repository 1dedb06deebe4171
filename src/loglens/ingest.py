"""Log ingestion: raw-line reading, template extraction, pre-parsed CSV I/O.

Two pathways produce the same shape of output, a list of ``LogRecord`` plus an
``EventVocabulary``: parse raw text with the built-in token-similarity
clusterer, or load a pre-parsed CSV that already carries ground-truth
templates. Benchmarks should prefer the pre-parsed pathway so parser quality
never contaminates detector comparisons.
"""

from __future__ import annotations

import calendar
import csv
import json
import re
import time
from dataclasses import dataclass
from operator import itemgetter

from .exceptions import ConfigurationError, FormatError

PLACEHOLDER = "<*>"

PARSED_COLUMNS = ["LineId", "Timestamp", "Identifier", "EventTemplate", "Label"]

LABEL_NORMAL = "normal"
LABEL_ANOMALY = "anomaly"


@dataclass
class LogRecord:
    """One parsed log line."""

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


@dataclass
class FormatSpec:
    """How to pull timestamp, identifier, and content out of a raw line.

    ``timestamp_regex`` must match the whole interesting part of the line with
    group 1 capturing the timestamp text (parsed with ``timestamp_format``,
    interpreted as UTC) and group ``content_group`` capturing the free-text
    message. ``identifier_regex`` group 1, when given, is searched inside the
    content.
    """

    timestamp_regex: str
    timestamp_format: str
    content_group: int
    identifier_regex: str | None = None

    @classmethod
    def from_json(cls, doc: dict) -> "FormatSpec":
        try:
            return cls(
                timestamp_regex=doc["timestamp_regex"],
                timestamp_format=doc["timestamp_format"],
                content_group=int(doc["content_group"]),
                identifier_regex=doc.get("identifier_regex"),
            )
        except KeyError as missing:
            raise FormatError(f"format spec missing key {missing}") from None

    @classmethod
    def load(cls, path) -> "FormatSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def read_raw(path, spec: FormatSpec) -> tuple[list[LogRecord], list[tuple[int, str]]]:
    """Read a raw log file; lines that do not match become rejects, not errors.

    A log is written in time order, so most lines repeat the previous line's
    timestamp text: the last text and its epoch seconds are kept and reused,
    which holds memory at one entry however many distinct stamps there are.
    """
    line_pattern = re.compile(spec.timestamp_regex)
    id_pattern = re.compile(spec.identifier_regex) if spec.identifier_regex else None
    records: list[LogRecord] = []
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
                timestamp = last_timestamp
                content = match.group(spec.content_group).strip()
            except (ValueError, IndexError):
                rejects.append((line_no, line))
                continue
            identifier = None
            if id_pattern is not None:
                id_match = id_pattern.search(content)
                if id_match is not None:
                    identifier = id_match.group(1)
            records.append(LogRecord(line_no, timestamp, identifier, content))
    return records, rejects


def write_rejects(rejects: list[tuple[int, str]], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line_no, line in rejects:
            fh.write(f"{line_no}\t{line}\n")


# ---------------------------------------------------------------------------
# pre-parsed CSV


def read_parsed(path) -> tuple[list[LogRecord], EventVocabulary]:
    """Load a pre-parsed CSV (LineId, Timestamp, Identifier, EventTemplate, Label).

    Columns are found by name in the header, so their order is free; a row
    that lacks one of them, whose LineId or Timestamp is not an integer, or
    whose Label is neither empty, normal nor anomaly, is a ``FormatError``
    naming its line.
    """
    records: list[LogRecord] = []
    vocab = EventVocabulary()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for column in PARSED_COLUMNS:
            if column not in header:
                raise FormatError(f"parsed CSV missing required column {column!r}")
        # a repeated header name means its last column, as with csv.DictReader
        index = {name: i for i, name in enumerate(header)}
        fields = itemgetter(*(index[column] for column in PARSED_COLUMNS))
        for row in reader:
            if not row:
                continue
            try:
                line_id, stamp, identifier, template, label = fields(row)
            except IndexError:
                raise FormatError(f"parsed CSV line {reader.line_num}: "
                                  f"{len(row)} fields, the header has "
                                  f"{len(header)}") from None
            try:
                line_no, timestamp = int(line_id), int(stamp)
            except ValueError:
                raise FormatError(f"parsed CSV line {reader.line_num}: LineId and "
                                  f"Timestamp must be integers, got {line_id!r} "
                                  f"and {stamp!r}") from None
            label = label.strip() or None
            if label is not None and label not in (LABEL_NORMAL, LABEL_ANOMALY):
                raise FormatError(f"parsed CSV line {reader.line_num}: "
                                  f"unrecognized label {label!r}")
            records.append(LogRecord(line_no, timestamp, identifier or None,
                                     template, vocab.add(template), label))
    return records, vocab


def parsed_writer(fh):
    """A ``csv.writer`` on the open text file ``fh``, after the header: every
    pre-parsed CSV is written through it, one row of ``PARSED_COLUMNS`` each."""
    writer = csv.writer(fh)
    writer.writerow(PARSED_COLUMNS)
    return writer


def write_parsed(records: list[LogRecord], vocab: EventVocabulary, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        parsed_writer(fh).writerows(
            (rec.line_no, rec.timestamp, rec.identifier or "",
             vocab.templates[rec.event_id] if rec.event_id is not None else rec.content,
             rec.label or "")
            for rec in records)


# ---------------------------------------------------------------------------
# template extraction

_HAS_DIGIT = re.compile(r"\d")


def _mask_token(token: str) -> str:
    # parameter-looking tokens: anything carrying a digit (counts, ids, hex,
    # addresses) or a path separator collapses to the placeholder
    if token == PLACEHOLDER:
        return token
    if _HAS_DIGIT.search(token) or "/" in token:
        return PLACEHOLDER
    return token


def parse_templates(records: list[LogRecord], similarity_threshold: float = 0.5
                    ) -> tuple[EventVocabulary, list[LogRecord]]:
    """Cluster record contents into templates and assign event ids in place.

    A record joins the best-matching existing template when the token counts
    agree and the fraction of position-wise equal tokens reaches the
    threshold; positions that disagree become placeholders. Otherwise its
    masked tokens found a new template. Deterministic given record order.

    The scan's choice depends only on the masked tokens and the current
    templates, so it is memoised by tokens until a template is created or
    changed: a hit gets the same template, whose merge would change nothing.
    """
    if not 0.0 < similarity_threshold <= 1.0:
        raise ConfigurationError("similarity_threshold must be in (0, 1]")
    template_tokens: list[tuple[str, ...]] = []
    by_length: dict[int, list[int]] = {}
    assignments: list[int] = []
    chosen: dict[tuple[str, ...], int] = {}

    for rec in records:
        tokens = tuple(_mask_token(t) for t in rec.content.split())
        best_id = chosen.get(tokens)
        if best_id is not None:
            assignments.append(best_id)
            continue
        best_sim = similarity_threshold
        for tid in by_length.get(len(tokens), []):
            existing = template_tokens[tid]
            same = sum(1 for a, b in zip(tokens, existing) if a == b)
            sim = same / len(tokens) if tokens else 1.0
            if sim >= best_sim and (best_id is None or sim > best_sim):
                best_id, best_sim = tid, sim
        if best_id is None:
            best_id = len(template_tokens)
            template_tokens.append(tokens)
            by_length.setdefault(len(tokens), []).append(best_id)
            chosen.clear()
        else:
            existing = template_tokens[best_id]
            merged = tuple(a if a == b else PLACEHOLDER
                           for a, b in zip(existing, tokens))
            if merged == existing:
                chosen[tokens] = best_id
            else:
                template_tokens[best_id] = merged
                chosen.clear()
        assignments.append(best_id)

    # merging can collapse two templates onto the same masked string; densify
    vocab = EventVocabulary()
    remap: dict[int, int] = {}
    for tid, tokens in enumerate(template_tokens):
        remap[tid] = vocab.add(" ".join(tokens))
    for rec, tid in zip(records, assignments):
        rec.event_id = remap[tid]
    return vocab, records


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
