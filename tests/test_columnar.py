"""The columnar log against the record-by-record code it replaced.

``reference_read_parsed`` and ``reference_partition`` are the row loop and
the per-group sort that built one ``LogRecord`` per CSV row and one list per
sequence; ``reference_read_raw``, ``reference_parse_templates`` and
``reference_write_parsed`` are the raw-log path that built one ``LogRecord``
per line. ``read_parsed``, ``partition``, ``read_raw``, ``parse_templates``,
``write_parsed`` and ``ParsedWriter`` must give what they gave, errors
included. ``rows`` turns columns into records, for the tests that compare
the two.
"""

import calendar
import csv
import io
import re
import time
from bisect import bisect_left
from collections import Counter
from itertools import chain
from operator import itemgetter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loglens import ingest
from loglens.exceptions import ConfigurationError, FormatError
from loglens.ingest import (
    LABEL_ANOMALY,
    LABEL_NORMAL,
    LABELS,
    PARSED_COLUMNS,
    PLACEHOLDER,
    EventVocabulary,
    FormatSpec,
    LogRecord,
    ParsedLog,
    ParsedWriter,
    mask_parameters,
    read_parsed,
    read_raw,
    write_parsed,
)
from loglens.sequencing import (
    FIXED,
    IDENTIFIER,
    SLIDING,
    EventSequence,
    PartitionSpec,
    partition,
)

# ---------------------------------------------------------------------------
# references


def rows(log):
    """The rows of ``log`` as ``LogRecord``s, as iterating a ``ParsedLog``
    gave them: a row without an event has content "" and event id None."""
    identifiers = log.identifiers + [None]    # code -1 is the last
    return [LogRecord(line_no, stamp, identifiers[code],
                      log.templates[event] if event >= 0 else "",
                      event if event >= 0 else None, LABELS[label])
            for line_no, stamp, event, code, label in zip(
                log.line_no.tolist(), log.timestamp.tolist(), log.event_id.tolist(),
                log.identifier.tolist(), log.label.tolist())]


def reference_read_raw(path, spec):
    records = []
    rejects = []
    last_stamp, last_timestamp = None, 0
    line_pattern = re.compile(spec.timestamp_regex)
    id_pattern = re.compile(spec.identifier_regex) if spec.identifier_regex else None
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


def reference_parse_templates(records, similarity_threshold=0.5):
    """The memoised scan over records, assigning event ids in place."""
    template_tokens = []
    postings = {}
    empty_id = None
    assignments = []
    chosen = {}
    for rec in records:
        masked = mask_parameters(rec.content)
        best_id = chosen.get(masked)
        if best_id is not None:
            assignments.append(best_id)
            continue
        tokens = tuple(masked.split())
        index = postings.setdefault(len(tokens), {})
        if not tokens:
            best_id = empty_id
        else:
            counts = Counter()
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
    vocab = EventVocabulary()
    remap = {tid: vocab.add(" ".join(tokens)) for tid, tokens in enumerate(template_tokens)}
    for rec, tid in zip(records, assignments):
        rec.event_id = remap[tid]
    return vocab, records


def reference_write_parsed(records, vocab, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PARSED_COLUMNS)
        writer.writerows(
            (rec.line_no, rec.timestamp, rec.identifier or "",
             vocab.templates[rec.event_id] if rec.event_id is not None else rec.content,
             rec.label or "")
            for rec in records)


def reference_read_parsed(path):
    records = []
    vocab = EventVocabulary()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for column in PARSED_COLUMNS:
            if column not in header:
                raise FormatError(f"{path}: missing required column {column!r}")
        index = {name: i for i, name in enumerate(header)}
        fields = itemgetter(*(index[column] for column in PARSED_COLUMNS))
        for row in reader:
            if not row:
                continue
            try:
                line_id, stamp, identifier, template, label = fields(row)
            except IndexError:
                raise FormatError(f"{path}: line {reader.line_num}: "
                                  f"{len(row)} fields, the header has "
                                  f"{len(header)}") from None
            try:
                line_no, timestamp = int(line_id), int(stamp)
            except ValueError:
                raise FormatError(f"{path}: line {reader.line_num}: LineId and "
                                  f"Timestamp must be integers, got {line_id!r} "
                                  f"and {stamp!r}") from None
            # the one rule the columnar reader adds
            if not all(-2**63 <= v < 2**63 for v in (line_no, timestamp)):
                raise FormatError(f"{path}: line {reader.line_num}: LineId and "
                                  f"Timestamp must fit in int64, got {line_id!r} "
                                  f"and {stamp!r}")
            label = label.strip() or None
            if label is not None and label not in (LABEL_NORMAL, LABEL_ANOMALY):
                raise FormatError(f"{path}: line {reader.line_num}: "
                                  f"unrecognized label {label!r}")
            records.append(LogRecord(line_no, timestamp, identifier or None,
                                     template, vocab.add(template), label))
    return records, vocab


def _sequence_label(records):
    labels = [r.label for r in records if r.label is not None]
    if not labels:
        return None
    return LABEL_ANOMALY if LABEL_ANOMALY in labels else LABEL_NORMAL


def _sequence_of(ordered, origin):
    events = [r.event_id for r in ordered]
    if any(e is None for e in events):
        raise ConfigurationError("partition requires records with event ids")
    return EventSequence(events=events, label=_sequence_label(ordered), origin=origin)


def _to_sequence(records, origin):
    return _sequence_of(sorted(records, key=lambda r: (r.timestamp, r.line_no)), origin)


def reference_partition(records, spec):
    if not records:
        return []
    if spec.mode == IDENTIFIER:
        groups = {}
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
        groups_by_index = {}
        for rec in records:
            groups_by_index.setdefault((rec.timestamp - t0) // size, []).append(rec)
        return [_to_sequence(groups_by_index[i], str(i)) for i in sorted(groups_by_index)]
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


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of the loglens error it raises."""
    try:
        return fn(*args)
    except (ConfigurationError, FormatError) as err:
        return type(err).__name__, str(err)


# ---------------------------------------------------------------------------
# partition of records, and of the CSV they make

TEMPLATES = ["a <*>", "b, \"c\"", "d\r\ne", " f"]


@st.composite
def record_lists(draw):
    n = draw(st.integers(0, 25))
    small = st.integers(0, 12)
    records = []
    for _ in range(n):
        event = draw(st.one_of(st.none(), st.integers(0, len(TEMPLATES) - 1))
                     if draw(st.integers(0, 9)) == 0 else
                     st.integers(0, len(TEMPLATES) - 1))
        records.append(LogRecord(
            line_no=draw(small), timestamp=draw(small),
            identifier=draw(st.sampled_from([None, "a", "b", "c", "", "a,b"])),
            content=TEMPLATES[event] if event is not None else "x y",
            event_id=event,
            label=draw(st.sampled_from([None, LABEL_NORMAL, LABEL_ANOMALY, "other"]))))
    return records


@st.composite
def partition_specs(draw):
    mode = draw(st.sampled_from([IDENTIFIER, FIXED, SLIDING]))
    if mode == IDENTIFIER:
        return PartitionSpec(mode)
    size = draw(st.integers(1, 15))
    return PartitionSpec(mode, size, draw(st.integers(1, size)) if mode == SLIDING else 0)


@settings(max_examples=400, deadline=None)
@given(records=record_lists(), spec=partition_specs())
@example(records=[LogRecord(2, 5, "b", "x", 0, None), LogRecord(1, 5, "a", "x", 1, None),
                  LogRecord(0, 7, "b", "x", 2, "other")],
         spec=PartitionSpec(IDENTIFIER))
def test_partition_of_records_matches_reference(records, spec):
    assert outcome(partition, records, spec) == outcome(reference_partition, records, spec)


@settings(max_examples=200, deadline=None)
@given(records=record_lists(), spec=partition_specs(), rows=st.sampled_from([1, 3, 65536]))
def test_partition_of_written_csv_matches_reference(tmp_path_factory, records, spec, rows):
    path = tmp_path_factory.mktemp("csv") / "parsed.csv"
    reference_write_parsed(records, EventVocabulary(TEMPLATES), path)
    with mock.patch.object(ingest, "CSV_ROWS", rows):
        got = outcome(lambda: partition(read_parsed(path)[0], spec))
    want = outcome(lambda: reference_partition(reference_read_parsed(path)[0], spec))
    assert got == want


def test_int64_extremes_partition_like_reference():
    lo, hi = -2**63, 2**63 - 1
    records = [LogRecord(i, t, None, "x", 0) for i, t in
               enumerate([hi, lo, 0, hi, lo + 5, hi - 3, -1])]
    # window ends past the last uint64 offset, and sizes beyond the span
    for spec in (PartitionSpec(FIXED, 2**62), PartitionSpec(FIXED, 2**64),
                 PartitionSpec(FIXED, 3), PartitionSpec(SLIDING, 2**63, 2**62),
                 PartitionSpec(SLIDING, 2**63 + 5, 2**62),
                 PartitionSpec(SLIDING, 2**64 - 1, 2**64 - 1),
                 PartitionSpec(SLIDING, 2**64 + 7, 5)):
        assert partition(records, spec) == reference_partition(records, spec), spec


# ---------------------------------------------------------------------------
# read_parsed of CSV text

FIELD_TEXT = st.text(alphabet=" ab,\"\r\n\t7-", max_size=6)
LINE_IDS = st.one_of(st.integers(-3, 40).map(str), st.sampled_from(
    [" 7", "+3", "1_0", "x", "", "9" * 20, str(2**63), str(-2**63), "3.0"]))
LABEL_TEXT = st.sampled_from(["", " ", "normal", " anomaly ", "anomaly", "other", "Normal"])


@st.composite
def csv_texts(draw):
    header = draw(st.permutations(PARSED_COLUMNS + ["Extra"]))
    # a repeated name means its last column
    if draw(st.booleans()):
        header = header + [draw(st.sampled_from(PARSED_COLUMNS))]
    valid = draw(st.booleans())
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 6)) == 0:
            buffer.write("\r\n")        # a blank row
            continue
        values = {"LineId": draw(st.integers(0, 9).map(str) if valid else LINE_IDS),
                  "Timestamp": draw(st.integers(0, 9).map(str) if valid else LINE_IDS),
                  "Identifier": draw(FIELD_TEXT), "EventTemplate": draw(FIELD_TEXT),
                  "Label": draw(st.sampled_from(["", " normal", "anomaly"])
                                if valid else LABEL_TEXT),
                  "Extra": draw(FIELD_TEXT)}
        row = [values[name] for name in header]
        if not valid and draw(st.integers(0, 5)) == 0:
            row = row[:draw(st.integers(1, len(row) - 1))]     # a short row
        writer.writerow(row)
    return buffer.getvalue()


def _read(read, path):
    records, vocab = read(path)
    return rows(records) if isinstance(records, ParsedLog) else records, vocab.templates


@settings(max_examples=400, deadline=None)
@given(text=csv_texts(), rows=st.sampled_from([1, 2, 5, 65536]))
@example(text='LineId,Timestamp,Identifier,EventTemplate,Label\r\n'
              '1,2,a,"x\r\ny",\r\n\r\n3,4,b,"p,""q",normal\r\n5,x,c,z,\r\n', rows=1)
def test_read_parsed_matches_reference(tmp_path_factory, text, rows):
    path = tmp_path_factory.mktemp("csv") / "parsed.csv"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(ingest, "CSV_ROWS", rows):
        got = outcome(_read, read_parsed, path)
    assert got == outcome(_read, reference_read_parsed, path)


def test_error_after_multiline_field_names_its_line(tmp_path):
    path = tmp_path / "parsed.csv"
    path.write_text('LineId,Timestamp,Identifier,EventTemplate,Label\r\n'
                    '1,2,a,"x\r\ny\r\nz",normal\r\n3,4,b,c,broken\r\n', newline="")
    with pytest.raises(FormatError, match="line 5: unrecognized label 'broken'"):
        read_parsed(path)


def test_line_and_timestamp_outside_int64_are_refused(tmp_path):
    path = tmp_path / "parsed.csv"
    path.write_text(f"LineId,Timestamp,Identifier,EventTemplate,Label\n"
                    f"1,{-2**63},a,x,\n{2**63 - 1},5,a,x,\n3,{2**63},a,x,\n")
    with pytest.raises(FormatError, match="line 4: LineId and Timestamp must fit in int64"):
        read_parsed(path)
    path.write_text(f"LineId,Timestamp,Identifier,EventTemplate,Label\n"
                    f"1,{-2**63},a,x,\n{2**63 - 1},5,a,x,\n")
    log, _ = read_parsed(path)
    assert log.timestamp.tolist() == [-2**63, 5]
    with pytest.raises(ConfigurationError, match="int64"):
        ParsedLog.from_records([LogRecord(2**63, 0, "a", "x", 0)])
    with pytest.raises(ConfigurationError, match="int64"):
        partition([LogRecord(0, -2**63 - 1, "a", "x", 0)], PartitionSpec(IDENTIFIER))


def test_parsed_log_columns():
    log = ParsedLog.from_records([
        LogRecord(4, 9, "b", "t0", 0, "other"), LogRecord(5, 8, None, "t1", None, None),
        LogRecord(6, 7, "a", "t2", 2, LABEL_ANOMALY), LogRecord(7, 7, "b", "t0", 0, None)])
    assert len(log) == 4
    assert log.identifiers == ["b", "a"]
    assert log.identifier.tolist() == [0, -1, 1, 0]
    assert log.event_id.tolist() == [0, -1, 2, 0]
    assert log.label.tolist() == [ingest.NORMAL, ingest.NO_LABEL, ingest.ANOMALY,
                                  ingest.NO_LABEL]
    assert [r.label for r in rows(log)] == [LABEL_NORMAL, None, LABEL_ANOMALY, None]


# ---------------------------------------------------------------------------
# the writer

WRITE_FIELDS = st.text(alphabet=" a,\"\r\n\té", max_size=5)


@settings(max_examples=300, deadline=None)
@given(calls=st.lists(st.lists(st.tuples(
    st.integers(-5, 10**12), st.integers(-5, 10**12),
    WRITE_FIELDS, WRITE_FIELDS, WRITE_FIELDS), max_size=8), max_size=3))
@example(calls=[[(1, 2, "", "", " a")], [(3, 4, "", "x", "")]])
def test_parsed_writer_bytes_match_csv_writer(calls):
    got, want = io.StringIO(), io.StringIO()
    writer = ParsedWriter(got)
    reference = csv.writer(want)
    reference.writerow(PARSED_COLUMNS)
    for rows in calls:
        writer.writerows(iter(rows))
        reference.writerows(rows)
    assert got.getvalue() == want.getvalue()


def test_parsed_writer_quotes_each_field_once_per_call():
    buffer = io.StringIO()
    writer = ParsedWriter(buffer)
    with mock.patch.object(ingest, "_csv_field", side_effect=ingest._csv_field) as quote:
        writer.writerows([(1, 1, "a", "t", ""), (2, 2, "a", "t", ""), (3, 3, "b", "t", "")])
        assert quote.call_count == 4        # "a", "t", "" and "b"
        writer.writerows([(4, 4, "a", "t", "")])
        assert quote.call_count == 7        # a new call starts a new cache
    assert buffer.getvalue().count("\r\n") == 5


def test_round_trip_of_written_records(tmp_path):
    records = list(chain.from_iterable(
        [LogRecord(i, i // 2, ident, TEMPLATES[i % 4], i % 4, label)
         for ident, label in ((None, None), ("a,b", LABEL_NORMAL), ("c", LABEL_ANOMALY))]
        for i in range(1, 9)))
    path = tmp_path / "parsed.csv"
    write_parsed(ParsedLog.from_records(records), path)
    log, vocab = read_parsed(path)
    want, want_vocab = reference_read_parsed(path)
    assert rows(log) == want and vocab == want_vocab
    assert [(r.line_no, r.identifier or None, r.label) for r in rows(log)] == \
        [(r.line_no, r.identifier, r.label) for r in records]


# ---------------------------------------------------------------------------
# the raw-log path

RAW_SPEC = FormatSpec(timestamp_regex=r"^(\d\d:\d\d) ?(.*)$", timestamp_format="%H:%M",
                      content_group=2, identifier_regex=r"\b(id\d)\b")
# hour 25 and minute 61 match the pattern but do not parse
STAMPS = ["00:00", "00:01", "23:59", "25:00", "00:61"]
# words, parameters (a digit or a path separator), a literal placeholder,
# identifiers, and a byte that is not UTF-8
WORDS = ["a", "b", "c", "7", "x9", "/p", "a/b", PLACEHOLDER, "id1", "id2", "id12", "\udcff"]


@st.composite
def raw_texts(draw):
    """Raw log bytes: matched lines whose stamps repeat, change and fail,
    with and without identifiers, among blank and unmatched lines."""
    lines = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
        elif kind == 1:
            lines.append(draw(st.sampled_from(["no stamp", "1:2 a", "0:00 b", "\udcff"])))
        else:
            words = draw(st.lists(st.sampled_from(WORDS), max_size=5))
            lines.append(" ".join([draw(st.sampled_from(STAMPS)), *words]))
    end = draw(st.sampled_from(["", "\n"]))
    return ("\n".join(lines) + end).encode("utf-8", "surrogateescape")


@settings(max_examples=300, deadline=None)
@given(data=raw_texts(), threshold=st.sampled_from([0.3, 0.5, 1.0]),
       block=st.sampled_from([1, 3, 65536]))
@example(data=b"00:00 a 7\n00:00 b 7 id1\n\n25:00 c\n00:01 a x9 id2\nnothing\n00:61 a\n",
         threshold=0.5, block=1)
def test_raw_path_matches_record_path(tmp_path_factory, data, threshold, block):
    tmp = tmp_path_factory.mktemp("raw")
    path = tmp / "raw.log"
    path.write_bytes(data)
    with mock.patch.object(ingest, "CSV_ROWS", block):
        log, rejects = read_raw(path, RAW_SPEC, threshold)
        write_parsed(log, tmp / "got.csv")
    records, want_rejects = reference_read_raw(path, RAW_SPEC)
    want_vocab, records = reference_parse_templates(records, threshold)
    reference_write_parsed(records, want_vocab, tmp / "want.csv")
    assert rejects == want_rejects
    assert log.templates == want_vocab.templates
    assert (tmp / "got.csv").read_bytes() == (tmp / "want.csv").read_bytes()
