"""The columnar parsed log against the record-by-record code it replaced.

``reference_read_parsed`` and ``reference_partition`` are the row loop and
the per-group sort that built one ``LogRecord`` per CSV row and one list per
sequence. ``read_parsed``, ``partition`` and ``ParsedWriter`` must give what
they gave, errors included.
"""

import csv
import io
from bisect import bisect_left
from itertools import chain
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loglens import ingest
from loglens.exceptions import ConfigurationError, FormatError
from loglens.ingest import (
    LABEL_ANOMALY,
    LABEL_NORMAL,
    PARSED_COLUMNS,
    EventVocabulary,
    LogRecord,
    ParsedLog,
    ParsedWriter,
    read_parsed,
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
    write_parsed(records, EventVocabulary(TEMPLATES), path)
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
    return list(records), vocab.templates


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
    assert [r.label for r in log] == [LABEL_NORMAL, None, LABEL_ANOMALY, None]


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
    write_parsed(records, EventVocabulary(TEMPLATES), path)
    log, vocab = read_parsed(path)
    want, want_vocab = reference_read_parsed(path)
    assert list(log) == want and vocab == want_vocab
    assert [(r.line_no, r.identifier or None, r.label) for r in log] == \
        [(r.line_no, r.identifier, r.label) for r in records]
