import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loglens.exceptions import FormatError
from loglens.ingest import (
    PLACEHOLDER,
    EventVocabulary,
    FormatSpec,
    LogRecord,
    ParsedLog,
    parse_templates,
    read_parsed,
    read_raw,
    mask_parameters,
    tokenize_template,
    write_parsed,
    write_rejects,
)
from test_columnar import raw_log, rows

HDFS_SPEC = FormatSpec(
    timestamp_regex=r"^(\d{6} \d{6}) \d+ \w+ \S+: (.*)$",
    timestamp_format="%y%m%d %H%M%S",
    content_group=2,
    identifier_regex=r"(blk_-?\d+)",
)

HDFS_LINE = ("081109 203518 143 INFO dfs.DataNode$DataXceiver: "
             "Received block blk_789 of size 67108864 from /10.251.42.84")


class TestReadRaw:
    def test_hdfs_line_extracts_identifier(self, tmp_path):
        path = tmp_path / "hdfs.log"
        path.write_text(HDFS_LINE + "\n")
        log, rejects = read_raw(path, HDFS_SPEC)
        assert rejects == []
        (rec,) = rows(log)
        assert rec.identifier == "blk_789"
        assert rec.content == "Received block blk_789 of size 67108864 from /10.251.42.84"
        assert rec.timestamp > 0

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.log"
        path.write_text("")
        log, rejects = read_raw(path, HDFS_SPEC)
        assert rows(log) == [] and rejects == []

    def test_malformed_line_becomes_reject(self, tmp_path):
        lines = [HDFS_LINE] * 5 + ["this is not a log line"] + [HDFS_LINE] * 4
        path = tmp_path / "mixed.log"
        path.write_text("\n".join(lines) + "\n")
        log, rejects = read_raw(path, HDFS_SPEC)
        assert len(log) == 9
        assert rejects == [(6, "this is not a log line")]
        out = tmp_path / "mixed.log.rejects"
        write_rejects(rejects, out)
        assert out.read_text() == "6\tthis is not a log line\n"

    def test_stamps_that_repeat_change_and_fail(self, tmp_path):
        stamps = ["081109 203518", "081109 203518", "081109 203519",
                  "081109 253518", "081109 253518", "081109 203518"]
        path = tmp_path / "stamps.log"
        path.write_text("".join(f"{s} 1 INFO x: line {i}\n"
                                for i, s in enumerate(stamps)))
        log, rejects = read_raw(path, HDFS_SPEC)
        records = rows(log)
        base = records[0].timestamp
        assert [r.timestamp - base for r in records] == [0, 0, 1, 0]
        assert [line_no for line_no, _ in rejects] == [4, 5]  # hour 25

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_raw(tmp_path / "nope.log", HDFS_SPEC)


class TestFormatSpec:
    @pytest.mark.parametrize("timestamp_format", [
        "%y%m%d %H%M%S", "%Y-%m-%d %H:%M:%S", "%H:%M", "%Y-%m-%dT%H:%M:%S.%f",
        "%Y-%m-%d %H:%M:%S%z", "%Y-%m-%d %H:%M:%S %Z", "%b %d %H:%M:%S", "%c"])
    def test_formats_strptime_reads_are_accepted(self, timestamp_format):
        spec = FormatSpec(r"^(\S+) (.*)$", timestamp_format, 2)
        assert spec.timestamp_format == timestamp_format

    @pytest.mark.parametrize("timestamp_format", [
        "%Q", "%Y-%m-%d %Q", "%s", "%", "%Y-%m-%d %", "%G-%V", "\udcff"])
    def test_formats_strptime_cannot_read_are_refused(self, timestamp_format):
        with pytest.raises(FormatError, match="timestamp_format"):
            FormatSpec(r"^(\S+) (.*)$", timestamp_format, 2)


class TestParseTemplates:
    def test_paper_hdfs_pair_merges_to_one_template(self):
        log = raw_log([
            "Received block blk_789 of size 67108864 from /10.251.42.84",
            "Received block blk_111 of size 512 from /10.0.0.1",
        ])
        vocab, log = parse_templates(log, similarity_threshold=0.5)
        assert vocab.templates == ["Received block <*> of size <*> from <*>"]
        assert [r.event_id for r in rows(log)] == [0, 0]

    def test_single_line_masks_all_parameters(self):
        log = raw_log(
            ["Received block blk_789 of size 67108864 from /10.251.42.84"])
        vocab, _ = parse_templates(log)
        assert vocab.templates == ["Received block <*> of size <*> from <*>"]

    def test_disjoint_contents_make_two_templates(self):
        log = raw_log(["alpha beta gamma", "delta epsilon zeta"])
        vocab, log = parse_templates(log)
        assert len(vocab) == 2
        assert [r.event_id for r in rows(log)] == [0, 1]

    def test_every_record_gets_exactly_one_dense_id(self):
        log = raw_log([
            "Verification succeeded for blk_1",
            "Verification succeeded for blk_2",
            "Deleting block blk_3 file /data/a1",
            "starting worker thread",
        ])
        vocab, log = parse_templates(log)
        records = rows(log)
        ids = sorted({r.event_id for r in records})
        assert ids == list(range(len(vocab)))
        assert all(r.event_id is not None for r in records)

    def test_masking_idempotence(self):
        log = raw_log([
            "Received block blk_789 of size 67108864 from /10.251.42.84",
            "Received block blk_111 of size 512 from /10.0.0.1",
            "PacketResponder 1 for block blk_2 terminating",
        ])
        vocab, _ = parse_templates(log)
        again, _ = parse_templates(raw_log(list(vocab.templates)))
        assert again.templates == vocab.templates

    def test_deterministic_given_order(self):
        contents = ["job 1 started", "job 2 started", "job 2 finished",
                    "disk /a full", "disk /b full"]
        v1, r1 = parse_templates(raw_log(contents))
        v2, r2 = parse_templates(raw_log(contents))
        assert v1.templates == v2.templates
        assert [r.event_id for r in rows(r1)] == [r.event_id for r in rows(r2)]


def _mask_token(token):
    """The per-token masking rule: a token carrying a digit or a path
    separator is a parameter; the placeholder stays itself."""
    if token == PLACEHOLDER:
        return token
    if re.search(r"\d", token) or "/" in token:
        return PLACEHOLDER
    return token


# ASCII and Unicode whitespace, ASCII and Unicode digits, path separators and
# the placeholder's characters
MASK_ALPHABET = " \t\n\x0b\x0c\r\x1c\x85\xa0\u2003\u3000ab/9\u0663\uff11<*>"


@settings(max_examples=500, deadline=None)
@given(line=st.text(alphabet=MASK_ALPHABET, max_size=30) | st.text(max_size=30))
@example(line="<*> <*>5 a/b \u0663x \xa0<*>")
def test_mask_parameters_matches_per_token_rule(line):
    assert mask_parameters(line).split() == [_mask_token(t) for t in line.split()]


def reference_scan(contents, similarity_threshold):
    """``parse_templates``'s template scan with no memo: every record is
    compared with every template of its length."""
    template_tokens, by_length, assignments = [], {}, []
    for content in contents:
        tokens = [_mask_token(t) for t in content.split()]
        best_id, best_sim = None, similarity_threshold
        for tid in by_length.get(len(tokens), []):
            same = sum(1 for a, b in zip(tokens, template_tokens[tid]) if a == b)
            sim = same / len(tokens) if tokens else 1.0
            if sim >= best_sim and (best_id is None or sim > best_sim):
                best_id, best_sim = tid, sim
        if best_id is None:
            best_id = len(template_tokens)
            template_tokens.append(tokens)
            by_length.setdefault(len(tokens), []).append(best_id)
        else:
            existing = template_tokens[best_id]
            template_tokens[best_id] = [a if a == b else PLACEHOLDER
                                        for a, b in zip(existing, tokens)]
        assignments.append(best_id)
    vocab = EventVocabulary()
    remap = [vocab.add(" ".join(tokens)) for tokens in template_tokens]
    return vocab.templates, [remap[tid] for tid in assignments]


# words, parameters (a digit or a path separator) and a literal placeholder
TOKENS = ["a", "b", "c", "7", "/p", PLACEHOLDER]


@st.composite
def log_streams(draw):
    """Lines drawn from a few distinct contents of one length, and empty
    ones: contents repeat and compete for the same templates, as in a log."""
    rnd = draw(st.randoms(use_true_random=False))
    length = rnd.randint(3, 6)
    pool = [" ".join(rnd.choices(TOKENS, k=length)) for _ in range(rnd.randint(2, 12))]
    return rnd.choices(pool + [""], k=rnd.randint(10, 60))


THRESHOLDS = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


@settings(max_examples=300, deadline=None)
@given(contents=log_streams(), threshold=THRESHOLDS)
# the fourth line merges template 0 onto template 1's string
@example(contents=["c a", "1 1", "c b", "a 1"], threshold=0.5)
# merges move template 0 away from "a b c", which then founds its own
@example(contents=["a b c", "a b c", "a b d", "a e 1", "a b c"], threshold=0.6)
def test_parse_templates_matches_unmemoised_scan(contents, threshold):
    vocab, log = parse_templates(raw_log(contents), threshold)
    templates, event_ids = reference_scan(contents, threshold)
    assert vocab.templates == templates
    assert [r.event_id for r in rows(log)] == event_ids


class TestTokenizeTemplate:
    def test_drops_placeholders_and_digits(self):
        assert tokenize_template("Received block <*> of size <*>") == \
            ["received", "block", "of", "size"]

    def test_camel_case_split(self):
        assert tokenize_template("PacketResponder failed") == \
            ["packet", "responder", "failed"]

    def test_all_placeholders(self):
        assert tokenize_template("<*> <*>") == []


class TestParsedCsv:
    def records(self):
        return [
            LogRecord(1, 100, "blk_1", "a <*>", 0, "normal"),
            LogRecord(2, 101, "blk_1", "b", 1, "anomaly"),
            LogRecord(3, 102, None, "a <*>", 0, None),
            LogRecord(4, 103, "blk_2", "c d", 2, "normal"),
            LogRecord(5, 104, "blk_2", "b", 1, "normal"),
        ]

    def test_vocabulary_in_first_appearance_order(self, tmp_path):
        path = tmp_path / "parsed.csv"
        write_parsed(ParsedLog.from_records(self.records()), path)
        log, vocab = read_parsed(path)
        assert vocab.templates == ["a <*>", "b", "c d"]
        assert len(log) == 5
        assert [r.event_id for r in rows(log)] == [0, 1, 0, 2, 1]

    def test_round_trip_identity(self, tmp_path):
        original = self.records()
        p1 = tmp_path / "one.csv"
        p2 = tmp_path / "two.csv"
        write_parsed(ParsedLog.from_records(original), p1)
        log, _ = read_parsed(p1)
        assert rows(log) == original
        write_parsed(log, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_column_names_it(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("LineId,Timestamp,EventTemplate,Label\n1,0,x,\n")
        with pytest.raises(FormatError, match="Identifier"):
            read_parsed(path)

    def test_unknown_id_is_vocab_size(self):
        vocab = EventVocabulary(["x", "y"])
        assert len(vocab) == 2
        assert vocab.unknown_id == 2
        assert vocab.n_ids == 3
