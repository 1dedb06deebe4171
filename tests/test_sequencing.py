import tracemalloc

import numpy as np
import pytest

from loglens.detectors import BilstmAttentionDetector, DetectorConfig
from loglens.exceptions import ConfigurationError
from loglens.ingest import EventVocabulary, LogRecord
from loglens.sequencing import (
    EventSequence,
    PartitionSpec,
    SemanticEncoder,
    WindowSpec,
    make_windows,
    partition,
    read_sequences,
    window_arrays,
    write_sequences,
)


def timed_records(timestamps, identifiers=None, labels=None):
    records = []
    for i, ts in enumerate(timestamps):
        records.append(LogRecord(
            line_no=i + 1,
            timestamp=ts,
            identifier=identifiers[i] if identifiers else None,
            content=f"event {i}",
            event_id=i % 4,
            label=labels[i] if labels else None,
        ))
    return records


class TestPartition:
    def test_fixed_example(self):
        records = timed_records([0, 1, 2, 3, 4, 5])
        seqs = partition(records, PartitionSpec("fixed", partition_size=2))
        grouped = [[records[i].event_id for i in pair] for pair in ([0, 1], [2, 3], [4, 5])]
        assert [s.events for s in seqs] == grouped

    def test_sliding_example_five_starts(self):
        records = timed_records([0, 1, 2, 3, 4, 5])
        seqs = partition(records, PartitionSpec("sliding", partition_size=2, stride=1))
        assert len(seqs) == 5
        assert [s.origin for s in seqs] == ["0", "1", "2", "3", "4"]

    def test_sliding_with_stride_equal_size_is_fixed(self):
        records = timed_records([3, 7, 8, 15, 16, 20, 21, 22])
        fixed = partition(records, PartitionSpec("fixed", partition_size=5))
        sliding = partition(records, PartitionSpec("sliding", partition_size=5, stride=5))
        assert [s.events for s in fixed] == [s.events for s in sliding]

    def test_fixed_partitions_cover_all_records(self):
        timestamps = [0, 2, 2, 9, 13, 14, 27, 27, 31]
        records = timed_records(timestamps)
        seqs = partition(records, PartitionSpec("fixed", partition_size=4))
        assert sum(len(s.events) for s in seqs) == len(records)

    def test_identifier_groups_interleaved_records(self):
        ids = ["blk_789", "blk_42", "blk_789", "blk_42", "blk_789"]
        records = timed_records([5, 1, 2, 9, 4], identifiers=ids)
        seqs = {s.origin: s for s in partition(records, PartitionSpec("identifier"))}
        assert set(seqs) == {"blk_789", "blk_42"}
        assert len(seqs["blk_789"].events) == 3
        # chronological inside the sequence regardless of input interleaving
        assert seqs["blk_789"].events == [records[2].event_id,
                                          records[4].event_id,
                                          records[0].event_id]

    def test_identifier_reconstruction_by_line_no(self):
        ids = ["a", "b", "a", None, "c", "b"]
        records = timed_records([9, 8, 7, 6, 5, 4], identifiers=ids)
        seqs = partition(records, PartitionSpec("identifier"))
        total = sum(len(s.events) for s in seqs)
        assert total == 5  # the identifier-less record is excluded

    def test_identifier_concat_resorted_reproduces_input(self):
        rng_ids = ["a", "b", "a", "c", "b", "a", "c", "c"]
        timestamps = [4, 1, 2, 9, 3, 2, 7, 6]
        records = timed_records(timestamps, identifiers=rng_ids)
        seqs = {s.origin: s for s in partition(records, PartitionSpec("identifier"))}
        # rebuild (identifier, event) pairs in line order from the sequences
        rebuilt = []
        for origin, seq in seqs.items():
            members = sorted((r for r in records if r.identifier == origin),
                             key=lambda r: (r.timestamp, r.line_no))
            assert seq.events == [r.event_id for r in members]
            rebuilt.extend(members)
        rebuilt.sort(key=lambda r: r.line_no)
        assert rebuilt == records

    def test_sliding_membership_bound(self):
        # with stride < size each record lands in at most ceil(size/stride)
        # overlapping partitions
        timestamps = [0, 1, 3, 4, 7, 8, 9, 15, 16, 20]
        records = timed_records(timestamps)
        for size, stride in ((4, 1), (4, 2), (6, 2), (5, 3)):
            seqs = partition(records, PartitionSpec("sliding", size, stride))
            membership = {r.line_no: 0 for r in records}
            for seq in seqs:
                start = int(seq.origin) * stride
                for r in records:
                    if start <= r.timestamp < start + size:
                        membership[r.line_no] += 1
            bound = -(-size // stride)
            assert max(membership.values()) <= bound
            assert min(membership.values()) >= 1

    @pytest.mark.parametrize("timestamps, size, stride, expected", [
        # one timestamp: a single window holds every record
        ([5, 5, 5], 4, 2, {"0": [0, 1, 2]}),
        # the whole span is shorter than one window
        ([0, 3, 5], 10, 3, {"0": [0, 1, 2]}),
        # given out of time order: windows [0, 4), [2, 6), [4, 8)
        ([7, 0, 3, 1], 4, 2, {"0": [1, 3, 2], "1": [2], "2": [0]}),
        # a gap leaves the windows from [4, 10) to [12, 18) empty
        ([0, 1, 18], 6, 4, {"0": [0, 1], "4": [2]}),
    ])
    def test_sliding_edge_cases(self, timestamps, size, stride, expected):
        seqs = partition(timed_records(timestamps),
                         PartitionSpec("sliding", size, stride))
        assert {s.origin: s.events for s in seqs} == expected

    def test_sliding_memory_follows_rows_not_span(self):
        # two rows 10,000,000 s apart with 1 s windows: only the two windows
        # that hold a row are made, not one per second of the span
        records = timed_records([0, 10_000_000])
        tracemalloc.start()
        try:
            seqs = partition(records, PartitionSpec("sliding", 1, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert [(s.origin, s.events) for s in seqs] == [("0", [0]), ("10000000", [1])]

    def test_sliding_orders_equal_timestamps_by_line_no(self):
        records = [LogRecord(line_no, 7, None, "x", event_id)
                   for line_no, event_id in ((3, 2), (1, 0), (2, 1))]
        (seq,) = partition(records, PartitionSpec("sliding", 2, 1))
        assert seq.events == [0, 1, 2]

    def test_sliding_refuses_record_without_event_id(self):
        records = timed_records([0, 1, 2])
        records[1].event_id = None
        with pytest.raises(ConfigurationError, match="event ids"):
            partition(records, PartitionSpec("sliding", 2, 1))

    def test_identifier_mode_without_identifiers(self):
        with pytest.raises(ConfigurationError):
            partition(timed_records([1, 2]), PartitionSpec("identifier"))

    def test_label_is_or_over_members(self):
        labels = ["normal", "anomaly", "normal", None]
        records = timed_records([0, 1, 5, 6], labels=labels)
        seqs = partition(records, PartitionSpec("fixed", partition_size=4))
        assert seqs[0].label == "anomaly"
        assert seqs[1].label == "normal"

    def test_invalid_specs(self):
        with pytest.raises(ConfigurationError):
            PartitionSpec("fixed", partition_size=0)
        with pytest.raises(ConfigurationError):
            PartitionSpec("sliding", partition_size=4, stride=5)
        with pytest.raises(ConfigurationError):
            PartitionSpec("bogus")


class TestMakeWindows:
    def seq(self, events):
        return EventSequence(events=list(events), label=None, origin="s")

    def test_paper_default_window_two_targets(self):
        windows = make_windows(self.seq(range(12)), WindowSpec(10, 1))
        assert len(windows) == 2
        assert windows[0].inputs == list(range(10)) and windows[0].target == 10
        assert windows[1].inputs == list(range(1, 11)) and windows[1].target == 11

    def test_length_equal_window_size_yields_none(self):
        assert make_windows(self.seq(range(10)), WindowSpec(10, 1)) == []

    def test_step_one_count_closed_form(self):
        for length in (11, 20, 35):
            windows = make_windows(self.seq(range(length)), WindowSpec(10, 1))
            assert len(windows) == length - 10

    def test_counts_match_brute_force_enumeration(self):
        # independent oracle: enumerate all valid target positions directly
        for length in range(0, 51):
            events = list(range(length))
            for m in range(1, 21):
                for s in range(1, 6):
                    expected = [t for t in range(m, length) if (t - m) % s == 0]
                    got = make_windows(self.seq(events), WindowSpec(m, s))
                    assert [w.position for w in got] == expected
                    for w in got:
                        assert w.inputs == events[w.position - m:w.position]
                        assert w.target == events[w.position]


class TestWindowArrays:
    def assert_matches_make_windows(self, sequences, spec):
        inputs, targets, owner, positions = window_arrays(sequences, spec)
        expected = [(i, w) for i, seq in enumerate(sequences)
                    for w in make_windows(seq, spec)]
        assert inputs.shape == (len(expected), spec.window_size)
        assert inputs.tolist() == [w.inputs for _, w in expected]
        assert targets.tolist() == [w.target for _, w in expected]
        assert owner.tolist() == [i for i, _ in expected]
        assert positions.tolist() == [w.position for _, w in expected]

    def test_equals_make_windows_over_oracle_grid(self):
        for length in range(0, 51):
            seq = EventSequence(list(range(100, 100 + length)), None, "x")
            for m in range(1, 21):
                for s in range(1, 6):
                    self.assert_matches_make_windows([seq], WindowSpec(m, s))

    def test_mixed_list_with_empty_and_windowless_sequences(self):
        lengths = [0, 7, 3, 12, 0, 4, 9, 1]
        sequences = [EventSequence([(7 * i + j) % 11 for j in range(n)], None, str(i))
                     for i, n in enumerate(lengths)]
        for m, s in ((4, 1), (4, 3), (8, 2), (12, 1)):
            self.assert_matches_make_windows(sequences, WindowSpec(m, s))
        self.assert_matches_make_windows([], WindowSpec(4, 1))


class TestEncodings:
    """The supervised families' fixed-length input: each sequence's first
    ``max_len`` ids, right-padded, clamped to the unknown id, which pads."""

    def padded(self, events, max_len, clamp):
        det = BilstmAttentionDetector(DetectorConfig("bilstm_attention",
                                                     max_len=max_len))
        ids = det._padded_ids([EventSequence(events, None, "s")], clamp)
        assert ids.dtype == np.int64 and ids.shape == (1, max_len)
        return ids[0].tolist()

    def test_known_ids_pass_through(self):
        assert self.padded([0, 3, 2], 3, clamp=5) == [0, 3, 2]

    def test_out_of_vocab_maps_to_unknown(self):
        assert self.padded([0, 7, 5], 3, clamp=5) == [0, 5, 5]

    def test_all_unknown(self):
        assert self.padded([9, 9], 2, clamp=4) == [4, 4]

    def test_pad_shorter(self):
        assert self.padded([1, 2, 3], 5, clamp=9) == [1, 2, 3, 9, 9]

    def test_exact_length_unchanged(self):
        assert self.padded([1, 2, 3, 4, 5], 5, clamp=9) == [1, 2, 3, 4, 5]

    def test_truncate_keeps_prefix(self):
        assert self.padded(list(range(8)), 5, clamp=9) == [0, 1, 2, 3, 4]


class TestSemanticEncoder:
    def vocab(self):
        return EventVocabulary([
            "connection opened",
            "connection closed",
            "opened connection",
            "<*> <*>",
            "heartbeat",
        ])

    def test_single_word_template_equals_word_vector(self):
        enc = SemanticEncoder(self.vocab(), dim=6, seed=3)
        table = enc.table_for(self.vocab())
        assert np.array_equal(table[4], enc.word_vectors["heartbeat"])

    def test_word_order_invariance(self):
        enc = SemanticEncoder(self.vocab(), dim=6, seed=3)
        table = enc.table_for(self.vocab())
        assert np.allclose(table[0], table[2])

    def test_wordless_and_unknown_rows_are_zero(self):
        enc = SemanticEncoder(self.vocab(), dim=6, seed=3)
        table = enc.table_for(self.vocab())
        assert np.all(table[3] == 0.0)
        assert np.all(table[-1] == 0.0)
        assert table.shape == (6, 6)

    def test_same_seed_bit_identical(self):
        a = SemanticEncoder(self.vocab(), dim=8, seed=11)
        b = SemanticEncoder(self.vocab(), dim=8, seed=11)
        assert np.array_equal(a.table_for(self.vocab()), b.table_for(self.vocab()))

    def test_extended_vocab_preserves_existing_rows(self):
        enc = SemanticEncoder(self.vocab(), dim=8, seed=11)
        extended = self.vocab().extended(["connection reset badly"])
        table = enc.table_for(extended)
        assert np.array_equal(table[:5], enc.table_for(self.vocab())[:5])
        # known word "connection" contributes; unknown words are skipped
        assert np.array_equal(table[5], enc.word_vectors["connection"])


class TestSequenceJsonl:
    def test_round_trip(self, tmp_path):
        seqs = [
            EventSequence([1, 2, 3], "normal", "blk_1"),
            EventSequence([4], "anomaly", "blk_2"),
            EventSequence([5, 6], None, "7"),
        ]
        vocab = EventVocabulary([f"t{i}" for i in range(7)])
        path = tmp_path / "seqs.jsonl"
        write_sequences(seqs, vocab, path)
        assert read_sequences(path) == (seqs, vocab)

    def test_read_maps_ids_onto_known_templates(self, tmp_path):
        path = tmp_path / "seqs.jsonl"
        write_sequences([EventSequence([0, 1, 2, 9], "normal", "blk_1")],
                        EventVocabulary(["a", "b", "c"]), path)
        known = EventVocabulary(["c", "x", "a"])
        sequences, vocab = read_sequences(path, known)
        # known templates keep their ids, the file's others follow, and an
        # id outside the file's vocabulary is the unknown id
        assert vocab.templates == ["c", "x", "a", "b"]
        assert sequences[0].events == [2, 3, 0, vocab.unknown_id]
        assert known.templates == ["c", "x", "a"]
