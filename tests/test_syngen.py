import json
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loglens import syngen
from loglens.cli import main
from loglens.exceptions import ConfigurationError
from loglens.ingest import (
    LABEL_ANOMALY,
    LABEL_NORMAL,
    EventVocabulary,
    LogRecord,
    ParsedLog,
    read_parsed,
)
from loglens.rng import Rng, derive_seed
from loglens.sequencing import PartitionSpec, partition
from loglens.syngen import (
    ERROR_TEMPLATE,
    TRUNCATE_BELOW,
    GeneratorSpec,
    SyntheticDataset,
    generate,
    is_valid_walk,
)
from test_columnar import rows


def sequences_of(dataset):
    return partition(dataset.records, PartitionSpec("identifier"))


class TestGenerate:
    def test_zero_rate_all_normal(self):
        ds = generate(GeneratorSpec(n_templates=10, n_sequences=50,
                                    anomaly_rate=0.0, mean_length=14, seed=3))
        assert all(s.label == "normal" for s in sequences_of(ds))

    def test_exact_anomaly_count(self):
        ds = generate(GeneratorSpec(n_templates=12, n_sequences=1000,
                                    anomaly_rate=0.05, mean_length=14, seed=3))
        seqs = sequences_of(ds)
        assert len(seqs) == 1000
        assert sum(s.is_anomalous for s in seqs) == 50

    def test_same_spec_identical_files(self, tmp_path):
        spec = GeneratorSpec(n_templates=8, n_sequences=40, anomaly_rate=0.1,
                             mean_length=14, seed=9)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        generate(spec).write(a)
        generate(spec).write(b)
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.automaton.json").read_bytes() == \
               (tmp_path / "b.csv.automaton.json").read_bytes()

    def test_round_trip_through_read_parsed(self, tmp_path):
        ds = generate(GeneratorSpec(n_templates=8, n_sequences=30,
                                    anomaly_rate=0.1, mean_length=14, seed=5))
        path = tmp_path / "syn.csv"
        ds.write(path)
        records, vocab = read_parsed(path)
        assert rows(records) == rows(ds.records)
        assert vocab == ds.vocab

    def test_invalid_specs(self):
        with pytest.raises(ConfigurationError):
            GeneratorSpec(n_templates=2)
        with pytest.raises(ConfigurationError):
            GeneratorSpec(anomaly_rate=1.0)
        with pytest.raises(ConfigurationError, match="n_templates"):
            GeneratorSpec(n_templates=1002)
        with pytest.raises(ConfigurationError, match="automaton_branching"):
            GeneratorSpec(automaton_branching=True)
        # any integral or real number of the right kind is accepted
        assert GeneratorSpec(n_sequences=np.int64(5), anomaly_rate=0).n_sequences == 5


class TestGroundTruth:
    def dataset(self):
        return generate(GeneratorSpec(n_templates=15, n_sequences=300,
                                      anomaly_rate=0.1, mean_length=16, seed=21))

    def to_indices(self, seq, ds):
        templates = ds.automaton["templates"]
        index_of = {t: i for i, t in enumerate(templates)}
        return [index_of[ds.vocab.templates[e]] for e in seq.events]

    def test_normal_sequences_are_valid_walks(self):
        ds = self.dataset()
        for seq in sequences_of(ds):
            if not seq.is_anomalous:
                assert is_valid_walk(self.to_indices(seq, ds), ds.automaton)

    def test_every_anomaly_differs_by_exactly_one_mutation(self):
        ds = self.dataset()
        auto = ds.automaton
        error_index = auto["error_index"]
        for seq in sequences_of(ds):
            if not seq.is_anomalous:
                continue
            walk = self.to_indices(seq, ds)
            if len(walk) < auto["truncate_below"]:
                # truncation: a valid walk prefix shorter than the window
                assert is_valid_walk(walk, auto)
            elif error_index in walk:
                # insertion: removing the error event restores a valid walk
                restored = [e for e in walk if e != error_index]
                assert is_valid_walk(restored, auto)
                assert len(restored) == len(walk) - 1
            else:
                # swap: not valid as-is, but one adjacent swap repairs it
                assert not is_valid_walk(walk, auto)
                repaired = False
                for i in range(len(walk) - 1):
                    candidate = list(walk)
                    candidate[i], candidate[i + 1] = candidate[i + 1], candidate[i]
                    if is_valid_walk(candidate, auto):
                        repaired = True
                        break
                assert repaired

    def test_sidecar_documents_the_automaton(self, tmp_path):
        ds = self.dataset()
        ds.write(tmp_path / "syn.csv")
        doc = json.loads((tmp_path / "syn.csv.automaton.json").read_text())
        assert doc["templates"][doc["error_index"]] == ERROR_TEMPLATE
        assert str(doc["start_index"]) in doc["transitions"]
        for options in doc["transitions"].values():
            total = sum(w for _, w in options)
            assert abs(total - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# the scalar generator that the array walk replaced, drawing one word at a
# time: the oracle for ``generate``


def weighted_index(rng: Rng, weights) -> int:
    total = float(sum(weights))
    r = rng.random() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if r < acc:
            return i
    return len(weights) - 1


def reference_walk(automaton: dict, length: int, rng: Rng) -> list[int]:
    state = automaton["start_index"]
    events = [state]
    while len(events) < length:
        options = automaton["transitions"][str(state)]
        idx = weighted_index(rng, [w for _, w in options])
        state = options[idx][0]
        events.append(state)
    return events


def reference_mutate(events: list[int], mutation: str, automaton: dict,
                     rng: Rng) -> tuple[list[int], str]:
    error_index = automaton["error_index"]
    lo = min(TRUNCATE_BELOW, max(1, len(events) - 2))
    if mutation == "insert":
        pos = lo + rng.integer(len(events) - lo)
        mutated = events[:pos] + [error_index] + events[pos:]
        return mutated, mutation
    if mutation == "swap":
        for _ in range(20):
            pos = lo + rng.integer(max(1, len(events) - 1 - lo))
            if pos + 1 >= len(events) or events[pos] == events[pos + 1]:
                continue
            mutated = list(events)
            mutated[pos], mutated[pos + 1] = mutated[pos + 1], mutated[pos]
            if not is_valid_walk(mutated, automaton):
                return mutated, mutation
        pos = lo + rng.integer(len(events) - lo)
        return events[:pos] + [error_index] + events[pos:], "insert"
    upper = min(TRUNCATE_BELOW - 1, len(events) - 1)
    new_len = 1 + rng.integer(upper)
    return events[:new_len], mutation


def reference_generate(spec: GeneratorSpec) -> SyntheticDataset:
    rng = Rng(derive_seed(spec.seed, "syngen"))
    templates = syngen._make_templates(spec.n_templates, rng)
    automaton = syngen._build_automaton(spec.n_templates,
                                        spec.automaton_branching, rng)
    automaton["templates"] = templates

    n_anomalous = int(spec.anomaly_rate * spec.n_sequences + 0.5)
    flags = [True] * n_anomalous + [False] * (spec.n_sequences - n_anomalous)
    rng.shuffle(flags)
    plan = syngen._mutation_plan(n_anomalous, rng)

    records: list[LogRecord] = []
    vocab = EventVocabulary()
    timestamp = 0
    line_no = 1
    lo_len = max(TRUNCATE_BELOW + 2, spec.mean_length - 4)
    hi_len = spec.mean_length + 4
    next_mutation = 0
    for index, anomalous in enumerate(flags):
        length = lo_len + rng.integer(hi_len - lo_len + 1)
        events = reference_walk(automaton, length, rng)
        if anomalous:
            events, _ = reference_mutate(events, plan[next_mutation], automaton, rng)
            next_mutation += 1
        label = LABEL_ANOMALY if anomalous else LABEL_NORMAL
        identifier = f"seq_{index:05d}"
        for event in events:
            template = templates[event]
            records.append(LogRecord(
                line_no=line_no,
                timestamp=timestamp,
                identifier=identifier,
                content=template,
                event_id=vocab.add(template),
                label=label,
            ))
            line_no += 1
            timestamp += 1
    return SyntheticDataset(records=ParsedLog.from_records(records), vocab=vocab,
                            automaton=automaton)


def assert_same_dataset(got: SyntheticDataset, want: SyntheticDataset, tmp_path):
    assert rows(got.records) == rows(want.records)
    assert got.vocab == want.vocab
    assert got.automaton == want.automaton
    got.write(tmp_path / "got.csv")
    want.write(tmp_path / "want.csv")
    for suffix in ("", ".automaton.json"):
        assert (tmp_path / f"got.csv{suffix}").read_bytes() == \
               (tmp_path / f"want.csv{suffix}").read_bytes()


class TestArrayWalkOracle:
    @settings(max_examples=40, deadline=None)
    @given(n_templates=st.integers(3, 60), branching=st.integers(1, 7),
           anomaly_rate=st.floats(0.0, 0.99), mean_length=st.integers(8, 30),
           seed=st.integers(0, 2 ** 64 - 1), chunk=st.integers(1, 9),
           chunks=st.integers(1, 4), edge=st.integers(-1, 1))
    @example(n_templates=12, branching=3, anomaly_rate=0.99, mean_length=20,
             seed=5, chunk=4, chunks=3, edge=0)
    def test_generate_matches_scalar_generator(
            self, tmp_path_factory, n_templates, branching, anomaly_rate,
            mean_length, seed, chunk, chunks, edge):
        # n_sequences lands on, just before or just after a chunk edge
        spec = GeneratorSpec(n_templates=n_templates, automaton_branching=branching,
                             anomaly_rate=anomaly_rate, mean_length=mean_length,
                             n_sequences=max(1, chunk * chunks + edge), seed=seed)
        with mock.patch.object(syngen, "CHUNK_SEQUENCES", chunk):
            got = generate(spec)
        assert_same_dataset(got, reference_generate(spec),
                            tmp_path_factory.mktemp("oracle"))

    @pytest.mark.parametrize("n_sequences", [syngen.CHUNK_SEQUENCES,
                                             syngen.CHUNK_SEQUENCES + 1])
    def test_default_chunk_edge(self, tmp_path, n_sequences):
        spec = GeneratorSpec(n_templates=20, n_sequences=n_sequences,
                             anomaly_rate=0.3, mean_length=12, seed=17)
        assert_same_dataset(generate(spec), reference_generate(spec), tmp_path)

    def test_generated_columns_are_those_of_the_scalar_records(self):
        spec = GeneratorSpec(n_templates=50, n_sequences=600, anomaly_rate=0.05,
                             mean_length=20, automaton_branching=3, seed=7)
        got, want = generate(spec).records, reference_generate(spec).records
        for column in ("line_no", "timestamp", "event_id", "identifier", "label"):
            assert np.array_equal(getattr(got, column), getattr(want, column)), column
            assert getattr(got, column).dtype == getattr(want, column).dtype, column
        assert got.identifiers == want.identifiers
        assert dict(enumerate(got.templates)) == want.templates

    def test_draw_on_a_cumulative_weight_takes_the_next_successor(self):
        # u * total equal to a cumulative weight: the scalar draw compares
        # r < acc, so that successor is passed over
        options = [[1, 0.25], [2, 0.25], [0, 0.5]]
        automaton = {"start_index": 0, "error_index": 3, "transitions": {
            "0": options, "1": [[0, 1.0]], "2": [[0, 1.0]]}}
        draws = [0.0, 0.125, 0.25, 0.375, 0.5, 0.75, 1.0 - 2.0 ** -53]
        walks = syngen._walks(syngen._transition_tables(automaton), 0,
                              np.array(draws), np.arange(len(draws)),
                              np.full(len(draws), 2))
        expected = [options[weighted_index(mock.Mock(random=lambda u=u: u),
                                           [w for _, w in options])][0]
                    for u in draws]
        assert expected == [1, 1, 2, 2, 0, 0, 0]
        assert walks[:, 1].tolist() == expected

    def test_totals_are_sum_of_the_weights(self):
        # ten weights of 0.1 add up to 1 - 2**-53 left to right, and to 1.0
        # with sum() from Python 3.12 on; the scalar draw's total is sum()'s
        options = [[succ, 0.1] for succ in range(1, 11)]
        automaton = {"start_index": 0, "error_index": 11, "transitions": {
            "0": options, **{str(s): [[0, 1.0]] for s in range(1, 11)}}}
        _, total, _ = syngen._transition_tables(automaton)
        assert total[0] == sum(w for _, w in options)

    def test_streamed_syngen_matches_generate(self, tmp_path):
        spec = GeneratorSpec(n_templates=15, n_sequences=23, anomaly_rate=0.4,
                             mean_length=16, seed=8)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(asdict(spec)))
        with mock.patch.object(syngen, "CHUNK_SEQUENCES", 5):
            assert main(["syngen", "--spec", str(spec_path),
                         "--out", str(tmp_path / "streamed.csv")]) == 0
        generate(spec).write(tmp_path / "generated.csv")
        for suffix in ("", ".automaton.json"):
            assert (tmp_path / f"streamed.csv{suffix}").read_bytes() == \
                   (tmp_path / f"generated.csv{suffix}").read_bytes()
