"""The prefix-tree LSTM path that scoring takes (``PrefixTree``, ``lstm_tree``,
``run_lstm_tree``) against the per-step ``lstm_sequence`` path that training
takes: the same hidden states, bit for bit, for the shapes scoring meets."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loglens.autodiff import (
    ParamSet,
    PrefixTree,
    Tensor,
    embedding_lookup,
    lstm_params,
    lstm_tree,
    no_grad,
    run_lstm,
    run_lstm_tree,
)
from loglens.detectors import (
    BilstmAttentionDetector,
    DetectorConfig,
    LstmForecastDetector,
    build_detector,
)
from loglens.exceptions import DimensionError
from loglens.ingest import EventVocabulary
from loglens.rng import Rng
from loglens.sequencing import EventSequence, SemanticEncoder


def input_table(kind: str, n_ids: int, seed: int) -> Tensor:
    """An index table (a trainable embedding) or a semantic one (frozen
    word averages, the unknown id's row zero)."""
    if kind == "index":
        return ParamSet(seed).uniform("input_table", (n_ids, 16), fan_in=16)
    vocab = EventVocabulary([f"event {i} word{i % 3} part{i % 2}"
                             for i in range(n_ids - 1)])
    return Tensor(SemanticEncoder(vocab, dim=32, seed=seed).table_for(vocab))


def lstm_stack(in_dim: int, units: int, layers: int, seed: int) -> ParamSet:
    ps = ParamSet(seed)
    for layer in range(layers):
        lstm_params(ps, f"l{layer}", in_dim if layer == 0 else units, units)
    return ps


def per_step(table, ids, ps, layers, units, reverse=False) -> np.ndarray:
    """(T, batch, units): the stacked ``run_lstm`` over one lookup of the
    whole id array, as the models train."""
    hs = embedding_lookup(table, ids.T)
    for layer in range(layers):
        hs = run_lstm(hs, ps, f"l{layer}", units, reverse=reverse)
    return hs.data


def by_tree(table, ids, ps, layers, units, reverse=False) -> np.ndarray:
    """(T, batch, units) from the tree path, spread back over rows in time
    order."""
    tree, states = run_lstm_tree(table, ids, ps, [f"l{n}" for n in range(layers)],
                                 units, reverse=reverse)
    steps = ids.shape[1]
    return np.stack([tree.rows(states, steps - 1 - t if reverse else t)
                     for t in range(steps)])


@st.composite
def id_matrices(draw):
    """Id matrices with the row patterns scoring meets: random rows, rows that
    share prefixes, one repeated row, a single row, one step."""
    n_ids = draw(st.integers(2, 7))
    batch = draw(st.integers(1, 24))
    steps = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["random", "shared", "identical"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "identical":
        ids = np.repeat(rng.integers(0, n_ids, (1, steps)), batch, axis=0)
    elif kind == "shared":  # a few distinct rows, repeated and interleaved
        rows = rng.integers(0, n_ids, (draw(st.integers(1, 3)), steps))
        ids = rows[rng.integers(0, len(rows), batch)]
    else:
        ids = rng.integers(0, n_ids, (batch, steps))
    return n_ids, ids


class TestTreePathBitIdentical:
    @settings(max_examples=60, deadline=None)
    @given(id_matrices(), st.sampled_from(["index", "semantic"]),
           st.sampled_from([8, 13, 64]), st.sampled_from([1, 2]), st.booleans(),
           st.integers(0, 1000))
    def test_equals_per_step_path(self, matrix, table_kind, units, layers,
                                  reverse, seed):
        n_ids, ids = matrix
        table = input_table(table_kind, n_ids, seed)
        ps = lstm_stack(table.shape[1], units, layers, seed)
        expected = per_step(table, ids, ps, layers, units, reverse)
        with no_grad():
            got = by_tree(table, ids, ps, layers, units, reverse)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("units", [13, 64])
    @pytest.mark.parametrize("ids_kind", ["random", "shared"])
    def test_full_block(self, units, ids_kind):
        # 1,024 rows of 32-wide semantic inputs: with an odd ``units``, these
        # GEMMs round a row differently at some row counts between 2 and 1,024
        rng = np.random.default_rng(units)
        ids = rng.integers(0, 50, (1024, 4))
        if ids_kind == "shared":
            ids = ids[rng.integers(0, 300, 1024)]
        table = input_table("semantic", 50, 3)
        ps = lstm_stack(32, units, 1, 3)
        expected = per_step(table, ids, ps, 1, units)
        assert by_tree(table, ids, ps, 1, units).tobytes() == expected.tobytes()


class TestPrefixTree:
    def test_nodes_are_distinct_prefixes(self):
        ids = np.array([[1, 2, 3], [1, 2, 4], [1, 5, 3], [1, 2, 3]])
        tree = PrefixTree(ids)
        assert [len(t) for t in tree.tokens] == [2, 2, 3]  # step 0 padded to 2
        for t in range(3):
            prefixes = {tuple(row) for row in ids[:, :t + 1]}
            rows = [tuple(row) for row in ids[:, :t + 1]]
            # rows with one prefix share one node, and only they do
            nodes = tree.inverse[t]
            assert len(set(nodes.tolist())) == len(prefixes)
            for a in range(4):
                for b in range(4):
                    assert (nodes[a] == nodes[b]) == (rows[a] == rows[b])

    def test_parent_and_token_rebuild_each_prefix(self):
        ids = np.random.default_rng(5).integers(0, 6, (40, 5))
        tree = PrefixTree(ids)
        assert tree.inverse[0] is not None and tree.inverse[-1] is None
        for r in range(40):
            for last in range(5):
                node = r if tree.inverse[last] is None else tree.inverse[last][r]
                prefix = []
                for t in range(last, -1, -1):
                    prefix.append(int(tree.tokens[t][node]))
                    if t and tree.parents[t] is not None:
                        node = tree.parents[t][node]
                assert prefix[::-1] == ids[r, :last + 1].tolist()

    def test_distinct_rows_switch_to_row_order(self):
        ids = np.array([[0, 1, 2], [0, 2, 2], [1, 1, 1]])
        tree = PrefixTree(ids)
        assert tree.inverse[1] is None and tree.inverse[2] is None
        assert tree.parents[2] is None
        assert tree.tokens[2].tolist() == [2, 2, 1]

    @pytest.mark.parametrize("batch, nodes", [(1, 1), (2, 2), (9, 2)])
    def test_row_count_rule(self, batch, nodes):
        # identical rows: one prefix per step, computed on two rows (one row
        # takes numpy's GEMV path) unless the block itself has one row
        tree = PrefixTree(np.tile([3, 1, 4], (batch, 1)))
        assert [len(t) for t in tree.tokens] == [nodes] * 3
        assert tree.states == 3 * nodes

    def test_min_rows_pads_to_block(self):
        tree = PrefixTree(np.zeros((6, 2), dtype=np.int64), min_rows=6)
        assert [len(t) for t in tree.tokens] == [6, 6]
        assert PrefixTree(np.zeros((3, 2), dtype=np.int64), min_rows=8).states == 6

    def test_odd_units_pad_every_step_to_the_block(self):
        ids = np.zeros((5, 3), dtype=np.int64)
        table = input_table("index", 2, 1)
        for units, rows in ((13, 5), (8, 2)):
            tree, states = run_lstm_tree(table, ids, lstm_stack(16, units, 1, 1),
                                         ["l0"], units)
            assert [len(s) for s in states] == [rows] * 3

    def test_input_shape_mismatch(self):
        tree = PrefixTree(np.array([[0, 1], [1, 1]]))
        ps = lstm_stack(4, 3, 1, 0)
        with pytest.raises(DimensionError):
            lstm_tree([np.zeros((2, 4))], tree, ps["l0.wx"], ps["l0.wh"], ps["l0.b"])
        with pytest.raises(DimensionError):
            lstm_tree([], PrefixTree(np.zeros((2, 0))), ps["l0.wx"], ps["l0.wh"],
                      ps["l0.b"])
        with pytest.raises(DimensionError):
            lstm_tree([np.zeros((2, 5)), np.zeros((2, 5))], tree,
                      ps["l0.wx"], ps["l0.wh"], ps["l0.b"])


VOCAB = EventVocabulary(["alpha start", "beta step", "gamma done", "delta wait",
                         "fatal error"])


def sequences(n, length, seed, vocab_size=4):
    rng = Rng(seed)
    return [EventSequence([rng.integer(vocab_size) for _ in range(length)],
                          "anomaly" if i % 5 == 0 else "normal", f"s{i}")
            for i in range(n)]


class TestDetectorsScoreAsTheyTrain:
    """``_logits`` with a graph (the per-step path) and without (the tree
    path) give the same bits, for both LSTM families and input modes."""

    @pytest.mark.parametrize("semantic", [False, True])
    @pytest.mark.parametrize("hidden, layers", [(8, 2), (13, 1)])
    def test_lstm_forecast(self, semantic, hidden, layers):
        det = LstmForecastDetector(DetectorConfig(
            "lstm_forecast", semantics=semantic, window_size=4, hidden=hidden,
            layers=layers, embed_dim=32 if semantic else 16, epochs=1, seed=3))
        det.fit(sequences(20, 12, 1), VOCAB)
        table, clamp = det._input_table(VOCAB)
        ids, _, _, _ = det._examples(sequences(30, 12, 2), clamp)
        expected = det._logits(det.params_, table, ids).data
        with no_grad():
            got = det._logits(det.params_, table, ids).data
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("semantic", [False, True])
    @pytest.mark.parametrize("hidden", [8, 13])
    def test_bilstm_attention(self, semantic, hidden):
        det = BilstmAttentionDetector(DetectorConfig(
            "bilstm_attention", semantics=semantic, max_len=10, hidden=hidden,
            embed_dim=32 if semantic else 16, epochs=1, seed=3))
        det.fit(sequences(20, 8, 1), VOCAB)
        table, clamp = det._input_table(VOCAB)
        ids, _, _, _ = det._examples(sequences(30, 7, 2) + sequences(3, 14, 4), clamp)
        expected = det._logits(det.params_, table, ids).data
        with no_grad():
            got = det._logits(det.params_, table, ids).data
        assert got.tobytes() == expected.tobytes()

    def test_detect_window_scores_as_predict(self):
        det = build_detector(DetectorConfig("lstm_forecast", window_size=5, k=2,
                                            hidden=16, layers=2, embed_dim=8,
                                            epochs=2, seed=4))
        det.fit(sequences(30, 12, 5), VOCAB)
        # one window per sequence, scored alone and in one batch
        stream = sequences(200, 6, 6)
        verdicts = det.predict(stream)
        for seq, verdict in zip(stream, verdicts):
            (one,) = det.predict([seq])
            assert repr(one) == repr(verdict)

    def test_predict_logs_throughput_and_states(self, caplog):
        det = build_detector(DetectorConfig("lstm_forecast", window_size=3, hidden=8,
                                            layers=2, embed_dim=8, epochs=1, seed=1))
        det.fit(sequences(10, 8, 1), VOCAB)
        with caplog.at_level(logging.DEBUG, logger="loglens.detectors.base"), \
                caplog.at_level(logging.DEBUG, logger="loglens.autodiff.nn"):
            det.predict(sequences(4, 8, 2))
        messages = [r.getMessage() for r in caplog.records]
        assert any("lstm_forecast predict: 20 examples in" in m
                   and "examples/s" in m for m in messages)
        states = [r.getMessage() for r in caplog.records
                  if r.name == "loglens.autodiff.nn"
                  and "LSTM states computed" in r.getMessage()]
        assert len(states) == 1 and "for 120 rows x steps x layers" in states[0]
