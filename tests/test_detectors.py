import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loglens.autodiff.tensor import _toposort
from loglens.detectors import (
    FAMILIES,
    SUPERVISED_FAMILIES,
    AutoencoderDetector,
    BilstmAttentionDetector,
    CnnDetector,
    DetectorConfig,
    LstmForecastDetector,
    TransformerForecastDetector,
    Verdict,
    build_detector,
    load_detector,
    nearest_rank_quantile,
    save_detector,
    target_ranks,
)
from loglens.exceptions import ConfigurationError, StateError, TrainingError
from loglens.ingest import EventVocabulary
from loglens.rng import Rng, derive_seed
from loglens.sequencing import EventSequence, SemanticEncoder


VOCAB = EventVocabulary(["alpha start", "beta step", "gamma done", "fatal error"])
FAMILY_CLASSES = {cls.family: cls for cls in (
    LstmForecastDetector, TransformerForecastDetector, AutoencoderDetector,
    BilstmAttentionDetector, CnnDetector)}


def pattern_sequences(n=30, label="normal"):
    return [EventSequence([0, 1, 2] * 8, label, f"s{i}") for i in range(n)]


def random_sequences(rng, n, length=12, vocab_size=3, error_rate=0.0):
    seqs = []
    for i in range(n):
        events = [rng.integer(vocab_size) for _ in range(length)]
        label = "normal"
        if error_rate and rng.random() < error_rate:
            events[rng.integer(length)] = 3
            label = "anomaly"
        seqs.append(EventSequence(events, label, f"r{i}"))
    return seqs


def fast_lstm(semantics=False, **kw):
    defaults = dict(window_size=2, step_size=1, k=1, hidden=16, layers=1,
                    embed_dim=8, epochs=8, batch_size=32, lr=5e-3, seed=1)
    defaults.update(kw)
    return LstmForecastDetector(DetectorConfig("lstm_forecast", semantics=semantics,
                                               **defaults))


def config_encoder(config: DetectorConfig, vocab: EventVocabulary) -> SemanticEncoder:
    """The semantic encoder a config names: its width and a seed derived
    from its seed."""
    return SemanticEncoder(vocab, config.resolved_embed_dim,
                           derive_seed(config.seed, "semantic"))


class TestTopKRule:
    def test_rank_three_with_k_two_is_anomalous(self):
        probs = np.array([[0.5, 0.3, 0.2]])
        rank = int(target_ranks(probs, np.array([2]))[0])
        assert rank == 3
        assert rank > 2          # anomalous at k=2
        assert not rank > 3      # normal at k=3

    def test_tie_with_kth_probability_counts_as_inside(self):
        probs = np.array([[0.4, 0.3, 0.3]])
        assert int(target_ranks(probs, np.array([2]))[0]) == 2

    def test_k_equal_class_count_never_anomalous(self):
        rng = Rng(4)
        probs = np.asarray([[rng.random() for _ in range(6)] for _ in range(50)])
        probs /= probs.sum(axis=1, keepdims=True)
        targets = np.asarray([rng.integer(6) for _ in range(50)])
        ranks = target_ranks(probs, targets)
        assert np.all(ranks <= 6)


def per_window_rule(n_sequences, owner, positions, scores, cutoff):
    """The decision rule written per window: a sequence is anomalous iff any
    of its windows scores above the cutoff; its score is the highest window
    score and its position the first anomalous window's. A sequence without
    windows is normal with score 0.0."""
    verdicts = []
    for i in range(n_sequences):
        mine = [(s, p) for o, s, p in zip(owner, scores, positions) if o == i]
        flagged = [p for s, p in mine if s > cutoff]
        verdicts.append(Verdict(anomalous=bool(flagged),
                                score=max((s for s, _ in mine), default=0.0),
                                position=flagged[0] if flagged else None))
    return verdicts


class TestSequenceVerdict:
    """``_sequence_verdicts`` over explicit example arrays. The forecaster's
    cutoff is k = 2: a window whose rank exceeds 2 is anomalous."""

    def verdicts(self, n_sequences, owner, positions, scores):
        return fast_lstm(k=2)._sequence_verdicts(
            n_sequences, np.asarray(owner, dtype=np.int64),
            np.asarray(positions, dtype=np.int64), np.asarray(scores, dtype=float))

    def test_all_normal(self):
        assert self.verdicts(1, [0, 0], [2, 3], [1.0, 2.0]) == [
            Verdict(anomalous=False, score=2.0, position=None)]

    def test_any_anomalous_window_marks_sequence(self):
        (combined,) = self.verdicts(1, [0, 0, 0], [2, 3, 4], [1.0, 7.0, 3.0])
        assert combined.anomalous
        assert combined.score == 7.0
        assert combined.position == 3

    def test_empty_window_list_is_normal(self):
        assert self.verdicts(2, [1], [2], [7.0])[0] == Verdict(
            anomalous=False, score=0.0, position=None)
        assert self.verdicts(1, [], [], []) == [Verdict(False, 0.0, None)]

    def test_monotone_in_added_anomalies(self):
        assert self.verdicts(1, [0], [2], [3.0])[0].anomalous
        assert self.verdicts(1, [0, 0], [2, 3], [3.0, 1.0])[0].anomalous

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 6).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                           st.sampled_from([0.0, 1.0, 2.0, 3.0, 7.5]),
                           st.integers(0, 40)),
                 max_size=0 if n == 0 else 12),
        st.booleans())))
    def test_matches_per_window_rule(self, case):
        # owners with gaps, scores tied with the cutoff (2.0), and positions
        # that are None, as the supervised families give them
        n_sequences, windows, no_positions = case
        windows = sorted(windows, key=lambda w: w[0])
        owner = np.asarray([o for o, _, _ in windows], dtype=np.int64)
        scores = np.asarray([s for _, s, _ in windows], dtype=float)
        positions = (np.full(len(windows), None) if no_positions
                     else np.asarray([p for _, _, p in windows], dtype=np.int64))
        got = fast_lstm(k=2)._sequence_verdicts(n_sequences, owner, positions, scores)
        expected = per_window_rule(n_sequences, owner.tolist(), positions.tolist(),
                                   scores.tolist(), 2)
        assert [repr(v) for v in got] == [repr(v) for v in expected]


class TestForecastTraining:
    def test_repeating_pattern_predicts_successor(self):
        det = fast_lstm(epochs=15).fit(pattern_sequences(), VOCAB)
        probs = det._softmax(det.params_["input_table"], np.array([[0, 1]]))
        assert probs[0, 2] > 0.9

    def test_zero_epochs_leaves_params_at_init(self):
        det = fast_lstm(epochs=0)
        det.fit(pattern_sequences(), VOCAB)
        fresh = det._build_params(VOCAB)
        for name in det.params_.names():
            assert np.array_equal(det.params_[name].data, fresh[name].data)

    def test_same_seed_bit_identical_params(self):
        a = fast_lstm(epochs=3).fit(pattern_sequences(), VOCAB)
        b = fast_lstm(epochs=3).fit(pattern_sequences(), VOCAB)
        for name in a.params_.names():
            assert np.array_equal(a.params_[name].data, b.params_[name].data)

    def test_final_epoch_loss_not_above_first(self):
        det = fast_lstm(epochs=10).fit(pattern_sequences(), VOCAB)
        assert det.epoch_losses_[-1] <= det.epoch_losses_[0]

    def test_empty_window_set_raises(self):
        short = [EventSequence([0, 1], "normal", "s")]
        with pytest.raises(TrainingError):
            fast_lstm(window_size=5).fit(short, VOCAB)

    def test_short_sequences_verdicted_normal(self):
        det = fast_lstm(epochs=2).fit(pattern_sequences(), VOCAB)
        (verdict,) = det.predict([EventSequence([0, 1], None, "tiny")])
        assert not verdict.anomalous and verdict.score == 0.0

    def test_k_at_class_count_flags_nothing(self):
        det = fast_lstm(epochs=2).fit(pattern_sequences(), VOCAB)
        det.k = VOCAB.n_ids
        rng = Rng(9)
        wild = random_sequences(rng, 20, vocab_size=4)
        assert sum(v.anomalous for v in det.predict(wild)) == 0

    def test_topk_monotone_and_empty_at_vocab_size(self):
        det = fast_lstm(epochs=4).fit(pattern_sequences(), VOCAB)
        rng = Rng(10)
        test = random_sequences(rng, 30, vocab_size=4)
        previous = None
        for k in range(1, VOCAB.n_ids + 1):
            det.k = k
            flagged = {i for i, v in enumerate(det.predict(test)) if v.anomalous}
            if previous is not None:
                assert flagged <= previous
            previous = flagged
        assert previous == set()

    def test_transformer_learns_pattern(self):
        det = build_detector(DetectorConfig(
            "transformer_forecast", window_size=2, k=1, hidden=16, layers=1, heads=2,
            embed_dim=8, epochs=15, batch_size=32, lr=5e-3, seed=1)).fit(
                pattern_sequences(), VOCAB)
        bad = EventSequence([0, 1, 0] + [0, 1, 2] * 3, "anomaly", "bad")
        good = EventSequence([0, 1, 2] * 4, "normal", "good")
        assert det.predict([bad])[0].anomalous
        assert not det.predict([good])[0].anomalous


class TestSemanticMode:
    def semantic_detector(self, **kw):
        det = fast_lstm(semantics=True, **kw)
        return det, config_encoder(det.config, VOCAB)

    def test_input_table_frozen_through_training(self):
        det, encoder = self.semantic_detector(epochs=3)
        before = encoder.table_for(VOCAB).copy()
        det.fit(pattern_sequences(), VOCAB)
        assert np.array_equal(det.params_["input_table"].data, before)

    def test_extended_vocab_rows_used_without_retraining(self):
        det, _ = self.semantic_detector(epochs=3)
        det.fit(pattern_sequences(), VOCAB)
        extended = VOCAB.extended(["gamma done now"])
        seq = EventSequence([0, 1, 2, 0, 1, 4], None, "x")
        verdicts = det.predict([seq], vocab=extended)
        assert len(verdicts) == 1  # runs without retraining or index errors

    def test_fit_builds_the_training_table_once(self, monkeypatch):
        built = []
        table_for = SemanticEncoder.table_for

        def counted(encoder, vocab):
            built.append(len(vocab))
            return table_for(encoder, vocab)

        monkeypatch.setattr(SemanticEncoder, "table_for", counted)
        fast_lstm(semantics=True, epochs=1).fit(pattern_sequences(), VOCAB)
        assert built == [len(VOCAB)]


class TestAutoencoder:
    def test_nearest_rank_quantile_definition(self):
        values = list(range(1, 101))
        assert nearest_rank_quantile(values, 0.95) == 95
        assert nearest_rank_quantile(values, 1.0) == 100
        assert nearest_rank_quantile([7.0], 0.5) == 7.0

    def fit_ae(self, **kw):
        defaults = dict(window_size=2, hidden=32, epochs=15, batch_size=32,
                        lr=5e-3, threshold_quantile=0.99, seed=1)
        defaults.update(kw)
        return build_detector(DetectorConfig("autoencoder", **defaults)).fit(
            pattern_sequences(), VOCAB)

    @staticmethod
    def one_window(inputs, target):
        """The sequence that is one window: its verdict is the window's."""
        return [EventSequence([*inputs, target], None, "window")]

    def test_training_windows_reconstruct_better_than_random(self):
        det = self.fit_ae(window_size=4)
        rng = Rng(2)
        wins = 0
        for _ in range(100):
            (normal,) = det.predict(self.one_window([0, 1, 2, 0], 1))
            (noise,) = det.predict(self.one_window(
                [rng.integer(4) for _ in range(4)], 0))
            if normal.score <= noise.score:
                wins += 1
        assert wins >= 90

    def test_error_equal_to_threshold_is_normal(self):
        det = self.fit_ae()
        window = self.one_window([0, 1], 2)
        det.threshold_ = det.predict(window)[0].score
        assert not det.predict(window)[0].anomalous
        det.threshold_ = det.predict(window)[0].score / 2.0
        assert det.predict(window)[0].anomalous

    def test_raising_quantile_never_increases_anomaly_count(self):
        rng = Rng(3)
        test = random_sequences(rng, 40, vocab_size=4)
        counts = []
        for q in (0.5, 0.8, 0.9, 0.99, 1.0):
            det = self.fit_ae(threshold_quantile=q, epochs=5)
            counts.append(sum(v.anomalous for v in det.predict(test)))
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_detect_without_threshold_raises(self):
        det = build_detector(DetectorConfig("autoencoder", window_size=2))
        with pytest.raises(StateError):
            det.predict(self.one_window([0, 1], 2))

    def test_determinism(self):
        a = self.fit_ae(epochs=3)
        b = self.fit_ae(epochs=3)
        assert a.threshold_ == b.threshold_
        for name in a.params_.names():
            assert np.array_equal(a.params_[name].data, b.params_[name].data)


class TestSupervised:
    def toy_data(self):
        rng = Rng(7)
        seqs = random_sequences(rng, 80, vocab_size=3)
        for i in range(0, 80, 4):
            seqs[i].events[rng.integer(len(seqs[i].events))] = 3
            seqs[i].label = "anomaly"
        return seqs

    def test_separable_labels_reach_high_accuracy(self):
        seqs = self.toy_data()
        for family in SUPERVISED_FAMILIES:
            det = build_detector(DetectorConfig(
                family, max_len=12, hidden=16, embed_dim=8, epochs=20, batch_size=32,
                lr=1e-2, seed=1)).fit(seqs, VOCAB)
            verdicts = det.predict(seqs)
            accuracy = np.mean([v.anomalous == s.is_anomalous
                                for v, s in zip(verdicts, seqs)])
            assert accuracy >= 0.99, f"{family} accuracy {accuracy}"

    def test_single_class_data_raises(self):
        with pytest.raises(TrainingError):
            build_detector(DetectorConfig("bilstm_attention", max_len=8, epochs=1)).fit(
                pattern_sequences(5), VOCAB)

    def test_zero_attention_weights_reduce_to_bias(self):
        seqs = self.toy_data()
        det = build_detector(DetectorConfig("bilstm_attention", max_len=12, hidden=8,
                                            embed_dim=4, epochs=1, seed=1)).fit(seqs, VOCAB)
        det.params_["attn.w"].data[:] = 0.0
        probs = [v.score for v in det.predict(seqs[:6])]
        assert np.allclose(probs, probs[0])  # depends only on the output bias
        b = det.params_["out.b"].data
        expected = np.exp(b[1]) / np.exp(b).sum()
        assert probs[0] == pytest.approx(expected)

    def test_attention_weights_in_open_unit_interval(self):
        seqs = self.toy_data()
        det = build_detector(DetectorConfig("bilstm_attention", max_len=12, hidden=8,
                                            embed_dim=4, epochs=3, seed=1)).fit(seqs, VOCAB)
        from loglens.autodiff import embedding_lookup, run_lstm, concat, tanh
        ids = det._padded_ids(seqs[:4], det.vocab_size_)
        xs = embedding_lookup(det.params_["input_table"], ids.T)
        fw = run_lstm(xs, det.params_, "fw", det.config.hidden)
        bw = run_lstm(xs, det.params_, "bw", det.config.hidden, reverse=True)
        hidden = concat([fw, bw], axis=2).transpose((1, 0, 2))
        weights = tanh((hidden * det.params_["attn.w"]).sum(axis=2)).data
        assert np.all(np.abs(weights) < 1.0)

    def test_cnn_embedding_matrix_shape(self):
        seqs = self.toy_data()
        det = build_detector(DetectorConfig("cnn", max_len=12, hidden=8, embed_dim=6,
                                            epochs=1, seed=1)).fit(seqs, VOCAB)
        assert det.params_["input_table"].shape == (len(VOCAB) + 1, 6)

    def test_probability_half_is_normal(self):
        det = build_detector(DetectorConfig("cnn"))
        (verdict,) = det._sequence_verdicts(1, np.arange(1), np.full(1, None),
                                            np.array([0.5]))
        assert not verdict.anomalous

    def test_classify_pure_function(self):
        seqs = self.toy_data()
        det = build_detector(DetectorConfig("cnn", max_len=12, hidden=8, embed_dim=6,
                                            epochs=2, seed=1)).fit(seqs, VOCAB)
        v1 = det.predict(seqs[:1])
        v2 = det.predict(seqs[:1])
        assert v1 == v2

    def test_supervised_determinism(self):
        seqs = self.toy_data()
        config = DetectorConfig("cnn", max_len=12, hidden=8, embed_dim=6, epochs=2,
                                seed=9)
        runs = [build_detector(config).fit(seqs, VOCAB) for _ in range(2)]
        for name in runs[0].params_.names():
            assert np.array_equal(runs[0].params_[name].data,
                                  runs[1].params_[name].data)


class TestInputTableGraph:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_training_loss_reads_the_embedding_table_once(self, family):
        """An index model's training loss reads its embedding table through at
        most one node, so the table's gradient is one scatter, summed in an
        order that does not depend on how the engine walks the graph."""
        config = DetectorConfig(family, k=2, window_size=3, hidden=8, layers=2,
                                heads=2, embed_dim=4, max_len=12, seed=5)
        det = build_detector(config)
        det.vocab_ = VOCAB
        det.params_ = params = det._build_params(VOCAB)
        seqs = random_sequences(Rng(17), 20, vocab_size=3, error_rate=0.3)
        seqs[0].label = "anomaly"
        inputs, targets, _ = det._training_examples(seqs, Rng(1))
        loss = det._loss(params, det._input_table(None)[0], inputs, targets)
        table = params["input_table"] if "input_table" in params else None
        readers = [node for node in _toposort(loss)
                   if any(parent is table for parent in node._parents)]
        assert len(readers) <= 1

    @pytest.mark.parametrize("family", FAMILIES)
    def test_training_examples_are_id_arrays(self, family):
        """Every family trains on event ids, not on features gathered from
        them: windows of ``window_size`` ids, or ``max_len`` ids a sequence
        for the supervised families (the autoencoder's held-out windows
        too)."""
        config = DetectorConfig(family, window_size=3, max_len=12, seed=5)
        det = build_detector(config)
        det._set_vocab(VOCAB)
        seqs = random_sequences(Rng(17), 20, vocab_size=3, error_rate=0.3)
        seqs[0].label = "anomaly"
        inputs, _, held_out = det._training_examples(seqs, Rng(1))
        width = config.max_len if family in SUPERVISED_FAMILIES else config.window_size
        for ids in [inputs] + ([] if held_out is None else [held_out]):
            assert ids.dtype.kind == "i"
            assert ids.ndim == 2 and ids.shape[1] == width and len(ids)


class TestTrainingMemory:
    def test_bilstm_step_holds_only_what_backward_reads(self):
        # one BiLSTM training step at the acceptance config: 30 steps, 64
        # units, a 128-row batch of semantic inputs. Holding every node and
        # gradient to the end of the walk, a (T, B, u) tanh(c) per LSTM and
        # the readout's (B, T, 2u) products, it peaked at about 67 MB traced
        rng = Rng(31)
        vocab = EventVocabulary([f"event {i} step {i % 7}" for i in range(50)])
        seqs = [EventSequence([rng.integer(50) for _ in range(30)],
                              "anomaly" if i % 8 == 0 else "normal", f"s{i}")
                for i in range(128)]
        config = DetectorConfig(family="bilstm_attention", semantics=True,
                                max_len=30, hidden=64, epochs=1, batch_size=128,
                                seed=11)
        tracemalloc.start()
        try:
            build_detector(config).fit(seqs, vocab)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 45e6

    def test_autoencoder_fit_gathers_features_one_batch_at_a_time(self):
        # an index-mode fit over about 5,000 windows of 200 templates: the
        # one-hot features of every training window at once would take about
        # 80 MB (5,000 x 2,010 x 8 B), a 128-row batch of them about 2 MB,
        # and a training step peaks near 15 MB. Scoring the 550 held-out
        # windows in one call for the threshold holds three 8.8 MB arrays,
        # so the fit peaks near 30 MB
        rng = Rng(37)
        vocab = EventVocabulary([f"event {i}" for i in range(200)])
        seqs = [EventSequence([rng.integer(200) for _ in range(65)], "normal", f"s{i}")
                for i in range(100)]
        config = DetectorConfig(family="autoencoder", window_size=10, hidden=8,
                                epochs=1, batch_size=128, seed=13)
        tracemalloc.start()
        try:
            build_detector(config).fit(seqs, vocab)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 35e6


class TestPersistence:
    def test_round_trip_predictions_identical(self, tmp_path):
        config = DetectorConfig(family="lstm_forecast", k=1, window_size=2,
                                hidden=16, layers=1, embed_dim=8, epochs=4,
                                batch_size=32, seed=1)
        det = build_detector(config).fit(pattern_sequences(), VOCAB)
        save_detector(det, tmp_path / "model")
        loaded = load_detector(tmp_path / "model")
        assert loaded.config == config
        rng = Rng(11)
        test = random_sequences(rng, 10, vocab_size=4)
        original = det.predict(test)
        restored = loaded.predict(test)
        assert original == restored

    def test_semantic_round_trip_uses_stored_table(self, tmp_path):
        config = DetectorConfig(family="cnn", semantics=True, max_len=12,
                                hidden=8, embed_dim=8, epochs=2, batch_size=32,
                                seed=3)
        rng = Rng(13)
        seqs = random_sequences(rng, 40, vocab_size=3, error_rate=0.4)
        if not any(s.is_anomalous for s in seqs):
            seqs[0].label = "anomaly"
        det = build_detector(config).fit(seqs, VOCAB)
        save_detector(det, tmp_path / "model")
        loaded = load_detector(tmp_path / "model")
        assert loaded.config.semantics
        assert loaded.predict(seqs[:5]) == det.predict(seqs[:5], vocab=None)

    @pytest.mark.parametrize("semantics", [False, True])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_round_trip_every_family_and_input_mode(self, tmp_path, family,
                                                    semantics):
        config = DetectorConfig(family=family, semantics=semantics, k=2,
                                window_size=3, hidden=8, layers=1, heads=2,
                                embed_dim=4, max_len=12, epochs=2, batch_size=16,
                                lr=1e-2, threshold_quantile=0.9, seed=5)
        seqs = random_sequences(Rng(17), 40, vocab_size=3, error_rate=0.3)
        fit_on = seqs if family in SUPERVISED_FAMILIES else [
            s for s in seqs if not s.is_anomalous]
        # built through its class: a detector is its config, so its semantic
        # table is the one the config names, frozen, and loads back as saved
        det = FAMILY_CLASSES[family](config).fit(fit_on, VOCAB)
        if semantics:
            table = det.params_["input_table"]
            assert not table.requires_grad
            assert table.data.tobytes() == config_encoder(config, VOCAB).table_for(
                VOCAB).tobytes()
        save_detector(det, tmp_path / "model")
        loaded = load_detector(tmp_path / "model")
        assert loaded.config == config
        test = random_sequences(Rng(19), 20, vocab_size=5)
        assert repr(loaded.predict(test)) == repr(det.predict(test))
        assert getattr(loaded, "threshold_", None) == getattr(det, "threshold_", None)

    def test_config_is_frozen_and_k_setter_runs_config_checks(self):
        det = fast_lstm(k=7, epochs=1).fit(pattern_sequences(), VOCAB)
        det.k = 3
        assert det.k == det.config.k == 3
        before = det.config
        with pytest.raises(ConfigurationError):
            det.k = 0
        assert det.config == before
        with pytest.raises(FrozenInstanceError):
            det.config.hidden = 32

    def test_replace_config_runs_checks_leaves_detector_unchanged(self):
        for config, params in [
            (DetectorConfig("cnn", max_len=8), {"max_len": 3}),
            (DetectorConfig("lstm_forecast", k=4), {"k": 0}),
            (DetectorConfig("transformer_forecast", hidden=8, heads=2), {"heads": 3}),
        ]:
            det = build_detector(config)
            with pytest.raises(ConfigurationError):
                replace(det.config, **params)
            assert det.config == config

    @pytest.mark.parametrize("family, params", [
        ("transformer_forecast", {"hidden": 8, "heads": 3}),
        ("cnn", {"max_len": 4}),
        ("bilstm_attention", {"max_len": 0}),
    ])
    def test_cross_field_config_error_raised_at_construction(self, family,
                                                             params):
        with pytest.raises(ConfigurationError):
            DetectorConfig(family, **params)
        DetectorConfig(family, **{**params, "hidden": 9, "max_len": 5})
