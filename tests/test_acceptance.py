"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The detector-accuracy criteria share one synthetic dataset (50
templates, 5000 sequences, 5% anomalies, seed 7) and one set of trained
models, built lazily by module-scoped fixtures.
"""

import json
import os
import time

import numpy as np
import pytest

from loglens.autodiff import (
    Tensor,
    conv2d,
    cross_entropy,
    embedding_lookup,
    finite_difference_check,
    matmul,
    mse,
    mul_sum,
    relu,
    sigmoid,
    softmax,
    tanh,
)
from loglens.bench import compute_metrics, contaminate, inject_noise, NoiseSpec, builtin_synonyms, split, strip_anomalies
from loglens.cli import main
from loglens.detectors import DetectorConfig, build_detector
from loglens.ingest import LogRecord, parse_templates, read_parsed, write_parsed, EventVocabulary
from loglens.rng import Rng
from loglens.sequencing import (
    EventSequence,
    PartitionSpec,
    WindowSpec,
    make_windows,
    partition,
)
from loglens.syngen import GeneratorSpec, generate
from test_columnar import raw_log, rows


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS  [{detail}]")


# ---------------------------------------------------------------------------
# shared dataset and models (criteria 3-6)

ACCEPT_SPEC = GeneratorSpec(n_templates=50, n_sequences=5000, anomaly_rate=0.05,
                            mean_length=20, automaton_branching=3, seed=7)

DETECTOR_CONFIGS = {
    "lstm_forecast": DetectorConfig(
        family="lstm_forecast", k=10, hidden=64, layers=1, epochs=5, lr=3e-3,
        seed=11),
    "transformer_forecast": DetectorConfig(
        family="transformer_forecast", k=10, hidden=64, layers=1, heads=4,
        epochs=5, seed=11),
    "autoencoder": DetectorConfig(
        family="autoencoder", window_size=2, hidden=64, epochs=12, lr=5e-3,
        threshold_quantile=1.0, seed=11),
    "cnn": DetectorConfig(
        family="cnn", semantics=True, max_len=30, hidden=64, epochs=20,
        lr=5e-3, seed=11),
    "bilstm_attention": DetectorConfig(
        family="bilstm_attention", semantics=True, max_len=30, hidden=64,
        epochs=15, lr=5e-3, seed=11),
}

SUPERVISED = ("cnn", "bilstm_attention")


@pytest.fixture(scope="module")
def dataset():
    ds = generate(ACCEPT_SPEC)
    sequences = partition(ds.records, PartitionSpec("identifier"))
    train, test = split(sequences, 0.8, seed=7)
    normal_train, removed = strip_anomalies(train)
    return {"vocab": ds.vocab, "train": train, "test": test,
            "normal_train": normal_train, "removed": removed,
            "labels": [s.label for s in test]}


@pytest.fixture(scope="module")
def trained(dataset):
    models = {}
    start = time.perf_counter()
    for name, config in DETECTOR_CONFIGS.items():
        fit_on = dataset["train"] if name in SUPERVISED else dataset["normal_train"]
        models[name] = build_detector(config).fit(fit_on, dataset["vocab"])
    models["_train_seconds"] = time.perf_counter() - start
    return models


@pytest.fixture(scope="module")
def clean_scores(dataset, trained):
    scores = {}
    for name in DETECTOR_CONFIGS:
        verdicts = trained[name].predict(dataset["test"])
        _, p, r, f1 = compute_metrics(verdicts, dataset["labels"])
        scores[name] = f1
    return scores


# ---------------------------------------------------------------------------
# criterion 1: gradient suite


class TestCriterion1Gradients:
    PRIMITIVE_TOL = 1e-4
    MODEL_TOL = 1e-3

    def test_gradient_suite(self):
        start = time.perf_counter()
        rng = Rng(1)

        def t(shape, scale=1.0):
            return Tensor(rng.uniform(-scale, scale, shape), requires_grad=True)

        worst_primitive = 0.0
        a, b = t((3, 4)), t((4, 2))
        worst_primitive = max(worst_primitive, finite_difference_check(
            lambda: matmul(a, b).sum(), [a, b]))
        x, y = t((2, 5)), t((2, 5))
        worst_primitive = max(worst_primitive, finite_difference_check(
            lambda: ((x + y) * x).sum(), [x, y]))
        for fn in (tanh, sigmoid, relu):
            z = t((3, 3), scale=0.9)
            worst_primitive = max(worst_primitive, finite_difference_check(
                lambda fn=fn, z=z: (fn(z) * fn(z)).sum(), [z]))
        logits = t((3, 6))
        targets = [1, 0, 5]
        worst_primitive = max(worst_primitive, finite_difference_check(
            lambda: cross_entropy(logits, targets), [logits]))
        u, v = t((7,)), t((7,))
        worst_primitive = max(worst_primitive, finite_difference_check(
            lambda: mse(u, v), [u, v]))
        sm = t((4, 5))
        w = Tensor(rng.uniform(-1, 1, (4, 5)))
        worst_primitive = max(worst_primitive, finite_difference_check(
            lambda: (softmax(sm, axis=-1) * w).sum(), [sm]))
        table = t((6, 3))
        ids = np.array([0, 5, 2, 2, 4])
        wt = Tensor(rng.uniform(-1, 1, (5, 3)))
        worst_primitive = max(worst_primitive, finite_difference_check(
            lambda: (embedding_lookup(table, ids) * wt).sum(), [table]))
        img = t((5, 4))
        filt1, filt2 = t((2, 2)), t((3, 4))
        worst_primitive = max(worst_primitive, finite_difference_check(
            lambda: sum((m * m).sum() for m in conv2d(img, [filt1, filt2])),
            [img, filt1, filt2]))
        # a stream of its own, so the draws above and below stay as they were
        own = Rng(2)
        hid, w_step, w_row = (Tensor(own.uniform(-1, 1, shape), requires_grad=True)
                              for shape in ((3, 4, 5), (4, 5), (3, 4, 1)))
        worst_primitive = max(worst_primitive, finite_difference_check(
            lambda: (tanh(mul_sum(hid, w_step, axis=2))
                     * mul_sum(hid, w_row, axis=1).sum()).sum(),
            [hid, w_step, w_row]))
        assert worst_primitive < self.PRIMITIVE_TOL

        worst_model = self._model_checks(rng)
        assert worst_model < self.MODEL_TOL

        elapsed = time.perf_counter() - start
        assert elapsed < 120.0
        report("criterion 1 (gradient suite)",
               f"primitives {worst_primitive:.2e} < 1e-4, "
               f"models {worst_model:.2e} < 1e-3, {elapsed:.0f}s")

    def _model_checks(self, rng):
        vocab = EventVocabulary([f"event {chr(97 + i)} step" for i in range(6)])
        pattern = [EventSequence([0, 1, 2, 3, 4, 0, 1, 2, 3, 4], "normal", f"s{i}")
                   for i in range(4)]
        labelled = [EventSequence(s.events, "anomaly" if i % 2 else "normal",
                                  s.origin)
                    for i, s in enumerate(pattern)]
        worst = 0.0
        for family in DETECTOR_CONFIGS:
            config = DetectorConfig(
                family=family, k=2, window_size=4, step_size=1, hidden=8,
                layers=2, heads=2, embed_dim=4, max_len=8, epochs=0,
                batch_size=8, threshold_quantile=0.9, seed=3)
            det = build_detector(config)
            fit_on = labelled if family in SUPERVISED else pattern
            det.fit(fit_on, vocab)
            params = det.params_
            leaves = [p for _, p in params.trainable()]
            if family == "autoencoder":
                ids = np.array([[0, 1, 2, 3], [2, 3, 4, 0]])
                rows = np.eye(len(vocab) + 1)
                feats = Tensor(det._window_features(ids, rows))
                loss_fn = lambda det=det, params=params, feats=feats: mse(
                    det._reconstruct(params, feats), feats)
            elif family in SUPERVISED:
                ids = det._padded_ids(labelled, len(vocab))
                y = np.array([0, 1, 0, 1])
                loss_fn = lambda det=det, params=params, ids=ids, y=y: cross_entropy(
                    det._logits(params, params["input_table"], ids), y)
            else:
                ids = np.array([[0, 1, 2, 3], [1, 2, 3, 4]])
                y = np.array([4, 0])
                loss_fn = lambda det=det, params=params, ids=ids, y=y: cross_entropy(
                    det._logits(params, params["input_table"], ids), y)
            err = finite_difference_check(loss_fn, leaves, max_coords=3, rng=rng)
            worst = max(worst, err)
        return worst


# ---------------------------------------------------------------------------
# criterion 2: oracle equivalence


class TestCriterion2Oracles:
    def test_metrics_match_brute_force(self):
        rng = Rng(23)
        for _ in range(1000):
            n = 1 + rng.integer(40)
            verdicts = [rng.random() < 0.5 for _ in range(n)]
            labels = [rng.random() < 0.4 for _ in range(n)]
            counts, p, r, f1 = compute_metrics(verdicts, labels)
            tp = sum(1 for v, l in zip(verdicts, labels) if v and l)
            fp = sum(1 for v, l in zip(verdicts, labels) if v and not l)
            fn = sum(1 for v, l in zip(verdicts, labels) if not v and l)
            ep = tp / (tp + fp) if tp + fp else 0.0
            er = tp / (tp + fn) if tp + fn else 0.0
            ef = 2 * ep * er / (ep + er) if ep + er else 0.0
            assert (counts.tp, counts.fp, counts.fn) == (tp, fp, fn)
            assert (p, r, f1) == (ep, er, ef)
        report("criterion 2a (metrics oracle)", "1000 random cases, exact")

    def test_window_counts_match_enumeration(self):
        checked = 0
        for length in range(0, 51):
            seq = EventSequence(list(range(length)), None, "x")
            for m in range(1, 21):
                for s in range(1, 6):
                    expected = [t for t in range(m, length) if (t - m) % s == 0]
                    got = make_windows(seq, WindowSpec(m, s))
                    assert [w.position for w in got] == expected
                    checked += 1
        report("criterion 2b (window oracle)",
               f"{checked} (L, m, s) combinations, exact")

    def test_partition_counts_match_enumeration(self):
        rng = Rng(29)
        cases = 0
        for _ in range(100):
            n = 2 + rng.integer(40)
            timestamps = sorted(rng.integer(60) for _ in range(n))
            records = [LogRecord(i + 1, ts, None, "c", event_id=0)
                       for i, ts in enumerate(timestamps)]
            t0, t_max = timestamps[0], timestamps[-1]
            for size in (1, 2, 5, 7):
                got = partition(records, PartitionSpec("fixed", size))
                expected_groups = {}
                for ts in timestamps:
                    expected_groups.setdefault((ts - t0) // size, []).append(ts)
                assert len(got) == len(expected_groups)
                assert sum(len(s.events) for s in got) == n
                for stride in (1, 2, size):
                    if stride > size:
                        continue
                    got_sliding = partition(
                        records, PartitionSpec("sliding", size, stride))
                    span = t_max - t0
                    expected = 0
                    j = 0
                    while j == 0 or j * stride <= span - size + stride:
                        lo = t0 + j * stride
                        if any(lo <= ts < lo + size for ts in timestamps):
                            expected += 1
                        j += 1
                    assert len(got_sliding) == expected
                    cases += 1
        report("criterion 2c (partition oracle)", f"{cases} sliding cases, exact")


# ---------------------------------------------------------------------------
# criteria 3-5: detector accuracy, contamination, robustness


class TestCriterion3CleanAccuracy:
    def test_every_family_f1_at_least_090(self, dataset, trained, clean_scores):
        start_missing = [n for n in DETECTOR_CONFIGS if n not in clean_scores]
        assert not start_missing
        for name, f1 in clean_scores.items():
            assert f1 >= 0.90, f"{name} F1 {f1:.3f} < 0.90"
        best_supervised = max(clean_scores[n] for n in SUPERVISED)
        best_unsupervised = max(clean_scores[n] for n in DETECTOR_CONFIGS
                                if n not in SUPERVISED)
        assert best_supervised >= best_unsupervised - 0.01
        total = trained["_train_seconds"]
        assert total < 15 * 60
        detail = ", ".join(f"{n}={f1:.3f}" for n, f1 in clean_scores.items())
        report("criterion 3 (clean accuracy)",
               f"{detail}; sup {best_supervised:.3f} >= unsup "
               f"{best_unsupervised:.3f} - 0.01; trained in {total:.0f}s")


class TestCriterion4Contamination:
    def test_lstm_drop_exceeds_autoencoder_drop(self):
        # 10% contamination needs round(0.1*|normal|/0.9) anomalies, which a
        # 5%-anomaly dataset cannot supply at full training size; the
        # contamination run therefore uses the same generator with a 15%
        # anomaly rate so the sweep stays a full-size experiment.
        spec = GeneratorSpec(n_templates=50, n_sequences=5000,
                             anomaly_rate=0.15, mean_length=20,
                             automaton_branching=3, seed=7)
        ds = generate(spec)
        sequences = partition(ds.records, PartitionSpec("identifier"))
        train, test = split(sequences, 0.8, seed=7)
        normal_train, removed = strip_anomalies(train)
        contaminated = contaminate(normal_train, removed, 0.10, seed=7)
        labels = [s.label for s in test]
        drops = {}
        for name in ("lstm_forecast", "autoencoder"):
            scores = {}
            for tag, fit_on in (("clean", normal_train),
                                ("contaminated", contaminated)):
                det = build_detector(DETECTOR_CONFIGS[name])
                det.fit(fit_on, ds.vocab)
                verdicts = det.predict(test)
                _, _, _, scores[tag] = compute_metrics(verdicts, labels)
            drops[name] = scores["clean"] - scores["contaminated"]
        assert drops["lstm_forecast"] > drops["autoencoder"], drops
        report("criterion 4 (contamination)",
               f"LSTM drop {drops['lstm_forecast']:.3f} > "
               f"autoencoder drop {drops['autoencoder']:.3f} at 10%")


class TestCriterion5NoiseRobustness:
    def test_supervised_semantic_beats_forecasting_index_at_20pct(
            self, dataset, trained):
        spec = NoiseSpec(ratio=0.20, synonym_table=builtin_synonyms(), seed=7)
        noisy, extended = inject_noise(dataset["test"], spec, dataset["vocab"])
        noisy_labels = [s.label for s in noisy]
        scores = {}
        for name in ("cnn", "bilstm_attention", "lstm_forecast",
                     "transformer_forecast"):
            verdicts = trained[name].predict(noisy, vocab=extended)
            _, _, _, scores[name] = compute_metrics(verdicts, noisy_labels)
        supervised_semantic = max(scores["cnn"], scores["bilstm_attention"])
        forecasting_index = max(scores["lstm_forecast"],
                                scores["transformer_forecast"])
        assert supervised_semantic > forecasting_index, scores
        report("criterion 5 (noise robustness)",
               f"supervised+semantics {supervised_semantic:.3f} > "
               f"forecasting index {forecasting_index:.3f} at 20% noise")


class TestCriterion6TopK:
    def test_anomaly_sets_shrink_to_empty(self, dataset, trained):
        det = trained["lstm_forecast"]
        original_k = det.k
        subset = dataset["test"][:300]
        previous = None
        try:
            for k in (1, 2, 5, 10, 20, len(dataset["vocab"]) + 1):
                det.k = k
                flagged = {i for i, v in enumerate(det.predict(subset))
                           if v.anomalous}
                if previous is not None:
                    assert flagged <= previous, f"k={k} grew the anomaly set"
                previous = flagged
            assert previous == set()
        finally:
            det.k = original_k
        report("criterion 6 (top-k invariants)",
               "anomaly sets shrink monotonically; empty at k = vocab size")


# ---------------------------------------------------------------------------
# criterion 7: CLI determinism


class TestCriterion7Determinism:
    def test_cmd_bench_byte_identical(self, tmp_path):
        csv_path = tmp_path / "syn.csv"
        generate(GeneratorSpec(n_templates=10, n_sequences=150,
                               anomaly_rate=0.1, mean_length=14,
                               seed=13)).write(csv_path)
        config = {
            "dataset": {"path": str(csv_path),
                        "partition": {"mode": "identifier"}},
            "window": {"window_size": 4, "step_size": 1},
            "detectors": [
                {"family": "lstm_forecast", "k": 3, "hidden": 16, "layers": 1,
                 "embed_dim": 8, "epochs": 2, "batch_size": 64},
                {"family": "autoencoder", "window_size": 3, "hidden": 32,
                 "epochs": 2, "batch_size": 64},
            ],
            "experiment": "accuracy",
            "repeats": 2,
            "seed": 13,
            "output_dir": str(tmp_path / "out"),
        }
        config_path = tmp_path / "bench.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["bench", "--config", str(config_path)]) == 0
        first = (tmp_path / "out" / "report.csv").read_bytes()
        assert main(["bench", "--config", str(config_path)]) == 0
        second = (tmp_path / "out" / "report.csv").read_bytes()
        assert first == second
        report("criterion 7 (determinism)",
               f"two cmd_bench runs byte-identical ({len(first)} bytes)")


# ---------------------------------------------------------------------------
# criterion 8: parsing


class TestCriterion8Parsing:
    def test_hdfs_example_line_parses_to_expected_template(self):
        line = "Received block blk_789 of size 67108864 from /10.251.42.84"
        vocab, log = parse_templates(raw_log([line]), similarity_threshold=0.5)
        assert vocab.templates == ["Received block <*> of size <*> from <*>"]
        assert rows(log)[0].event_id == 0

    def test_parsed_csv_round_trip_lossless(self, tmp_path):
        ds = generate(GeneratorSpec(n_templates=12, n_sequences=60,
                                    anomaly_rate=0.1, mean_length=14, seed=5))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        ds.write(p1)
        records, _ = read_parsed(p1)
        write_parsed(records, p2)
        assert p1.read_bytes() == p2.read_bytes()
        report("criterion 8 (parsing)",
               "HDFS line -> 'Received block <*> of size <*> from <*>'; "
               "round-trip lossless")


# ---------------------------------------------------------------------------
# criterion 9 (optional, non-gating): full HDFS reproduction


@pytest.mark.skipif("LOGLENS_HDFS_CSV" not in os.environ,
                    reason="full HDFS dataset not available; set LOGLENS_HDFS_CSV "
                           "to a pre-parsed CSV to enable")
class TestCriterion9HdfsOptional:
    def test_lstm_best_of_five_near_paper_value(self):
        records, vocab = read_parsed(os.environ["LOGLENS_HDFS_CSV"])
        sequences = partition(records, PartitionSpec("identifier"))
        best = 0.0
        for run in range(5):
            train, test = split(sequences, 0.8, seed=run)
            normal_train, _ = strip_anomalies(train)
            config = DetectorConfig(family="lstm_forecast", k=10, seed=run)
            det = build_detector(config).fit(normal_train, vocab)
            verdicts = det.predict(test)
            _, _, _, f1 = compute_metrics(verdicts, [s.label for s in test])
            best = max(best, f1)
        assert abs(best - 0.944) <= 0.05
        report("criterion 9 (HDFS optional)", f"best-of-five F1 {best:.3f}")
