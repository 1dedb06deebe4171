import pytest

from loglens.bench import (
    BenchReport,
    NoiseSpec,
    builtin_synonyms,
    compute_metrics,
    contaminate,
    inject_noise,
    run_experiment,
    split,
    strip_anomalies,
)
from loglens.detectors import DetectorConfig, LstmForecastDetector
from loglens.exceptions import ConfigurationError, DimensionError, FormatError
from loglens.ingest import EventVocabulary
from loglens.rng import Rng
from loglens.sequencing import EventSequence


def make_sequences(n, anomalous_every=0, length=6):
    seqs = []
    for i in range(n):
        label = "anomaly" if anomalous_every and i % anomalous_every == 0 else "normal"
        seqs.append(EventSequence([i % 3 for _ in range(length)], label, f"s{i}"))
    return seqs


VOCAB = EventVocabulary(["service started stop", "packet sent up",
                         "connection open done"])


class TestSplit:
    def test_eighty_twenty(self):
        train, test = split(make_sequences(10), 0.8, seed=1)
        assert len(train) == 8 and len(test) == 2

    def test_same_seed_identical(self):
        seqs = make_sequences(50)
        assert split(seqs, 0.8, seed=5) == split(seqs, 0.8, seed=5)

    def test_union_is_input_multiset(self):
        seqs = make_sequences(33)
        train, test = split(seqs, 0.8, seed=2)
        key = lambda group: sorted(s.origin for s in group)
        assert key(train + test) == key(seqs)

    def test_too_few_sequences(self):
        with pytest.raises(ConfigurationError):
            split(make_sequences(1), 0.8, seed=0)

    def test_event_order_untouched(self):
        seqs = [EventSequence([3, 1, 4, 1, 5], "normal", "x"),
                EventSequence([9, 2, 6], "normal", "y")]
        train, test = split(seqs, 0.5, seed=0)
        recovered = {s.origin: s.events for s in train + test}
        assert recovered == {"x": [3, 1, 4, 1, 5], "y": [9, 2, 6]}


class TestStripContaminate:
    def test_strip_partitions_by_label(self):
        seqs = make_sequences(10, anomalous_every=5)
        normal, removed = strip_anomalies(seqs)
        assert len(normal) == 8 and len(removed) == 2
        assert all(not s.is_anomalous for s in normal)
        assert all(s.is_anomalous for s in removed)

    def test_strip_all_normal(self):
        normal, removed = strip_anomalies(make_sequences(4))
        assert len(normal) == 4 and removed == []

    def test_contaminate_closed_form_five_percent(self):
        normal = make_sequences(950)
        anomalies = make_sequences(60, anomalous_every=1)
        out = contaminate(normal, anomalies, 0.05, seed=1)
        assert len(out) == 1000
        assert sum(s.is_anomalous for s in out) == 50

    def test_contaminate_ten_percent(self):
        normal = make_sequences(900)
        anomalies = make_sequences(150, anomalous_every=1)
        out = contaminate(normal, anomalies, 0.10, seed=1)
        assert len(out) == 1000
        assert sum(s.is_anomalous for s in out) == 100

    def test_ratio_zero_identity(self):
        normal = make_sequences(10)
        assert contaminate(normal, [], 0.0, seed=1) == normal

    def test_insufficient_anomalies_states_required_count(self):
        with pytest.raises(ConfigurationError, match="50"):
            contaminate(make_sequences(950), make_sequences(10, anomalous_every=1),
                        0.05, seed=1)


class TestInjectNoise:
    def spec(self, ratio, **kw):
        defaults = dict(strategies=("pseudo_event", "delete", "shuffle", "duplicate"),
                        synonym_table=builtin_synonyms(), seed=3)
        defaults.update(kw)
        return NoiseSpec(ratio=ratio, **defaults)

    def test_appends_exact_count(self):
        seqs = make_sequences(100, length=8)
        noisy, _ = inject_noise(seqs, self.spec(0.20), VOCAB)
        assert len(noisy) == 120

    def test_ratio_zero_identity(self):
        seqs = make_sequences(10)
        noisy, extended = inject_noise(seqs, self.spec(0.0), VOCAB)
        assert noisy == seqs
        assert len(extended) == len(VOCAB)

    def test_originals_retained_untouched(self):
        seqs = make_sequences(40, length=8)
        before = [list(s.events) for s in seqs]
        noisy, _ = inject_noise(seqs, self.spec(0.5), VOCAB)
        assert noisy[:40] == seqs
        assert [list(s.events) for s in seqs] == before

    def test_delete_shortens_by_at_most_three(self):
        seqs = make_sequences(60, length=8)
        noisy, _ = inject_noise(seqs, self.spec(0.5, strategies=("delete",)), VOCAB)
        for synthetic in noisy[60:]:
            assert 5 <= len(synthetic.events) <= 7

    def test_duplicate_lengthens_by_at_most_three(self):
        seqs = make_sequences(60, length=8)
        noisy, _ = inject_noise(seqs, self.spec(0.5, strategies=("duplicate",)), VOCAB)
        for synthetic in noisy[60:]:
            assert 9 <= len(synthetic.events) <= 11

    def test_pseudo_events_extend_vocabulary(self):
        seqs = make_sequences(50, length=8)
        noisy, extended = inject_noise(
            seqs, self.spec(0.4, strategies=("pseudo_event",)), VOCAB)
        assert len(extended) > len(VOCAB)
        new_ids = {e for s in noisy[50:] for e in s.events if e >= len(VOCAB)}
        assert new_ids
        assert all(e < len(extended) for s in noisy for e in s.events)

    def test_labels_follow_source(self):
        seqs = make_sequences(30, anomalous_every=3, length=8)
        noisy, _ = inject_noise(seqs, self.spec(1.0), VOCAB)
        by_origin = {s.origin: s for s in seqs}
        for synthetic in noisy[30:]:
            source = by_origin[synthetic.origin.split("+noise")[0]]
            assert synthetic.label == source.label

    def test_pseudo_only_requires_synonyms(self):
        with pytest.raises(ConfigurationError):
            NoiseSpec(ratio=0.1, strategies=("pseudo_event",), synonym_table={})

    def test_deterministic(self):
        seqs = make_sequences(40, length=8)
        a, va = inject_noise(seqs, self.spec(0.3), VOCAB)
        b, vb = inject_noise(seqs, self.spec(0.3), VOCAB)
        assert a == b and va.templates == vb.templates


class TestComputeMetrics:
    def test_formula_example(self):
        verdicts = [True] * 10 + [False] * 3
        labels = [True] * 9 + [False] + [True] * 3
        counts, p, r, f1 = compute_metrics(verdicts, labels)
        assert (counts.tp, counts.fp, counts.fn) == (9, 1, 3)
        assert p == pytest.approx(0.9)
        assert r == pytest.approx(0.75)
        assert f1 == pytest.approx(0.8182, abs=1e-4)

    def test_perfect_predictions(self):
        _, p, r, f1 = compute_metrics([True, False, True], [True, False, True])
        assert (p, r, f1) == (1.0, 1.0, 1.0)

    def test_all_normal_predictions_score_zero(self):
        counts, p, r, f1 = compute_metrics([False, False], [True, False])
        assert (p, r, f1) == (0.0, 0.0, 0.0)
        assert counts.tn == 1 and counts.fn == 1

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            compute_metrics([True], [True, False])

    def test_counts_sum_to_total(self):
        rng = Rng(17)
        for _ in range(20):
            n = 1 + rng.integer(30)
            verdicts = [rng.random() < 0.5 for _ in range(n)]
            labels = [rng.random() < 0.3 for _ in range(n)]
            counts, _, _, _ = compute_metrics(verdicts, labels)
            assert counts.tp + counts.fp + counts.fn + counts.tn == n

    def test_agrees_with_brute_force_on_random_cases(self):
        rng = Rng(23)
        for _ in range(1000):
            n = 1 + rng.integer(40)
            verdicts = [rng.random() < 0.5 for _ in range(n)]
            labels = [rng.random() < 0.4 for _ in range(n)]
            counts, p, r, f1 = compute_metrics(verdicts, labels)
            tp = sum(1 for v, l in zip(verdicts, labels) if v and l)
            fp = sum(1 for v, l in zip(verdicts, labels) if v and not l)
            fn = sum(1 for v, l in zip(verdicts, labels) if not v and l)
            expected_p = tp / (tp + fp) if tp + fp else 0.0
            expected_r = tp / (tp + fn) if tp + fn else 0.0
            expected_f1 = (2 * expected_p * expected_r / (expected_p + expected_r)
                           if expected_p + expected_r else 0.0)
            assert (counts.tp, counts.fp, counts.fn) == (tp, fp, fn)
            assert p == expected_p and r == expected_r and f1 == expected_f1
            assert f1 <= 2 * min(p, r) + 1e-12
            if f1 == 1.0:
                assert fp == 0 and fn == 0 and tp > 0


def quick_configs():
    return [DetectorConfig(family="lstm_forecast", k=3, window_size=3, hidden=8,
                           layers=1, embed_dim=4, epochs=1, batch_size=64),
            DetectorConfig(family="cnn", max_len=8, hidden=4, embed_dim=4,
                           epochs=1, batch_size=64)]


def bench_sequences():
    rng = Rng(31)
    seqs = []
    for i in range(60):
        events = [rng.integer(3) for _ in range(8)]
        label = "normal"
        if i % 6 == 0:
            events[4] = 2
            label = "anomaly"
        seqs.append(EventSequence(events, label, f"b{i}"))
    return seqs


class TestRunExperiment:
    def test_unknown_experiment(self):
        with pytest.raises(ConfigurationError):
            run_experiment(bench_sequences(), VOCAB, quick_configs(),
                           experiment="bogus")

    def test_repeats_one_best_equals_mean(self):
        report = run_experiment(bench_sequences(), VOCAB, quick_configs(),
                                experiment="accuracy", repeats=1, seed=4)
        for detector in ("lstm_forecast", "cnn"):
            rows = {r.run: r for r in report.rows if r.detector == detector}
            assert rows["best"].f1 == rows["mean"].f1
            assert rows["best"].precision == rows["mean"].precision

    def test_contamination_sweep_row_count(self):
        report = run_experiment(bench_sequences(), VOCAB, quick_configs()[:1],
                                experiment="contamination_sweep", repeats=1,
                                seed=4, contamination_ratios=[0.0, 0.05])
        per_run = [r for r in report.rows if r.run == "1"]
        assert len(per_run) == 2
        assert {r.setting for r in per_run} == {"0", "0.05"}

    def test_contamination_sweep_fits_on_contaminated_set(self, monkeypatch):
        # the sweep's fit set is its contaminated set, anomalies included: an
        # unsupervised family's usual fit set (the normal sequences) is not
        # taken in its place
        fitted = []
        fit = LstmForecastDetector.fit

        def record(detector, sequences, vocab):
            fitted.append(sum(s.is_anomalous for s in sequences))
            return fit(detector, sequences, vocab)

        monkeypatch.setattr(LstmForecastDetector, "fit", record)
        run_experiment(bench_sequences(), VOCAB, quick_configs()[:1],
                       experiment="contamination_sweep", repeats=1, seed=4,
                       contamination_ratios=[0.0, 0.05])
        assert fitted[0] == 0 and fitted[1] > 0

    def test_noise_sweep_runs(self):
        report = run_experiment(bench_sequences(), VOCAB, quick_configs(),
                                experiment="noise_sweep", repeats=1, seed=4,
                                noise_ratios=[0.0, 0.2])
        settings = {r.setting for r in report.rows if r.run == "1"}
        assert settings == {"0", "0.2"}

    def test_deterministic_report_bytes(self):
        a = run_experiment(bench_sequences(), VOCAB, quick_configs(),
                           experiment="accuracy", repeats=2, seed=4)
        b = run_experiment(bench_sequences(), VOCAB, quick_configs(),
                           experiment="accuracy", repeats=2, seed=4)
        assert a.to_csv() == b.to_csv()

    def test_efficiency_rows_carry_timings(self):
        report = run_experiment(bench_sequences(), VOCAB, quick_configs()[:1],
                                experiment="efficiency", repeats=1, seed=4)
        (row,) = [r for r in report.rows if r.run == "1"]
        assert row.train_s > 0.0

    def test_accuracy_rows_omit_timings_for_determinism(self):
        report = run_experiment(bench_sequences(), VOCAB, quick_configs()[:1],
                                experiment="accuracy", repeats=1, seed=4)
        (row,) = [r for r in report.rows if r.run == "1"]
        assert row.train_s == 0.0 and row.test_s == 0.0

    def test_metrics_within_bounds_and_f1_recomputable(self):
        report = run_experiment(bench_sequences(), VOCAB, quick_configs(),
                                experiment="accuracy", repeats=2, seed=4)
        for row in report.rows:
            assert 0.0 <= row.precision <= 1.0
            assert 0.0 <= row.recall <= 1.0
            expected = (2 * row.precision * row.recall /
                        (row.precision + row.recall)
                        if row.precision + row.recall else 0.0)
            assert row.f1 == pytest.approx(expected)

    def test_markdown_pairs_semantics_columns(self):
        configs = [DetectorConfig(family="cnn", max_len=8, hidden=4, embed_dim=4,
                                  epochs=1, batch_size=64),
                   DetectorConfig(family="cnn", semantics=True, max_len=8,
                                  hidden=4, embed_dim=4, epochs=1, batch_size=64)]
        report = run_experiment(bench_sequences(), VOCAB, configs,
                                experiment="accuracy", repeats=1, seed=4)
        md = report.to_markdown()
        assert "| cnn |" in md
        cnn_line = [l for l in md.splitlines() if l.startswith("| cnn")][0]
        assert "/" in cnn_line  # index/semantic pairing


class TestReportCsv:
    HEADER = ",".join(BenchReport.CSV_COLUMNS)
    ROW = "cnn,false,accuracy,-,1,0.500000,0.250000,0.333333,0.000000,0.000000,4"

    def test_read_csv_inverts_to_csv(self, tmp_path):
        report = run_experiment(bench_sequences(), VOCAB, quick_configs(),
                                experiment="efficiency", repeats=2, seed=4)
        path = tmp_path / "report.csv"
        report.write_csv(path)
        back = BenchReport.read_csv(path)
        assert (back.experiment, back.seed, back.config_digest) == ("efficiency", 4, "-")
        assert back.to_csv() == path.read_text(encoding="utf-8")

    @pytest.mark.parametrize("text, message", [
        (HEADER.replace("experiment,", "") + "\n" + ROW.replace("accuracy,", ""),
         "line 2: missing column 'experiment'"),
        (HEADER + "\n" + ROW.replace("false", "maybe"),
         "line 2: semantics 'maybe' is not true or false"),
        (HEADER + "\n" + ROW.replace("0.250000", "high"),
         "line 2: could not convert string to float: 'high'"),
        (HEADER + "\n" + ROW + "\ncnn,true,accuracy",
         "line 3: could not convert string to float: ''"),
        (HEADER + "\n" + ROW + ".5", "line 2: invalid literal for int"),
    ], ids=["missing-column", "semantics", "float", "short-row", "int"])
    def test_malformed_report_names_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "report.csv"
        path.write_text(text + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match=message) as raised:
            BenchReport.read_csv(path)
        assert str(raised.value).startswith(f"{path}: ")
