import copy
import inspect
import json
import shutil
from dataclasses import fields
from importlib import resources
from pathlib import Path

import pytest

from loglens.bench import NOISE_STRATEGIES, BenchReport, NoiseSpec, run_experiment, split
from loglens.cli import (build_parser, main, run_config_schema, validate_run_config,
                         SchemaError)
from loglens.detectors import FAMILIES, DetectorConfig
from loglens.exceptions import ConfigurationError, FormatError
from loglens.ingest import FormatSpec, parse_templates, read_parsed, read_raw
from loglens.schema import Spec
from loglens.sequencing import PartitionSpec, WindowSpec, partition, read_sequences
from loglens.syngen import GeneratorSpec, generate
from test_columnar import rows

HDFS_LINE = ("081109 203518 143 INFO dfs.DataNode$DataXceiver: "
             "Received block blk_789 of size 67108864 from /10.251.42.84\n"
             "081109 203519 145 INFO dfs.DataNode$DataXceiver: "
             "Received block blk_111 of size 512 from /10.0.0.1\n")

FORMAT_SPEC = {
    "timestamp_regex": r"^(\d{6} \d{6}) \d+ \w+ \S+: (.*)$",
    "timestamp_format": "%y%m%d %H%M%S",
    "content_group": 2,
    "identifier_regex": r"(blk_-?\d+)",
}


def syn_csv(tmp_path, n_sequences=120, seed=5, rate=0.1):
    path = tmp_path / "syn.csv"
    generate(GeneratorSpec(n_templates=8, n_sequences=n_sequences,
                           anomaly_rate=rate, mean_length=14,
                           seed=seed)).write(path)
    return path


def read_sequences_of(csv_path):
    records, _ = read_parsed(csv_path)
    return partition(records, PartitionSpec("identifier"))


def bench_config(tmp_path, csv_path, **overrides):
    doc = {
        "dataset": {"path": str(csv_path),
                    "partition": {"mode": "identifier"}},
        "window": {"window_size": 3, "step_size": 1},
        "detectors": [
            {"family": "lstm_forecast", "k": 3, "hidden": 8, "layers": 1,
             "embed_dim": 4, "epochs": 1, "batch_size": 64},
            {"family": "cnn", "max_len": 16, "hidden": 4, "embed_dim": 4,
             "epochs": 1, "batch_size": 64},
        ],
        "experiment": "accuracy",
        "repeats": 1,
        "seed": 3,
        "output_dir": str(tmp_path / "out"),
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path, doc


class TestParseCommand:
    def test_raw_to_parsed_csv(self, tmp_path, capsys):
        raw = tmp_path / "raw.log"
        raw.write_text(HDFS_LINE)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(FORMAT_SPEC))
        out = tmp_path / "parsed.csv"
        assert main(["parse", "--input", str(raw), "--format", str(spec),
                     "--out", str(out)]) == 0
        records, vocab = read_parsed(out)
        assert vocab.templates == ["Received block <*> of size <*> from <*>"]
        assert [r.identifier for r in rows(records)] == ["blk_789", "blk_111"]

    def test_empty_input_exits_zero(self, tmp_path):
        raw = tmp_path / "empty.log"
        raw.write_text("")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(FORMAT_SPEC))
        out = tmp_path / "parsed.csv"
        assert main(["parse", "--input", str(raw), "--format", str(spec),
                     "--out", str(out)]) == 0
        records, _ = read_parsed(out)
        assert rows(records) == []

    def test_similarity_threshold_out_of_range_exits_two(self, tmp_path, capsys):
        raw = tmp_path / "raw.log"
        raw.write_text(HDFS_LINE)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(FORMAT_SPEC))
        assert main(["parse", "--input", str(raw), "--format", str(spec),
                     "--similarity-threshold", "0",
                     "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert "similarity_threshold" in err and "Traceback" not in err
        # the flag the user wrote, not a run-config key
        assert "error: --similarity-threshold 0.0: similarity_threshold must be > 0" in err
        assert "/dataset" not in err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(FORMAT_SPEC))
        code = main(["parse", "--input", str(tmp_path / "absent.log"),
                     "--format", str(spec), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "absent.log" in capsys.readouterr().err

    def parse_with_spec(self, tmp_path, capsys, spec_doc):
        raw = tmp_path / "raw.log"
        raw.write_text(HDFS_LINE)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(spec_doc))
        code = main(["parse", "--input", str(raw), "--format", str(spec),
                     "--out", str(tmp_path / "o.csv")])
        return code, capsys.readouterr().err

    def test_timestamp_regex_that_does_not_compile_exits_two(self, tmp_path, capsys):
        code, err = self.parse_with_spec(tmp_path, capsys, dict(
            FORMAT_SPEC, timestamp_regex=r"^(\d{4}"))
        assert code == 2 and "timestamp_regex" in err

    def test_identifier_regex_without_group_exits_two(self, tmp_path, capsys):
        code, err = self.parse_with_spec(tmp_path, capsys, dict(
            FORMAT_SPEC, identifier_regex=r"seq_\d+"))
        assert code == 2 and "identifier_regex" in err

    def test_spec_that_is_not_an_object_exits_two(self, tmp_path, capsys):
        code, err = self.parse_with_spec(tmp_path, capsys, list(FORMAT_SPEC.items()))
        assert code == 2 and "spec.json: /: expected object, got list" in err

    def test_content_group_that_is_not_an_integer_exits_two(self, tmp_path, capsys):
        code, err = self.parse_with_spec(tmp_path, capsys, dict(
            FORMAT_SPEC, content_group="x"))
        assert code == 2 and "content_group" in err

    def test_format_is_required(self, tmp_path, capsys):
        """A raw log is read only with a stated format: there is no built-in
        one to fall back on."""
        raw = tmp_path / "raw.log"
        raw.write_text("2024-01-01 00:00:00 job started\n")
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as exited:
            main(["parse", "--input", str(raw), "--out", str(out)])
        assert exited.value.code == 2
        assert "--format" in capsys.readouterr().err
        assert not out.exists()

    def test_content_group_beyond_the_regex_groups_exits_two(self, tmp_path, capsys):
        code, err = self.parse_with_spec(tmp_path, capsys, dict(
            FORMAT_SPEC, content_group=5))
        assert code == 2 and "content_group" in err and "[1, 2]" in err

    @pytest.mark.parametrize("timestamp_format", ["%y%m%d %Q", "%s", "%y%m%d %H%M%"])
    def test_timestamp_format_strptime_cannot_read_exits_two(
            self, tmp_path, capsys, timestamp_format):
        """Such a format used to put every line in ``.rejects`` and exit 0."""
        code, err = self.parse_with_spec(tmp_path, capsys, dict(
            FORMAT_SPEC, timestamp_format=timestamp_format))
        assert code == 2 and "timestamp_format" in err and "Traceback" not in err
        assert not (tmp_path / "o.csv").exists()
        assert not (tmp_path / "raw.log.rejects").exists()

    def test_bad_threshold_exits_two_before_the_input_is_opened(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(FORMAT_SPEC))
        code = main(["parse", "--input", str(tmp_path / "absent.log"), "--format",
                     str(spec), "--similarity-threshold", "0",
                     "--out", str(tmp_path / "o.csv")])
        err = capsys.readouterr().err
        assert code == 2 and "similarity_threshold" in err
        assert "absent.log" not in err and "Traceback" not in err


class TestSyngenPartition:
    def test_syngen_deterministic(self, tmp_path):
        spec = tmp_path / "gen.json"
        spec.write_text(json.dumps({"n_templates": 8, "n_sequences": 30,
                                    "anomaly_rate": 0.1, "mean_length": 14,
                                    "seed": 4}))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["syngen", "--spec", str(spec), "--out", str(a)]) == 0
        assert main(["syngen", "--spec", str(spec), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("doc, named", [
        ({"n_sequences": 2.5}, "n_sequences"),
        ({"bogus": 1}, "bogus"),
        ({"mean_length": 20.5}, "mean_length"),
        ({"seed": "x"}, "seed"),
        ([{"seed": 1}], "gen.json: /: expected object, got list"),
        ({"mean_length": 5}, "mean_length"),
        ({"n_sequences": -3}, "n_sequences"),
    ], ids=["float-count", "unknown-key", "float-length", "string-seed",
            "json-array", "short-mean-length", "negative-count"])
    def test_bad_syngen_spec_exits_two(self, tmp_path, capsys, doc, named):
        spec = tmp_path / "gen.json"
        spec.write_text(json.dumps(doc))
        out = tmp_path / "gen.csv"
        assert main(["syngen", "--spec", str(spec), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert named in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_partition_writes_jsonl(self, tmp_path):
        csv_path = syn_csv(tmp_path, n_sequences=20)
        out = tmp_path / "seqs.jsonl"
        assert main(["partition", "--input", str(csv_path), "--mode",
                     "identifier", "--out", str(out)]) == 0
        sequences, vocab = read_sequences(out)
        assert len(sequences) == 20
        assert vocab == read_parsed(csv_path)[1]

    def test_unknown_partition_mode_exits_two_before_the_input_is_opened(
            self, tmp_path, capsys):
        out = tmp_path / "seqs.jsonl"
        code = main(["partition", "--input", str(tmp_path / "absent.csv"),
                     "--mode", "hourly", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert "error: --mode hourly: must be one of fixed, sliding, identifier" in err
        assert "absent.csv" not in err and not out.exists()

    @pytest.mark.parametrize("bad_row, message", [
        ("2,101,a", "3 fields"),
        ("two,101,blk_1,a,normal", "'two'"),
        ("2,noon,blk_1,a,normal", "'noon'"),
        ("2,101,blk_1,a,weird", "'weird'"),
    ])
    def test_malformed_parsed_row_exits_two_naming_its_line(
            self, tmp_path, capsys, bad_row, message):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text("LineId,Timestamp,Identifier,EventTemplate,Label\n"
                            f"1,100,blk_1,a,normal\n{bad_row}\n")
        code = main(["partition", "--input", str(csv_path), "--mode",
                     "identifier", "--out", str(tmp_path / "seqs.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 3" in err and message in err and "Traceback" not in err


class TestTrainDetect:
    def test_train_then_detect_on_clean_pattern(self, tmp_path):
        csv_path = syn_csv(tmp_path, n_sequences=150, rate=0.0)
        config, _ = bench_config(tmp_path, csv_path)
        doc = json.loads(config.read_text())
        doc["detectors"] = [{"family": "lstm_forecast", "k": 4, "hidden": 16,
                             "layers": 1, "embed_dim": 8, "epochs": 20,
                             "batch_size": 64, "lr": 0.005, "window_size": 3}]
        config.write_text(json.dumps(doc))
        model_dir = tmp_path / "model"
        assert main(["train", "--config", str(config),
                     "--model-out", str(model_dir)]) == 0
        verdict_path = tmp_path / "verdicts.jsonl"
        assert main(["detect", "--model", str(model_dir), "--input",
                     str(csv_path), "--out", str(verdict_path)]) == 0
        verdicts = [json.loads(l) for l in verdict_path.read_text().splitlines()]
        assert len(verdicts) == 150
        assert sum(v["anomalous"] for v in verdicts) == 0

    @pytest.mark.parametrize("family", ["lstm_forecast", "cnn"])
    def test_train_fits_on_the_bench_fit_set(self, tmp_path, capsys, family):
        csv_path = syn_csv(tmp_path, n_sequences=80, rate=0.2)
        config, doc = bench_config(tmp_path, csv_path)
        doc["detectors"] = [d for d in doc["detectors"] if d["family"] == family]
        config.write_text(json.dumps(doc))
        sequences = read_sequences_of(csv_path)
        normal = [s for s in sequences if not s.is_anomalous]
        assert 0 < len(normal) < len(sequences)
        assert main(["train", "--config", str(config),
                     "--model-out", str(tmp_path / "model")]) == 0
        expected = len(sequences) if family == "cnn" else len(normal)
        assert f" on {expected} sequences " in capsys.readouterr().out

    def test_train_refuses_more_than_one_detector(self, tmp_path, capsys):
        """``train`` fits one detector; a config listing two is refused
        before any data is read, not trained on its first."""
        config, doc = bench_config(tmp_path, tmp_path / "absent.csv")
        assert len(doc["detectors"]) == 2
        model_dir = tmp_path / "model"
        assert main(["train", "--config", str(config),
                     "--model-out", str(model_dir)]) == 2
        err = capsys.readouterr().err
        assert str(config) in err and "/detectors" in err and "lists 2" in err
        assert "absent.csv" not in err and "Traceback" not in err
        assert not model_dir.exists()

    def test_detect_with_k_at_vocab_size_flags_nothing(self, tmp_path):
        csv_path = syn_csv(tmp_path, n_sequences=100, rate=0.2)
        records, vocab = read_parsed(csv_path)
        config, _ = bench_config(tmp_path, csv_path)
        doc = json.loads(config.read_text())
        doc["detectors"] = [{"family": "lstm_forecast", "k": len(vocab) + 1,
                             "hidden": 8, "layers": 1, "embed_dim": 4,
                             "epochs": 1, "batch_size": 64, "window_size": 3}]
        config.write_text(json.dumps(doc))
        model_dir = tmp_path / "model"
        assert main(["train", "--config", str(config),
                     "--model-out", str(model_dir)]) == 0
        out = tmp_path / "verdicts.jsonl"
        assert main(["detect", "--model", str(model_dir), "--input",
                     str(csv_path), "--out", str(out)]) == 0
        verdicts = [json.loads(l) for l in out.read_text().splitlines()]
        assert sum(v["anomalous"] for v in verdicts) == 0


    @pytest.mark.parametrize("name, corrupt, message, detector", [
        ("detector.json",
         lambda doc: {**doc, "config": {**doc["config"], "n_filters": 8}},
         "/config/n_filters", {}),
        ("vocab.json", None, "file not found", {}),
        ("vocab.json", lambda doc: "[", "Expecting value", {}),
        ("vocab.json", lambda doc: doc + doc[:1], "distinct strings", {}),
        ("detector.json", lambda doc: [doc], "expected a JSON object", {}),
        # a config that disagrees with the stored params: more layers than
        # were trained, and a wider LSTM than was trained
        ("detector.json",
         lambda doc: {**doc, "config": {**doc["config"], "layers": 2}},
         "'block1.attn.wq'", {"family": "transformer_forecast", "heads": 2}),
        ("detector.json",
         lambda doc: {**doc, "config": {**doc["config"], "hidden": 16}},
         "'lstm0.wx'", {}),
        # a vocabulary of another size, or whose semantic table is not the
        # stored one
        ("vocab.json", lambda doc: doc[1:], "'input_table'", {}),
        ("vocab.json", lambda doc: doc[::-1], "'input_table'", {"semantics": True}),
        # config values that a run config's detector could not hold
        *(("detector.json",
           lambda doc, key=key, value=value: {**doc, "config": {**doc["config"], key: value}},
           f"/config/{key}", {})
          for key, value in [("hidden", "8"), ("embed_dim", 0), ("k", 2.5),
                             ("threshold_quantile", 2.0), ("window_size", 0),
                             ("semantics", 1), ("family", "rnn"), ("lr", 0),
                             ("epochs", -1), ("seed", None)]),
        ("detector.json", lambda doc: {**doc, "config": [doc["config"]]}, "/config:", {}),
        ("detector.json",
         lambda doc: {**doc, "config": {k: v for k, v in doc["config"].items()
                                        if k != "family"}},
         "/config/family", {}),
    ], ids=["unknown-config-key", "missing-vocab", "vocab-not-json",
            "repeated-template", "array", "more-layers-than-stored",
            "wider-than-stored", "fewer-templates-than-stored",
            "semantic-table-not-stored", "string-hidden", "zero-embed-dim",
            "float-k", "quantile-above-1", "zero-window", "integer-semantics",
            "unknown-family", "zero-lr", "negative-epochs", "null-seed",
            "config-not-object", "no-family"])
    def test_malformed_detector_json_exits_2(self, tmp_path, capsys, name, corrupt,
                                             message, detector):
        csv_path = syn_csv(tmp_path, n_sequences=40, rate=0.2)
        config, doc = bench_config(tmp_path, csv_path)
        doc["detectors"] = [{**doc["detectors"][0], **detector}]
        config.write_text(json.dumps(doc))
        model_dir = tmp_path / "model"
        assert main(["train", "--config", str(config),
                     "--model-out", str(model_dir)]) == 0
        target = model_dir / name
        if corrupt is None:
            target.unlink()
        else:
            text = corrupt(json.loads(target.read_text()))
            target.write_text(text if isinstance(text, str) else json.dumps(text))
        capsys.readouterr()
        assert main(["detect", "--model", str(model_dir), "--input",
                     str(csv_path), "--out", str(tmp_path / "v.jsonl")]) == 2
        err = capsys.readouterr().err
        assert str(target) in err and message in err

    @pytest.mark.parametrize("semantics", [False, True])
    @pytest.mark.parametrize("family", ["lstm_forecast", "cnn"])
    def test_detect_verdicts_do_not_depend_on_row_order(self, tmp_path, family,
                                                         semantics):
        # the file's template ids follow first appearance, so reversing its
        # rows renumbers them; the model reads templates by its own ids, from
        # the parsed CSV and from the JSONL that partition writes of it
        path = tmp_path / "syn.csv"
        generate(GeneratorSpec(n_templates=12, n_sequences=300, anomaly_rate=0.2,
                               seed=3)).write(path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        reversed_path = tmp_path / "reversed.csv"
        reversed_path.write_text(lines[0] + "".join(lines[:0:-1]), encoding="utf-8")
        assert read_parsed(path)[1] != read_parsed(reversed_path)[1]
        config, doc = bench_config(tmp_path, path)
        doc["detectors"] = [
            {"family": "lstm_forecast", "k": 4, "hidden": 32, "layers": 1,
             "epochs": 15, "batch_size": 64, "window_size": 4, "semantics": semantics}
            if family == "lstm_forecast" else
            {"family": "cnn", "max_len": 16, "hidden": 8, "epochs": 10,
             "batch_size": 32, "lr": 0.01, "semantics": semantics}]
        config.write_text(json.dumps(doc))
        model_dir = tmp_path / "model"
        assert main(["train", "--config", str(config),
                     "--model-out", str(model_dir)]) == 0
        verdicts = {}
        for source in (path, reversed_path):
            for input_format in ("csv", "jsonl"):
                given = source
                if input_format == "jsonl":
                    given = tmp_path / f"{source.stem}.sequences.jsonl"
                    assert main(["partition", "--input", str(source),
                                 "--out", str(given)]) == 0
                out = tmp_path / f"{source.stem}.{input_format}.verdicts.jsonl"
                assert main(["detect", "--model", str(model_dir), "--input",
                             str(given), "--out", str(out)]) == 0
                verdicts[source, input_format] = {
                    v["origin"]: v["anomalous"]
                    for v in map(json.loads, out.read_text().splitlines())}
        expected = verdicts[path, "csv"]
        assert len(expected) == 300 and any(expected.values())
        for key, got in verdicts.items():
            assert got == expected, key

    @pytest.mark.parametrize("target, bad, message", [
        ("jsonl", '{"origin": "x", "label": null}', "line 41: missing key 'events'"),
        ("jsonl", '{"origin": "x", "events": [0, "x"]}', "line 41: events are not"),
        ("jsonl", '{"origin": "x", "events": [0, -1]}', "line 41: events are not"),
        ("jsonl", '{"origin": "x", "events": [0, 1.5]}', "line 41: events are not"),
        ("vocab", None, "file not found"),
        ("vocab", "[", "Expecting value"),
    ], ids=["no-events", "string-event", "negative-event", "float-event",
            "missing-vocab", "vocab-not-json"])
    def test_malformed_jsonl_exits_2_naming_the_file(self, tmp_path, capsys, target,
                                                     bad, message):
        csv_path = syn_csv(tmp_path, n_sequences=40, rate=0.2)
        config, doc = bench_config(tmp_path, csv_path)
        doc["detectors"] = doc["detectors"][:1]
        config.write_text(json.dumps(doc))
        model_dir = tmp_path / "model"
        assert main(["train", "--config", str(config),
                     "--model-out", str(model_dir)]) == 0
        sequences = tmp_path / "seqs.jsonl"
        assert main(["partition", "--input", str(csv_path),
                     "--out", str(sequences)]) == 0
        target = sequences if target == "jsonl" else Path(f"{sequences}.vocab.json")
        if bad is None:
            target.unlink()
        elif target == sequences:
            with open(target, "a", encoding="utf-8") as fh:
                fh.write(bad + "\n")
        else:
            target.write_text(bad)
        capsys.readouterr()
        assert main(["detect", "--model", str(model_dir), "--input",
                     str(sequences), "--out", str(tmp_path / "v.jsonl")]) == 2
        err = capsys.readouterr().err
        assert str(target) in err and message in err and "Traceback" not in err


class TestBenchCommand:
    def test_writes_reports_and_resolved_config(self, tmp_path, capsys):
        csv_path = syn_csv(tmp_path)
        config, doc = bench_config(tmp_path, csv_path)
        assert main(["bench", "--config", str(config)]) == 0
        out_dir = Path(doc["output_dir"])
        report = (out_dir / "report.csv").read_text()
        assert report.splitlines()[0] == ("detector,semantics,experiment,setting,"
                                          "run,precision,recall,f1,train_s,"
                                          "test_s,seed")
        assert len(report.splitlines()) >= 5  # 2 detectors x (run+best+mean)
        resolved = json.loads((out_dir / "resolved-config.json").read_text())
        assert resolved["train_fraction"] == 0.8
        assert resolved["detectors"][0]["window_size"] == 3
        # every detector default is made explicit
        assert resolved["detectors"][1] == {
            **DetectorConfig("cnn").to_dict(), **doc["detectors"][1],
            "window_size": 3, "step_size": 1, "seed": 3}
        assert (out_dir / "report.md").exists()
        assert "| lstm_forecast |" in capsys.readouterr().out

    def test_rerun_byte_identical(self, tmp_path):
        csv_path = syn_csv(tmp_path)
        config, doc = bench_config(tmp_path, csv_path)
        assert main(["bench", "--config", str(config)]) == 0
        first = (Path(doc["output_dir"]) / "report.csv").read_bytes()
        assert main(["bench", "--config", str(config)]) == 0
        second = (Path(doc["output_dir"]) / "report.csv").read_bytes()
        assert first == second

    @pytest.mark.parametrize("env_seed", [None, "7"])
    def test_resolved_config_reruns_identically(self, tmp_path, monkeypatch,
                                                env_seed):
        if env_seed is None:
            monkeypatch.delenv("LOGLENS_SEED", raising=False)
        else:
            monkeypatch.setenv("LOGLENS_SEED", env_seed)
        csv_path = syn_csv(tmp_path, n_sequences=60)
        config, doc = bench_config(tmp_path, csv_path)
        out_dir = Path(doc["output_dir"])
        assert main(["bench", "--config", str(config)]) == 0
        first = (out_dir / "report.csv").read_bytes()
        digest = (out_dir / "report.md").read_text().splitlines()[2]
        resolved = out_dir / "resolved-config.json"
        assert resolved.read_text().count('"seed": 7') == (3 if env_seed else 0)
        assert main(["bench", "--config", str(resolved)]) == 0
        assert (out_dir / "report.csv").read_bytes() == first
        assert (out_dir / "report.md").read_text().splitlines()[2] == digest

    def test_noise_sweep_defaults_to_the_builtin_synonyms(self, tmp_path):
        csv_path = syn_csv(tmp_path, n_sequences=60)
        synonyms = tmp_path / "synonyms.json"
        synonyms.write_bytes(resources.files("loglens").joinpath(
            "data/synonyms.json").read_bytes())
        reports = []
        for noise in ({}, {"synonyms_path": str(synonyms)}):
            config, doc = bench_config(
                tmp_path, csv_path, experiment="noise_sweep",
                noise={"ratios": [0.2], "strategies": ["pseudo_event"], **noise})
            assert main(["bench", "--config", str(config)]) == 0
            reports.append((Path(doc["output_dir"]) / "report.csv").read_bytes())
        assert reports[0] == reports[1]

    def test_synonyms_that_are_not_strings_exit_two_before_reading_data(
            self, tmp_path, capsys):
        synonyms = tmp_path / "synonyms.json"
        synonyms.write_text(json.dumps({"block": 1}))
        config, _ = bench_config(tmp_path, tmp_path / "absent.csv",
                                 experiment="noise_sweep",
                                 noise={"synonyms_path": str(synonyms)})
        assert main(["bench", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"{synonyms}: expected a JSON object of strings" in err
        assert "absent.csv" not in err and "Traceback" not in err

    def test_contamination_rows_per_ratio(self, tmp_path):
        csv_path = syn_csv(tmp_path, n_sequences=200, rate=0.2)
        config, doc = bench_config(
            tmp_path, csv_path, experiment="contamination_sweep",
            contamination_ratios=[0.01, 0.03, 0.05, 0.1])
        assert main(["bench", "--config", str(config)]) == 0
        rows = (Path(doc["output_dir"]) / "report.csv").read_text().splitlines()[1:]
        per_run = [r for r in rows if r.split(",")[4] == "1"]
        assert len(per_run) == 8  # 2 detectors x 4 ratios

    def test_unknown_key_reports_json_pointer(self, tmp_path, capsys):
        csv_path = syn_csv(tmp_path, n_sequences=20)
        config, _ = bench_config(tmp_path, csv_path)
        doc = json.loads(config.read_text())
        doc["detectors"][1]["familly"] = "cnn"
        config.write_text(json.dumps(doc))
        assert main(["bench", "--config", str(config)]) == 2
        assert "/detectors/1/familly" in capsys.readouterr().err

    def test_jobs_key_exits_two(self, tmp_path, capsys):
        """A detector run is one at a time: a config that still sets the
        thread count of older releases is refused, not ignored."""
        csv_path = syn_csv(tmp_path, n_sequences=20)
        config, _ = bench_config(tmp_path, csv_path, jobs=1)
        assert main(["bench", "--config", str(config)]) == 2
        assert "/jobs: unknown key" in capsys.readouterr().err

    def test_env_seed_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LOGLENS_SEED", "99")
        resolved = validate_run_config({
            "dataset": {"path": "x.csv"},
            "detectors": [{"family": "cnn"}, {"family": "cnn", "seed": 5}],
            "seed": 3})
        assert resolved["seed"] == 99
        # the override reaches detectors that take the run seed, so
        # ``loglens train`` honours it; an explicit detector seed is kept
        assert resolved["detectors"][0]["seed"] == 99
        assert resolved["detectors"][1]["seed"] == 5


class TestSchemaValidation:
    def base(self):
        return {"dataset": {"path": "d.csv"},
                "detectors": [{"family": "cnn"}]}

    def test_defaults_mirror_protocol(self):
        resolved = validate_run_config(self.base())
        assert resolved["window"] == {"window_size": 10, "step_size": 1}
        assert resolved["train_fraction"] == 0.8
        assert resolved["detectors"][0]["window_size"] == 10

    def test_unknown_top_level_key(self):
        doc = self.base()
        doc["bogus"] = 1
        with pytest.raises(SchemaError, match="/bogus"):
            validate_run_config(doc)

    def test_wrong_type_reports_pointer(self):
        doc = self.base()
        doc["repeats"] = "five"
        with pytest.raises(SchemaError, match="/repeats"):
            validate_run_config(doc)

    def test_missing_detectors(self):
        with pytest.raises(SchemaError, match="/detectors"):
            validate_run_config({"dataset": {"path": "d.csv"}})

    def test_unknown_family(self):
        doc = self.base()
        doc["detectors"][0]["family"] = "perceptron"
        with pytest.raises(SchemaError, match="/detectors/0/family"):
            validate_run_config(doc)

    def test_partial_window_section_takes_default_step(self, tmp_path):
        csv_path = syn_csv(tmp_path, n_sequences=40)
        config, doc = bench_config(tmp_path, csv_path, window={"window_size": 3})
        resolved = validate_run_config(doc)
        assert resolved["window"] == {"window_size": 3, "step_size": 1}
        assert resolved["detectors"][0]["step_size"] == 1
        assert main(["bench", "--config", str(config)]) == 0

    def test_partial_partition_section_takes_default_mode(self, tmp_path):
        csv_path = syn_csv(tmp_path, n_sequences=40)
        dataset = {"path": str(csv_path), "partition": {"partition_size": 60}}
        config, doc = bench_config(tmp_path, csv_path, dataset=dataset)
        resolved = validate_run_config(doc)
        assert resolved["dataset"]["partition"] == {
            "mode": "identifier", "partition_size": 60, "stride": 0}
        assert main(["bench", "--config", str(config)]) == 0

    @pytest.mark.parametrize("pointer, value", [
        ("/detectors/0/batch_size", 0),
        ("/detectors/0/hidden", 0),
        ("/detectors/0/embed_dim", 0),
        ("/detectors/0/layers", 0),
        ("/detectors/0/heads", 0),
        ("/detectors/0/k", 0),
        ("/detectors/0/window_size", 0),
        ("/detectors/1/step_size", 0),
        ("/detectors/1/max_len", 0),
        ("/detectors/0/threshold_quantile", 0),
        ("/detectors/0/threshold_quantile", 1.5),
        ("/detectors/0/threshold_quantile", float("nan")),
        ("/detectors/0/epochs", -1),
        ("/detectors/0/lr", 0),
        ("/detectors/1/lr", float("nan")),
        ("/window/window_size", 0),
        ("/repeats", 0),
        ("/experiment", "bogus"),
        ("/dataset/format", "bogus"),
        ("/dataset/partition/mode", "bogus"),
        ("/noise/strategies/0", "bogus"),
    ])
    def test_out_of_range_or_unknown_value_exits_two(self, tmp_path, capsys,
                                                     pointer, value):
        csv_path = syn_csv(tmp_path, n_sequences=40)
        config, doc = bench_config(tmp_path, csv_path,
                                   noise={"strategies": ["delete"]})
        *parents, last = pointer.strip("/").split("/")
        node = doc
        for part in parents:
            node = node[int(part) if isinstance(node, list) else part]
        node[int(last) if isinstance(node, list) else last] = value
        config.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["bench", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"{pointer}:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("detector, message", [
        ({"family": "transformer_forecast", "hidden": 8, "heads": 3},
         "not divisible by heads 3"),
        ({"family": "cnn", "max_len": 4}, "max_len 4 is shorter"),
    ])
    def test_cross_field_error_names_detector_before_reading_data(
            self, tmp_path, capsys, detector, message):
        config, doc = bench_config(tmp_path, tmp_path / "absent.csv")
        doc["detectors"].append(detector)
        config.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["bench", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "/detectors/2:" in err and message in err
        assert "absent.csv" not in err and "Traceback" not in err

    @pytest.mark.parametrize("pointer, key, value", [
        ("/train_fraction", "train_fraction", 1.5),
        ("/train_fraction", "train_fraction", 0),
        ("/contamination_ratios/1", "contamination_ratios", [0.05, 1.5]),
        ("/noise/ratios/1", "noise", {"ratios": [0.1, -0.2]}),
        ("/noise/ratios/0", "noise", {"ratios": [2.0]}),
        ("/noise/strategies", "noise", {"strategies": []}),
        ("/dataset/partition", "partition", {"mode": "sliding"}),
        ("/dataset/partition", "partition",
         {"mode": "sliding", "partition_size": 60, "stride": 90}),
        ("/dataset/partition", "partition", {"mode": "fixed"}),
    ])
    def test_run_value_error_names_its_pointer_before_reading_data(
            self, tmp_path, capsys, pointer, key, value):
        config, doc = bench_config(tmp_path, tmp_path / "absent.csv")
        (doc["dataset"] if key == "partition" else doc)[key] = value
        config.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["bench", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"{config}: {pointer}:" in err
        assert "absent.csv" not in err and "Traceback" not in err

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_json_number_exits_two_naming_the_file(self, tmp_path, capsys,
                                                       constant):
        # json takes these, so a ratio of Infinity once reached the noise
        # count's int() and ended in a traceback
        config, doc = bench_config(tmp_path, tmp_path / "absent.csv")
        doc["noise"] = {"ratios": [0.25]}
        config.write_text(json.dumps(doc).replace("0.25", constant), encoding="utf-8")
        assert main(["bench", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"{config}: /noise/ratios/0: {constant} is not a JSON number" in err
        assert "absent.csv" not in err and "Traceback" not in err

    @pytest.mark.parametrize("format_spec, key, message", [
        (None, "timestamp_regex", "required key missing"),
        ({k: v for k, v in FORMAT_SPEC.items() if k != "timestamp_format"},
         "timestamp_format", "required key missing"),
        (dict(FORMAT_SPEC, timestamp_format="%Q"), "timestamp_format",
         "'%Q' is unusable"),
        (dict(FORMAT_SPEC, content_group=3), "content_group", "in [1, 2]"),
    ])
    def test_raw_format_spec_error_names_its_pointer_before_reading_data(
            self, tmp_path, capsys, format_spec, key, message):
        dataset = {"path": str(tmp_path / "absent.log"), "format": "raw"}
        if format_spec is not None:
            dataset["format_spec"] = format_spec
        config, _ = bench_config(tmp_path, tmp_path / "absent.log", dataset=dataset)
        for command in (["bench", "--config", str(config)],
                        ["train", "--config", str(config),
                         "--model-out", str(tmp_path / "model")]):
            assert main(command) == 2
            err = capsys.readouterr().err
            assert f"{config}: /dataset/format_spec/{key}: " in err and message in err
            assert "absent.log" not in err and "Traceback" not in err

    def test_raw_similarity_threshold_out_of_range_exits_two(self, tmp_path,
                                                             capsys):
        raw = tmp_path / "raw.log"
        raw.write_text(HDFS_LINE)
        dataset = {"path": str(raw), "format": "raw", "format_spec": FORMAT_SPEC,
                   "similarity_threshold": 1.5}
        config, _ = bench_config(tmp_path, raw, dataset=dataset)
        assert main(["bench", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "/dataset/similarity_threshold:" in err
        assert "Traceback" not in err

    def test_non_integer_env_seed_exits_two(self, tmp_path, monkeypatch, capsys):
        csv_path = syn_csv(tmp_path, n_sequences=20)
        config, _ = bench_config(tmp_path, csv_path)
        monkeypatch.setenv("LOGLENS_SEED", "abc")
        assert main(["bench", "--config", str(config)]) == 2
        assert "LOGLENS_SEED" in capsys.readouterr().err
        assert main(["syngen", "--out", str(tmp_path / "gen.csv")]) == 2
        assert "LOGLENS_SEED" in capsys.readouterr().err

    def test_report_command_round_trip(self, tmp_path, capsys):
        csv_path = syn_csv(tmp_path, n_sequences=40)
        config, doc = bench_config(tmp_path, csv_path)
        assert main(["bench", "--config", str(config)]) == 0
        capsys.readouterr()
        assert main(["report", "--csv",
                     str(Path(doc["output_dir"]) / "report.csv")]) == 0
        assert "| lstm_forecast |" in capsys.readouterr().out


class TestReportCommand:
    def test_report_prints_the_table_bench_wrote(self, tmp_path, capsys):
        """``loglens report`` prints the ``report.md`` that ``bench`` wrote,
        but for the digest, which the CSV does not hold."""
        csv_path = syn_csv(tmp_path, n_sequences=40)
        config, doc = bench_config(tmp_path, csv_path, repeats=2,
                                   experiment="noise_sweep", noise={"ratios": [0.1, 0.2]})
        assert main(["bench", "--config", str(config)]) == 0
        out_dir = Path(doc["output_dir"])
        capsys.readouterr()
        assert main(["report", "--csv", str(out_dir / "report.csv")]) == 0
        markdown = (out_dir / "report.md").read_text(encoding="utf-8")
        digest = markdown.splitlines()[2]
        assert digest.startswith("seed 3, config digest ")
        assert capsys.readouterr().out == markdown.replace(
            digest, "seed 3, config digest -") + "\n"

    def test_header_only_report_is_empty(self, tmp_path, capsys):
        path = tmp_path / "report.csv"
        path.write_text(",".join(BenchReport.CSV_COLUMNS) + "\n", encoding="utf-8")
        assert main(["report", "--csv", str(path)]) == 0
        assert capsys.readouterr().out == "empty report\n"


# ---------------------------------------------------------------------------
# malformed input files

TINY_DETECTOR = {"family": "lstm_forecast", "k": 2, "hidden": 2, "layers": 1,
                 "embed_dim": 2, "epochs": 1, "window_size": 3}


def write_configs(root):
    """A one-detector run config (config.json) and a noise sweep that reads
    root's synonym table (noise.json), over root's files."""
    noise = {"experiment": "noise_sweep",
             "noise": {"ratios": [0.2], "synonyms_path": str(root / "synonyms.json")}}
    for name, extra in (("config.json", {}), ("noise.json", noise)):
        (root / name).write_text(json.dumps({
            "dataset": {"path": str(root / "syn.csv")}, "detectors": [TINY_DETECTOR],
            "output_dir": str(root / "out"), **extra}), encoding="utf-8")


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """A valid file of every input kind: configs and specs, a parsed CSV, a
    sequences JSONL and its vocabulary, a report and a small trained model."""
    root = tmp_path_factory.mktemp("inputs")
    syn_csv(root, n_sequences=30, rate=0.2)
    (root / "gen.json").write_text(json.dumps({"n_templates": 8, "n_sequences": 5}))
    (root / "format.json").write_text(json.dumps(FORMAT_SPEC))
    (root / "raw.log").write_text(HDFS_LINE)
    (root / "synonyms.json").write_text(json.dumps({"block": "chunk"}))
    write_configs(root)
    for argv in (["train", "--config", str(root / "config.json"),
                  "--model-out", str(root / "model")],
                 ["bench", "--config", str(root / "config.json")],
                 ["partition", "--input", str(root / "syn.csv"),
                  "--out", str(root / "seqs.jsonl")]):
        assert main(argv) == 0
    return root


def detect_argv(work, given="syn.csv"):
    return ["detect", "--model", str(work / "model"), "--input", str(work / given),
            "--out", str(work / "verdicts.jsonl")]


# input kind: (the file, the command that reads it, whether it is JSON)
INPUT_KINDS = {
    "run-config": ("config.json", lambda work: [
        "train", "--config", str(work / "config.json"),
        "--model-out", str(work / "trained")], True),
    "syngen-spec": ("gen.json", lambda work: [
        "syngen", "--spec", str(work / "gen.json"), "--out", str(work / "gen.csv")], True),
    "format-spec": ("format.json", lambda work: [
        "parse", "--input", str(work / "raw.log"), "--format", str(work / "format.json"),
        "--out", str(work / "parsed.csv")], True),
    "synonyms": ("synonyms.json", lambda work: [
        "bench", "--config", str(work / "noise.json")], True),
    "report-csv": ("out/report.csv", lambda work: [
        "report", "--csv", str(work / "out" / "report.csv")], False),
    "parsed-csv": ("syn.csv", lambda work: [
        "partition", "--input", str(work / "syn.csv"),
        "--out", str(work / "partitioned.jsonl")], False),
    "sequences-jsonl": ("seqs.jsonl", lambda work: detect_argv(work, "seqs.jsonl"), True),
    "sequences-vocab": ("seqs.jsonl.vocab.json",
                        lambda work: detect_argv(work, "seqs.jsonl"), True),
    "detector-json": ("model/detector.json", detect_argv, True),
    "model-vocab": ("model/vocab.json", detect_argv, True),
    "params": ("model/params.llns", detect_argv, False),
}

CORRUPTIONS = {
    "truncated": lambda data: [data[:len(data) // 2]],
    "not-utf8": lambda data: [data[:len(data) // 2] + b"\xff" + data[len(data) // 2:]],
    "array": lambda data: [b"[]"],
    "number": lambda data: [b"1"],
    "every-prefix": lambda data: [data[:n] for n in range(len(data))],
}

SWEEP = [(kind, corruption) for kind, (_, _, is_json) in INPUT_KINDS.items()
         for corruption in ["truncated", "not-utf8"]
         + (["array", "number"] if is_json else [])
         + (["every-prefix"] if kind == "params" else [])]


class TestMalformedInputs:
    @pytest.mark.parametrize("kind, corruption", SWEEP)
    def test_malformed_input_exits_0_or_2_naming_the_file(
            self, valid_inputs, tmp_path, capsys, kind, corruption):
        """No input file, however damaged, ends in a traceback: the command
        either reads what is there or exits 2 naming the file."""
        work = tmp_path / "work"
        shutil.copytree(valid_inputs, work)
        write_configs(work)
        name, argv, _ = INPUT_KINDS[kind]
        target = work / name
        for data in CORRUPTIONS[corruption](target.read_bytes()):
            target.write_bytes(data)
            code = main(argv(work))
            err = capsys.readouterr().err
            assert code in (0, 2) and "Traceback" not in err, (len(data), err)
            if code == 2:
                assert str(target) in err, (len(data), err)


# every key the schema knows, each with a valid value
FULL_CONFIG = {
    "dataset": {"path": "d.log", "format": "raw", "format_spec": dict(FORMAT_SPEC),
                "similarity_threshold": 0.5,
                "partition": {"mode": "fixed", "partition_size": 60,
                              "stride": 30}},
    "window": {"window_size": 4, "step_size": 2},
    "detectors": [{"family": "autoencoder", "semantics": True, "k": 3,
                   "window_size": 5, "step_size": 1, "hidden": 8, "layers": 1,
                   "heads": 2, "embed_dim": 4, "max_len": 16, "epochs": 2,
                   "batch_size": 16, "lr": 0.01, "threshold_quantile": 0.9,
                   "seed": 4}],
    "experiment": "noise_sweep",
    "repeats": 2,
    "seed": 1,
    "train_fraction": 0.7,
    "contamination_ratios": [0.05],
    "noise": {"ratios": [0.1], "strategies": ["delete"],
              "synonyms_path": "syn.json"},
    "output_dir": "out",
}


# every key the syngen spec knows, each with a valid value
FULL_GENERATOR = {"n_templates": 8, "n_sequences": 30, "anomaly_rate": 0.1,
                  "mean_length": 14, "automaton_branching": 2, "seed": 4}

# each spec class by the name of its definition in the schema's $defs
SPECS = {"detector": DetectorConfig, "partition": PartitionSpec,
         "window": WindowSpec, "noise": NoiseSpec, "generator": GeneratorSpec,
         "format_spec": FormatSpec}

DROP = object()     # a mutation that removes its key


def key_paths(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield (*path, key)
            yield from key_paths(value, (*path, key))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from key_paths(item, (*path, i))


def single_key_mutations(full):
    """Each copy of ``full`` with one key dropped or given a value of
    another type or range, as (key path, value, copy)."""
    for path in key_paths(full):
        doc = full
        for part in path:
            doc = doc[part]
        wrong_type = float(doc) if type(doc) is int else (
            1 if isinstance(doc, str) else "1")
        for value in (DROP, None, wrong_type, -1, 0, 2.5, True, [], {},
                      "not-an-enum-value"):
            doc = copy.deepcopy(full)
            node = doc
            for part in path[:-1]:
                node = node[part]
            if value is DROP:
                del node[path[-1]]
            else:
                node[path[-1]] = value
            yield path, value, doc


def disagreements(full, ours, reference) -> list:
    """(key path, value, pointer) of each single-key mutation of ``full``
    that ``ours`` refuses at ``pointer`` and ``reference`` accepts; none
    may go the other way."""
    found = []
    for path, value, doc in single_key_mutations(full):
        valid = reference.is_valid(doc)
        try:
            ours(doc)
            pointer = None
        except SchemaError as err:
            pointer = err.pointer
        if (pointer is None) != valid:
            assert pointer is not None, (path, value)
            found.append((path, value, pointer))
    return found


class TestSchemaMatchesCode:
    def test_enums_and_detector_keys_match_code(self):
        schema = run_config_schema()
        item = schema["$defs"]["detector"]["properties"]
        assert tuple(item["family"]["enum"]) == FAMILIES
        strategies = schema["$defs"]["noise"]["properties"]["strategies"]["items"]
        assert tuple(strategies["enum"]) == NOISE_STRATEGIES
        assert set(item) == {f.name for f in fields(DetectorConfig)}
        # DetectorConfig is the one place detector defaults are written
        assert not any("default" in node for node in item.values())

    @pytest.mark.parametrize("name", SPECS)
    def test_spec_fields_are_its_definitions_properties(self, name):
        """A spec's fields are its definition's keys, in order, and its
        defaults are written in the dataclass only."""
        spec, definition = SPECS[name], run_config_schema()["$defs"][name]
        assert spec.definition == name
        assert [f.name for f in fields(spec)] == list(definition["properties"])
        assert [key for key, node in definition["properties"].items()
                if "default" in node] == []

    def test_python_defaults_are_the_schemas(self):
        """A Python default for a run-config value is the schema's, read from
        it: the parse flag's, the parser's and the bench functions'."""
        root = run_config_schema()["properties"]
        threshold = root["dataset"]["properties"]["similarity_threshold"]["default"]
        parse = build_parser().parse_args(["parse", "--input", "in.log", "--format",
                                           "format.json", "--out", "out.csv"])
        assert parse.similarity_threshold == threshold
        for function, name, default in [
                (read_raw, "similarity_threshold", threshold),
                (parse_templates, "similarity_threshold", threshold),
                (split, "train_fraction", root["train_fraction"]["default"]),
                (run_experiment, "train_fraction", root["train_fraction"]["default"]),
                (run_experiment, "repeats", root["repeats"]["default"]),
                (run_experiment, "seed", root["seed"]["default"])]:
            assert inspect.signature(function).parameters[name].default == default

    def test_every_spec_is_listed(self):
        assert set(Spec.__subclasses__()) == set(SPECS.values())
        assert set(run_config_schema()["$defs"]) == set(SPECS)

    def test_schema_is_valid_and_every_ref_resolves(self):
        jsonschema = pytest.importorskip("jsonschema")
        from referencing import Registry
        from referencing.jsonschema import DRAFT202012
        schema = run_config_schema()
        jsonschema.Draft202012Validator.check_schema(schema)
        resolver = Registry().with_resource(
            "urn:loglens", DRAFT202012.create_resource(schema)).resolver("urn:loglens")
        nodes, refs = [schema], []
        while nodes:
            node = nodes.pop()
            if isinstance(node, dict):
                refs += [node["$ref"]] if "$ref" in node else []
                nodes += node.values()
            elif isinstance(node, list):
                nodes += node
        assert len(refs) == 8
        for ref in refs:
            assert isinstance(resolver.lookup(ref).contents, dict), ref

    def test_validator_agrees_with_jsonschema(self, monkeypatch):
        """Every single-key mutation of a full run config, syngen spec and
        format spec is accepted or refused as jsonschema decides on its
        schema node, except:

        - integral floats such as 3.0 for an integer key: jsonschema takes
          them, this validator refuses them;
        - the rules a schema cannot state: a raw dataset needs a format
          spec, whose regexes need group 1; a fixed partition needs a
          positive size; a syngen ``mean_length`` has a floor."""
        jsonschema = pytest.importorskip("jsonschema")
        monkeypatch.delenv("LOGLENS_SEED", raising=False)
        schema = run_config_schema()
        cases = {
            None: (FULL_CONFIG, validate_run_config, {
                (("dataset", "format_spec"), DROP, "/dataset/format_spec/timestamp_regex"),
                (("dataset", "format_spec", "timestamp_regex"), "not-an-enum-value",
                 "/dataset/format_spec/timestamp_regex"),
                (("dataset", "format_spec", "identifier_regex"), "not-an-enum-value",
                 "/dataset/format_spec/identifier_regex"),
                *((("dataset", "partition", "partition_size"), value, "/dataset/partition")
                  for value in (DROP, -1, 0))}),
            "generator": (FULL_GENERATOR, GeneratorSpec.from_json, {
                (("mean_length",), -1, "/mean_length"),
                (("mean_length",), 0, "/mean_length")}),
            "format_spec": (FORMAT_SPEC, FormatSpec.from_json, {
                (("timestamp_regex",), "not-an-enum-value", "/timestamp_regex"),
                (("identifier_regex",), "not-an-enum-value", "/identifier_regex")}),
        }
        for name, (full, ours, rules) in cases.items():
            node = schema if name is None else {"$defs": schema["$defs"],
                                                "$ref": f"#/$defs/{name}"}
            reference = jsonschema.Draft202012Validator(node)
            assert reference.is_valid(full)
            if name is not None:    # every key is set
                assert set(full) == set(schema["$defs"][name]["properties"])
            def integral(value):
                return type(value) is float and value.is_integer()

            integral_floats = [(path, value) for path, value, _
                               in single_key_mutations(full) if integral(value)]
            found = disagreements(full, ours, reference)
            assert [(path, value) for path, value, _ in found
                    if integral(value)] == integral_floats, name
            assert {case for case in found if not integral(case[1])} == rules, name
            if name is None:
                assert len(integral_floats) >= 15


# for each spec: its valid arguments, then one field's value that its JSON
# form refuses: a wrong type, a value out of range, or NaN
SPEC_REFUSALS = [
    (DetectorConfig, {"family": "lstm_forecast"},
     [("hidden", 0), ("epochs", -1), ("lr", float("nan")),
      ("threshold_quantile", 1.5), ("semantics", "yes"), ("window_size", 0),
      ("k", "3"), ("family", "rnn")]),
    (PartitionSpec, {"mode": "fixed", "partition_size": 60},
     [("partition_size", "60"), ("partition_size", 60.5),
      ("stride", float("nan")), ("mode", "bogus")]),
    (WindowSpec, {"window_size": 2, "step_size": 1},
     [("window_size", 2.5), ("window_size", 0), ("step_size", float("nan"))]),
    (NoiseSpec, {"ratio": 0.1, "synonym_table": {"a": "b"}},
     [("ratio", float("nan")), ("ratio", -0.1), ("ratio", "0.1"), ("ratio", float("inf")),
      ("strategies", ()), ("strategies", ("bogus",)), ("seed", 1.5)]),
    (GeneratorSpec, {},
     [("n_sequences", 0), ("anomaly_rate", float("nan")), ("anomaly_rate", 1.0),
      ("mean_length", "20"), ("n_templates", True), ("n_templates", 5000)]),
    (FormatSpec, dict(FORMAT_SPEC),
     [("content_group", "2"), ("content_group", 0), ("content_group", float("nan")),
      ("timestamp_regex", 1), ("identifier_regex", 5)]),
]


class TestSpecsCheckThemselves:
    @pytest.mark.parametrize("spec, valid, key, value", [
        (spec, valid, key, value) for spec, valid, refused in SPEC_REFUSALS
        for key, value in refused])
    def test_spec_built_in_python_refuses_what_its_json_form_refuses(
            self, spec, valid, key, value):
        """Refused with a pointer to the field, never accepted and never a
        bare ``TypeError``, whether built from Python or from JSON."""
        spec(**valid)
        for build in (spec, spec.from_json):
            with pytest.raises((ConfigurationError, FormatError)) as raised:
                build(**{**valid, key: value}) if build is spec else \
                    build({**valid, key: value})
            assert f"{raised.value.pointer}/".startswith(f"/{key}/")

    def test_every_spec_is_covered(self):
        assert {spec for spec, _, _ in SPEC_REFUSALS} == set(SPECS.values())


GOLDEN_REPORT = Path(__file__).parent / "data" / "golden-report.csv"


def golden_config(tmp_path) -> Path:
    """Small accuracy run over all five families (supervised ones in both
    input modes) on a dataset with short, windowless sequences."""
    csv_path = tmp_path / "golden.csv"
    generate(GeneratorSpec(n_templates=10, n_sequences=300, anomaly_rate=0.15,
                           mean_length=10, seed=21)).write(csv_path)
    small = {"hidden": 8, "embed_dim": 4, "epochs": 2, "batch_size": 16,
             "lr": 0.02}
    supervised = {**small, "max_len": 16, "epochs": 4, "lr": 0.05}
    doc = {
        "dataset": {"path": str(csv_path),
                    "partition": {"mode": "identifier"}},
        "window": {"window_size": 4, "step_size": 1},
        "detectors": [
            {"family": "lstm_forecast", "k": 3, "layers": 1, **small},
            {"family": "transformer_forecast", "k": 3, "layers": 1, "heads": 2,
             "step_size": 2, **small},
            {"family": "autoencoder", "window_size": 3, "threshold_quantile": 0.95,
             **small, "hidden": 16},
            {"family": "bilstm_attention", **supervised},
            {"family": "bilstm_attention", "semantics": True, **supervised},
            {"family": "cnn", **supervised},
            {"family": "cnn", "semantics": True, **supervised},
        ],
        "experiment": "accuracy",
        "repeats": 2,
        "seed": 5,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestGoldenReport:
    def test_report_matches_golden_bytes(self, tmp_path):
        """Pins this platform's float results: refactors that should leave
        results as they are must keep report.csv byte-identical. Another
        numpy/BLAS build may round differently and need a fresh golden file."""
        assert main(["bench", "--config", str(golden_config(tmp_path))]) == 0
        got = (tmp_path / "out" / "report.csv").read_bytes()
        assert got == GOLDEN_REPORT.read_bytes()
