"""Tests of the benchmark itself, at the tiny input size.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
tracing, workloads = run._import_program()

# end-to-end figures printed for reading, per workload, with their units
PRINTED = {
    "train": {"train_s.lstm_forecast": "s", "train_s.transformer_forecast": "s",
              "train_s.autoencoder": "s", "train_s.bilstm_attention": "s",
              "train_s.cnn": "s", "f1_mean": "ratio"},
    "detect": {"detect_seq_per_s": "sequences/s", "f1_mean": "ratio"},
    "ingest": {"ingest_lines_per_s": "lines/s",
               "partition_records_per_s": "records/s"},
}
COMMON = {"setup_s": "s", "scaled_pass_s": "s", "peak_rss_mb": "MB",
          "run_median_s": "s", "host_speed": "ratio", "failed_ratio": "ratio"}


def _bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170)


def _result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _printed(stdout: str) -> dict:
    shown = {}
    for line in stdout.splitlines():
        if line.startswith("# ") and " = " in line:
            name, rest = line[2:].split(" = ")
            shown[name] = rest.split()[1]
    return shown


@pytest.mark.parametrize("workload", ["train", "detect", "ingest"])
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= len(workloads.WORKLOADS[workload].operations)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    shown = _printed(proc.stdout)
    for name, unit in {**COMMON, **PRINTED[workload]}.items():
        assert shown.get(name) == unit, name


@pytest.mark.parametrize("workload", ["train", "ingest"])
def test_traced_run_reports_every_per_layer_metric(workload):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = _result(proc)["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    busy = "self_s.autodiff" if workload == "train" else "self_s.ingest"
    assert metrics[busy]["value"] > 0
    if workload == "ingest":
        assert metrics["autodiff.backward_calls"]["value"] == 0
        assert metrics["sequencing.sequences.sliding"]["value"] > 0


def test_wrong_flagged_count_fails_the_check(monkeypatch, capsys):
    honest = workloads.Detect.run_pass

    def one_more_flagged(self):
        outputs, steps = honest(self)
        outputs["cnn"]["flagged"] += 1
        return outputs, steps

    monkeypatch.setattr(workloads.Detect, "run_pass", one_more_flagged)
    code = run.main(["--workload", "detect", "--seed", "3", "--seconds", "1",
                     "--trace", "0", "--size", "tiny"])
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert "# FAILED cnn.flagged" in out


def test_wrong_loss_and_sequence_count_fail_the_check():
    train = workloads.Train("tiny", 0, None)
    reference = run._load_reference("tiny", "train", 0)
    observed = json.loads(json.dumps(reference))
    assert not any(train.check(observed, reference).values())
    observed["lstm_forecast"]["final_loss"] *= 1 + 1e-4
    assert train.check(observed, reference)["lstm_forecast"]

    ingest = workloads.Ingest("tiny", 0, run.WORK / "test-ingest")
    try:
        ingest.setup()
        observed = ingest.observe(ingest.run_pass()[0])
    finally:
        shutil.rmtree(run.WORK / "test-ingest", ignore_errors=True)
    reference = run._load_reference("tiny", "ingest", 0)
    assert not any(ingest.check(observed, reference).values())
    observed["partition.sliding"]["sequences"] -= 1
    assert ingest.check(observed, reference)["partition.sliding"]


def test_tracing_restores_every_wrapped_function(capsys):
    from loglens import autodiff, cli, sequencing

    before = (autodiff.Tensor.__init__, autodiff.Tensor.backward, cli.main,
              cli.partition, sequencing.make_windows)
    tracer = tracing.Tracer("probe")
    tracing.install(tracer)
    try:
        assert len(tracing.leftover_wrappers()) > 20
    finally:
        tracer.restore()
    assert tracing.leftover_wrappers() == []

    assert run.main(["--workload", "train", "--seed", "2", "--seconds", "1",
                     "--trace", "1", "--size", "tiny"]) == 0
    capsys.readouterr()
    assert tracing.leftover_wrappers() == []
    after = (autodiff.Tensor.__init__, autodiff.Tensor.backward, cli.main,
             cli.partition, sequencing.make_windows)
    assert all(a is b for a, b in zip(before, after))


def test_refuses_to_run_without_the_program():
    bare = run.WORK / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = _bench("--workload", "ingest", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_sliding_window_oracle_matches_partition():
    from loglens.ingest import LogRecord
    from loglens.sequencing import PartitionSpec, partition

    stamps = [0, 1, 1, 7, 30, 31, 95]
    records = [LogRecord(i, t, None, "x", event_id=0) for i, t in enumerate(stamps)]
    for size, stride in ((10, 5), (20, 20), (7, 3)):
        sequences = partition(records, PartitionSpec("sliding", size, stride))
        assert workloads.inputs.sliding_windows(stamps, size, stride) == (
            len(sequences), sum(len(s.events) for s in sequences))
