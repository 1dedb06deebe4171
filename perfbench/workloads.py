"""The three workloads. Each is closed-loop, single-process and single-threaded.

A workload's ``setup`` builds its inputs (and, for ``detect``, the fitted
models); ``run_pass`` is the timed unit of work and returns the program's
outputs; ``check`` compares those outputs with the recorded reference and
with counts the benchmark computes itself, outside the timed section.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import time
from pathlib import Path

from loglens import bench, cli
from loglens.detectors import SUPERVISED_FAMILIES, build_detector

import inputs

# final epoch losses may move by float reordering only
LOSS_RTOL = 1e-6

SIZES = {
    # a pass lasts about a second, so a run holds a few dozen passes, each
    # scaled by the host speed measured right around it (calibrate.py): a
    # short pass mostly sees one speed of a host whose speed keeps changing
    "full": {
        # epochs chosen so each family trains for a comparable share
        "train": {"events": 3000,
                  "epochs": {"lstm_forecast": 1, "transformer_forecast": 1,
                             "autoencoder": 8, "bilstm_attention": 1, "cnn": 4}},
        "detect": {"train": 500, "stream": 400, "noise": 0.2},
        # one sequence starts every second and spans about a minute, so about
        # sixty are open at once; each record falls in twelve sliding windows
        "ingest": {"sequences": 600, "start_every": 1, "event_gap": 3,
                   "size": 60, "stride": 5},
    },
    "tiny": {
        "train": {"events": 2000, "epochs": dict.fromkeys(inputs.FAMILIES, 1)},
        "detect": {"train": 150, "stream": 100, "noise": 0.2},
        "ingest": {"sequences": 200, "start_every": 1, "event_gap": 3,
                   "size": 60, "stride": 15},
    },
}


class Workload:
    name = ""
    operations: tuple = ()   # timed operations of one pass, in order

    def __init__(self, size: str, variant: int, workdir: Path):
        self.params = SIZES[size][self.name]
        self.variant = variant
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> tuple[dict, dict]:
        """Run the timed work once: (outputs per operation, seconds per step)."""
        raise NotImplementedError

    def observe(self, outputs: dict) -> dict:
        """Outputs to check, per operation; may read files the pass wrote."""
        return outputs

    def check(self, observed: dict, reference: dict) -> dict:
        """Problems found, per operation (empty lists when all is well)."""
        problems = {}
        for op in self.operations:
            got, want = observed.get(op, {}), reference.get(op)
            if want is None:
                problems[op] = [f"no recorded reference for {op}"]
                continue
            problems[op] = [f"{op}.{key}: got {got.get(key)!r}, want {value!r}"
                            for key, value in want.items()
                            if not _matches(key, got.get(key), value)]
        return problems

    def recordable(self, observed: dict) -> dict:
        """The part of ``observed`` the reference file records."""
        return observed


def _matches(key: str, got, want) -> bool:
    if got is None:
        return False
    if key == "final_loss":
        return math.isclose(got, want, rel_tol=LOSS_RTOL)
    return got == want


class Train(Workload):
    """``bench.run_experiment`` (accuracy, one repeat) over the five families."""

    name = "train"
    operations = inputs.FAMILIES

    def setup(self) -> None:
        self.sequences, self.vocab = inputs.syngen_events(
            self.params["events"], self.variant)
        self.configs = inputs.detector_configs(self.params["epochs"])

    def run_pass(self):
        fitted = {}
        build = bench.build_detector

        def keep(config, *args, **kwargs):
            fitted[config.family] = build(config, *args, **kwargs)
            return fitted[config.family]

        bench.build_detector = keep
        try:
            report = bench.run_experiment(self.sequences, self.vocab, self.configs,
                                          "accuracy", repeats=1, seed=self.variant)
        finally:
            bench.build_detector = build
        f1 = {row.detector: row.f1 for row in report.rows if row.run == "1"}
        outputs = {f: {"final_loss": fitted[f].epoch_losses_[-1], "f1": f1[f]}
                   for f in self.operations}
        steps = {f"train_s.{f}": fitted[f].training_seconds_
                 for f in self.operations}
        return outputs, steps


class Detect(Workload):
    """``predict`` of every family, fitted in set-up, on a held-out stream."""

    name = "detect"
    operations = inputs.FAMILIES

    def setup(self) -> None:
        p = self.params
        data = inputs.detect_inputs(p["train"], p["stream"], p["noise"], self.variant)
        normal_train, _ = bench.strip_anomalies(data.train)
        self.models = {}
        for config in inputs.detector_configs(dict.fromkeys(self.operations, 1)):
            fit_set = data.train if config.family in SUPERVISED_FAMILIES \
                else normal_train
            self.models[config.family] = build_detector(config, data.vocab).fit(
                fit_set, data.vocab)
        self.stream, self.extended = data.stream, data.extended
        self.labels = [s.label for s in data.stream]
        self.verdicts = len(self.stream) * len(self.models)  # per pass

    def run_pass(self):
        outputs, steps = {}, {}
        for family, model in self.models.items():
            start = time.perf_counter()
            verdicts = model.predict(self.stream, vocab=self.extended)
            steps[f"predict_s.{family}"] = time.perf_counter() - start
            _, _, _, f1 = bench.compute_metrics(verdicts, self.labels)
            outputs[family] = {"flagged": sum(v.anomalous for v in verdicts),
                               "f1": f1}
        return outputs, steps


_PARSED = re.compile(r"parsed (\d+) records into (\d+) templates; (\d+) rejects")
_WROTE = re.compile(r"wrote (\d+) sequences")


class Ingest(Workload):
    """``loglens parse`` then ``loglens partition`` in identifier and sliding
    mode, through ``cli.main`` in this process."""

    name = "ingest"
    operations = ("parse", "partition.identifier", "partition.sliding")

    def setup(self) -> None:
        p = self.params
        self.raw = inputs.render_raw_log(p["sequences"], self.variant, self.workdir,
                                         p["start_every"], p["event_gap"])
        windows, events = inputs.sliding_windows(self.raw.timestamps, p["size"],
                                                 p["stride"])
        # counts the benchmark derives from what it rendered
        self.expected = {
            "parse": {"records": self.raw.lines, "rejects": 0},
            "partition.identifier": {"sequences": self.raw.identifiers,
                                     "events": self.raw.lines},
            "partition.sliding": {"sequences": windows, "events": events},
        }

    def _path(self, op: str) -> Path:
        return self.workdir / f"{op}.out"

    def run_pass(self):
        p = self.params
        argv = {
            "parse": ["parse", "--input", str(self.raw.path), "--format",
                      str(self.raw.format_path), "--out", str(self._path("parse"))],
            "partition.identifier": ["partition", "--input", str(self._path("parse")),
                                     "--mode", "identifier",
                                     "--out", str(self._path("partition.identifier"))],
            "partition.sliding": ["partition", "--input", str(self._path("parse")),
                                  "--mode", "sliding", "--size", str(p["size"]),
                                  "--stride", str(p["stride"]),
                                  "--out", str(self._path("partition.sliding"))],
        }
        outputs, steps = {}, {}
        for op in self.operations:
            printed = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(printed):
                code = cli.main(argv[op])
            steps[f"{op}_s"] = time.perf_counter() - start
            outputs[op] = {"exit": code, "printed": printed.getvalue()}
        return outputs, steps

    def observe(self, outputs: dict) -> dict:
        observed = {}
        parsed = _PARSED.search(outputs["parse"]["printed"])
        observed["parse"] = {"exit": outputs["parse"]["exit"]}
        if parsed:
            records, templates, rejects = map(int, parsed.groups())
            observed["parse"].update(records=records, templates=templates,
                                     rejects=rejects)
        for op in self.operations[1:]:
            wrote = _WROTE.search(outputs[op]["printed"])
            observed[op] = {"exit": outputs[op]["exit"],
                            "printed_sequences": int(wrote.group(1)) if wrote else None}
            if outputs[op]["exit"] == 0:
                with open(self._path(op), encoding="utf-8") as fh:
                    docs = [json.loads(line) for line in fh]
                observed[op].update(sequences=len(docs),
                                    events=sum(len(d["events"]) for d in docs))
        return observed

    def check(self, observed: dict, reference: dict) -> dict:
        want = {op: dict(self.expected[op], exit=0) for op in self.operations}
        want["parse"]["templates"] = reference.get("parse", {}).get("templates")
        for op in self.operations[1:]:
            want[op]["printed_sequences"] = want[op]["sequences"]
        return super().check(observed, want)

    def recordable(self, observed: dict) -> dict:
        return {"parse": {"templates": observed["parse"].get("templates")}}


WORKLOADS = {cls.name: cls for cls in (Train, Detect, Ingest)}
