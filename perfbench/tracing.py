"""Span tracing around loglens entry points, installed from outside the package.

``install`` rebinds the public functions and methods at each layer boundary,
in every loglens module that binds them (autodiff ops only where
``loglens.detectors`` binds them), to wrappers that record a span: name,
start, end, parent span and run id. Spans stay in memory until
``Tracer.write``. ``Tracer.restore`` puts every original back;
``leftover_wrappers`` proves it did.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

MARK = "__perfbench_wrapped__"
_ABSENT = object()

FAMILIES = ("lstm_forecast", "transformer_forecast", "autoencoder",
            "bilstm_attention", "cnn")
OPS = ("embedding_lookup", "linear", "run_lstm", "multihead_attention",
       "conv_full_width", "cross_entropy", "mse")
LAYERS = ("autodiff", "detectors", "sequencing", "ingest", "bench", "syngen",
          "cli", "benchmark")
_BY_FAMILY = ("autodiff.backward_s", "autodiff.backward_calls",
              "autodiff.adam_step_s", "autodiff.tensors_created")


def _metric_names() -> list[str]:
    names = []
    for base in _BY_FAMILY:
        names += [base] + [f"{base}.{f}" for f in FAMILIES]
    names += [f"autodiff.op_s.{op}" for op in OPS]
    names += [f"autodiff.op_calls.{op}" for op in OPS]
    for kind in ("fit_s", "predict_s", "flagged"):
        names += [f"detectors.{kind}.{f}" for f in FAMILIES]
    names += ["sequencing.make_windows_s", "sequencing.make_windows_calls",
              "sequencing.windows", "sequencing.short",
              "sequencing.partition_s.identifier", "sequencing.partition_s.sliding",
              "sequencing.sequences.identifier", "sequencing.sequences.sliding",
              "sequencing.write_sequences_s", "sequencing.semantic_table_s",
              "ingest.read_raw_s", "ingest.lines", "ingest.rejects",
              "ingest.parse_templates_s", "ingest.templates",
              "ingest.write_parsed_s", "ingest.read_parsed_s", "ingest.records",
              "bench.split_s", "bench.inject_noise_s", "bench.compute_metrics_s",
              "syngen.generate_s", "cli.main_s.parse", "cli.main_s.partition"]
    names += [f"self_s.{layer}" for layer in LAYERS]
    names += ["trace.untraced_run_s", "trace.traced_run_s", "trace.overhead_s"]
    return names


# every per-layer metric, in report order; time metrics end in ``_s``
METRICS = _metric_names()


def unit_of(name: str) -> str:
    return "s" if any(part.endswith("_s") for part in name.split(".")) else "count"


class Tracer:
    """In-memory span recorder. A span is ``[name, start, end, parent]``;
    ``parent`` is the index of the enclosing span or -1."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        # tensor-count key of the innermost detector call
        self.tensor_key = "tensors"
        self._open: list[int] = []
        self._patches: list[tuple] = []

    # recording ------------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._open[-1] if self._open else -1])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def timed(self, fn, name_of, after=None):
        """Wrapper recording one span per call of ``fn``; ``name_of(args)``
        names it and ``after(args, result)`` updates counts."""
        begin, end = self.begin, self.end

        def wrapper(*args, **kwargs):
            index = begin(name_of(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                end(index)
            if after is not None:
                after(args, result)
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    # patching -------------------------------------------------------------

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, wrapper)

    def patch_everywhere(self, fn, wrapper) -> None:
        """Rebind ``fn`` in every loaded loglens module that binds it."""
        for module in _loglens_modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # results ----------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": self.run_id}) + "\n")

    def mark(self) -> tuple[int, Counter]:
        return len(self.spans), Counter(self.counts)

    def totals(self, since: tuple[int, Counter]) -> Counter:
        """Totals since ``mark()``: time and calls per span name, split also
        by the detector family that caused the span, each layer's self time
        (duration minus its child spans), and the counts."""
        first, counts_then = since
        spans = self.spans[first:]
        out: Counter = Counter(self.counts)
        out.subtract(counts_then)
        child = [0.0] * len(spans)
        family: list = [None] * len(spans)
        for i, (name, start, end, parent) in enumerate(spans):
            p = parent - first
            if name.startswith("detectors."):
                family[i] = name.rsplit(".", 1)[1]
            elif p >= 0:
                family[i] = family[p]
            if p >= 0:
                child[p] += end - start
        for i, (name, start, end, _) in enumerate(spans):
            duration = end - start
            out[f"{name}:s"] += duration
            out[f"{name}:calls"] += 1
            if family[i] is not None:
                out[f"{name}:s.{family[i]}"] += duration
                out[f"{name}:calls.{family[i]}"] += 1
            out["self_s." + name.split(".", 1)[0]] += duration - child[i]
        return out


def _loglens_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "loglens" or name.startswith("loglens."))]


def leftover_wrappers() -> list[str]:
    """Names of loglens attributes (module level or class level) that are
    still tracing wrappers."""
    found = []
    for module in _loglens_modules():
        for attr, value in vars(module).items():
            if hasattr(value, MARK):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type):
                for cattr, cvalue in vars(value).items():
                    if hasattr(cvalue, MARK):
                        found.append(f"{module.__name__}.{attr}.{cattr}")
    return found


def install(tracer: Tracer) -> None:
    """Wrap the entry points of every layer. Call ``tracer.restore()`` after."""
    from loglens import bench, cli, ingest, sequencing, syngen
    from loglens.autodiff import Adam, Tensor
    from loglens.detectors import (AutoencoderDetector, BilstmAttentionDetector,
                                   CnnDetector, LstmForecastDetector,
                                   TransformerForecastDetector)
    from loglens.detectors import autoencoder, forecast, supervised

    counts = tracer.counts

    def fixed(name):
        return lambda args: name

    # autodiff: backward and optimizer spans, ops where detectors bind them,
    # and a tensor count per detector family
    tracer.patch(Tensor, "backward",
                 tracer.timed(Tensor.backward, fixed("autodiff.backward")))
    tracer.patch(Adam, "step", tracer.timed(Adam.step, fixed("autodiff.adam_step")))
    tensor_init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        counts[tracer.tensor_key] += 1
        tensor_init(self, *args, **kwargs)

    setattr(counting_init, MARK, tensor_init)
    tracer.patch(Tensor, "__init__", counting_init)
    for module in (forecast, autoencoder, supervised):
        for op in OPS:
            if hasattr(module, op):
                tracer.patch(module, op, tracer.timed(
                    getattr(module, op), fixed(f"autodiff.op.{op}")))

    # detectors: fit and predict per family; spans under them inherit it
    for cls in (LstmForecastDetector, TransformerForecastDetector,
                AutoencoderDetector, BilstmAttentionDetector, CnnDetector):
        for method in ("fit", "predict"):
            tracer.patch(cls, method, _detector_wrapper(
                tracer, getattr(cls, method), method))

    # sequencing
    def windows_after(args, result):
        counts["sequencing.windows"] += len(result)
        counts["sequencing.short"] += not result

    def sequences_after(args, result):
        counts[f"sequencing.sequences.{args[1].mode}"] += len(result)

    tracer.patch_everywhere(sequencing.make_windows, tracer.timed(
        sequencing.make_windows, fixed("sequencing.make_windows"), windows_after))
    tracer.patch_everywhere(sequencing.partition, tracer.timed(
        sequencing.partition, lambda args: f"sequencing.partition.{args[1].mode}",
        sequences_after))
    tracer.patch_everywhere(sequencing.write_sequences, tracer.timed(
        sequencing.write_sequences, fixed("sequencing.write_sequences")))
    table_for = sequencing.SemanticEncoder.table_for
    tracer.patch(sequencing.SemanticEncoder, "table_for", tracer.timed(
        table_for, fixed("sequencing.semantic_table")))

    # ingest
    def raw_after(args, result):
        records, rejects = result
        counts["ingest.lines"] += len(records) + len(rejects)
        counts["ingest.rejects"] += len(rejects)

    def templates_after(args, result):
        counts["ingest.templates"] += len(result[0])

    def records_after(args, result):
        counts["ingest.records"] += len(result[0])

    for fn, after in ((ingest.read_raw, raw_after),
                      (ingest.parse_templates, templates_after),
                      (ingest.write_parsed, None),
                      (ingest.read_parsed, records_after)):
        tracer.patch_everywhere(fn, tracer.timed(
            fn, fixed(f"ingest.{fn.__name__}"), after))

    # bench, syngen, cli
    for fn in (bench.split, bench.inject_noise, bench.compute_metrics,
               bench.run_experiment):
        tracer.patch_everywhere(fn, tracer.timed(fn, fixed(f"bench.{fn.__name__}")))
    tracer.patch_everywhere(syngen.generate, tracer.timed(
        syngen.generate, fixed("syngen.generate")))
    tracer.patch(cli, "main", tracer.timed(
        cli.main, lambda args: f"cli.main.{args[0][0]}"))


def _detector_wrapper(tracer: Tracer, fn, method: str):
    def wrapper(detector, *args, **kwargs):
        outer = tracer.tensor_key
        tracer.tensor_key = f"tensors.{detector.family}"
        index = tracer.begin(f"detectors.{method}.{detector.family}")
        try:
            result = fn(detector, *args, **kwargs)
        finally:
            tracer.end(index)
            tracer.tensor_key = outer
        if method == "predict":
            tracer.counts[f"detectors.flagged.{detector.family}"] += sum(
                v.anomalous for v in result)
        return result

    setattr(wrapper, MARK, fn)
    return wrapper


def layer_metrics(setup: Counter, passes: Counter, n_passes: int) -> dict:
    """Every name in ``METRICS`` from ``Tracer.totals`` of one set-up plus
    the mean timed pass; self times cover the timed passes only. Layers a
    workload never calls read 0."""
    merged: Counter = Counter(setup)
    for key, value in passes.items():
        merged[key] += value / n_passes
    values = dict.fromkeys(METRICS, 0.0)
    for base, key in (("autodiff.backward_s", "autodiff.backward:s"),
                      ("autodiff.backward_calls", "autodiff.backward:calls"),
                      ("autodiff.adam_step_s", "autodiff.adam_step:s")):
        values[base] = merged[key]
        for f in FAMILIES:
            values[f"{base}.{f}"] = merged[f"{key}.{f}"]
    values["autodiff.tensors_created"] = merged["tensors"]
    for f in FAMILIES:
        created = merged[f"tensors.{f}"]
        values[f"autodiff.tensors_created.{f}"] = created
        values["autodiff.tensors_created"] += created
        values[f"detectors.fit_s.{f}"] = merged[f"detectors.fit.{f}:s"]
        values[f"detectors.predict_s.{f}"] = merged[f"detectors.predict.{f}:s"]
    for op in OPS:
        values[f"autodiff.op_s.{op}"] = merged[f"autodiff.op.{op}:s"]
        values[f"autodiff.op_calls.{op}"] = merged[f"autodiff.op.{op}:calls"]
    for mode in ("identifier", "sliding"):
        values[f"sequencing.partition_s.{mode}"] = \
            merged[f"sequencing.partition.{mode}:s"]
    for command in ("parse", "partition"):
        values[f"cli.main_s.{command}"] = merged[f"cli.main.{command}:s"]
    values["sequencing.make_windows_calls"] = merged["sequencing.make_windows:calls"]
    for name in METRICS:
        if name.endswith("_s") and f"{name[:-2]}:s" in merged:
            values[name] = merged[f"{name[:-2]}:s"]   # span time by name
        elif name in merged:
            values[name] = merged[name]               # a count
    for layer in LAYERS:
        values[f"self_s.{layer}"] = passes[f"self_s.{layer}"] / n_passes
    return values
