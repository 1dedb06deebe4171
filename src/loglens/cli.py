"""Command-line front end.

Subcommands: parse, partition, syngen, train, detect, bench, report. Flags
only select the subcommand and file paths; experiment knobs live in a JSON run
config. Its one schema is the published data/runconfig.schema.json: types,
enums, bounds, required and unknown keys are checked against it before any
data is read, and its defaults are filled in. Detector defaults come from
``DetectorConfig``, so the resolved config lists every one. Exit codes: 0
success, 2 usage/config error, 3 runtime/data error. The LOGLENS_SEED
environment variable overrides the config seed.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import operator
import os
import sys
from dataclasses import fields
from importlib import resources
from pathlib import Path

from .bench import NOISE_STRATEGIES, BenchReport, fit_set, read_synonyms, run_experiment
from .detectors import DetectorConfig, build_detector, load_detector, save_detector
from .exceptions import ConfigurationError, FormatError, LoglensError
from .ingest import (
    FormatSpec,
    check_similarity_threshold,
    parse_templates,
    read_json,
    read_parsed,
    read_raw,
    write_parsed,
    write_rejects,
)
from .sequencing import PartitionSpec, partition, read_sequences, write_sequences
from .syngen import GeneratorSpec, stream

USAGE_EXIT = 2
RUNTIME_EXIT = 3


class SchemaError(ConfigurationError):
    """Run config violates the schema; carries a JSON-pointer path."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer


# ---------------------------------------------------------------------------
# run config schema

_JSON_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
               "integer": int, "number": (int, float), "null": type(None)}


@functools.cache
def run_config_schema() -> dict:
    """The published run-config schema (data/runconfig.schema.json)."""
    return read_json(resources.files("loglens") / "data" / "runconfig.schema.json")


def _check(doc, schema: dict, pointer: str) -> None:
    """Check ``doc`` against one schema node and fill in its defaults in
    place. Covers only the keywords the run-config schema uses; JSON
    booleans are never numbers, and an integer is never a float such as 3.0.
    Bounds apply to numbers only."""
    where = pointer or "/"
    kinds = schema.get("type", [])
    kinds = [kinds] if isinstance(kinds, str) else kinds
    if kinds and not any(isinstance(doc, _JSON_TYPES[kind])
                         and isinstance(doc, bool) == (kind == "boolean")
                         for kind in kinds):
        got = "null" if doc is None else type(doc).__name__
        raise SchemaError(where, f"expected {' or '.join(kinds)}, got {got}")
    if "enum" in schema and doc not in schema["enum"]:
        raise SchemaError(where, f"must be one of {', '.join(schema['enum'])}")
    for key, holds, text in (("minimum", operator.ge, ">="),
                             ("exclusiveMinimum", operator.gt, ">"),
                             ("maximum", operator.le, "<="),
                             ("exclusiveMaximum", operator.lt, "<")):
        if (key in schema and isinstance(doc, (int, float))
                and not holds(doc, schema[key])):  # NaN holds none
            raise SchemaError(where, f"must be {text} {schema[key]}")
    if isinstance(doc, list):
        if len(doc) < schema.get("minItems", 0):
            raise SchemaError(where, f"needs at least {schema['minItems']} item(s)")
        for i, item in enumerate(doc):
            _check(item, schema.get("items", {}), f"{pointer}/{i}")
    if isinstance(doc, dict):
        properties = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in doc:
                raise SchemaError(f"{pointer}/{key}", "required key missing")
        for key, sub in properties.items():
            if key not in doc and "default" in sub:
                doc[key] = copy.deepcopy(sub["default"])
        for key, value in doc.items():
            if key in properties:
                _check(value, properties[key], f"{pointer}/{key}")
            elif schema.get("additionalProperties") is False:
                raise SchemaError(f"{pointer}/{key}", "unknown key")


def _env_seed() -> int | None:
    """The LOGLENS_SEED override, if set."""
    value = os.environ.get("LOGLENS_SEED")
    try:
        return None if value is None else int(value)
    except ValueError:
        raise ConfigurationError(
            f"LOGLENS_SEED must be an integer, got {value!r}") from None


def validate_run_config(doc: dict) -> dict:
    """Check a run config against the schema and return a copy with every
    default filled in, each detector's included."""
    resolved = copy.deepcopy(doc)
    _check(resolved, run_config_schema(), "")
    env_seed = _env_seed()
    if env_seed is not None:
        resolved["seed"] = env_seed
    window = resolved["window"]
    for i, det in enumerate(resolved["detectors"]):
        det.setdefault("window_size", window["window_size"])
        det.setdefault("step_size", window["step_size"])
        det.setdefault("seed", resolved["seed"])
        try:  # cross-field checks a schema bound cannot express
            resolved["detectors"][i] = DetectorConfig(**det).to_dict()
        except ConfigurationError as err:
            raise SchemaError(f"/detectors/{i}", str(err)) from None
    dataset = resolved["dataset"]
    try:  # a fixed or sliding partition needs a size, and a stride in it
        PartitionSpec(**dataset["partition"])
    except ConfigurationError as err:
        raise SchemaError("/dataset/partition", str(err)) from None
    if dataset["format"] == "raw":
        try:  # the schema cannot say that a raw dataset needs a usable spec
            FormatSpec.from_json(dataset.get("format_spec", {}))
        except FormatError as err:
            raise SchemaError("/dataset/format_spec", str(err)) from None
    return resolved


def _load_dataset(resolved: dict):
    ds = resolved["dataset"]
    if ds["format"] == "parsed":
        log, vocab = read_parsed(ds["path"])
    else:
        log, _ = read_raw(ds["path"], FormatSpec.from_json(ds["format_spec"]))
        vocab, log = parse_templates(log, ds["similarity_threshold"])
    return partition(log, PartitionSpec(**ds["partition"])), vocab


# ---------------------------------------------------------------------------
# subcommands


def cmd_parse(args) -> int:
    check_similarity_threshold(args.similarity_threshold)
    log, rejects = read_raw(args.input, FormatSpec.load(args.format))
    vocab, log = parse_templates(log, args.similarity_threshold)
    write_parsed(log, args.out)
    rejects_path = f"{args.input}.rejects"
    write_rejects(rejects, rejects_path)
    print(f"parsed {len(log)} records into {len(vocab)} templates; "
          f"{len(rejects)} rejects -> {rejects_path}")
    return 0


def cmd_partition(args) -> int:
    log, vocab = read_parsed(args.input)
    sequences = partition(log, PartitionSpec(args.mode, args.size, args.stride))
    del log  # freed before the sequences are written
    write_sequences(sequences, vocab, args.out)
    print(f"wrote {len(sequences)} sequences to {args.out}")
    return 0


def cmd_syngen(args) -> int:
    doc = read_json(args.spec) if args.spec else {}
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{args.spec}: syngen spec must be a JSON object")
    unknown = sorted(set(doc) - {field.name for field in fields(GeneratorSpec)})
    if unknown:
        raise ConfigurationError(f"{args.spec}: unknown key {unknown[0]!r}")
    env_seed = _env_seed()
    if env_seed is not None:
        doc["seed"] = env_seed
    n_records, n_templates = stream(GeneratorSpec(**doc), args.out)
    print(f"wrote {n_records} records ({n_templates} templates) to {args.out}")
    return 0


def _resolve_config(path) -> dict:
    try:
        return validate_run_config(read_json(path))
    except SchemaError as err:
        raise ConfigurationError(f"{path}: {err}") from None


def cmd_train(args) -> int:
    resolved = _resolve_config(args.config)
    if len(resolved["detectors"]) != 1:
        raise ConfigurationError(f"{args.config}: /detectors: train fits one detector, "
                                 f"the config lists {len(resolved['detectors'])}")
    sequences, vocab = _load_dataset(resolved)
    config = DetectorConfig(**resolved["detectors"][0])
    detector = build_detector(config)
    sequences = fit_set(config, sequences)
    detector.fit(sequences, vocab)
    save_detector(detector, args.model_out)
    print(f"trained {config.name} on {len(sequences)} sequences "
          f"-> {args.model_out}")
    return 0


def cmd_detect(args) -> int:
    detector = load_detector(args.model)
    # each template keeps its training id, and an unseen one gets a new id
    # that only a semantic model reads: an index model clamps it to unknown
    if str(args.input).endswith(".csv"):
        log, vocab = read_parsed(args.input, detector.vocab_)
        sequences = partition(log, PartitionSpec("identifier"))
    else:
        sequences, vocab = read_sequences(args.input, detector.vocab_)
    verdicts = detector.predict(sequences, vocab)
    with open(args.out, "w", encoding="utf-8") as fh:
        for seq, verdict in zip(sequences, verdicts):
            fh.write(json.dumps({"origin": seq.origin, "anomalous": verdict.anomalous,
                                 "score": verdict.score,
                                 "position": verdict.position}) + "\n")
    flagged = sum(v.anomalous for v in verdicts)
    print(f"{flagged} of {len(sequences)} sequences flagged anomalous "
          f"-> {args.out}")
    return 0


def cmd_bench(args) -> int:
    resolved = _resolve_config(args.config)
    noise = resolved.get("noise", {})
    synonyms = noise.get("synonyms_path")
    synonym_table = read_synonyms(synonyms) if synonyms else None
    sequences, vocab = _load_dataset(resolved)
    report = run_experiment(
        sequences, vocab, [DetectorConfig(**d) for d in resolved["detectors"]],
        experiment=resolved["experiment"], repeats=resolved["repeats"],
        seed=resolved["seed"], train_fraction=resolved["train_fraction"],
        contamination_ratios=resolved.get("contamination_ratios"),
        noise_ratios=noise.get("ratios"),
        noise_strategies=tuple(noise.get("strategies", NOISE_STRATEGIES)),
        synonym_table=synonym_table,
    )
    out_dir = Path(resolved["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    report.write_csv(out_dir / "report.csv")
    (out_dir / "report.md").write_text(report.to_markdown(), encoding="utf-8")
    (out_dir / "resolved-config.json").write_text(
        json.dumps(resolved, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(report.to_markdown())
    return 0


def cmd_report(args) -> int:
    report = BenchReport.read_csv(args.csv)
    print(report.to_markdown() if report.rows else "empty report")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loglens",
        description="Log anomaly detection toolkit: parse, partition, train, "
                    "detect, and benchmark.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a raw log file into templated CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--format", required=True, help="JSON format spec path")
    p.add_argument("--similarity-threshold", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("partition", help="group a parsed CSV into sequences")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=["fixed", "sliding", "identifier"],
                   default="identifier")
    p.add_argument("--size", type=int, default=0)
    p.add_argument("--stride", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("syngen", help="generate a synthetic labeled dataset")
    p.add_argument("--spec", help="JSON GeneratorSpec path")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_syngen)

    p = sub.add_parser("train", help="train one detector from a run config")
    p.add_argument("--config", required=True)
    p.add_argument("--model-out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", help="apply a trained detector")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True,
                   help="sequences JSONL or parsed CSV (identifier-partitioned)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("bench", help="run a benchmark experiment")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="print the markdown table for a report.csv")
    p.add_argument("--csv", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, FormatError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_EXIT
    except FileNotFoundError as err:
        print(f"error: file not found: {err.filename}", file=sys.stderr)
        return USAGE_EXIT
    except (LoglensError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
