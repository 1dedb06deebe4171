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
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from .bench import NOISE_STRATEGIES, BenchReport, fit_set, read_synonyms, run_experiment
from .detectors import DetectorConfig, build_detector, load_detector, save_detector
from .exceptions import ConfigurationError, FormatError, LoglensError
from .ingest import (
    EventVocabulary,
    FormatSpec,
    SchemaError,
    check_schema,
    read_json,
    read_parsed,
    read_raw,
    run_config_schema,
    write_parsed,
    write_rejects,
)
from .sequencing import PartitionSpec, partition, read_sequences, write_sequences
from .syngen import GeneratorSpec, stream

USAGE_EXIT = 2
RUNTIME_EXIT = 3


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
    check_schema(resolved, run_config_schema(), "")
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
        log, _ = read_raw(ds["path"], FormatSpec.from_json(ds["format_spec"]),
                          ds["similarity_threshold"])
        vocab = EventVocabulary(log.templates)
    return partition(log, PartitionSpec(**ds["partition"])), vocab


# ---------------------------------------------------------------------------
# subcommands


def cmd_parse(args) -> int:
    log, rejects = read_raw(args.input, FormatSpec.load(args.format),
                            args.similarity_threshold)
    write_parsed(log, args.out)
    rejects_path = f"{args.input}.rejects"
    write_rejects(rejects, rejects_path)
    print(f"parsed {len(log)} records into {len(log.templates)} templates; "
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
