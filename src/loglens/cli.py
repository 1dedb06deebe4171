"""Command-line front end.

Subcommands: parse, partition, syngen, train, detect, bench, report. Flags
only select the subcommand and file paths; experiment knobs live in a JSON run
config. Its one schema, data/runconfig.schema.json, also defines the syngen
and format specs: types, enums, bounds, required and unknown keys are
checked against it before any data is read. Defaults come from the schema
and the spec dataclasses, so the resolved config lists every one. Exit
codes: 0 success, 2 usage/config error, 3 runtime/data error. The
LOGLENS_SEED environment variable overrides the config seed.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .bench import NOISE_STRATEGIES, BenchReport, fit_set, read_synonyms, run_experiment
from .detectors import DetectorConfig, build_detector, load_detector, save_detector
from .exceptions import ConfigurationError, FormatError, LoglensError
from .ingest import (
    SIMILARITY_THRESHOLD,
    EventVocabulary,
    FormatSpec,
    read_json,
    read_parsed,
    read_raw,
    write_parsed,
    write_rejects,
)
from .schema import SchemaError, check_schema, pointed, run_config_schema, schema_default
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
    default filled in, the detectors' and window's from ``DetectorConfig`` and
    the partition's from ``PartitionSpec``; every error points into it. The
    document is checked whole, as the published schema reads it, and each
    spec made from it checks its own fields again: a few dozen comparisons,
    once per config."""
    resolved = copy.deepcopy(doc)
    check_schema(resolved, run_config_schema())
    env_seed = _env_seed()
    if env_seed is not None:
        resolved["seed"] = env_seed
    window = resolved["window"] = {"window_size": DetectorConfig.window_size,
                                   "step_size": DetectorConfig.step_size,
                                   **resolved["window"]}
    for i, det in enumerate(resolved["detectors"]):
        with pointed(f"/detectors/{i}"):
            resolved["detectors"][i] = DetectorConfig(
                **{**window, "seed": resolved["seed"], **det}).to_dict()
    dataset = resolved["dataset"]
    with pointed("/dataset/partition"):
        dataset["partition"] = asdict(PartitionSpec(**dataset["partition"]))
    if dataset["format"] == "raw":  # a raw dataset needs a usable spec
        with pointed("/dataset/format_spec"):
            FormatSpec.from_json(dataset.get("format_spec", {}))
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


def _read_checked(check, path):
    """``check`` of the JSON document in ``path``: a run config or a spec
    class's ``from_json``. A refusal names the file."""
    try:
        return check(read_json(path))
    except SchemaError as err:
        raise ConfigurationError(f"{path}: {err}") from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_parse(args) -> int:
    spec = _read_checked(FormatSpec.from_json, args.format)
    try:
        log, rejects = read_raw(args.input, spec, args.similarity_threshold)
    except SchemaError as err:  # the threshold, checked before the input is read
        raise ConfigurationError(f"--similarity-threshold {args.similarity_threshold}: "
                                 f"similarity_threshold {err.message}") from None
    write_parsed(log, args.out)
    rejects_path = f"{args.input}.rejects"
    write_rejects(rejects, rejects_path)
    print(f"parsed {len(log)} records into {len(log.templates)} templates; "
          f"{len(rejects)} rejects -> {rejects_path}")
    return 0


def cmd_partition(args) -> int:
    try:
        spec = PartitionSpec(args.mode, args.size, args.stride)
    except SchemaError as err:  # --size and --stride are typed: only --mode is left
        raise ConfigurationError(f"--mode {args.mode}: {err.message}") from None
    log, vocab = read_parsed(args.input)
    sequences = partition(log, spec)
    del log  # freed before the sequences are written
    write_sequences(sequences, vocab, args.out)
    print(f"wrote {len(sequences)} sequences to {args.out}")
    return 0


def cmd_syngen(args) -> int:
    spec = (_read_checked(GeneratorSpec.from_json, args.spec) if args.spec
            else GeneratorSpec())
    env_seed = _env_seed()
    if env_seed is not None:
        spec = replace(spec, seed=env_seed)
    n_records, n_templates = stream(spec, args.out)
    print(f"wrote {n_records} records ({n_templates} templates) to {args.out}")
    return 0


def cmd_train(args) -> int:
    resolved = _read_checked(validate_run_config, args.config)
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
    resolved = _read_checked(validate_run_config, args.config)
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
    p.add_argument("--similarity-threshold", type=float,
                   default=schema_default(SIMILARITY_THRESHOLD))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("partition", help="group a parsed CSV into sequences")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", default=PartitionSpec.mode)
    p.add_argument("--size", type=int, default=PartitionSpec.partition_size)
    p.add_argument("--stride", type=int, default=PartitionSpec.stride)
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
