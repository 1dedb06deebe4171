"""Command-line front end.

Subcommands: parse, partition, syngen, train, detect, bench, report. Flags
only select the subcommand and file paths; experiment knobs live in a JSON run
config validated against the published schema (data/runconfig.schema.json)
before any work starts. Exit codes: 0 success, 2 usage/config error, 3
runtime/data error. The LOGLENS_SEED environment variable overrides the
config seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .bench import (
    NOISE_STRATEGIES,
    builtin_synonyms,
    run_experiment,
)
from .detectors import (
    DetectorConfig,
    FAMILIES,
    SUPERVISED_FAMILIES,
    build_detector,
    load_detector,
    save_detector,
)
from .exceptions import ConfigurationError, FormatError, LoglensError, TrainingError
from .ingest import FormatSpec, parse_templates, read_parsed, read_raw, write_parsed, write_rejects
from .sequencing import (
    PartitionSpec,
    partition,
    read_sequences,
    write_sequences,
)
from .syngen import GeneratorSpec, generate

USAGE_EXIT = 2
RUNTIME_EXIT = 3


class SchemaError(ConfigurationError):
    """Run config violates the schema; carries a JSON-pointer path."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer


# ---------------------------------------------------------------------------
# run config schema

_DETECTOR_KEYS = {
    "family": str, "semantics": bool, "k": int, "window_size": int,
    "step_size": int, "hidden": int, "layers": int, "heads": int,
    "embed_dim": int, "max_len": int, "epochs": int, "batch_size": int,
    "lr": (int, float), "threshold_quantile": (int, float), "seed": int,
}

_SCHEMA = {
    "dataset": {
        "path": str,
        "format": str,
        "format_spec": dict,
        "similarity_threshold": (int, float),
        "partition": {
            "mode": str,
            "partition_size": int,
            "stride": int,
        },
    },
    "window": {"window_size": int, "step_size": int},
    "detectors": [_DETECTOR_KEYS],
    "experiment": str,
    "repeats": int,
    "seed": int,
    "train_fraction": (int, float),
    "contamination_ratios": [(int, float)],
    "noise": {
        "ratios": [(int, float)],
        "strategies": [str],
        "synonyms_path": str,
    },
    "output_dir": str,
    "jobs": int,
}

# a section given in part gets each missing key from here
_DEFAULTS = {
    "dataset": {
        "format": "parsed",
        "partition": {"mode": "identifier", "partition_size": 0, "stride": 0},
    },
    "window": {"window_size": 10, "step_size": 1},
    "experiment": "accuracy",
    "repeats": 1,
    "seed": 0,
    "train_fraction": 0.8,
    "output_dir": "bench-out",
    "jobs": 1,
}


def _check_node(doc, schema, pointer: str) -> None:
    if isinstance(schema, dict):
        if not isinstance(doc, dict):
            raise SchemaError(pointer or "/", "expected an object")
        for key, value in doc.items():
            if key not in schema:
                raise SchemaError(f"{pointer}/{key}", "unknown key")
            _check_node(value, schema[key], f"{pointer}/{key}")
    elif isinstance(schema, list):
        if not isinstance(doc, list):
            raise SchemaError(pointer or "/", "expected an array")
        for i, item in enumerate(doc):
            _check_node(item, schema[0], f"{pointer}/{i}")
    else:
        if isinstance(doc, bool) and schema is not bool and schema != (int, float):
            raise SchemaError(pointer, f"expected {schema}, got boolean")
        if not isinstance(doc, schema):
            expected = getattr(schema, "__name__", str(schema))
            raise SchemaError(pointer, f"expected {expected}, "
                                       f"got {type(doc).__name__}")


def _fill_defaults(doc: dict, defaults: dict) -> None:
    for key, value in defaults.items():
        if isinstance(value, dict):
            _fill_defaults(doc.setdefault(key, {}), value)
        else:
            doc.setdefault(key, value)


def _env_seed() -> int | None:
    """The LOGLENS_SEED override, if set."""
    value = os.environ.get("LOGLENS_SEED")
    if value is None:
        return None
    try:
        return int(value)
    except ValueError:
        raise ConfigurationError(
            f"LOGLENS_SEED must be an integer, got {value!r}") from None


def validate_run_config(doc: dict) -> dict:
    """Validate against the schema (unknown keys rejected) and fill defaults."""
    _check_node(doc, _SCHEMA, "")
    if "dataset" not in doc:
        raise SchemaError("/dataset", "required section missing")
    if "path" not in doc["dataset"]:
        raise SchemaError("/dataset/path", "required key missing")
    if "detectors" not in doc or not doc["detectors"]:
        raise SchemaError("/detectors", "at least one detector required")
    resolved = json.loads(json.dumps(doc))  # deep copy
    _fill_defaults(resolved, _DEFAULTS)
    env_seed = _env_seed()
    if env_seed is not None:
        resolved["seed"] = env_seed
        resolved["seed_source"] = "LOGLENS_SEED"
    window = resolved["window"]
    for i, det in enumerate(resolved["detectors"]):
        if det.get("family") not in FAMILIES:
            raise SchemaError(f"/detectors/{i}/family",
                              f"must be one of {', '.join(FAMILIES)}")
        det.setdefault("window_size", window["window_size"])
        det.setdefault("step_size", window["step_size"])
        det.setdefault("seed", resolved["seed"])
    return resolved


def _detector_configs(resolved: dict) -> list[DetectorConfig]:
    return [DetectorConfig.from_dict(d) for d in resolved["detectors"]]


def _load_dataset(resolved: dict):
    ds = resolved["dataset"]
    if ds["format"] == "parsed":
        records, vocab = read_parsed(ds["path"])
    elif ds["format"] == "raw":
        spec = FormatSpec.from_json(ds.get("format_spec") or {})
        records, _ = read_raw(ds["path"], spec)
        vocab, records = parse_templates(
            records, ds.get("similarity_threshold", 0.5))
    else:
        raise SchemaError("/dataset/format", "must be 'parsed' or 'raw'")
    part = ds["partition"]
    spec = PartitionSpec(part["mode"], part["partition_size"], part["stride"])
    return partition(records, spec), vocab


# ---------------------------------------------------------------------------
# subcommands


def cmd_parse(args) -> int:
    spec = FormatSpec.load(args.format) if args.format else FormatSpec(
        timestamp_regex=r"^(\S+ \S+)\s+(.*)$", timestamp_format="%Y-%m-%d %H:%M:%S",
        content_group=2)
    records, rejects = read_raw(args.input, spec)
    vocab, records = parse_templates(records, args.similarity_threshold)
    write_parsed(records, vocab, args.out)
    rejects_path = f"{args.input}.rejects"
    write_rejects(rejects, rejects_path)
    print(f"parsed {len(records)} records into {len(vocab)} templates; "
          f"{len(rejects)} rejects -> {rejects_path}")
    return 0


def cmd_partition(args) -> int:
    records, _ = read_parsed(args.input)
    spec = PartitionSpec(args.mode, args.size, args.stride)
    sequences = partition(records, spec)
    write_sequences(sequences, args.out)
    print(f"wrote {len(sequences)} sequences to {args.out}")
    return 0


def cmd_syngen(args) -> int:
    doc = json.loads(Path(args.spec).read_text(encoding="utf-8")) if args.spec else {}
    env_seed = _env_seed()
    if env_seed is not None:
        doc["seed"] = env_seed
    spec = GeneratorSpec(**doc)
    dataset = generate(spec)
    dataset.write(args.out)
    print(f"wrote {len(dataset.records)} records "
          f"({len(dataset.vocab)} templates) to {args.out}")
    return 0


def _resolve_config(path) -> dict:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return validate_run_config(doc)


def cmd_train(args) -> int:
    resolved = _resolve_config(args.config)
    sequences, vocab = _load_dataset(resolved)
    config = _detector_configs(resolved)[0]
    detector = build_detector(config, vocab)
    if config.family not in SUPERVISED_FAMILIES:
        sequences = [s for s in sequences if s.label != "anomaly"]
    detector.fit(sequences, vocab)
    save_detector(detector, config, args.model_out)
    print(f"trained {config.name} on {len(sequences)} sequences "
          f"-> {args.model_out}")
    return 0


def cmd_detect(args) -> int:
    detector, config = load_detector(args.model)
    if str(args.input).endswith(".csv"):
        records, _ = read_parsed(args.input)
        sequences = partition(records, PartitionSpec("identifier"))
    else:
        sequences = read_sequences(args.input)
    verdicts = detector.predict(sequences)
    with open(args.out, "w", encoding="utf-8") as fh:
        for seq, verdict in zip(sequences, verdicts):
            fh.write(json.dumps({
                "origin": seq.origin,
                "anomalous": verdict.anomalous,
                "score": verdict.score,
                "position": verdict.position,
            }) + "\n")
    flagged = sum(v.anomalous for v in verdicts)
    print(f"{flagged} of {len(sequences)} sequences flagged anomalous "
          f"-> {args.out}")
    return 0


def cmd_bench(args) -> int:
    resolved = _resolve_config(args.config)
    sequences, vocab = _load_dataset(resolved)
    configs = _detector_configs(resolved)
    noise = resolved.get("noise", {})
    synonym_table = None
    if noise.get("synonyms_path"):
        synonym_table = json.loads(
            Path(noise["synonyms_path"]).read_text(encoding="utf-8"))
    elif resolved["experiment"] == "noise_sweep":
        synonym_table = builtin_synonyms()
    report = run_experiment(
        sequences, vocab, configs,
        experiment=resolved["experiment"],
        repeats=resolved["repeats"],
        seed=resolved["seed"],
        train_fraction=resolved["train_fraction"],
        contamination_ratios=resolved.get("contamination_ratios"),
        noise_ratios=noise.get("ratios"),
        noise_strategies=tuple(noise.get("strategies", NOISE_STRATEGIES)),
        synonym_table=synonym_table,
        n_jobs=args.jobs if args.jobs is not None else resolved["jobs"],
    )
    out_dir = Path(resolved["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    report.write_csv(out_dir / "report.csv")
    (out_dir / "report.md").write_text(report.to_markdown(), encoding="utf-8")
    resolved["config_digest"] = report.config_digest
    (out_dir / "resolved-config.json").write_text(
        json.dumps(resolved, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(report.to_markdown())
    return 0


def cmd_report(args) -> int:
    # regenerate the markdown table from an existing report.csv
    import csv as csv_module

    from .bench import BenchReport, ReportRow

    with open(args.csv, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv_module.DictReader(fh))
    if not rows:
        print("empty report")
        return 0
    report = BenchReport(experiment=rows[0]["experiment"],
                         seed=int(rows[0]["seed"]), config_digest="-")
    for row in rows:
        report.append(ReportRow(
            detector=row["detector"], semantics=row["semantics"] == "true",
            experiment=row["experiment"], setting=row["setting"], run=row["run"],
            precision=float(row["precision"]), recall=float(row["recall"]),
            f1=float(row["f1"]), train_s=float(row["train_s"]),
            test_s=float(row["test_s"]), seed=int(row["seed"])))
    print(report.to_markdown())
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
    p.add_argument("--format", help="JSON format spec path")
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
    p.add_argument("--jobs", type=int, default=None,
                   help="parallel detector runs (default 1 for deterministic timing)")
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
    except (SchemaError, ConfigurationError, FormatError,
            json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_EXIT
    except FileNotFoundError as err:
        print(f"error: file not found: {err.filename}", file=sys.stderr)
        return USAGE_EXIT
    except (TrainingError, LoglensError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
