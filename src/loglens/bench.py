"""Benchmark harness: splitting, anomaly stripping, contamination,
noise injection, accuracy metrics, and the experiment runner.

All randomness flows from a single top-level seed through derived streams, so
a report is reproducible byte-for-byte. Wall-clock timings are measured for
every run but written into report rows only for the ``efficiency`` experiment;
other experiments carry zeros there, keeping their reports deterministic.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from dataclasses import dataclass, field, replace
from importlib import resources

from .detectors import (
    DetectorConfig,
    SUPERVISED_FAMILIES,
    Verdict,
    build_detector,
)
from .exceptions import ConfigurationError, DimensionError, FormatError
from .ingest import EventVocabulary, LABEL_ANOMALY, open_utf8, read_json
from .rng import Rng, derive_seed
from .sequencing import EventSequence

EXPERIMENTS = ("accuracy", "contamination_sweep", "noise_sweep", "efficiency")

DEFAULT_CONTAMINATION_RATIOS = (0.01, 0.03, 0.05, 0.10)
DEFAULT_NOISE_RATIOS = (0.05, 0.10, 0.15, 0.20)

NOISE_STRATEGIES = ("pseudo_event", "delete", "shuffle", "duplicate")

_FILLER_WORDS = ("status", "info", "state", "now", "again", "done")


def _round_half_up(x: float) -> int:
    return int(x + 0.5)


# ---------------------------------------------------------------------------
# data preparation


def split(sequences: list[EventSequence], train_fraction: float = 0.8,
          seed: int = 0) -> tuple[list[EventSequence], list[EventSequence]]:
    """Shuffle at sequence level (event order inside each sequence is
    untouched) and split; |train| = round(train_fraction * N)."""
    if not 0.0 < train_fraction < 1.0:
        raise ConfigurationError("train_fraction must be in (0, 1)")
    if len(sequences) < 2:
        raise ConfigurationError("need at least two sequences to split")
    shuffled = list(sequences)
    Rng(derive_seed(seed, "split")).shuffle(shuffled)
    n_train = min(max(_round_half_up(train_fraction * len(shuffled)), 1),
                  len(shuffled) - 1)
    return shuffled[:n_train], shuffled[n_train:]


def strip_anomalies(train: list[EventSequence]
                    ) -> tuple[list[EventSequence], list[EventSequence]]:
    """Partition by label; removed anomalies feed the contamination sweep."""
    normal = [s for s in train if s.label != LABEL_ANOMALY]
    removed = [s for s in train if s.label == LABEL_ANOMALY]
    return normal, removed


def contaminate(normal_train: list[EventSequence], anomalies: list[EventSequence],
                ratio: float, seed: int = 0) -> list[EventSequence]:
    """Add anomalies back so they make up ``ratio`` of the returned set."""
    if not 0.0 <= ratio < 1.0:
        raise ConfigurationError("contamination ratio must be in [0, 1)")
    if ratio == 0.0:
        return list(normal_train)
    needed = _round_half_up(ratio * len(normal_train) / (1.0 - ratio))
    if needed > len(anomalies):
        raise ConfigurationError(
            f"contamination at {ratio} needs {needed} anomalies, "
            f"only {len(anomalies)} available")
    pool = list(anomalies)
    Rng(derive_seed(seed, "contaminate", ratio)).shuffle(pool)
    return list(normal_train) + pool[:needed]


# ---------------------------------------------------------------------------
# noise injection


@dataclass
class NoiseSpec:
    ratio: float
    strategies: tuple = NOISE_STRATEGIES
    synonym_table: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.ratio < 0:
            raise ConfigurationError("noise ratio must be >= 0")
        if not self.strategies:
            raise ConfigurationError("at least one noise strategy required")
        unknown = set(self.strategies) - set(NOISE_STRATEGIES)
        if unknown:
            raise ConfigurationError(f"unknown noise strategies {sorted(unknown)}")
        if tuple(self.strategies) == ("pseudo_event",) and not self.synonym_table:
            raise ConfigurationError(
                "pseudo_event-only noise needs a synonym table")


def read_synonyms(path) -> dict:
    """The synonym table in ``path``: a JSON object from a word to the word
    that replaces it. Anything else is a ``FormatError`` naming the file."""
    table = read_json(path)
    if not (isinstance(table, dict) and all(isinstance(v, str) for v in table.values())):
        raise FormatError(f"{path}: expected a JSON object of strings")
    return table


def builtin_synonyms() -> dict:
    return read_synonyms(resources.files("loglens") / "data" / "synonyms.json")


def _pseudo_template(template: str, table: dict, existing, rng: Rng) -> str:
    """Derive a new template by trivial word addition/removal or synonym
    replacement; guaranteed distinct from ``existing``."""
    for attempt in range(8):
        tokens = template.split()
        words = [i for i, t in enumerate(tokens) if t != "<*>"]
        replaceable = [i for i in words if tokens[i].lower() in table]
        ops = ["add"]
        if replaceable:
            ops.append("synonym")
        if len(words) > 1:
            ops.append("remove")
        op = rng.choice(ops)
        if op == "synonym":
            i = replaceable[rng.integer(len(replaceable))]
            tokens[i] = table[tokens[i].lower()]
        elif op == "remove":
            del tokens[words[rng.integer(len(words))]]
        else:
            tokens.insert(rng.integer(len(tokens) + 1),
                          _FILLER_WORDS[rng.integer(len(_FILLER_WORDS))])
        candidate = " ".join(tokens)
        if candidate != template and candidate not in existing:
            return candidate
    return f"{template} variant{rng.integer(10 ** 6)}"


def inject_noise(test_sequences: list[EventSequence], spec: NoiseSpec,
                 vocab: EventVocabulary
                 ) -> tuple[list[EventSequence], EventVocabulary]:
    """Append round(ratio * N) noisy copies of sampled test sequences.

    Each copy applies one strategy: replace an event with a pseudo event
    (template derived by word-level edits, vocabulary extended), or
    delete/shuffle/duplicate a short run of events. Copies keep their source's
    label; the originals are returned untouched.
    """
    rng = Rng(derive_seed(spec.seed, "noise", spec.ratio))
    count = _round_half_up(spec.ratio * len(test_sequences))
    extended = vocab.extended([])
    synthetic: list[EventSequence] = []
    strategies = list(spec.strategies)
    for i in range(count):
        source = test_sequences[rng.integer(len(test_sequences))]
        events = list(source.events)
        strategy = strategies[rng.integer(len(strategies))]
        if strategy in ("delete", "shuffle") and len(events) < 2:
            strategy = "duplicate"
        if strategy == "pseudo_event":
            pos = rng.integer(len(events))
            original_id = events[pos]
            if original_id < len(vocab):
                base = vocab.templates[original_id]
                new_template = _pseudo_template(base, spec.synonym_table,
                                                extended.id_of, rng)
                events[pos] = extended.add(new_template)
        elif strategy == "delete":
            run = min(1 + rng.integer(3), len(events) - 1)
            pos = rng.integer(len(events) - run + 1)
            del events[pos:pos + run]
        elif strategy == "shuffle":
            run = min(2 + rng.integer(2), len(events))
            pos = rng.integer(len(events) - run + 1)
            segment = events[pos:pos + run]
            for _ in range(10):
                rng.shuffle(segment)
                if segment != events[pos:pos + run]:
                    break
            events[pos:pos + run] = segment
        else:  # duplicate
            run = min(1 + rng.integer(3), len(events))
            pos = rng.integer(len(events) - run + 1)
            events[pos + run:pos + run] = events[pos:pos + run]
        synthetic.append(EventSequence(
            events=events, label=source.label,
            origin=f"{source.origin}+noise{i}"))
    return list(test_sequences) + synthetic, extended


# ---------------------------------------------------------------------------
# metrics


@dataclass
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0


def compute_metrics(verdicts, labels) -> tuple[ConfusionCounts, float, float, float]:
    """Precision, recall, F1 with zero-denominator conventions pinned to 0.

    ``verdicts`` may be Verdict objects or booleans; ``labels`` may be
    "normal"/"anomaly" strings or booleans.
    """
    if len(verdicts) != len(labels):
        raise DimensionError(
            f"{len(verdicts)} verdicts for {len(labels)} labels")
    counts = ConfusionCounts()
    for verdict, label in zip(verdicts, labels):
        predicted = verdict.anomalous if isinstance(verdict, Verdict) else bool(verdict)
        actual = (label == LABEL_ANOMALY) if isinstance(label, str) else bool(label)
        if predicted and actual:
            counts.tp += 1
        elif predicted and not actual:
            counts.fp += 1
        elif actual:
            counts.fn += 1
        else:
            counts.tn += 1
    precision = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    recall = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return counts, precision, recall, f1


# ---------------------------------------------------------------------------
# experiment runner


@dataclass
class ReportRow:
    detector: str
    semantics: bool
    experiment: str
    setting: str
    run: str
    precision: float
    recall: float
    f1: float
    train_s: float
    test_s: float
    seed: int


@dataclass
class BenchReport:
    experiment: str
    seed: int
    config_digest: str
    rows: list[ReportRow] = field(default_factory=list)

    CSV_COLUMNS = ["detector", "semantics", "experiment", "setting", "run",
                   "precision", "recall", "f1", "train_s", "test_s", "seed"]

    def add_summaries(self) -> None:
        """Per (detector, setting): a best-F1 row and a mean row whose F1 is
        recomputed as the harmonic mean of the averaged precision/recall."""
        groups: dict[tuple, list[ReportRow]] = {}
        for row in self.rows:
            if row.run in ("best", "mean"):
                continue
            groups.setdefault(
                (row.detector, row.semantics, row.setting), []).append(row)
        for (detector, semantics, setting), rows in groups.items():
            best = max(rows, key=lambda r: r.f1)
            self.rows.append(replace(best, run="best"))
            p = sum(r.precision for r in rows) / len(rows)
            r = sum(r.recall for r in rows) / len(rows)
            f1 = 2 * p * r / (p + r) if p + r else 0.0
            self.rows.append(ReportRow(
                detector=detector, semantics=semantics, experiment=self.experiment,
                setting=setting, run="mean", precision=p, recall=r, f1=f1,
                train_s=sum(x.train_s for x in rows) / len(rows),
                test_s=sum(x.test_s for x in rows) / len(rows),
                seed=self.seed))

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(self.CSV_COLUMNS)
        for row in self.rows:
            writer.writerow([
                row.detector, str(row.semantics).lower(), row.experiment,
                row.setting, row.run, f"{row.precision:.6f}", f"{row.recall:.6f}",
                f"{row.f1:.6f}", f"{row.train_s:.6f}", f"{row.test_s:.6f}",
                row.seed])
        return out.getvalue()

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.to_csv())

    @classmethod
    def read_csv(cls, path) -> "BenchReport":
        """The report ``to_csv`` wrote, with config digest "-", which the CSV
        does not hold; experiment and seed are the first row's. A missing
        column or a field that does not convert is a ``FormatError`` naming
        the file and the line."""
        rows = []
        with open_utf8(path) as fh:
            reader = csv.DictReader(fh, restval="")
            for row in reader:
                try:  # CSV_COLUMNS lists ReportRow's fields in order
                    text = [row[column] for column in cls.CSV_COLUMNS]
                    if text[1] not in ("true", "false"):
                        raise ValueError(f"semantics {text[1]!r} is not true or false")
                    rows.append(ReportRow(text[0], text[1] == "true", *text[2:5],
                                          *map(float, text[5:10]), int(text[10])))
                except KeyError as err:
                    raise FormatError(f"{path}: line {reader.line_num}: "
                                      f"missing column {err}") from None
                except ValueError as err:
                    raise FormatError(f"{path}: line {reader.line_num}: {err}") from None
        experiment, seed = (rows[0].experiment, rows[0].seed) if rows else ("", 0)
        return cls(experiment, seed, "-", rows)

    def to_markdown(self) -> str:
        """Best-run table pairing w/o and w/ semantics per detector family."""
        best = {}
        for row in self.rows:
            if row.run == "best":
                best[(row.setting, row.detector, row.semantics)] = row
        settings = sorted({s for s, _, _ in best})
        families = []
        for _, detector, _ in best:
            if detector not in families:
                families.append(detector)
        lines = [f"# Benchmark report: {self.experiment}", "",
                 f"seed {self.seed}, config digest {self.config_digest}",
                 "", "Cells pair w/o and w/ semantics as index/semantic.", ""]
        for setting in settings:
            lines.append(f"## setting: {setting}")
            lines.append("")
            lines.append("| Model | Precision | Recall | F1 score |")
            lines.append("|---|---|---|---|")
            for family in families:
                idx = best.get((setting, family, False))
                sem = best.get((setting, family, True))
                if idx is None and sem is None:
                    continue

                def cell(attr):
                    parts = []
                    if idx is not None:
                        parts.append(f"{getattr(idx, attr):.3f}")
                    if sem is not None:
                        parts.append(f"{getattr(sem, attr):.3f}")
                    return "/".join(parts)

                lines.append(f"| {family} | {cell('precision')} | "
                             f"{cell('recall')} | {cell('f1')} |")
            lines.append("")
        return "\n".join(lines) + "\n"


def config_digest(doc) -> str:
    canonical = json.dumps(doc, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def fit_set(config: DetectorConfig, train: list[EventSequence]) -> list[EventSequence]:
    """The sequences a detector fits on: supervised families learn from both
    labels, the others from the normal sequences only."""
    if config.family in SUPERVISED_FAMILIES:
        return train
    return strip_anomalies(train)[0]


def _evaluate(detector, test, vocab=None):
    start = time.perf_counter()
    verdicts = detector.predict(test, vocab=vocab)
    elapsed = time.perf_counter() - start
    labels = [s.label for s in test]
    _, precision, recall, f1 = compute_metrics(verdicts, labels)
    return precision, recall, f1, elapsed


def _run_detector(config: DetectorConfig, experiment: str, train, test, vocab,
                  run_seed: int, contamination_ratios, noise_ratios,
                  noise_strategies, synonym_table) -> list[tuple]:
    """One detector's rows for one run: [(setting, p, r, f1, train_s, test_s)]."""
    run_config = replace(
        config, seed=derive_seed(run_seed, config.family, config.semantics))
    rows = []
    if experiment == "contamination_sweep":
        ratios = contamination_ratios or DEFAULT_CONTAMINATION_RATIOS
        normal_train, removed = strip_anomalies(train)
        for ratio in ratios:
            contaminated = contaminate(normal_train, removed, ratio,
                                       seed=run_seed)
            detector = build_detector(run_config).fit(contaminated, vocab)
            precision, recall, f1, test_s = _evaluate(detector, test)
            rows.append((f"{ratio:g}", precision, recall, f1,
                         detector.training_seconds_, test_s))
        return rows
    detector = build_detector(run_config).fit(fit_set(run_config, train), vocab)
    train_s = detector.training_seconds_
    if experiment in ("accuracy", "efficiency"):
        precision, recall, f1, test_s = _evaluate(detector, test)
        rows.append(("-", precision, recall, f1, train_s, test_s))
    else:  # noise_sweep
        ratios = noise_ratios or DEFAULT_NOISE_RATIOS
        for ratio in ratios:
            spec = NoiseSpec(ratio=ratio, strategies=tuple(noise_strategies),
                             synonym_table=synonym_table, seed=run_seed)
            noisy, extended = inject_noise(test, spec, vocab)
            precision, recall, f1, test_s = _evaluate(detector, noisy,
                                                      vocab=extended)
            rows.append((f"{ratio:g}", precision, recall, f1, train_s, test_s))
    return rows


def run_experiment(sequences: list[EventSequence], vocab: EventVocabulary,
                   detector_configs: list[DetectorConfig], experiment: str,
                   repeats: int = 1, seed: int = 0, *,
                   train_fraction: float = 0.8,
                   contamination_ratios=None,
                   noise_ratios=None,
                   noise_strategies=NOISE_STRATEGIES,
                   synonym_table: dict | None = None) -> BenchReport:
    """Run one experiment protocol over every detector configuration, one
    detector at a time.

    ``repeats`` runs use seeds seed+i; per-run rows are followed by best and
    mean summary rows per (detector, setting). A noise sweep without a
    ``synonym_table`` uses ``builtin_synonyms()``.
    """
    if experiment not in EXPERIMENTS:
        raise ConfigurationError(f"unknown experiment {experiment!r}")
    if experiment == "noise_sweep" and synonym_table is None:
        synonym_table = builtin_synonyms()
    digest = config_digest({
        "experiment": experiment, "seed": seed, "repeats": repeats,
        "detectors": [c.to_dict() for c in detector_configs]})
    report = BenchReport(experiment=experiment, seed=seed, config_digest=digest)
    timing = experiment == "efficiency"

    for run_index in range(repeats):
        run_seed = seed + run_index
        train, test = split(sequences, train_fraction, seed=run_seed)
        for config in detector_configs:
            rows = _run_detector(config, experiment, train, test, vocab,
                                 run_seed, contamination_ratios, noise_ratios,
                                 noise_strategies, synonym_table)
            for setting, precision, recall, f1, train_s, test_s in rows:
                report.rows.append(ReportRow(
                    detector=config.family, semantics=config.semantics,
                    experiment=experiment, setting=setting,
                    run=str(run_index + 1), precision=precision, recall=recall,
                    f1=f1, train_s=train_s if timing else 0.0,
                    test_s=test_s if timing else 0.0, seed=run_seed))
    report.add_summaries()
    return report
