"""Deterministic synthetic log generator with planted ground-truth anomalies.

Normal sequences are walks over a seeded first-order automaton whose states
are log templates; anomalous sequences take a valid walk and apply exactly one
mutation: insert the designated error template, swap two adjacent events, or
truncate the walk to fewer events than the default forecasting window.
Insert/swap positions land past that window so every planted anomaly is
observable to window-based detectors; swaps are resampled until the mutated
sequence is no longer a valid walk. The automaton itself is emitted as a JSON
sidecar so tests can verify walks independently.

The templates, the automaton, the anomaly flags and the mutation plan are
drawn one word at a time. Every later draw is read from the stream's words,
drawn a block at a time: each sequence owns a run of words, first its length
draw, then one draw per step of its walk, then its mutation's draws. A chunk
of sequences walks the automaton together, one step at a time, with the
same float operations as a one-at-a-time weighted draw, so the output is the
one that drawing every word in turn would give.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .ingest import (
    ANOMALY,
    LABELS,
    NORMAL,
    EventVocabulary,
    ParsedLog,
    ParsedWriter,
    write_parsed,
)
from .rng import BLOCK, Rng, bounded, derive_seed, unit_floats
from .schema import SchemaError, Spec

# one mutation per anomalous sequence; erroneous-event insertions dominate the
# mix (as in real failure logs), order shifts and early terminations are rarer
MUTATIONS = ("insert", "swap", "truncate")
MUTATION_WEIGHTS = (0.84, 0.04, 0.12)

TRUNCATE_BELOW = 10   # matches the default forecasting window size
# a swap tries this many positions, then falls back to an insertion
SWAP_TRIES = 20
# the most words each kind of sequence draws after its walk
_MUTATION_DRAWS = {None: 0, "insert": 1, "truncate": 1, "swap": SWAP_TRIES + 1}

# sequences walked together; memory per chunk is bounded by this. Chunks of
# 4,096 were no faster and left about 1 MB more peak RSS after a 2,000-
# sequence generate
CHUNK_SEQUENCES = 256

_SERVICES = ["datanode", "namenode", "scheduler", "worker", "client", "proxy",
             "monitor", "replicator", "allocator", "broker"]
_ACTIONS = ["started", "finished", "received", "sent", "opened", "closed",
            "verified", "registered", "updated", "acknowledged"]
_OBJECTS = ["block", "packet", "session", "lease", "heartbeat", "request",
            "snapshot", "transfer", "checkpoint", "segment"]

_TEMPLATE_CAPACITY = len(_SERVICES) * len(_ACTIONS) * len(_OBJECTS)

ERROR_TEMPLATE = "task failed with fatal error <*>"


@dataclass
class GeneratorSpec(Spec):
    definition = "generator"
    n_templates: int = 50
    n_sequences: int = 1000
    anomaly_rate: float = 0.05
    mean_length: int = 20
    automaton_branching: int = 3
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.n_templates > _TEMPLATE_CAPACITY + 1:
            raise SchemaError("/n_templates", f"must be <= {_TEMPLATE_CAPACITY + 1}")
        # walks are at least TRUNCATE_BELOW + 2 and at most mean_length + 4 long
        if self.mean_length < TRUNCATE_BELOW - 2:
            raise SchemaError("/mean_length", f"must be >= {TRUNCATE_BELOW - 2}")


@dataclass
class SyntheticDataset:
    records: ParsedLog
    vocab: EventVocabulary
    automaton: dict

    def write(self, csv_path) -> None:
        write_parsed(self.records, csv_path)
        _write_sidecar(self.automaton, csv_path)


def _write_sidecar(automaton: dict, csv_path) -> None:
    Path(str(csv_path) + ".automaton.json").write_text(
        json.dumps(automaton, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")


def _make_templates(n: int, rng: Rng) -> list[str]:
    templates: list[str] = []
    seen = set()
    while len(templates) < n - 1:
        text = (f"{rng.choice(_SERVICES)} {rng.choice(_ACTIONS)} "
                f"{rng.choice(_OBJECTS)} <*>")
        if text not in seen:
            seen.add(text)
            templates.append(text)
    templates.append(ERROR_TEMPLATE)  # designated error template, last index
    return templates


def _build_automaton(n_templates: int, branching: int, rng: Rng) -> dict:
    error_index = n_templates - 1
    states = list(range(error_index))  # the error template has no transitions
    transitions: dict[str, list] = {}
    for state in states:
        candidates = [s for s in states if s != state]
        successors = []
        pool = list(candidates)
        for _ in range(min(branching, len(pool))):
            successors.append(pool.pop(rng.integer(len(pool))))
        weights = [0.2 + 0.8 * rng.random() for _ in successors]
        total = sum(weights)
        transitions[str(state)] = [[succ, w / total]
                                   for succ, w in zip(successors, weights)]
    return {
        "start_index": 0,
        "error_index": error_index,
        "truncate_below": TRUNCATE_BELOW,
        "transitions": transitions,
    }


def is_valid_walk(events: list[int], automaton: dict) -> bool:
    if not events or events[0] != automaton["start_index"]:
        return False
    transitions = automaton["transitions"]
    for a, b in zip(events, events[1:]):
        options = transitions.get(str(a))
        if options is None or b not in [succ for succ, _ in options]:
            return False
    return True


def _mutation_plan(n_anomalous: int, rng: Rng) -> list[str]:
    """Exact largest-remainder apportionment of the mutation weights, then a
    shuffled placement, so the mix never drifts with the sampling lottery."""
    exact = [w * n_anomalous for w in MUTATION_WEIGHTS]
    counts = [int(x) for x in exact]
    remainders = sorted(range(len(exact)), key=lambda i: exact[i] - counts[i],
                        reverse=True)
    for i in range(n_anomalous - sum(counts)):
        counts[remainders[i % len(counts)]] += 1
    plan = [m for m, c in zip(MUTATIONS, counts) for _ in range(c)]
    rng.shuffle(plan)
    return plan


def _transition_tables(automaton: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per state: its successors, its total weight and its cumulative weights,
    padded to the widest state, summed as a one-at-a-time weighted draw sums
    them: the total with ``sum()`` (compensated from Python 3.12 on), the
    cumulative weights left to right from 0.0. The last successor's cumulative
    weight is +inf: it takes every draw that no earlier successor does, which
    clips a ``u * total`` at or above the last running sum to the last
    successor."""
    options = [automaton["transitions"][str(state)]
               for state in range(automaton["error_index"])]
    width = max(map(len, options))
    successors = np.zeros((len(options), width), dtype=np.int64)
    cumulative = np.full((len(options), width), np.inf)
    total = np.empty(len(options))
    for state, choices in enumerate(options):
        acc = 0.0
        for i, (successor, weight) in enumerate(choices):
            successors[state, i] = successor
            acc += weight
            cumulative[state, i] = acc
        total[state] = sum(weight for _, weight in choices)
        cumulative[state, len(choices) - 1] = np.inf
    return successors, total, cumulative


def _walks(tables, start_index: int, unit: np.ndarray, starts: np.ndarray,
           lengths: np.ndarray) -> np.ndarray:
    """Walks from ``start_index``, one row per walk, advanced together. Step
    ``t`` of walk ``i`` draws ``u = unit[starts[i] + t - 1]`` and moves to the
    first successor whose cumulative weight is above ``u * total``. A row is
    the walk up to ``lengths[i]``; past that it holds steps nobody reads, and
    ``unit`` must reach ``starts + lengths.max() - 1``."""
    successors, total, cumulative = tables
    events = np.empty((len(starts), int(lengths.max())), dtype=np.int64)
    state = np.full(len(starts), start_index, dtype=np.int64)
    events[:, 0] = state
    for t in range(1, events.shape[1]):
        r = unit[starts + (t - 1)] * total[state]
        state = successors[state, (cumulative[state] <= r[:, None]).sum(axis=1)]
        events[:, t] = state
    return events


def _mutate(events: list[int], mutation: str, automaton: dict,
            words: list[int]) -> tuple[list[int], int]:
    """Apply ``mutation`` with integers drawn from ``words`` in order; return
    the mutated events and the number of words used."""
    error_index = automaton["error_index"]
    # insert/swap land at window-reachable positions: at or past the default
    # window size, but never dead-last (a final event enters no input window)
    lo = min(TRUNCATE_BELOW, max(1, len(events) - 2))
    if mutation == "insert":
        pos = lo + bounded(words[0], len(events) - lo)
        return events[:pos] + [error_index] + events[pos:], 1
    if mutation == "swap":
        for tries in range(SWAP_TRIES):
            pos = lo + bounded(words[tries], max(1, len(events) - 1 - lo))
            if pos + 1 >= len(events) or events[pos] == events[pos + 1]:
                continue
            mutated = list(events)
            mutated[pos], mutated[pos + 1] = mutated[pos + 1], mutated[pos]
            if not is_valid_walk(mutated, automaton):
                return mutated, tries + 1
        # no detectable swap found; fall back to an error insertion
        pos = lo + bounded(words[SWAP_TRIES], len(events) - lo)
        return events[:pos] + [error_index] + events[pos:], SWAP_TRIES + 1
    # truncate: fewer events than the default forecasting window
    upper = min(TRUNCATE_BELOW - 1, len(events) - 1)
    return events[:1 + bounded(words[0], upper)], 1


def _columns(spec: GeneratorSpec) -> tuple[dict, Iterator[tuple[list, list, list]]]:
    """The automaton, and every row's automaton state, identifier and label
    code, as three lists per chunk of ``CHUNK_SEQUENCES`` sequences."""
    rng = Rng(derive_seed(spec.seed, "syngen"))
    templates = _make_templates(spec.n_templates, rng)
    automaton = _build_automaton(spec.n_templates, spec.automaton_branching, rng)
    automaton["templates"] = templates

    n_anomalous = int(spec.anomaly_rate * spec.n_sequences + 0.5)
    flags = [True] * n_anomalous + [False] * (spec.n_sequences - n_anomalous)
    rng.shuffle(flags)
    plan = iter(_mutation_plan(n_anomalous, rng))
    return automaton, _chunks(spec, automaton, flags, plan, rng)


def _chunks(spec, automaton, flags, plan, rng) -> Iterator[tuple[list, list, list]]:
    tables = _transition_tables(automaton)
    lo_len = max(TRUNCATE_BELOW + 2, spec.mean_length - 4)
    hi_len = spec.mean_length + 4
    # the stream's words from the first one not yet read on
    words = np.empty(0, dtype=np.uint64)
    for first in range(0, len(flags), CHUNK_SEQUENCES):
        mutations = [next(plan) if anomalous else None
                     for anomalous in flags[first:first + CHUNK_SEQUENCES]]
        # the chunk reads at most this many words
        need = sum(hi_len + _MUTATION_DRAWS[m] for m in mutations)
        if need > len(words):
            blocks = -(-(need - len(words)) // BLOCK)
            words = np.concatenate([words, rng.next_u64s(blocks * BLOCK)])
        unit = unit_floats(words)

        # the offsets depend on the lengths drawn, so one sequence at a time
        starts, lengths, mutated_at = [], [], []
        at = 0
        for mutation in mutations:
            length = lo_len + bounded(int(words[at]), hi_len - lo_len + 1)
            starts.append(at + 1)
            lengths.append(length)
            at += length
            mutated_at.append(at)
            if mutation == "swap":
                # how many words a swap draws depends on its walk
                walk = _walks(tables, automaton["start_index"], unit,
                              np.array([at - length + 1]), np.array([length]))
                at += _mutate(walk[0].tolist(), mutation, automaton,
                              words[at:at + _MUTATION_DRAWS[mutation]].tolist())[1]
            elif mutation is not None:
                at += 1

        walks = _walks(tables, automaton["start_index"], unit,
                       np.array(starts), np.array(lengths)).tolist()
        events, identifiers, labels = [], [], []
        for index, (walk, length, mutation, drawn_at) in enumerate(
                zip(walks, lengths, mutations, mutated_at), first):
            walk = walk[:length]
            label = NORMAL
            if mutation is not None:
                walk = _mutate(walk, mutation, automaton,
                               words[drawn_at:drawn_at + _MUTATION_DRAWS[mutation]].tolist())[0]
                label = ANOMALY
            events += walk
            identifiers += [f"seq_{index:05d}"] * len(walk)
            labels += [label] * len(walk)
        # words drawn but not read carry over to the next chunk; the rest of
        # the chunk's arrays go before its rows are built
        words = words[at:].copy()
        del unit, walks
        yield events, identifiers, labels


def generate(spec: GeneratorSpec) -> SyntheticDataset:
    """Generate a log in the pre-parsed CSV schema plus the automaton.

    Exactly round(anomaly_rate * n_sequences) sequences are anomalous; every
    row of an anomalous sequence carries the anomaly label so that
    identifier partitioning reproduces sequence labels by the contains-any
    rule. Row ``i`` is line ``i + 1`` at second ``i``.
    """
    automaton, chunks = _columns(spec)
    events, identifiers, labels = (list(chain.from_iterable(column))
                                   for column in zip(*chunks))
    states, event_id = _codes(events)
    names, identifier = _codes(identifiers)
    vocab = EventVocabulary([automaton["templates"][state] for state in states])
    line_no = np.arange(1, len(events) + 1, dtype=np.int64)
    return SyntheticDataset(ParsedLog(line_no, line_no - 1, event_id, identifier, names,
                                      np.array(labels, np.int8), vocab.templates), vocab, automaton)


def _codes(values: list) -> tuple[list, np.ndarray]:
    """The distinct ``values`` in first-appearance order, and each one's index."""
    code = {value: i for i, value in enumerate(dict.fromkeys(values))}
    return list(code), np.fromiter(map(code.__getitem__, values), np.int64, len(values))


def stream(spec: GeneratorSpec, csv_path) -> tuple[int, int]:
    """Write the files ``generate(spec).write(csv_path)`` writes, a chunk at a
    time, so memory does not grow with ``n_sequences``. Returns the number of
    records and of distinct templates written."""
    automaton, chunks = _columns(spec)
    templates = automaton["templates"]
    n_records = 0
    seen: set[int] = set()
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = ParsedWriter(fh)
        for events, identifiers, labels in chunks:
            line_no = n_records + 1
            writer.writerows(zip(
                range(line_no, line_no + len(events)),
                range(line_no - 1, line_no - 1 + len(events)),
                identifiers, map(templates.__getitem__, events),
                map(LABELS.__getitem__, labels)))
            n_records += len(events)
            seen.update(events)
    _write_sidecar(automaton, csv_path)
    return n_records, len(seen)
