"""Shared detector machinery: the hyperparameter table (``DetectorConfig``),
the one ``fit`` and ``predict`` of every family, verdicts, and the
window-to-sequence decision rule."""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass
from itertools import pairwise

import numpy as np

from ..autodiff import Adam, ParamSet, Tensor, cross_entropy, no_grad, softmax
from ..exceptions import ConfigurationError, StateError, TrainingError
from ..ingest import EventVocabulary
from ..rng import Rng, derive_seed
from ..schema import Spec
from ..sequencing import EventSequence, SemanticEncoder, WindowSpec, window_arrays

logger = logging.getLogger(__name__)

FAMILIES = ("lstm_forecast", "transformer_forecast", "autoencoder",
            "bilstm_attention", "cnn")
SUPERVISED_FAMILIES = ("bilstm_attention", "cnn")

DEFAULT_SEMANTIC_DIM = 32
FILTER_HEIGHTS = (3, 4, 5)  # CNN filter heights, in events
PREDICT_BLOCK = 1024  # examples scored per call, unless a family says otherwise


@dataclass(frozen=True)
class DetectorConfig(Spec):
    """Hyperparameters for one detector, and the one place their defaults
    are written; every family accepts both input modes. ``embed_dim``
    defaults to 16 for index inputs and 32 for semantic vectors when left
    unset. Frozen: a changed config is a ``replace``, which runs the checks."""

    definition = "detector"
    family: str
    semantics: bool = False
    k: int = 10
    window_size: int = 10
    step_size: int = 1
    hidden: int = 64
    layers: int = 2
    heads: int = 4
    embed_dim: int | None = None
    max_len: int = 50
    epochs: int = 10
    batch_size: int = 128
    lr: float = 1e-3
    threshold_quantile: float = 0.98
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.family == "transformer_forecast" and self.hidden % self.heads:
            raise ConfigurationError(f"transformer_forecast: hidden {self.hidden} "
                                     f"is not divisible by heads {self.heads}")
        if self.family == "cnn" and self.max_len < max(FILTER_HEIGHTS):
            raise ConfigurationError(f"cnn: max_len {self.max_len} is shorter than "
                                     f"the tallest filter, {max(FILTER_HEIGHTS)}")

    @property
    def resolved_embed_dim(self) -> int:
        if self.embed_dim is not None:
            return self.embed_dim
        return DEFAULT_SEMANTIC_DIM if self.semantics else 16

    @property
    def name(self) -> str:
        return f"{self.family}[{'semantic' if self.semantics else 'index'}]"

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class Verdict:
    """Detection outcome for one sequence.

    ``score`` is family-specific: probability rank for forecasting,
    reconstruction error for the autoencoder, anomaly-class probability for
    supervised classifiers. ``position`` is the target index of the first
    anomalous window inside its sequence (``None`` when no window is
    anomalous, and for the supervised families).
    """

    anomalous: bool
    score: float
    position: int | None = None


def target_ranks(probs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Competition rank of each row's target probability (1 = most probable).

    Ties share the best rank, so a target tied with the k-th largest
    probability still counts as inside the top k.
    """
    target_p = probs[np.arange(len(targets)), targets]
    return 1 + (probs > target_p[:, None]).sum(axis=1)


class BaseDetector:
    """Estimator base: a detector is its frozen ``DetectorConfig``
    (``self.config``, which every hyperparameter and the input mode are read
    from) and its fitted state, which lives in trailing-underscore attributes;
    ``fit`` returns ``self``.

    ``fit`` and ``predict`` are written once, here. A family supplies only
    what is its own:

    - its examples: ``_examples(sequences, clamp)`` returns inputs, targets,
      the index of each example's sequence and the example's position in it;
    - its model: ``_build_params(vocab)`` and ``_logits(params, table, ids)``,
      trained with cross-entropy unless the family has its own ``_loss``;
    - its score rule: ``_score(table, inputs, targets)`` gives one score per
      example, and an example is anomalous iff its score exceeds ``_cutoff``.
    """

    family: str

    def __init__(self, config: DetectorConfig):
        self.config = config

    # training -------------------------------------------------------------

    def fit(self, sequences: list[EventSequence], vocab: EventVocabulary):
        """Train on ``sequences``: mini-batch Adam for ``epochs`` epochs,
        reshuffled each epoch from the order stream, keeping each epoch's
        mean loss. Which sequences a family fits on (all of them, or only the
        normal ones) is the caller's rule: see ``bench.fit_set``."""
        start = time.perf_counter()
        config = self.config
        self._set_vocab(vocab)
        self.params_ = params = self._build_params(vocab)
        table, _ = self._input_table(None)
        order_rng = Rng(derive_seed(config.seed, self.family, "order"))
        inputs, targets, held_out = self._training_examples(sequences, order_rng)
        optimizer = Adam(config.lr)
        self.epoch_losses_ = []
        for _ in range(config.epochs):
            perm = order_rng.permutation(len(inputs))
            total = 0.0
            for lo in range(0, len(inputs), config.batch_size):
                batch = perm[lo:lo + config.batch_size]
                loss = self._loss(params, table, inputs[batch], targets[batch])
                params.zero_grad()
                loss.backward()
                optimizer.step(params)
                total += loss.item() * len(batch)
            self.epoch_losses_.append(total / len(inputs) if len(inputs) else 0.0)
        self._calibrate(table, held_out)
        self.training_seconds_ = time.perf_counter() - start
        return self

    def _training_examples(self, sequences: list[EventSequence], order_rng: Rng):
        """The inputs and targets ``fit`` trains on, and the inputs it holds
        out to calibrate the score rule (none here)."""
        inputs, targets, _, _ = self._examples(sequences, self.vocab_size_)
        if len(inputs) == 0:
            raise TrainingError("no training examples: every sequence is too short")
        return inputs, targets, None

    def _loss(self, params: ParamSet, table, inputs, targets) -> Tensor:
        return cross_entropy(self._logits(params, table, inputs), targets)

    def _calibrate(self, table, held_out) -> None:
        """Fit the cutoff of the score rule on held-out inputs, if it has one."""

    # input rows -----------------------------------------------------------

    def _set_vocab(self, vocab: EventVocabulary) -> None:
        """Hold the training vocabulary and the semantic encoder the config
        derives from it (``None`` for index inputs)."""
        config = self.config
        self.vocab_ = vocab
        self.encoder_ = SemanticEncoder(
            vocab, dim=config.resolved_embed_dim,
            seed=derive_seed(config.seed, "semantic")) if config.semantics else None

    @property
    def vocab_size_(self) -> int:
        """Templates in the training vocabulary: ids from it up clamp to the
        unknown id."""
        return len(self.vocab_)

    def _require_fitted(self) -> None:
        if getattr(self, "params_", None) is None:
            raise StateError(f"{type(self).__name__} is not fitted")

    def _input_table(self, vocab: EventVocabulary | None):
        """Input row matrix and the id space to encode events against.

        A semantic detector given an (extended) vocabulary rebuilds its frozen
        table from its encoder, so unseen templates still get meaningful
        vectors. Otherwise the stored table serves, or identity (one-hot) rows
        where none is stored, and ids clamp to the vocabulary seen at training.
        """
        if self.config.semantics and vocab is not None:
            return Tensor(self.encoder_.table_for(vocab)), len(vocab)
        if "input_table" in self.params_:
            return self.params_["input_table"], self.vocab_size_
        return Tensor(np.eye(self.vocab_size_ + 1)), self.vocab_size_

    def _input_params(self, ps: ParamSet, vocab: EventVocabulary) -> int:
        """Register the input table (frozen semantic vectors or a trainable
        embedding) and return the width of its rows."""
        if self.config.semantics:
            ps.constant("input_table", self.encoder_.table_for(vocab))
            return self.encoder_.dim
        dim = self.config.resolved_embed_dim
        ps.uniform("input_table", (vocab.n_ids, dim), fan_in=dim)
        return dim

    # detection ------------------------------------------------------------

    def predict(self, sequences: list[EventSequence],
                vocab: EventVocabulary | None = None) -> list[Verdict]:
        """One verdict per sequence. ``vocab`` may extend the training
        vocabulary; only semantic detectors read its new templates."""
        self._require_fitted()
        start = time.perf_counter()
        table, clamp = self._input_table(vocab)
        inputs, targets, owner, positions = self._examples(sequences, clamp)
        scores = np.empty(len(inputs))
        for lo, hi in pairwise(self._blocks(owner, len(sequences))):
            scores[lo:hi] = self._score(table, inputs[lo:hi], targets[lo:hi])
        verdicts = self._sequence_verdicts(len(sequences), owner, positions, scores)
        seconds = time.perf_counter() - start
        logger.debug("%s predict: %d examples in %.4f s, %.0f examples/s",
                     self.family, len(inputs), seconds, len(inputs) / max(seconds, 1e-9))
        return verdicts

    def _blocks(self, owner: np.ndarray, n_sequences: int):
        """Bounds of the example blocks that ``predict`` scores in one call."""
        return [*range(0, len(owner), PREDICT_BLOCK), len(owner)]

    def _softmax(self, table, ids: np.ndarray) -> np.ndarray:
        """Class probabilities of the fitted model for each row of ``ids``."""
        with no_grad():
            return softmax(self._logits(self.params_, table, ids), axis=1).data

    def _sequence_verdicts(self, n_sequences: int, owner: np.ndarray,
                           positions: np.ndarray, scores: np.ndarray) -> list[Verdict]:
        """One verdict per sequence from its examples' ``scores``, given in
        sequence order with the index of their ``owner`` sequence: anomalous
        iff any example is, scored by its highest example score, positioned at
        its first anomalous example. A sequence without examples (too short
        to window) carries no evidence: normal, score 0.0, no position."""
        owners, starts = np.unique(owner, return_index=True)
        flagged = scores > self._cutoff
        hits, first = np.unique(owner[flagged], return_index=True)
        short = n_sequences - len(owners)
        if short:
            logger.debug("%d of %d sequences have no window (<= window size "
                         "%d events); verdicted normal", short, n_sequences,
                         self.config.window_size)
        anomalous = np.zeros(n_sequences, dtype=bool)
        anomalous[hits] = True
        best = np.zeros(n_sequences)
        best[owners] = np.maximum.reduceat(scores, starts)
        position = np.full(n_sequences, None)
        position[hits] = positions[flagged][first].tolist()
        return [Verdict(*row) for row in zip(anomalous.tolist(), best.tolist(),
                                             position.tolist())]


class WindowDetector(BaseDetector):
    """Base of the families whose examples are windows of ``window_size``
    events: forecasting and the autoencoder."""

    def _examples(self, sequences: list[EventSequence], clamp: int):
        """Every window of ``sequences`` as ``window_arrays`` gives them, with
        input ids clamped to ``clamp`` and targets to the training
        vocabulary."""
        ids, targets, owner, positions = window_arrays(
            sequences, WindowSpec(self.config.window_size, self.config.step_size))
        return (np.minimum(ids, clamp), np.minimum(targets, self.vocab_size_),
                owner, positions)
