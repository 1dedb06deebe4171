"""Shared detector machinery: the hyperparameter table (``DetectorConfig``),
estimator parameter handling, the training loop, verdicts, and the
window-to-sequence decision rule."""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass
from itertools import pairwise

import numpy as np

from ..autodiff import Adam, ParamSet, Tensor, no_grad
from ..exceptions import ConfigurationError, StateError
from ..ingest import EventVocabulary
from ..rng import Rng, derive_seed
from ..sequencing import EventSequence, SemanticEncoder, WindowSpec, window_arrays

WINDOW = "window"
SEQUENCE = "sequence"

logger = logging.getLogger(__name__)

FAMILIES = ("lstm_forecast", "transformer_forecast", "autoencoder",
            "bilstm_attention", "cnn")
FORECAST_FAMILIES = ("lstm_forecast", "transformer_forecast")
SUPERVISED_FAMILIES = ("bilstm_attention", "cnn")
UNSUPERVISED_FAMILIES = ("lstm_forecast", "transformer_forecast", "autoencoder")

DEFAULT_SEMANTIC_DIM = 32


@dataclass
class DetectorConfig:
    """Hyperparameters for one detector, and the one place their defaults
    are written; every family accepts both input modes. ``embed_dim``
    defaults to 16 for index inputs and 32 for semantic vectors when left
    unset."""

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
        if self.family not in FAMILIES:
            raise ConfigurationError(f"unknown detector family {self.family!r}")
        if self.k < 1:
            raise ConfigurationError("k must be >= 1")

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

    @classmethod
    def from_dict(cls, doc: dict) -> "DetectorConfig":
        return cls(**doc)


@dataclass
class Verdict:
    """Detection outcome at window or sequence level.

    ``score`` is family-specific: probability rank for forecasting,
    reconstruction error for the autoencoder, anomaly-class probability for
    supervised classifiers. ``position`` is the window's target index inside
    its sequence (window-level only).
    """

    level: str
    anomalous: bool
    score: float
    position: int | None = None


def combine_window_verdicts(verdicts: list[Verdict]) -> Verdict:
    """Sequence verdict: anomalous iff any window is; score is the max window
    score. An empty list (short sequence, no windows) is normal."""
    if not verdicts:
        return Verdict(level=SEQUENCE, anomalous=False, score=0.0)
    anomalous = any(v.anomalous for v in verdicts)
    score = max(v.score for v in verdicts)
    position = next((v.position for v in verdicts if v.anomalous), None)
    return Verdict(level=SEQUENCE, anomalous=anomalous, score=score, position=position)


def target_ranks(probs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Competition rank of each row's target probability (1 = most probable).

    Ties share the best rank, so a target tied with the k-th largest
    probability still counts as inside the top k.
    """
    target_p = probs[np.arange(len(targets)), targets]
    return 1 + (probs > target_p[:, None]).sum(axis=1)


class BaseDetector:
    """Estimator base: constructor arguments are the family's
    ``hyperparameters`` (``DetectorConfig`` fields, with its defaults) and an
    optional semantic ``encoder``; fitted state lives in trailing-underscore
    attributes, ``fit`` returns ``self``."""

    family: str
    hyperparameters: tuple[str, ...]

    def __init__(self, encoder=None, **params):
        unknown = sorted(set(params) - set(self.hyperparameters))
        if unknown:
            raise TypeError(f"{type(self).__name__} takes no hyperparameter "
                            f"{', '.join(unknown)}")
        config = DetectorConfig(self.family, semantics=encoder is not None, **params)
        config.embed_dim = config.resolved_embed_dim
        for name in self.hyperparameters:
            setattr(self, name, getattr(config, name))
        self.encoder = encoder

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name)
                for name in (*self.hyperparameters, "encoder")}

    def set_params(self, **params) -> "BaseDetector":
        for name, value in params.items():
            if name not in self.hyperparameters and name != "encoder":
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}"
                )
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self.hyperparameters)
        return f"{type(self).__name__}({args})"

    # fitted-state helpers -------------------------------------------------

    def _require_fitted(self) -> None:
        if getattr(self, "params_", None) is None:
            raise StateError(f"{type(self).__name__} is not fitted")

    @property
    def is_semantic(self) -> bool:
        if getattr(self, "encoder", None) is not None:
            return True
        return bool(getattr(self, "_loaded_semantic", False))

    def _input_table(self, vocab: EventVocabulary | None):
        """Input row matrix and the id space to encode events against.

        Semantic detectors given an (extended) vocabulary rebuild the frozen
        table from their encoder so unseen templates still get meaningful
        vectors; everything else clamps to the vocabulary seen at training.
        """
        encoder: SemanticEncoder | None = getattr(self, "encoder", None)
        if encoder is not None and vocab is not None:
            return Tensor(encoder.table_for(vocab)), len(vocab)
        return self.params_["input_table"], self.vocab_size_

    def _input_params(self, ps: ParamSet, vocab: EventVocabulary) -> int:
        """Register the input table (frozen semantic vectors or a trainable
        embedding) and return the width of its rows."""
        if self.encoder is not None:
            ps.constant("input_table", self.encoder.table_for(vocab))
            return self.encoder.dim
        ps.uniform("input_table", (vocab.n_ids, self.embed_dim), fan_in=self.embed_dim)
        return self.embed_dim

    # training and scoring ---------------------------------------------------

    def _order_rng(self) -> Rng:
        return Rng(derive_seed(self.seed, self.family, "order"))

    def _train(self, params: ParamSet, count: int, batch_loss,
               order_rng: Rng) -> list[float]:
        """Mini-batch Adam over ``count`` examples for ``self.epochs`` epochs,
        reshuffled each epoch from ``order_rng``. ``batch_loss(index)`` returns
        the mean loss of the examples at ``index``; the result is each
        epoch's mean loss."""
        optimizer = Adam(self.lr)
        losses = []
        for _ in range(self.epochs):
            perm = order_rng.permutation(count)
            total = 0.0
            for lo in range(0, count, self.batch_size):
                batch = perm[lo:lo + self.batch_size]
                loss = batch_loss(batch)
                params.zero_grad()
                loss.backward()
                optimizer.step(params)
                total += loss.item() * len(batch)
            losses.append(total / count if count else 0.0)
        return losses

    def _windows(self, sequences: list[EventSequence]):
        return window_arrays(sequences, WindowSpec(self.window_size, self.step_size))

    def _softmax(self, table, ids: np.ndarray) -> np.ndarray:
        """Class probabilities of the fitted model for each row of ``ids``."""
        with no_grad():
            logits = self._logits(self.params_, table, ids).data
        shifted = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)

    def _sequence_verdicts(self, n_sequences: int, owner: np.ndarray,
                           positions: np.ndarray, anomalous: np.ndarray,
                           scores: np.ndarray) -> list[Verdict]:
        """Combine window verdicts, given in sequence order with the index of
        their ``owner`` sequence, into one verdict per sequence. Sequences
        without a window carry no evidence and are verdicted normal."""
        windows = [Verdict(level=WINDOW, anomalous=a, score=score, position=p)
                   for a, score, p in zip(anomalous.tolist(),
                                          scores.astype(float).tolist(),
                                          positions.tolist())]
        short = n_sequences - len(np.unique(owner))
        if short:
            logger.debug("%d of %d sequences have no window (<= window size "
                         "%d events); verdicted normal", short, n_sequences,
                         self.window_size)
        bounds = np.searchsorted(owner, np.arange(n_sequences + 1)).tolist()
        return [combine_window_verdicts(windows[lo:hi])
                for lo, hi in pairwise(bounds)]
