"""Shared detector machinery: estimator parameter handling, the training
loop, verdicts, and the window-to-sequence decision rule."""

from __future__ import annotations

import inspect
import logging
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from ..autodiff import Adam, ParamSet, Tensor, no_grad
from ..exceptions import StateError
from ..ingest import EventVocabulary
from ..rng import Rng, derive_seed
from ..sequencing import EventSequence, SemanticEncoder, WindowSpec, window_arrays

WINDOW = "window"
SEQUENCE = "sequence"

logger = logging.getLogger(__name__)


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
    """Estimator base: constructor arguments are hyperparameters, fitted state
    lives in trailing-underscore attributes, ``fit`` returns ``self``."""

    @classmethod
    def _param_names(cls) -> list[str]:
        signature = inspect.signature(cls.__init__)
        return [name for name in signature.parameters if name != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "BaseDetector":
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}"
                )
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items()
                         if k != "encoder")
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
