"""Supervised sequence classifiers trained on labeled normal/anomalous
sequences: an attentional bidirectional LSTM and a convolutional model over a
trainable event-embedding matrix.
"""

from __future__ import annotations

import time

import numpy as np

from ..autodiff import (
    ParamSet,
    Tensor,
    concat,
    cross_entropy,
    embedding_lookup,
    linear,
    lstm_params,
    max_along,
    run_lstm,
    stack,
    tanh,
)
from ..autodiff.nn import conv_full_width
from ..exceptions import ConfigurationError, TrainingError
from ..ingest import EventVocabulary, LABEL_ANOMALY
from ..rng import derive_seed
from ..sequencing import EventSequence, encode_indices, pad_or_truncate
from .base import SEQUENCE, BaseDetector, Verdict

FILTER_HEIGHTS = (3, 4, 5)  # CNN filter heights, in events


class _SupervisedBase(BaseDetector):
    kind = "supervised"
    hyperparameters = ("max_len", "hidden", "embed_dim", "epochs", "batch_size",
                       "lr", "seed")

    def _build_params(self, vocab: EventVocabulary) -> ParamSet:
        raise NotImplementedError

    def _logits(self, params: ParamSet, table, ids: np.ndarray) -> Tensor:
        raise NotImplementedError

    def _padded_ids(self, sequences: list[EventSequence], clamp: int) -> np.ndarray:
        pad_id = clamp  # the reserved unknown id doubles as padding
        rows = [
            pad_or_truncate(encode_indices(seq.events, clamp), self.max_len, pad_id)
            for seq in sequences
        ]
        return np.asarray(rows, dtype=np.int64)

    def fit(self, sequences: list[EventSequence], vocab: EventVocabulary):
        """Train the binary classifier; both labels must be present."""
        start = time.perf_counter()
        labels = np.asarray([1 if s.label == LABEL_ANOMALY else 0 for s in sequences],
                            dtype=np.int64)
        if len(set(labels.tolist())) < 2:
            raise TrainingError("supervised training requires both classes")
        n = len(vocab)
        self.vocab_size_ = n
        ids = self._padded_ids(sequences, n)
        params = self._build_params(vocab)
        self.params_ = params

        table = params["input_table"]
        self.epoch_losses_ = self._train(
            params, ids.shape[0],
            lambda batch: cross_entropy(self._logits(params, table, ids[batch]),
                                        labels[batch]),
            self._order_rng())
        self.training_seconds_ = time.perf_counter() - start
        return self

    def classify(self, sequence: EventSequence,
                 vocab: EventVocabulary | None = None) -> Verdict:
        """Sequence verdict: anomalous iff the anomaly-class probability is
        strictly greater than one half."""
        (verdict,) = self.predict([sequence], vocab)
        return verdict

    def predict(self, sequences: list[EventSequence],
                vocab: EventVocabulary | None = None) -> list[Verdict]:
        self._require_fitted()
        table, clamp = self._input_table(vocab)
        ids = self._padded_ids(sequences, clamp)
        verdicts = []
        for lo in range(0, ids.shape[0], 1024):
            probs = self._softmax(table, ids[lo:lo + 1024])[:, 1]
            verdicts.extend(
                Verdict(level=SEQUENCE, anomalous=float(p) > 0.5, score=float(p))
                for p in probs
            )
        return verdicts


class BilstmAttentionDetector(_SupervisedBase):
    """Bidirectional LSTM with per-step attention.

    Each step's concatenated hidden state h_t gets a scalar attention weight
    a_t = tanh(w_t . h_t) from a per-position attention matrix; the prediction
    is a softmax over the attention-weighted sum of hidden states.
    """

    family = "bilstm_attention"

    def _build_params(self, vocab: EventVocabulary) -> ParamSet:
        ps = ParamSet(derive_seed(self.seed, self.family))
        in_dim = self._input_params(ps, vocab)
        lstm_params(ps, "fw", in_dim, self.hidden)
        lstm_params(ps, "bw", in_dim, self.hidden)
        ps.uniform("attn.w", (self.max_len, 2 * self.hidden), fan_in=2 * self.hidden)
        ps.uniform("out.w", (2 * self.hidden, 2), fan_in=2 * self.hidden)
        ps.zeros("out.b", (2,))
        return ps

    def _logits(self, params: ParamSet, table, ids: np.ndarray) -> Tensor:
        steps = ids.shape[1]
        xs = [embedding_lookup(table, ids[:, t]) for t in range(steps)]
        forward = run_lstm(xs, params, "fw", self.hidden)
        backward = run_lstm(list(reversed(xs)), params, "bw", self.hidden)
        backward.reverse()
        hidden = stack([concat([f, b], axis=1) for f, b in zip(forward, backward)],
                       axis=1)                                   # (B, T, 2u)
        weights = tanh((hidden * params["attn.w"]).sum(axis=2))  # (B, T), in (-1, 1)
        weighted = (hidden * weights.reshape(ids.shape[0], steps, 1)).sum(axis=1)
        return linear(weighted, params["out.w"], params["out.b"])


class CnnDetector(_SupervisedBase):
    """Convolutional classifier over a trainable event-embedding matrix of
    shape (vocab size + 1, embed dim); parallel full-width filters of several
    heights are max-pooled over time, concatenated, and classified."""

    family = "cnn"

    def _build_params(self, vocab: EventVocabulary) -> ParamSet:
        if max(FILTER_HEIGHTS) > self.max_len:
            raise ConfigurationError(
                f"max_len {self.max_len} shorter than filter height "
                f"{max(FILTER_HEIGHTS)}"
            )
        ps = ParamSet(derive_seed(self.seed, self.family))
        in_dim = self._input_params(ps, vocab)
        for height in FILTER_HEIGHTS:
            ps.uniform(f"conv{height}.w", (height * in_dim, self.hidden),
                       fan_in=height * in_dim)
            ps.zeros(f"conv{height}.b", (self.hidden,))
        total = self.hidden * len(FILTER_HEIGHTS)
        ps.uniform("out.w", (total, 2), fan_in=total)
        ps.zeros("out.b", (2,))
        return ps

    def _logits(self, params: ParamSet, table, ids: np.ndarray) -> Tensor:
        x = embedding_lookup(table, ids)                      # (B, T, d)
        pooled = [
            max_along(conv_full_width(x, params[f"conv{h}.w"], params[f"conv{h}.b"], h),
                      axis=1)
            for h in FILTER_HEIGHTS
        ]
        features = concat(pooled, axis=1)
        return linear(features, params["out.w"], params["out.b"])
