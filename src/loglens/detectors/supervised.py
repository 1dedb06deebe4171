"""Supervised sequence classifiers trained on labeled normal/anomalous
sequences: an attentional bidirectional LSTM and a convolutional model over a
trainable event-embedding matrix.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import (
    ParamSet,
    Tensor,
    concat,
    embedding_lookup,
    grad_enabled,
    linear,
    lstm_params,
    max_along,
    mul_sum,
    run_lstm,
    run_lstm_tree,
    tanh,
)
from ..autodiff.nn import conv_full_width
from ..exceptions import TrainingError
from ..ingest import EventVocabulary
from ..rng import derive_seed
from ..sequencing import EventSequence
from .base import FILTER_HEIGHTS, BaseDetector


class _SupervisedBase(BaseDetector):
    """One example per sequence, its label the target. Score rule: a
    sequence is anomalous iff its anomaly-class probability is strictly
    greater than one half."""

    _cutoff = 0.5

    def _padded_ids(self, sequences: list[EventSequence], clamp: int) -> np.ndarray:
        """Each sequence's first ``max_len`` event ids, right-padded, with
        ids clamped to ``clamp`` (the unknown id, which pads too)."""
        ids = np.full((len(sequences), self.config.max_len), clamp, dtype=np.int64)
        for row, seq in zip(ids, sequences):
            events = seq.events[:len(row)]
            row[:len(events)] = events
        return np.minimum(ids, clamp)

    def _examples(self, sequences: list[EventSequence], clamp: int):
        n = len(sequences)
        labels = np.asarray([s.is_anomalous for s in sequences], dtype=np.int64)
        return self._padded_ids(sequences, clamp), labels, np.arange(n), np.full(n, None)

    def _training_examples(self, sequences, order_rng):
        if len({s.is_anomalous for s in sequences}) < 2:
            raise TrainingError("supervised training requires both classes")
        return super()._training_examples(sequences, order_rng)

    def _score(self, table, ids: np.ndarray, targets: np.ndarray) -> np.ndarray:
        return self._softmax(table, ids)[:, 1]


class BilstmAttentionDetector(_SupervisedBase):
    """Bidirectional LSTM with per-step attention.

    Each step's concatenated hidden state h_t gets a scalar attention weight
    a_t = tanh(w_t . h_t) from a per-position attention matrix; the prediction
    is a softmax over the attention-weighted sum of hidden states.
    """

    family = "bilstm_attention"

    def _build_params(self, vocab: EventVocabulary) -> ParamSet:
        hidden = self.config.hidden
        ps = ParamSet(derive_seed(self.config.seed, self.family))
        in_dim = self._input_params(ps, vocab)
        lstm_params(ps, "fw", in_dim, hidden)
        lstm_params(ps, "bw", in_dim, hidden)
        ps.uniform("attn.w", (self.config.max_len, 2 * hidden), fan_in=2 * hidden)
        ps.uniform("out.w", (2 * hidden, 2), fan_in=2 * hidden)
        ps.zeros("out.b", (2,))
        return ps

    def _logits(self, params: ParamSet, table, ids: np.ndarray) -> Tensor:
        (batch, steps), u = ids.shape, self.config.hidden
        if grad_enabled():
            xs = embedding_lookup(table, ids.T)  # (T, B, d), read both ways
            forward = run_lstm(xs, params, "fw", u)
            backward = run_lstm(xs, params, "bw", u, reverse=True)
            both = concat([forward, backward], axis=2)
        else:  # scoring: each distinct prefix and suffix once
            fw_tree, fw = run_lstm_tree(table, ids, params, ["fw"], u)
            bw_tree, bw = run_lstm_tree(table, ids, params, ["bw"], u, reverse=True)
            both = np.empty((steps, batch, 2 * u))
            for t in range(steps):
                both[t, :, :u] = fw_tree.rows(fw, t)
                both[t, :, u:] = bw_tree.rows(bw, steps - 1 - t)
            both = Tensor(both)
        hidden = both.transpose((1, 0, 2))  # (B, T, 2u)
        weights = tanh(mul_sum(hidden, params["attn.w"], axis=2))  # (B, T), in (-1, 1)
        weighted = mul_sum(hidden, weights.reshape(batch, steps, 1), axis=1)
        return linear(weighted, params["out.w"], params["out.b"])


class CnnDetector(_SupervisedBase):
    """Convolutional classifier over a trainable event-embedding matrix of
    shape (vocab size + 1, embed dim); parallel full-width filters of several
    heights are max-pooled over time, concatenated, and classified."""

    family = "cnn"

    def _build_params(self, vocab: EventVocabulary) -> ParamSet:
        hidden = self.config.hidden
        ps = ParamSet(derive_seed(self.config.seed, self.family))
        in_dim = self._input_params(ps, vocab)
        for height in FILTER_HEIGHTS:
            ps.uniform(f"conv{height}.w", (height * in_dim, hidden),
                       fan_in=height * in_dim)
            ps.zeros(f"conv{height}.b", (hidden,))
        total = hidden * len(FILTER_HEIGHTS)
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
