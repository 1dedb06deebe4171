"""Forecasting detectors: predict the next event id from the preceding window
and alert when the observed event falls outside the model's top-k guesses.

Two architectures share the training and decision logic: a stacked LSTM and a
Transformer encoder with multi-head self-attention. Both support index inputs
(a trainable event embedding) and semantic inputs (frozen word-average
vectors), and both emit their softmax over event ids, never over semantic
space.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..autodiff import (
    ParamSet,
    Tensor,
    attention_params,
    embedding_lookup,
    grad_enabled,
    linear,
    lstm_params,
    multihead_attention,
    narrow,
    relu,
    run_lstm,
    run_lstm_tree,
    sinusoidal_encoding,
)
from ..ingest import EventVocabulary
from ..rng import derive_seed
from .base import WindowDetector, target_ranks


class _ForecastBase(WindowDetector):
    """Score rule: the rank of the observed event among the predicted
    next-event probabilities; a window is anomalous iff its event falls
    outside the k most probable (ties count as inside)."""

    @property
    def k(self) -> int:
        """The one hyperparameter settable after ``fit``: scoring reads it and
        training does not. Setting it runs ``DetectorConfig``'s checks."""
        return self.config.k

    @k.setter
    def k(self, value: int) -> None:
        self.config = replace(self.config, k=value)

    _cutoff = k

    def _score(self, table, ids: np.ndarray, targets: np.ndarray) -> np.ndarray:
        return target_ranks(self._softmax(table, ids), targets)


class LstmForecastDetector(_ForecastBase):
    """Stacked-LSTM next-event forecaster over event index or semantic
    inputs; the original forecasting formulation for log anomaly detection."""

    family = "lstm_forecast"

    def _build_params(self, vocab: EventVocabulary) -> ParamSet:
        hidden = self.config.hidden
        ps = ParamSet(derive_seed(self.config.seed, self.family))
        in_dim = self._input_params(ps, vocab)
        for layer in range(self.config.layers):
            lstm_params(ps, f"lstm{layer}", in_dim, hidden)
            in_dim = hidden
        ps.uniform("out.w", (hidden, vocab.n_ids), fan_in=hidden)
        ps.zeros("out.b", (vocab.n_ids,))
        return ps

    def _logits(self, params: ParamSet, table, ids: np.ndarray) -> Tensor:
        (batch, steps), hidden = ids.shape, self.config.hidden
        layers = self.config.layers
        if not grad_enabled():  # scoring: each distinct prefix once
            tree, states = run_lstm_tree(
                table, ids, params, [f"lstm{n}" for n in range(layers)], hidden)
            last = Tensor(tree.rows(states, steps - 1))
            return linear(last, params["out.w"], params["out.b"])
        hs = embedding_lookup(table, ids.T)  # (T, B, d): one lookup
        for layer in range(layers):
            hs = run_lstm(hs, params, f"lstm{layer}", hidden)
        last = narrow(hs, 0, steps - 1, 1).reshape(batch, hidden)
        return linear(last, params["out.w"], params["out.b"])


class TransformerForecastDetector(_ForecastBase):
    """Transformer-encoder forecaster: sinusoidal positions, multi-head
    self-attention blocks with residuals, mean-pooled readout. No causal mask;
    the whole window jointly predicts one following event."""

    family = "transformer_forecast"

    def _build_params(self, vocab: EventVocabulary) -> ParamSet:
        hidden = self.config.hidden
        ps = ParamSet(derive_seed(self.config.seed, self.family))
        in_dim = self._input_params(ps, vocab)
        ps.uniform("proj.w", (in_dim, hidden), fan_in=in_dim)
        ps.zeros("proj.b", (hidden,))
        for layer in range(self.config.layers):
            attention_params(ps, f"block{layer}.attn", hidden)
            ps.uniform(f"block{layer}.ff.w1", (hidden, 2 * hidden), fan_in=hidden)
            ps.zeros(f"block{layer}.ff.b1", (2 * hidden,))
            ps.uniform(f"block{layer}.ff.w2", (2 * hidden, hidden), fan_in=2 * hidden)
            ps.zeros(f"block{layer}.ff.b2", (hidden,))
        ps.uniform("out.w", (hidden, vocab.n_ids), fan_in=hidden)
        ps.zeros("out.b", (vocab.n_ids,))
        return ps

    def _logits(self, params: ParamSet, table, ids: np.ndarray) -> Tensor:
        x = embedding_lookup(table, ids)                       # (B, m, d_in)
        x = linear(x, params["proj.w"], params["proj.b"])      # (B, m, H)
        x = x + Tensor(sinusoidal_encoding(ids.shape[1], self.config.hidden))
        for layer in range(self.config.layers):
            p = lambda name: params[f"block{layer}.{name}"]
            x = x + multihead_attention(x, self.config.heads, p("attn.wq"),
                                        p("attn.wk"), p("attn.wv"), p("attn.wo"))
            hidden = relu(linear(x, p("ff.w1"), p("ff.b1")))
            x = x + linear(hidden, p("ff.w2"), p("ff.b2"))
        pooled = x.mean(axis=1)
        return linear(pooled, params["out.w"], params["out.b"])
