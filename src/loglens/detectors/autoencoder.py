"""Reconstruction-based detection: a dense autoencoder is trained to copy
normal windows; windows that reconstruct poorly are anomalous.

The decision threshold is the nearest-rank quantile of reconstruction errors
on a held-out slice of the (assumed normal) training windows.
"""

from __future__ import annotations

import math

import numpy as np

from ..autodiff import ParamSet, Tensor, linear, mse, no_grad, relu
from ..exceptions import TrainingError
from ..ingest import EventVocabulary
from ..rng import derive_seed
from .base import WindowDetector

VALIDATION_FRACTION = 0.1  # share of training windows held out for the threshold


def nearest_rank_quantile(values, q: float) -> float:
    """Nearest-rank quantile: the ceil(q*N)-th smallest value (1-based)."""
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise TrainingError("cannot take a quantile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError("quantile must be in (0, 1]")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


class AutoencoderDetector(WindowDetector):
    """Dense two-layer encoder/decoder over flattened window features.

    Index mode feeds one-hot rows per position, semantic mode the frozen
    template vectors, gathered from the window ids one batch at a time, in
    training as in scoring; either way the bottleneck is ``hidden // 4`` wide
    and the loss is the mean squared reconstruction distance. Score rule: a
    window is anomalous iff its reconstruction error strictly exceeds the
    threshold calibrated at ``fit``.
    """

    family = "autoencoder"

    @property
    def _cutoff(self) -> float:
        return self.threshold_

    def _build_params(self, vocab: EventVocabulary) -> ParamSet:
        hidden, window_size = self.config.hidden, self.config.window_size
        ps = ParamSet(derive_seed(self.config.seed, self.family))
        semantics = self.config.semantics
        width = self._input_params(ps, vocab) if semantics else vocab.n_ids
        feature_dim = width * window_size
        bottleneck = max(1, hidden // 4)
        # one-hot windows drive only window_size of the feature units, so the
        # first layer scales by the active count, not the nominal width
        active = feature_dim if semantics else window_size
        ps.uniform("enc.w1", (feature_dim, hidden), fan_in=active)
        ps.zeros("enc.b1", (hidden,))
        ps.uniform("enc.w2", (hidden, bottleneck), fan_in=hidden)
        ps.zeros("enc.b2", (bottleneck,))
        ps.uniform("dec.w1", (bottleneck, hidden), fan_in=bottleneck)
        ps.zeros("dec.b1", (hidden,))
        ps.uniform("dec.w2", (hidden, feature_dim), fan_in=hidden)
        ps.zeros("dec.b2", (feature_dim,))
        return ps

    def _window_features(self, windows_ids: np.ndarray, rows: np.ndarray) -> np.ndarray:
        gathered = rows[windows_ids]                      # (N, m, d)
        return gathered.reshape(windows_ids.shape[0], -1)

    def _reconstruct(self, params: ParamSet, x: Tensor) -> Tensor:
        h = relu(linear(x, params["enc.w1"], params["enc.b1"]))
        z = linear(h, params["enc.w2"], params["enc.b2"])
        h2 = relu(linear(z, params["dec.w1"], params["dec.b1"]))
        return linear(h2, params["dec.w2"], params["dec.b2"])

    # training ----------------------------------------------------------------

    def _training_examples(self, sequences, order_rng):
        """The windows to train on, each its own reconstruction target, and a
        normal slice of the windows held out for the threshold (windows of
        labeled-anomalous sequences never calibrate it)."""
        ids, _, owner, _ = self._examples(sequences, self.vocab_size_)
        perm = order_rng.permutation(ids.shape[0])
        normal = ~np.asarray([seq.is_anomalous for seq in sequences], dtype=bool)[owner]
        normal_order = perm[normal[perm]]
        if normal_order.size == 0:
            raise TrainingError("no normal window to hold out for the threshold")
        val_count = max(1, int(round(VALIDATION_FRACTION * ids.shape[0])))
        val_positions = np.sort(normal_order[:val_count])
        train = ids[perm[~np.isin(perm, val_positions)]]
        return train, train, ids[val_positions]

    def _loss(self, params: ParamSet, table, ids: np.ndarray, targets) -> Tensor:
        x = Tensor(self._window_features(ids, table.data))
        return mse(self._reconstruct(params, x), x)

    def _calibrate(self, table, held_out: np.ndarray) -> None:
        self.threshold_ = nearest_rank_quantile(self._score(table, held_out, None),
                                                self.config.threshold_quantile)

    # detection -----------------------------------------------------------------

    def _score(self, table, ids: np.ndarray, targets) -> np.ndarray:
        x = self._window_features(ids, table.data)
        with no_grad():
            recon = self._reconstruct(self.params_, Tensor(x)).data
        return ((recon - x) ** 2).mean(axis=1)

    def _blocks(self, owner: np.ndarray, n_sequences: int):
        # one scoring call per sequence: the error of a window depends in its
        # last bits on how many rows share the call
        return np.unique(np.searchsorted(owner, np.arange(n_sequences + 1)))
