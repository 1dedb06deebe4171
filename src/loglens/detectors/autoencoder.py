"""Reconstruction-based detection: a dense autoencoder is trained to copy
normal windows; windows that reconstruct poorly are anomalous.

The decision threshold is the nearest-rank quantile of reconstruction errors
on a held-out slice of the (assumed normal) training windows.
"""

from __future__ import annotations

import math
import time
from itertools import pairwise

import numpy as np

from ..autodiff import ParamSet, Tensor, linear, mse, no_grad, relu
from ..exceptions import StateError, TrainingError
from ..ingest import EventVocabulary
from ..rng import derive_seed
from ..sequencing import EventSequence, Window
from .base import WINDOW, BaseDetector, Verdict

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


class AutoencoderDetector(BaseDetector):
    """Dense two-layer encoder/decoder over flattened window features.

    Index mode feeds one-hot rows per position, semantic mode the frozen
    template vectors; either way the bottleneck is ``hidden // 4`` wide and
    the loss is the mean squared reconstruction distance.
    """

    kind = "reconstruct"
    family = "autoencoder"
    hyperparameters = ("window_size", "step_size", "hidden", "epochs",
                       "batch_size", "lr", "threshold_quantile", "seed")

    # features ---------------------------------------------------------------

    def _feature_rows(self, vocab: EventVocabulary | None) -> tuple[np.ndarray, int]:
        """Per-event feature rows (one-hot or semantic vectors) and the id
        space to encode events against."""
        if self.is_semantic:
            table, clamp = self._input_table(vocab)
            return table.data, clamp
        return np.eye(self.vocab_size_ + 1), self.vocab_size_

    def _window_features(self, windows_ids: np.ndarray, rows: np.ndarray) -> np.ndarray:
        gathered = rows[windows_ids]                      # (N, m, d)
        return gathered.reshape(windows_ids.shape[0], -1)

    # training ----------------------------------------------------------------

    def fit(self, sequences: list[EventSequence], vocab: EventVocabulary):
        start = time.perf_counter()
        n = len(vocab)
        self.vocab_size_ = n
        ids, _, owner, _ = self._windows(sequences)
        if ids.shape[0] == 0:
            raise TrainingError("no training windows: every sequence is too short")
        ids = np.minimum(ids, n)

        params = ParamSet(derive_seed(self.seed, self.family))
        if self.encoder is not None:
            rows = self.encoder.table_for(vocab)
            params.constant("input_table", rows)
        else:
            rows = np.eye(n + 1)
        feature_dim = rows.shape[1] * self.window_size
        bottleneck = max(1, self.hidden // 4)
        # one-hot windows drive only window_size of the feature units, so the
        # first layer scales by the active count, not the nominal width
        active = self.window_size if self.encoder is None else feature_dim
        params.uniform("enc.w1", (feature_dim, self.hidden), fan_in=active)
        params.zeros("enc.b1", (self.hidden,))
        params.uniform("enc.w2", (self.hidden, bottleneck), fan_in=self.hidden)
        params.zeros("enc.b2", (bottleneck,))
        params.uniform("dec.w1", (bottleneck, self.hidden), fan_in=bottleneck)
        params.zeros("dec.b1", (self.hidden,))
        params.uniform("dec.w2", (self.hidden, feature_dim), fan_in=self.hidden)
        params.zeros("dec.b2", (feature_dim,))
        self.params_ = params

        # hold out a normal validation slice for threshold calibration;
        # windows from labeled-anomalous sequences never calibrate it
        order_rng = self._order_rng()
        perm = order_rng.permutation(ids.shape[0])
        normal = ~np.asarray([seq.is_anomalous for seq in sequences], dtype=bool)[owner]
        normal_order = perm[normal[perm]]
        if normal_order.size == 0:
            raise TrainingError("validation slice is empty: no normal windows")
        val_count = max(1, int(round(VALIDATION_FRACTION * ids.shape[0])))
        val_positions = np.sort(normal_order[:val_count])
        train_ids = ids[perm[~np.isin(perm, val_positions)]]

        features = self._window_features(train_ids, rows)

        def batch_loss(batch):
            x = Tensor(features[batch])
            return mse(self._reconstruct(params, x), x)

        self.epoch_losses_ = self._train(params, features.shape[0], batch_loss,
                                         order_rng)
        val_errors = self._errors_for_ids(ids[val_positions], rows)
        self.threshold_ = nearest_rank_quantile(val_errors, self.threshold_quantile)
        self.training_seconds_ = time.perf_counter() - start
        return self

    def _reconstruct(self, params: ParamSet, x: Tensor) -> Tensor:
        h = relu(linear(x, params["enc.w1"], params["enc.b1"]))
        z = linear(h, params["enc.w2"], params["enc.b2"])
        h2 = relu(linear(z, params["dec.w1"], params["dec.b1"]))
        return linear(h2, params["dec.w2"], params["dec.b2"])

    def _errors_for_ids(self, ids: np.ndarray, rows: np.ndarray) -> np.ndarray:
        if ids.shape[0] == 0:
            return np.empty(0)
        x = self._window_features(ids, rows)
        with no_grad():
            recon = self._reconstruct(self.params_, Tensor(x)).data
        return ((recon - x) ** 2).mean(axis=1)

    # detection -----------------------------------------------------------------

    def reconstruction_error(self, window: Window,
                             vocab: EventVocabulary | None = None) -> float:
        self._require_fitted()
        rows, clamp = self._feature_rows(vocab)
        ids = np.minimum(np.asarray([window.inputs], dtype=np.int64), clamp)
        return float(self._errors_for_ids(ids, rows)[0])

    def detect_window(self, window: Window,
                      vocab: EventVocabulary | None = None) -> Verdict:
        """Anomalous iff the reconstruction error strictly exceeds the
        calibrated threshold; the error itself is the score."""
        if getattr(self, "threshold_", None) is None:
            raise StateError("autoencoder threshold not set; fit the detector first")
        error = self.reconstruction_error(window, vocab)
        return Verdict(level=WINDOW, anomalous=error > self.threshold_,
                       score=error, position=window.position)

    def predict(self, sequences: list[EventSequence],
                vocab: EventVocabulary | None = None) -> list[Verdict]:
        if getattr(self, "threshold_", None) is None:
            raise StateError("autoencoder threshold not set; fit the detector first")
        rows, clamp = self._feature_rows(vocab)
        ids, _, owner, positions = self._windows(sequences)
        ids = np.minimum(ids, clamp)
        # one scoring call per sequence: the error of a window depends in its
        # last bits on how many rows share the call
        bounds = np.searchsorted(owner, np.arange(len(sequences) + 1))
        errors = np.empty(len(ids))
        for lo, hi in pairwise(bounds):
            errors[lo:hi] = self._errors_for_ids(ids[lo:hi], rows)
        return self._sequence_verdicts(len(sequences), owner, positions,
                                       errors > self.threshold_, errors)
