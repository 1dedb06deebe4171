"""Layer primitives built on the autodiff tensor: parameter containers,
dense/LSTM/attention/convolution building blocks, and positional encodings."""

from __future__ import annotations

import logging
import math

import numpy as np

from ..exceptions import ConfigurationError, DimensionError
from ..rng import Rng
from .tensor import (
    PrefixTree,
    Tensor,
    concat,
    lstm_sequence,
    lstm_tree,
    matmul,
    narrow,
    relu,
    softmax,
    unfold_windows,
)

logger = logging.getLogger(__name__)


class ParamSet:
    """Named, ordered collection of parameter tensors.

    Parameters are drawn from a single xoshiro stream in creation order, so a
    fixed (seed, architecture) pair always reproduces bit-identical values.
    Weights are uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)]; biases start at
    zero. Constant entries (e.g. frozen semantic tables) carry no gradient but
    serialize with the rest.
    """

    def __init__(self, rng_seed: int):
        self._rng = Rng(int(rng_seed))
        self._params: dict[str, Tensor] = {}

    def uniform(self, name: str, shape: tuple, fan_in: int) -> Tensor:
        bound = 1.0 / math.sqrt(fan_in)
        t = Tensor(self._rng.uniform(-bound, bound, shape), requires_grad=True)
        return self._register(name, t)

    def zeros(self, name: str, shape: tuple) -> Tensor:
        t = Tensor(np.zeros(shape), requires_grad=True)
        return self._register(name, t)

    def constant(self, name: str, array: np.ndarray) -> Tensor:
        t = Tensor(np.array(array, dtype=np.float64))
        return self._register(name, t)

    def _register(self, name: str, t: Tensor) -> Tensor:
        if name in self._params:
            raise ConfigurationError(f"duplicate parameter name {name!r}")
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def trainable(self):
        return [(n, p) for n, p in self._params.items() if p.requires_grad]

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.grad = None

    def copy_values(self) -> dict[str, np.ndarray]:
        return {n: p.data.copy() for n, p in self._params.items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        """Replace the values of parameters of these names; the caller has
        checked that each is a parameter of this set and has its shape."""
        for name, arr in values.items():
            self._params[name].data = np.asarray(arr, dtype=np.float64)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    out = matmul(x, w)
    if b is not None:
        out = out + b
    return out


# ---------------------------------------------------------------------------
# LSTM


def lstm_params(ps: ParamSet, prefix: str, in_dim: int, units: int) -> None:
    ps.uniform(f"{prefix}.wx", (in_dim, 4 * units), fan_in=in_dim)
    ps.uniform(f"{prefix}.wh", (units, 4 * units), fan_in=units)
    ps.zeros(f"{prefix}.b", (4 * units,))


def run_lstm(xs: Tensor, ps: ParamSet, prefix: str, units: int,
             reverse: bool = False) -> Tensor:
    """Unroll one LSTM layer from a zero state over ``xs``, a (T, batch, dim)
    tensor, as one graph node.

    Gate order in the packed weight matrices is input, forget, output,
    candidate; the hidden states, returned as (T, batch, units), lie strictly
    inside (-1, 1). ``reverse`` runs the steps from last to first.
    """
    zeros = Tensor(np.zeros((xs.shape[1], units)))
    packed = lstm_sequence(xs, zeros, zeros, ps[f"{prefix}.wx"], ps[f"{prefix}.wh"],
                           ps[f"{prefix}.b"], reverse)
    return narrow(packed, -1, 0, units)


def run_lstm_tree(table: Tensor, ids: np.ndarray, ps: ParamSet, prefixes,
                  units: int, reverse: bool = False) -> tuple[PrefixTree, list]:
    """The hidden states ``run_lstm`` gives, layer after layer of
    ``prefixes``, over the rows of ``table`` that ``ids`` (batch, T) picks,
    computed once per distinct prefix of ``ids`` (with ``reverse``, once per
    distinct suffix). Forward only.

    Returns the tree and its last layer's per-node hidden states; with
    ``reverse``, tree step s is time step T - 1 - s. Every step keeps two
    rows or more. With an odd ``units`` every step keeps ``batch`` rows: the
    GEMMs of a ``4 * units``-column gate block then round a row differently
    at some row counts (README, "Determinism"). Logs, at DEBUG, the states
    computed against the rows x steps x layers a per-step run computes.
    """
    batch = ids.shape[0]
    tree = PrefixTree(ids[:, ::-1] if reverse else ids,
                      min_rows=batch if units % 2 else 2)
    xs = [table.data[tokens] for tokens in tree.tokens]
    for prefix in prefixes:
        xs = lstm_tree(xs, tree, ps[f"{prefix}.wx"], ps[f"{prefix}.wh"],
                       ps[f"{prefix}.b"])
    logger.debug("%d LSTM states computed for %d rows x steps x layers",
                 tree.states * len(prefixes), ids.size * len(prefixes))
    return tree, xs


# ---------------------------------------------------------------------------
# multi-head self-attention


def attention_params(ps: ParamSet, prefix: str, dim: int) -> None:
    for name in ("wq", "wk", "wv", "wo"):
        ps.uniform(f"{prefix}.{name}", (dim, dim), fan_in=dim)


def multihead_attention(x: Tensor, heads: int, wq: Tensor, wk: Tensor,
                        wv: Tensor, wo: Tensor) -> Tensor:
    """Scaled dot-product self-attention over positions.

    ``x`` is (batch, L, d); d must divide evenly into ``heads``. Per head the
    attention rows are a softmax over all positions, so each row sums to one;
    head outputs are concatenated and projected by ``wo``.
    """
    b, length, dim = x.shape
    if dim % heads != 0:
        raise ConfigurationError(f"model dim {dim} not divisible by {heads} heads")
    dk = dim // heads

    def split(t: Tensor) -> Tensor:
        return t.reshape(b, length, heads, dk).transpose((0, 2, 1, 3))

    q = split(matmul(x, wq))
    k = split(matmul(x, wk))
    v = split(matmul(x, wv))
    scores = matmul(q, k.transpose((0, 1, 3, 2))) * (1.0 / math.sqrt(dk))
    weights = softmax(scores, axis=-1)
    mixed = matmul(weights, v)
    merged = mixed.transpose((0, 2, 1, 3)).reshape(b, length, dim)
    return matmul(merged, wo)


def sinusoidal_encoding(length: int, dim: int) -> np.ndarray:
    """Standard sine/cosine position table, shape (length, dim)."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    i = np.arange(dim, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (2.0 * (i // 2)) / dim)
    table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return table


# ---------------------------------------------------------------------------
# convolution


def conv2d(image: Tensor, filters: list[Tensor]) -> list[Tensor]:
    """Valid cross-correlation of a 2-D image with each 2-D filter.

    Output map for an (h, w) image and (fh, fw) filter has shape
    (h - fh + 1, w - fw + 1).
    """
    if image.ndim != 2:
        raise DimensionError(f"conv2d expects a 2-D image, got {image.shape}")
    h, w = image.shape
    maps = []
    for filt in filters:
        if filt.ndim != 2:
            raise DimensionError(f"conv2d filter must be 2-D, got {filt.shape}")
        fh, fw = filt.shape
        if fh > h or fw > w:
            raise DimensionError(
                f"conv2d: filter {filt.shape} larger than image {image.shape}"
            )
        x = image.reshape(1, h, w)
        rows = []
        for j in range(w - fw + 1):
            strip = narrow(x, 2, j, fw)            # (1, h, fw)
            patches = unfold_windows(strip, fh)    # (1, h-fh+1, fh*fw)
            col = matmul(patches, filt.reshape(fh * fw, 1))  # (1, h-fh+1, 1)
            rows.append(col.reshape(h - fh + 1, 1))
        maps.append(concat(rows, axis=1))
    return maps


def conv_full_width(x: Tensor, weight: Tensor, bias: Tensor, height: int) -> Tensor:
    """Batched valid convolution with filters spanning the full feature width.

    ``x`` is (batch, L, d); ``weight`` is (height*d, n_filters). Returns
    feature maps (batch, L-height+1, n_filters) after a ReLU.
    """
    patches = unfold_windows(x, height)
    return relu(matmul(patches, weight) + bias)
