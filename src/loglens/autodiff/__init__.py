from . import heap  # noqa: F401  (sets the allocator thresholds on import)
from .tensor import (
    Tensor,
    as_tensor,
    add,
    mul,
    mul_sum,
    matmul,
    tanh,
    sigmoid,
    lstm_sequence,
    PrefixTree,
    lstm_tree,
    relu,
    softmax,
    cross_entropy,
    mse,
    embedding_lookup,
    concat,
    narrow,
    unfold_windows,
    max_along,
    no_grad,
    grad_enabled,
)
from .nn import (
    ParamSet,
    linear,
    lstm_params,
    run_lstm,
    run_lstm_tree,
    attention_params,
    multihead_attention,
    sinusoidal_encoding,
    conv2d,
    conv_full_width,
)
from .optim import Adam
from .serialize import save_params, load_params
from .gradcheck import finite_difference_check

__all__ = [
    "Tensor", "as_tensor", "add", "mul", "mul_sum", "matmul", "tanh", "sigmoid",
    "lstm_sequence", "PrefixTree", "lstm_tree", "relu",
    "softmax", "cross_entropy", "mse", "embedding_lookup", "concat",
    "narrow", "unfold_windows", "max_along", "no_grad", "grad_enabled",
    "ParamSet", "linear", "lstm_params", "run_lstm", "run_lstm_tree",
    "attention_params", "multihead_attention", "sinusoidal_encoding",
    "conv2d", "conv_full_width",
    "Adam",
    "save_params", "load_params", "finite_difference_check",
]
