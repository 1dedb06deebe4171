"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps a float64 ndarray plus an optional gradient buffer. An
operation is written in three steps: compute the value, define its
``backward(g)`` closure, and ``return _make(value, parents, backward)``;
``_make`` alone records the graph edge. ``Tensor.backward()`` walks the graph
in reverse topological order and accumulates gradients into the leaves that
were created with ``requires_grad=True``. The walk frees the graph as it
goes: once a node's backward has run, its gradient, edges and closure are
dropped, so a training step holds only what a backward still to run reads.

The operation set is deliberately small: exactly what the detector families
need (dense algebra, activations, a fused LSTM layer, softmax/cross-entropy/mse
losses, embedding lookup, window unfolding for convolutions, axis reductions,
a product summed along an axis). Forward passes on finite inputs stay finite;
all arithmetic is float64. Inside ``no_grad()`` no graph is recorded, which
scoring uses.
"""

from __future__ import annotations

import contextlib
import contextvars

import numpy as np

from ..exceptions import DimensionError

__all__ = [
    "Tensor",
    "as_tensor",
    "add",
    "mul",
    "mul_sum",
    "matmul",
    "tanh",
    "sigmoid",
    "lstm_sequence",
    "PrefixTree",
    "lstm_tree",
    "relu",
    "softmax",
    "cross_entropy",
    "mse",
    "embedding_lookup",
    "concat",
    "narrow",
    "unfold_windows",
    "max_along",
    "no_grad",
    "grad_enabled",
]


class Tensor:
    """An ndarray with an optional gradient and a backward graph edge.

    Tensors are immutable once constructed as far as the forward value is
    concerned; training code mutates ``data`` of leaf parameters in place only
    through the optimizers.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar
    def __add__(self, other):
        return add(self, as_tensor(other))

    def __radd__(self, other):
        return add(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, as_tensor(other))

    def __rmul__(self, other):
        return mul(as_tensor(other), self)

    def __neg__(self):
        return mul(self, as_tensor(-1.0))

    def __sub__(self, other):
        return add(self, -as_tensor(other))

    def __rsub__(self, other):
        return add(as_tensor(other), -self)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        def backward(g):
            _accumulate(self, g.reshape(self.data.shape))
        return _make(self.data.reshape(shape), (self,), backward)

    def transpose(self, axes) -> "Tensor":
        axes = tuple(axes)
        def backward(g):
            _accumulate(self, g.transpose(tuple(np.argsort(axes))))
        return _make(self.data.transpose(axes), (self,), backward)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _accumulate(self, np.broadcast_to(g, self.data.shape))
        return _make(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            count = int(np.prod([self.data.shape[a] for a in np.atleast_1d(axis)]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def backward(self) -> None:
        """Backpropagate from a size-1 tensor through the recorded graph.

        Leaves keep their ``grad``; every other node but ``self`` is left
        with no gradient and no graph."""
        if self.data.size != 1:
            raise DimensionError(
                f"backward() requires a scalar loss, got shape {self.shape}"
            )
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        while order:
            # popped, a node is freed once nothing later in the walk reads it
            node = order.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node._parents:
                # an interior node's backward has run: drop its gradient and
                # its edges, and with them the arrays its closure held
                node._parents = ()
                node._backward = None
                if node is not self:
                    node.grad = None


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


# ---------------------------------------------------------------------------
# graph plumbing

# a context variable, so per thread: ``no_grad`` in one of a caller's threads
# must not switch off the graph another thread is building
_grad_enabled = contextvars.ContextVar("grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    """Build no graph inside the block: results record no parents and keep
    no backward closure, so they hold no reference to their inputs. The
    switch applies to the calling thread only."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


def grad_enabled() -> bool:
    """Whether ops record a graph in the calling thread (not in ``no_grad``)."""
    return _grad_enabled.get()


def _make(data: np.ndarray, parents: tuple, backward) -> Tensor:
    """An op's result, and the one place a graph edge is recorded. An op
    computes its value, defines ``backward(g)`` to add each operand's share
    of the gradient ``g`` into it (``_accumulate``; an operand that requires
    none may be skipped), then returns ``_make(value, parents, backward)``.
    The result keeps the parents that require a gradient, and ``backward``,
    only when the graph is on and one of them does; otherwise the closure is
    dropped when the op returns."""
    out = Tensor(data)
    if not _grad_enabled.get():
        return out
    grad_parents = tuple(p for p in parents if p.requires_grad)
    if grad_parents:
        out.requires_grad = True
        out._parents = grad_parents
        out._backward = backward
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    g = _unbroadcast(g, t.data.shape)
    if t.grad is None:
        # a copy: ``g`` may be a view or be handed to another operand too
        shape = t.data.shape
        t.grad = np.array(g if g.shape == shape else np.broadcast_to(g, shape))
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _toposort(root: Tensor) -> list:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def _incompatible(op: str, a: Tensor, b: Tensor) -> DimensionError:
    return DimensionError(
        f"{op}: shapes {a.data.shape} and {b.data.shape} are incompatible")


# ---------------------------------------------------------------------------
# elementwise and linear algebra


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise _incompatible("add", a, b) from None
    def backward(g):
        _accumulate(a, g)
        _accumulate(b, g)
    return _make(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise _incompatible("mul", a, b) from None
    def backward(g):
        if a.requires_grad:
            _accumulate(a, g * b.data)
        if b.requires_grad:
            _accumulate(b, g * a.data)
    return _make(data, (a, b), backward)


def mul_sum(a: Tensor, b: Tensor, axis: int) -> Tensor:
    """``(a * b).sum(axis)`` as one node: the broadcast product is summed
    away at once and kept for no backward. Values and gradients are
    bit-identical to ``mul`` then ``sum``: the backward spreads ``g`` along
    ``axis`` and multiplies it by each operand just as that pair does."""
    a, b = as_tensor(a), as_tensor(b)
    try:
        product = a.data * b.data
    except ValueError:
        raise _incompatible("mul_sum", a, b) from None
    shape = product.shape
    def backward(g):
        g = np.broadcast_to(np.expand_dims(g, axis), shape)
        if a.requires_grad:
            _accumulate(a, g * b.data)
        if b.requires_grad:
            _accumulate(b, g * a.data)
    return _make(product.sum(axis=axis), (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: shapes {a.shape} and {b.shape} do not agree")
    def backward(g):
        if a.requires_grad:
            _accumulate(a, np.matmul(g, b.data.swapaxes(-1, -2)))
        if not b.requires_grad:
            return
        if a.ndim > 2 and b.ndim == 2:
            # one GEMM over the flattened leading rows, not a stack of
            # per-matrix products summed away by _unbroadcast
            k, n = b.shape
            _accumulate(b, a.data.reshape(-1, k).T @ g.reshape(-1, n))
        else:
            _accumulate(b, np.matmul(a.data.swapaxes(-1, -2), g))
    return _make(np.matmul(a.data, b.data), (a, b), backward)


def tanh(x: Tensor) -> Tensor:
    x = as_tensor(x)
    y = np.tanh(x.data)
    def backward(g):
        _accumulate(x, g * (1.0 - y * y))
    return _make(y, (x,), backward)


def _sigmoid(d: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function, evaluated without overflow for either sign.

    With ``e = exp(-|d|)`` it is ``1 / (1 + e)`` for ``d >= 0`` and
    ``e / (1 + e)`` below. As ``e <= 1``, ``maximum(e, d >= 0)`` is that
    numerator, so one division serves both signs and rounds exactly as the
    two-branch form does. ``out`` may be ``d`` itself.
    """
    e = np.exp(-np.abs(d))
    return np.divide(np.maximum(e, d >= 0), 1.0 + e, out=out)


def sigmoid(x: Tensor) -> Tensor:
    x = as_tensor(x)
    y = _sigmoid(x.data)
    def backward(g):
        _accumulate(x, g * y * (1.0 - y))
    return _make(y, (x,), backward)


def _lstm_step(x, h, c, wx, wh, b, a, h_out, c_out, tc_out):
    """One LSTM step over rows of arrays, written into ``a`` (the gates
    ``[i | f | o | g]``), ``c_out``, ``tc_out`` (``tanh(c_out)``) and
    ``h_out``; returns ``(h_out, c_out)``. The gate arithmetic of both LSTM
    ops, defined once: ``(x @ wx + h @ wh) + b``, then ``(f * c) + (i * g)``."""
    u, u3 = h_out.shape[1], 3 * h_out.shape[1]
    np.matmul(x, wx, out=a)
    a += np.matmul(h, wh)
    a += b
    _sigmoid(a[:, :u3], out=a[:, :u3])
    np.tanh(a[:, u3:], out=a[:, u3:])
    np.multiply(a[:, u:2 * u], c, out=c_out)
    c_out += a[:, :u] * a[:, u3:]
    np.tanh(c_out, out=tc_out)
    np.multiply(a[:, 2 * u:u3], tc_out, out=h_out)
    return h_out, c_out


def lstm_sequence(xs: Tensor, h0: Tensor, c0: Tensor, wx: Tensor, wh: Tensor,
                  b: Tensor, reverse: bool = False) -> Tensor:
    """An LSTM layer unrolled over T steps, as a single node.

    ``xs`` is the (T, batch, dim) input and ``(h0, c0)`` the (batch, units)
    state before the first step. Gates are ``x_t @ wx + h @ wh + b`` split
    into input, forget, output (sigmoid) and candidate (tanh);
    ``c_t = f * c + i * g`` and ``h_t = o * tanh(c_t)``.
    The result is (T, batch, 2 * units): each step's packed ``[h_t | c_t]``.
    With ``reverse`` the steps run from the last input to the first, and step
    t's state is still written at index t.

    The backward pass is analytic backpropagation through time. Every step
    makes the same GEMMs, of the same shapes, and the same float operations
    in the same order as the graph of elementary ops for that step would, so
    values and gradients are bit-identical to that graph's. It keeps each
    step's gates and state; ``tanh(c_t)`` it recomputes from the kept
    ``c_t``, the same ufunc on the same values, so to the same bits.
    """
    xs = as_tensor(xs)
    units = wh.shape[0]
    batch = h0.shape[0] if h0.ndim == 2 else -1
    state = (batch, units)
    if (xs.ndim != 3 or xs.shape[0] == 0 or xs.shape[1:] != (batch, wx.shape[0])
            or h0.shape != state or c0.shape != state
            or wx.shape[1:] != (4 * units,) or wh.shape[1:] != (4 * units,)):
        raise DimensionError(
            f"lstm_sequence: inputs{xs.shape}, h0{h0.shape} c0{c0.shape} vs "
            f"wx{wx.shape} wh{wh.shape}"
        )
    xd, n_steps = xs.data, xs.shape[0]
    u, u3 = units, 3 * units
    order = range(n_steps - 1, -1, -1) if reverse else range(n_steps)
    acts = np.empty((n_steps, batch, 4 * units))   # [i | f | o | g] per step
    packed = np.empty((n_steps, batch, 2 * units))
    tc = np.empty((batch, units))   # tanh(c_t), recomputed by the backward
    h, c = h0.data, c0.data
    for t in order:
        h, c = _lstm_step(xd[t], h, c, wx.data, wh.data, b.data, acts[t],
                          packed[t, :, :u], packed[t, :, u:], tc)
    def backward(grad):
        dg = np.empty((batch, 4 * units))
        dxs = np.empty(xs.shape) if xs.requires_grad else None
        carry_h = carry_c = None
        for t in reversed(order):
            first = t == order[0]
            if first:
                h_prev, c_prev = h0.data, c0.data
            else:
                prev = packed[t + 1 if reverse else t - 1]
                h_prev, c_prev = prev[:, :u], prev[:, u:]
            # the same ufunc on the same c_t as the forward: the same bits
            a, tc = acts[t], np.tanh(packed[t, :, u:])
            i, f, o, g = a[:, :u], a[:, u:2 * u], a[:, 2 * u:u3], a[:, u3:]
            gh, gc = grad[t, :, :u], grad[t, :, u:]
            if carry_h is not None:
                gh, gc = gh + carry_h, gc + carry_c
            gc = gc + gh * o * (1.0 - tc * tc)
            np.multiply(gc, g, out=dg[:, :u])
            np.multiply(gc, c_prev, out=dg[:, u:2 * u])
            np.multiply(gh, tc, out=dg[:, 2 * u:u3])
            dg[:, :u3] *= a[:, :u3]
            dg[:, :u3] *= 1.0 - a[:, :u3]
            np.multiply(gc, i, out=dg[:, u3:])
            dg[:, u3:] *= 1.0 - g * g
            if dxs is not None:
                np.matmul(dg, wx.data.T, out=dxs[t])
            if wx.requires_grad:
                _accumulate(wx, np.matmul(xd[t].T, dg))
            if not first:
                carry_h = np.matmul(dg, wh.data.T)
            elif h0.requires_grad:
                _accumulate(h0, np.matmul(dg, wh.data.T))
            if wh.requires_grad:
                _accumulate(wh, np.matmul(h_prev.T, dg))
            if b.requires_grad:
                _accumulate(b, dg)
            if not first:
                carry_c = gc * f
            elif c0.requires_grad:
                _accumulate(c0, gc * f)
        if dxs is not None:
            _accumulate(xs, dxs)
    return _make(packed, (xs, h0, c0, wx, wh, b), backward)


class PrefixTree:
    """The distinct prefixes of the rows of a (batch, T) id matrix.

    Step t's nodes are the distinct prefixes ``ids[:, :t + 1]``. Node j of
    step t extends node ``parents[t][j]`` of step t - 1 by the id
    ``tokens[t][j]``, and row r's prefix is node ``inverse[t][r]``. Once
    every row has a prefix of its own, nodes follow row order: a step's
    ``inverse`` is then None (the identity), and so is ``parents`` from the
    step after on.

    A step with fewer than ``min_rows`` nodes (at most ``batch``) repeats
    its last node up to that many, so that each GEMM over the nodes has at
    least as many rows: numpy computes a one-row product as a GEMV, which
    rounds differently from the GEMM of two or more rows.
    """

    def __init__(self, ids, min_rows: int = 2):
        ids = np.asarray(ids, dtype=np.int64)
        batch, steps = ids.shape
        min_rows = min(min_rows, batch)
        width = int(ids.max()) + 1 if ids.size else 1
        self.parents, self.tokens, self.inverse = [], [], []
        node = np.zeros(batch, dtype=np.int64)   # each row's node at t - 1
        distinct = False
        for t in range(steps):
            if distinct:
                parent, token, inverse = None, ids[:, t], None
            else:
                keys, inverse = np.unique(node * width + ids[:, t],
                                          return_inverse=True)
                if len(keys) == batch:
                    parent, token, inverse, distinct = node, ids[:, t], None, True
                else:
                    keys = np.pad(keys, (0, max(0, min_rows - len(keys))), "edge")
                    parent, token = keys // width, keys % width
                    node = inverse
            self.parents.append(parent)
            self.tokens.append(token)
            self.inverse.append(inverse)
        self.states = sum(len(token) for token in self.tokens)

    def rows(self, node_values: list, t: int) -> np.ndarray:
        """Step t's per-node values (nodes, ...) spread over the rows."""
        inverse = self.inverse[t]
        return node_values[t] if inverse is None else node_values[t][inverse]


def lstm_tree(xs, tree: PrefixTree, wx: Tensor, wh: Tensor, b: Tensor) -> list:
    """An LSTM layer over the nodes of ``tree``, forward only: no graph.

    ``xs[t]`` is the (nodes, dim) input of step t's nodes. A node's state is
    its parent's state (zero at the first step) advanced by its input,
    through the same ``_lstm_step`` as ``lstm_sequence``, so it is the state
    ``lstm_sequence`` gives each row whose prefix the node is, bit for bit
    wherever BLAS rounds a GEMM row alike at both row counts. Returns each
    step's (nodes, units) hidden states.
    """
    units = wh.shape[0]
    if not xs or len(xs) != len(tree.tokens) or any(
            x.shape != (len(token), wx.shape[0]) for x, token in zip(xs, tree.tokens)):
        raise DimensionError(f"lstm_tree: inputs {[x.shape for x in xs]} do not "
                             f"match a {len(tree.tokens)}-step tree and wx{wx.shape}")
    hs = []
    h = c = np.zeros((len(tree.tokens[0]), units))
    for t, (x, parent) in enumerate(zip(xs, tree.parents)):
        if t and parent is not None:
            h, c = h[parent], c[parent]
        n = len(x)
        h, c = _lstm_step(x, h, c, wx.data, wh.data, b.data, np.empty((n, 4 * units)),
                          np.empty((n, units)), np.empty((n, units)),
                          np.empty((n, units)))
        hs.append(h)
    return hs


def relu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    def backward(g):
        _accumulate(x, g * (x.data > 0.0))
    return _make(np.maximum(x.data, 0.0), (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    def backward(g):
        inner = (g * s).sum(axis=axis, keepdims=True)
        _accumulate(x, s * (g - inner))
    return _make(s, (x,), backward)


# ---------------------------------------------------------------------------
# losses


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean negative log-softmax probability of the target class.

    ``logits`` is (batch, classes); ``targets`` an integer array of class
    indices, each in [0, classes).
    """
    logits = as_tensor(logits)
    if logits.ndim != 2:
        raise DimensionError(f"cross_entropy expects 2-D logits, got {logits.shape}")
    t = np.asarray(targets, dtype=np.int64)
    n, c = logits.shape
    if t.shape != (n,):
        raise DimensionError(f"cross_entropy: {t.shape} targets for {n} rows")
    if t.size and (t.min() < 0 or t.max() >= c):
        raise IndexError(f"cross_entropy target out of range [0, {c})")
    d = logits.data
    m = d.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(d - m).sum(axis=1))
    losses = lse - d[np.arange(n), t]
    def backward(g):
        e = np.exp(d - m)
        p = e / e.sum(axis=1, keepdims=True)
        p[np.arange(n), t] -= 1.0
        _accumulate(logits, g * p / n)
    return _make(np.asarray(losses.mean()), (logits,), backward)


def mse(x: Tensor, y: Tensor) -> Tensor:
    """Mean squared difference; zero iff the operands are equal."""
    x, y = as_tensor(x), as_tensor(y)
    if x.shape != y.shape:
        raise DimensionError(f"mse: shapes {x.shape} and {y.shape} differ")
    diff = x.data - y.data
    def backward(g):
        scale = 2.0 / diff.size
        if x.requires_grad:
            _accumulate(x, g * scale * diff)
        if y.requires_grad:
            _accumulate(y, -g * scale * diff)
    return _make(np.asarray((diff * diff).mean()), (x, y), backward)


# ---------------------------------------------------------------------------
# gathers, joins, windows, reductions


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of ``table`` (V, d) by integer ``ids``.

    Gradients scatter-add back into the gathered rows, so repeated ids
    accumulate.
    """
    table = as_tensor(table)
    idx = np.asarray(ids, dtype=np.int64)
    v = table.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= v):
        raise IndexError(f"embedding id out of range [0, {v})")
    def backward(g):
        full = np.zeros_like(table.data)
        np.add.at(full, idx.reshape(-1), g.reshape(-1, table.data.shape[1]))
        _accumulate(table, full)
    return _make(table.data[idx], (table,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    def backward(g):
        start = 0
        for t in tensors:
            size = t.data.shape[axis]
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, start + size)
            _accumulate(t, g[tuple(sl)])
            start += size
    return _make(np.concatenate([t.data for t in tensors], axis), tuple(tensors), backward)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along ``axis``."""
    x = as_tensor(x)
    sl = [slice(None)] * x.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    def backward(g):
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        x.grad[sl] += g
    return _make(x.data[sl], (x,), backward)


def unfold_windows(x: Tensor, height: int) -> Tensor:
    """Slide a full-width window of ``height`` rows over axis 1.

    (B, L, D) -> (B, L - height + 1, height * D); the flattened patches feed
    full-width convolution filters as a single matmul.
    """
    x = as_tensor(x)
    b, length, d = x.shape
    if height > length:
        raise DimensionError(f"unfold: window height {height} exceeds length {length}")
    n = length - height + 1
    patches = np.stack([x.data[:, i:i + height, :] for i in range(n)], axis=1)
    def backward(g):
        g = g.reshape(b, n, height, d)
        full = np.zeros_like(x.data)
        for i in range(n):
            full[:, i:i + height, :] += g[:, i]
        _accumulate(x, full)
    return _make(patches.reshape(b, n, height * d), (x,), backward)


def max_along(x: Tensor, axis: int) -> Tensor:
    """Max-reduce along ``axis``; the gradient flows to the first argmax."""
    x = as_tensor(x)
    idx = np.expand_dims(np.argmax(x.data, axis=axis), axis)
    def backward(g):
        full = np.zeros_like(x.data)
        np.put_along_axis(full, idx, np.expand_dims(g, axis), axis=axis)
        _accumulate(x, full)
    return _make(np.take_along_axis(x.data, idx, axis=axis).squeeze(axis), (x,), backward)
