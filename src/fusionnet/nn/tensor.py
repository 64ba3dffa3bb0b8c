"""Reverse-mode tensor autodiff on numpy, sized for the three networks here.

Every operation records a backward closure on a tape; backward() replays the
tape in reverse topological order. Only the ops the networks need exist:
conv2d, relu, maxpool2d, dropout, fully_connected, concat, view_maxpool, and
softmax cross-entropy. Ops preserve the input dtype, so the same graph runs
in float32 for training and float64 for gradient checking.

All matrix products route through _matmul, which pads single-row operands to
two rows. BLAS dispatches M = 1 to a vector kernel whose accumulation order
differs from the M >= 2 path; padding keeps per-sample forward passes
bit-identical whether or not the sample shares a batch with others.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    """A numpy array plus an optional gradient and a tape entry."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor{tag}(shape={self.data.shape}, dtype={self.data.dtype})"


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.requires_grad or t._parents:
        t.grad = g if t.grad is None else t.grad + g


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad or p._parents for p in parents):
        out._parents = parents
        out._backward = backward
    return out


def backward(root: Tensor) -> None:
    """Populate .grad for every tensor the root depends on."""
    if root._backward is None and not root.requires_grad:
        raise ValueError("backward called on a tensor with no recorded forward pass")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and (p.requires_grad or p._parents):
                stack.append((p, False))
    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b with the M = 1 row padded so BLAS stays on the GEMM path."""
    if a.shape[0] == 1:
        return (np.concatenate([a, a], axis=0) @ b)[:1]
    return a @ b


def _conv_geometry(h: int, w: int, k: int, stride: int, padding: int) -> tuple[int, int]:
    for name, dim in (("height", h), ("width", w)):
        span = dim + 2 * padding - k
        if span < 0 or span % stride != 0:
            raise ValueError(
                f"conv2d output {name} is not a positive integer: "
                f"input {dim}, filter {k}, stride {stride}, padding {padding}")
    return (h + 2 * padding - k) // stride + 1, (w + 2 * padding - k) // stride + 1


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation over (N, C, H, W) with per-filter bias."""
    n, c, h, wd = x.shape
    f, cw, k, k2 = w.shape
    if k != k2:
        raise ValueError(f"conv2d filters must be square, got {k}x{k2}")
    if cw != c:
        raise ValueError(f"conv2d channel mismatch: input {c}, weights {cw}")
    if b.shape != (f,):
        raise ValueError(f"conv2d bias must have shape ({f},), got {b.shape}")
    ho, wo = _conv_geometry(h, wd, k, stride, padding)

    xp = x.data
    if padding:
        xp = np.pad(xp, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, c, k, k, ho, wo), dtype=x.dtype)
    for ki in range(k):
        for kj in range(k):
            cols[:, :, ki, kj] = xp[:, :, ki:ki + ho * stride:stride, kj:kj + wo * stride:stride]
    patches = cols.transpose(0, 4, 5, 1, 2, 3).reshape(n * ho * wo, c * k * k)
    wmat = w.data.reshape(f, c * k * k)
    out = _matmul(patches, wmat.T) + b.data
    out = out.reshape(n, ho, wo, f).transpose(0, 3, 1, 2)

    def back(g: np.ndarray) -> None:
        gmat = g.transpose(0, 2, 3, 1).reshape(n * ho * wo, f)
        if w.requires_grad or w._parents:
            _accumulate(w, _matmul(gmat.T, patches).reshape(w.shape))
        if b.requires_grad or b._parents:
            _accumulate(b, gmat.sum(axis=0))
        if x.requires_grad or x._parents:
            dcols = _matmul(gmat, wmat).reshape(n, ho, wo, c, k, k).transpose(0, 3, 4, 5, 1, 2)
            hp, wp = h + 2 * padding, wd + 2 * padding
            dxp = np.zeros((n, c, hp, wp), dtype=x.dtype)
            for ki in range(k):
                for kj in range(k):
                    dxp[:, :, ki:ki + ho * stride:stride, kj:kj + wo * stride:stride] += \
                        dcols[:, :, ki, kj]
            if padding:
                dxp = dxp[:, :, padding:hp - padding, padding:wp - padding]
            _accumulate(x, dxp)

    return _node(out, (x, w, b), back)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def back(g: np.ndarray) -> None:
        _accumulate(x, g * mask)

    return _node(x.data * mask, (x,), back)


def maxpool2d(x: Tensor, size: int = 2) -> Tensor:
    """Non-overlapping window maximum (filter = stride = size).

    Works on the size*size strided taps x[:, :, a::size, b::size] of the
    input, with no window copy. As with argmax, the first maximum in
    (row, col) order wins a tie: it gives the output its bits (the sign of a
    zero maximum) and receives the gradient. A NaN counts as the maximum, so
    a window holding NaN outputs its first NaN, which takes the gradient.
    """
    _, _, h, w = x.shape
    if h % size or w % size:
        raise ValueError(f"maxpool2d needs dimensions divisible by {size}, got {h}x{w}")
    offsets = [(a, b) for a in range(size) for b in range(size)]
    taps = [x.data[:, :, a::size, b::size] for a, b in offsets]
    out = taps[0].copy()
    for t in taps[1:]:
        np.maximum(out, t, out=out)
    # np.maximum keeps the first of two NaNs, as argmax does, but leaves the
    # sign of a tie between zeros open: copy in the first zero
    zero = out == 0
    if zero.any():
        for t in reversed(taps):
            np.copyto(out, t, where=zero & (t == 0))

    def back(g: np.ndarray) -> None:
        # g where hit, else +0.0, as an integer product of the float bits:
        # on mvnet's (8, 16, 64, 64) this is 2.5-3x faster than a masked
        # copyto or np.where into a strided slice
        bits = np.dtype(f"i{x.dtype.itemsize}")
        g_bits = g.astype(x.dtype, copy=False).view(bits)
        dx = np.empty_like(x.data)  # every element is written once below
        taken = np.zeros(out.shape, dtype=bool)
        has_nan = np.isnan(out).any()
        for (a, b), t in zip(offsets, taps):
            hit = t == out
            if has_nan:  # a NaN tap can only sit in a NaN window
                hit |= np.isnan(t)
            np.greater(hit, taken, out=hit)  # a maximum no earlier tap took
            taken |= hit
            np.multiply(g_bits, hit, out=dx[:, :, a::size, b::size].view(bits))
        _accumulate(x, dx)

    return _node(out, (x,), back)


def dropout(x: Tensor, mask: np.ndarray, rate: float) -> Tensor:
    """Inverted dropout with an explicit keep mask (True = keep)."""
    if not 0 <= rate < 1:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if mask.shape != x.shape:
        raise ValueError(f"dropout mask shape {mask.shape} != input shape {x.shape}")
    scale = x.dtype.type(1.0 / (1.0 - rate))
    keep = mask.astype(x.dtype) * scale

    def back(g: np.ndarray) -> None:
        _accumulate(x, g * keep)

    return _node(x.data * keep, (x,), back)


def make_dropout_mask(rng: np.random.Generator, shape: tuple[int, ...], rate: float) -> np.ndarray:
    return rng.random(shape) >= rate


def fully_connected(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map; inputs beyond the batch axis are flattened."""
    x2 = x.data.reshape(1, -1) if x.data.ndim == 1 else x.data.reshape(x.shape[0], -1)
    out_units, in_units = w.shape
    if x2.shape[1] != in_units:
        raise ValueError(f"fully_connected expects {in_units} inputs, got {x2.shape[1]}")
    if b.shape != (out_units,):
        raise ValueError(f"bias must have shape ({out_units},), got {b.shape}")
    out = _matmul(x2, w.data.T) + b.data

    def back(g: np.ndarray) -> None:
        if w.requires_grad or w._parents:
            _accumulate(w, _matmul(g.T, x2))
        if b.requires_grad or b._parents:
            _accumulate(b, g.sum(axis=0))
        if x.requires_grad or x._parents:
            _accumulate(x, _matmul(g, w.data).reshape(x.shape))

    return _node(out, (x, w, b), back)


def concat(parts: list[Tensor], axis: int = 1) -> Tensor:
    """Join along the channel axis; gradient splits back into the parts."""
    if not parts:
        raise ValueError("concat needs at least one input")
    ref = parts[0].shape
    for p in parts[1:]:
        if len(p.shape) != len(ref) or any(
                i != axis and a != b for i, (a, b) in enumerate(zip(p.shape, ref))):
            raise ValueError(f"concat shape mismatch: {p.shape} vs {ref}")
    widths = [p.shape[axis] for p in parts]
    out = np.concatenate([p.data for p in parts], axis=axis)

    def back(g: np.ndarray) -> None:
        offset = 0
        for p, wdt in zip(parts, widths):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offset, offset + wdt)
            _accumulate(p, g[tuple(sl)])
            offset += wdt

    return _node(out, tuple(parts), back)


def view_maxpool(x: Tensor) -> Tensor:
    """Per-neuron maximum over the view axis of a (V, D) tensor."""
    if x.data.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"view_maxpool expects a (V, D) tensor with V >= 1, got {x.shape}")
    idx = np.argmax(x.data, axis=0)  # lowest view index wins ties
    out = np.take_along_axis(x.data, idx[None, :], axis=0)[0]

    def back(g: np.ndarray) -> None:
        dx = np.zeros_like(x.data)
        np.put_along_axis(dx, idx[None, :], g[None, :], axis=0)
        _accumulate(x, dx)

    return _node(out, (x,), back)


def softmax_loss(scores: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of softmax(scores) against integer labels."""
    n, k = scores.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"label out of range [0, {k})")
    z = scores.data - scores.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    loss = -logp[np.arange(n), labels].mean()

    def back(g: np.ndarray) -> None:
        soft = np.exp(logp)
        soft[np.arange(n), labels] -= 1
        _accumulate(scores, soft * (g / n))

    return _node(np.asarray(loss, dtype=scores.dtype), (scores,), back)


def softmax_probs(scores: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis (plain numpy, no tape)."""
    z = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)
