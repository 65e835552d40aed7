"""Numpy building blocks for the token encoders: layers with explicit
forward/backward passes, sinusoidal positions, padding helpers, and Adam.

Everything runs in float64.  Each ``*_forward`` returns ``(output, cache)``
and the matching ``*_backward`` consumes the upstream gradient plus the
cache.  Parameter gradients come back in flat dicts keyed like the
parameter dicts, so optimizers and checkpoints can treat models as plain
name -> array tables.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.special import erf

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_MASK_BIAS = -1e30


# ---------------------------------------------------------------------------
# elementwise / dense primitives
# ---------------------------------------------------------------------------


def gelu_forward(x):
    # the backward reuses 1 + erf(x / sqrt 2), so erf runs once per layer
    phi = 1.0 + erf(x / _SQRT2)
    return 0.5 * x * phi, (x, phi)


def gelu_backward(dout, cache):
    x, phi = cache
    cdf = 0.5 * phi
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
    return dout * (cdf + x * pdf)


def linear_forward(x, w, b):
    return x @ w + b, (x, w)


def linear_backward(dout, cache):
    x, w = cache
    x2 = x.reshape(-1, x.shape[-1])
    d2 = dout.reshape(-1, dout.shape[-1])
    dw = x2.T @ d2
    db = d2.sum(axis=0)
    dx = dout @ w.T
    return dx, dw, db


def layer_norm_forward(x, gamma, beta, eps=1e-5):
    # sum / width, not .mean: the same reduction and division, without
    # numpy's Python-level _mean wrapper
    width = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) / width
    xc = x - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / width
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = gamma * xhat + beta
    return out, (xhat, inv, gamma)


def layer_norm_backward(dout, cache):
    xhat, inv, gamma = cache
    dxhat = dout * gamma
    width = dout.shape[-1]
    m1 = dxhat.sum(axis=-1, keepdims=True) / width
    m2 = (dxhat * xhat).sum(axis=-1, keepdims=True) / width
    dx = inv * (dxhat - m1 - xhat * m2)
    axes = tuple(range(dout.ndim - 1))
    dgamma = (dout * xhat).sum(axis=axes)
    dbeta = dout.sum(axis=axes)
    return dx, dgamma, dbeta


def softmax_last(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# attention and transformer blocks
# ---------------------------------------------------------------------------


def _split_heads(x, n_heads):
    b, l, d = x.shape
    return x.reshape(b, l, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, l, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, l, h * dh)


def attention_forward(x, params, prefix, mask, n_heads, queries=None):
    """Masked multi-head attention over the keys and values of ``x`` (B, L,
    dim).  ``mask`` is (B, L) with 1 for real tokens; padded key columns
    receive a large negative bias so their post-softmax weight underflows to
    exactly zero.  Queries come from ``queries`` (B, Lq, dim) when given,
    else from ``x`` (self-attention); the output is (B, Lq, dim)."""
    q_full, q_cache = linear_forward(x if queries is None else queries,
                                     params[f"{prefix}.wq"], params[f"{prefix}.bq"])
    k_full, k_cache = linear_forward(x, params[f"{prefix}.wk"], params[f"{prefix}.bk"])
    v_full, v_cache = linear_forward(x, params[f"{prefix}.wv"], params[f"{prefix}.bv"])
    q = _split_heads(q_full, n_heads)
    k = _split_heads(k_full, n_heads)
    v = _split_heads(v_full, n_heads)
    scale = 1.0 / math.sqrt(q.shape[-1])
    scores = (q @ k.transpose(0, 1, 3, 2)) * scale
    scores = scores + (mask[:, None, None, :] - 1.0) * (-_MASK_BIAS)
    attn = softmax_last(scores)
    ctx = attn @ v
    merged = _merge_heads(ctx)
    out, o_cache = linear_forward(merged, params[f"{prefix}.wo"], params[f"{prefix}.bo"])
    cache = (q_cache, k_cache, v_cache, o_cache, q, k, v, attn, scale, n_heads)
    return out, cache


def attention_backward(dout, cache, prefix):
    """Returns the gradient of the query-side input, that of the key/value
    input (for self-attention the input's gradient is their sum), and the
    parameter gradients."""
    q_cache, k_cache, v_cache, o_cache, q, k, v, attn, scale, n_heads = cache
    grads = {}
    dmerged, grads[f"{prefix}.wo"], grads[f"{prefix}.bo"] = linear_backward(dout, o_cache)
    dctx = _split_heads(dmerged, n_heads)
    dattn = dctx @ v.transpose(0, 1, 3, 2)
    dv = attn.transpose(0, 1, 3, 2) @ dctx
    # softmax jacobian along the key axis
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dq = (dscores @ k) * scale
    dk = (dscores.transpose(0, 1, 3, 2) @ q) * scale
    dx_q, grads[f"{prefix}.wq"], grads[f"{prefix}.bq"] = linear_backward(_merge_heads(dq), q_cache)
    dx_k, grads[f"{prefix}.wk"], grads[f"{prefix}.bk"] = linear_backward(_merge_heads(dk), k_cache)
    dx_v, grads[f"{prefix}.wv"], grads[f"{prefix}.bv"] = linear_backward(_merge_heads(dv), v_cache)
    return dx_q, dx_k + dx_v, grads


def block_forward(x, params, prefix, mask, n_heads, keep_cache=True, positions=None):
    """Pre-norm transformer block: attention and feed-forward sublayers, each
    wrapped as ``x + f(layer_norm(x))``.  Without ``keep_cache`` the cache
    is None, the attention sublayer's activations are released before the
    feed-forward sublayer runs, and the first feed-forward linear's
    activations before the second runs.

    ``positions`` indexes the positions whose output is wanted, such that
    ``x[positions]`` is (B, Lq, dim) and holds no position of a row twice:
    ``(rows[:, None], p)`` for per-row positions ``p`` (B, Lq), or
    ``(slice(None), window)`` for one slice of every row.  Only those
    positions are queries and run the feed-forward sublayer; keys and values
    still span every position.  The output is (B, Lq, dim), equal to
    ``full_output[positions]``.  ``None`` computes every position."""
    normed1, ln1_cache = layer_norm_forward(x, params[f"{prefix}.ln1.g"], params[f"{prefix}.ln1.b"])
    if positions is None:
        x_q, normed_q = x, None
    else:
        x_q, normed_q = x[positions], normed1[positions]
    attn_out, attn_cache = attention_forward(normed1, params, f"{prefix}.attn", mask, n_heads,
                                             normed_q)
    h = x_q + attn_out
    if not keep_cache:
        normed1 = normed_q = ln1_cache = attn_out = attn_cache = None
    normed2, ln2_cache = layer_norm_forward(h, params[f"{prefix}.ln2.g"], params[f"{prefix}.ln2.b"])
    f1, f1_cache = linear_forward(normed2, params[f"{prefix}.ffn.w1"], params[f"{prefix}.ffn.b1"])
    a1, gelu_cache = gelu_forward(f1)
    if not keep_cache:
        normed2 = ln2_cache = f1 = f1_cache = gelu_cache = None
    f2, f2_cache = linear_forward(a1, params[f"{prefix}.ffn.w2"], params[f"{prefix}.ffn.b2"])
    out = h + f2
    if not keep_cache:
        return out, None
    return out, (ln1_cache, attn_cache, ln2_cache, f1_cache, gelu_cache, f2_cache, positions)


def block_backward(dout, cache, params, prefix):
    """``dout`` is (B, Lq, dim) like the forward's output; the input gradient
    is (B, L, dim), the query-side gradients scattered back to their
    positions."""
    ln1_cache, attn_cache, ln2_cache, f1_cache, gelu_cache, f2_cache, positions = cache
    grads = {}
    da1, grads[f"{prefix}.ffn.w2"], grads[f"{prefix}.ffn.b2"] = linear_backward(dout, f2_cache)
    df1 = gelu_backward(da1, gelu_cache)
    dnormed2, grads[f"{prefix}.ffn.w1"], grads[f"{prefix}.ffn.b1"] = linear_backward(df1, f1_cache)
    dh, dg2, db2 = layer_norm_backward(dnormed2, ln2_cache)
    grads[f"{prefix}.ln2.g"] = dg2
    grads[f"{prefix}.ln2.b"] = db2
    dh = dh + dout  # residual
    dnormed_q, dnormed1, attn_grads = attention_backward(dh, attn_cache, f"{prefix}.attn")
    grads.update(attn_grads)
    queries = slice(None) if positions is None else positions
    dnormed1[queries] += dnormed_q
    dx, dg1, db1 = layer_norm_backward(dnormed1, ln1_cache)
    grads[f"{prefix}.ln1.g"] = dg1
    grads[f"{prefix}.ln1.b"] = db1
    dx[queries] += dh  # residual
    return dx, grads


# ---------------------------------------------------------------------------
# positions, padding
# ---------------------------------------------------------------------------


def sinusoidal_positions(max_len: int, dim: int) -> np.ndarray:
    positions = np.arange(max_len, dtype=np.float64)[:, None]
    exponents = np.arange(0, dim, 2, dtype=np.float64) / dim
    rates = 1.0 / np.power(10000.0, exponents)
    table = np.zeros((max_len, dim), dtype=np.float64)
    table[:, 0::2] = np.sin(positions * rates)
    table[:, 1::2] = np.cos(positions * rates)
    return table


def pad_batch(sequences: Sequence[Sequence[int]], pad_id: int = 0):
    """Right-pad integer id sequences to a (B, L) array plus a float mask."""
    max_len = max(len(s) for s in sequences)
    ids = np.full((len(sequences), max_len), pad_id, dtype=np.int64)
    mask = np.zeros((len(sequences), max_len), dtype=np.float64)
    for i, seq in enumerate(sequences):
        ids[i, : len(seq)] = seq
        mask[i, : len(seq)] = 1.0
    return ids, mask


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class Adam:
    """Adaptive-moment optimizer over a flat name -> array parameter table.

    Updates are applied in place; state is keyed by parameter name so the
    same instance keeps running across epochs.
    """

    def __init__(self, params: dict[str, np.ndarray], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.99, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for name, g in grads.items():
            p = self.params[name]
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)
