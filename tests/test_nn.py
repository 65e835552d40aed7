"""Layer-level checks: every backward pass is validated against central
finite differences before the full-model gradient check ever runs."""

import math

import numpy as np
import pytest
from scipy.special import erf

from defex import nn


def numeric_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        plus = f()
        flat[i] = orig - h
        minus = f()
        flat[i] = orig
        gflat[i] = (plus - minus) / (2 * h)
    return g


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return np.abs(a - b).max() / denom


def test_gelu_derivative():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(50,))
    out, cache = nn.gelu_forward(x)
    dout = rng.normal(size=out.shape)
    dx = nn.gelu_backward(dout, cache)
    num = numeric_grad(lambda: float((nn.gelu_forward(x)[0] * dout).sum()), x)
    assert rel_err(dx, num) < 1e-7


def test_gelu_equals_closed_forms_bit_for_bit():
    rng = np.random.default_rng(6)
    x = np.concatenate([
        rng.normal(scale=3.0, size=400),
        rng.uniform(-40.0, 40.0, size=200),
        [-1e3, -12.0, -10.5, -1e-300, -0.0, 0.0, 1e-300, 10.5, 12.0, 1e3],
    ]).reshape(2, 5, 61)
    dout = rng.normal(size=x.shape)
    out, cache = nn.gelu_forward(x)
    dx = nn.gelu_backward(dout, cache)
    expected_out = 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))
    cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    pdf = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
    expected_dx = dout * (cdf + x * pdf)
    assert out.tobytes() == expected_out.tobytes()
    assert dx.tobytes() == expected_dx.tobytes()


def test_linear_backward():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 5, 4))
    w = rng.normal(size=(4, 6))
    b = rng.normal(size=(6,))
    dout = rng.normal(size=(3, 5, 6))

    def loss():
        return float((nn.linear_forward(x, w, b)[0] * dout).sum())

    out, cache = nn.linear_forward(x, w, b)
    dx, dw, db = nn.linear_backward(dout, cache)
    assert rel_err(dx, numeric_grad(loss, x)) < 1e-7
    assert rel_err(dw, numeric_grad(loss, w)) < 1e-7
    assert rel_err(db, numeric_grad(loss, b)) < 1e-7


def test_layer_norm_backward():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 4, 8))
    gamma = rng.normal(size=(8,)) + 1.0
    beta = rng.normal(size=(8,))
    dout = rng.normal(size=x.shape)

    def loss():
        return float((nn.layer_norm_forward(x, gamma, beta)[0] * dout).sum())

    out, cache = nn.layer_norm_forward(x, gamma, beta)
    dx, dgamma, dbeta = nn.layer_norm_backward(dout, cache)
    assert rel_err(dx, numeric_grad(loss, x)) < 1e-6
    assert rel_err(dgamma, numeric_grad(loss, gamma)) < 1e-6
    assert rel_err(dbeta, numeric_grad(loss, beta)) < 1e-6


def _attention_setup(seed=3, b=2, l=5, d=8, heads=2):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(b, l, d)) * 0.5
    params = {}
    for name in ("wq", "wk", "wv", "wo"):
        params[f"attn.{name}"] = rng.normal(size=(d, d)) * 0.3
    for name in ("bq", "bk", "bv", "bo"):
        params[f"attn.{name}"] = rng.normal(size=(d,)) * 0.1
    mask = np.ones((b, l))
    mask[0, -2:] = 0.0  # padded tail
    dout = rng.normal(size=(b, l, d)) * mask[:, :, None]
    return x, params, mask, dout, heads


def test_attention_masks_pad_keys_exactly():
    x, params, mask, _, heads = _attention_setup()
    out, cache = nn.attention_forward(x, params, "attn", mask, heads)
    attn = cache[7]
    # real-query rows place exactly zero weight on padded keys
    assert np.all(attn[0, :, :, -2:] == 0.0)
    rows = attn.sum(axis=-1)
    np.testing.assert_allclose(rows, 1.0, atol=1e-12)


def test_attention_backward():
    x, params, mask, dout, heads = _attention_setup()

    def loss():
        return float((nn.attention_forward(x, params, "attn", mask, heads)[0] * dout).sum())

    out, cache = nn.attention_forward(x, params, "attn", mask, heads)
    dx_q, dx_kv, grads = nn.attention_backward(dout, cache, "attn")
    assert rel_err(dx_q + dx_kv, numeric_grad(loss, x)) < 1e-6
    for name in ("attn.wq", "attn.wk", "attn.wv", "attn.wo", "attn.bq", "attn.bo"):
        assert rel_err(grads[name], numeric_grad(loss, params[name])) < 1e-6, name

    # queries from a separate input: each input gets its own gradient
    rng = np.random.default_rng(13)
    queries = rng.normal(size=(x.shape[0], 3, x.shape[2])) * 0.5
    dout_q = rng.normal(size=queries.shape)

    def cross_loss():
        out, _ = nn.attention_forward(x, params, "attn", mask, heads, queries)
        return float((out * dout_q).sum())

    out, cache = nn.attention_forward(x, params, "attn", mask, heads, queries)
    assert out.shape == queries.shape
    dx_q, dx_kv, grads = nn.attention_backward(dout_q, cache, "attn")
    assert rel_err(dx_q, numeric_grad(cross_loss, queries)) < 1e-6
    assert rel_err(dx_kv, numeric_grad(cross_loss, x)) < 1e-6
    for name in ("attn.wq", "attn.wk", "attn.bq"):
        assert rel_err(grads[name], numeric_grad(cross_loss, params[name])) < 1e-6, name


def test_block_backward():
    rng = np.random.default_rng(4)
    b, l, d, h = 2, 4, 8, 12
    x = rng.normal(size=(b, l, d)) * 0.5
    params = {
        "b0.ln1.g": np.ones(d), "b0.ln1.b": np.zeros(d),
        "b0.ln2.g": np.ones(d), "b0.ln2.b": np.zeros(d),
        "b0.ffn.w1": rng.normal(size=(d, h)) * 0.3, "b0.ffn.b1": np.zeros(h),
        "b0.ffn.w2": rng.normal(size=(h, d)) * 0.3, "b0.ffn.b2": np.zeros(d),
    }
    for name in ("wq", "wk", "wv", "wo"):
        params[f"b0.attn.{name}"] = rng.normal(size=(d, d)) * 0.3
    for name in ("bq", "bk", "bv", "bo"):
        params[f"b0.attn.{name}"] = np.zeros(d)
    mask = np.ones((b, l))
    dout = rng.normal(size=(b, l, d))

    def loss():
        return float((nn.block_forward(x, params, "b0", mask, 2)[0] * dout).sum())

    out, cache = nn.block_forward(x, params, "b0", mask, 2)
    dx, grads = nn.block_backward(dout, cache, params, "b0")
    assert rel_err(dx, numeric_grad(loss, x)) < 1e-6
    for name in ("b0.ffn.w1", "b0.ffn.w2", "b0.ln1.g", "b0.attn.wq"):
        assert rel_err(grads[name], numeric_grad(loss, params[name])) < 1e-6, name


def _block_params(rng, d, h):
    params = {}
    for ln in ("ln1", "ln2"):
        params[f"b0.{ln}.g"] = 1.0 + 0.1 * rng.normal(size=d)
        params[f"b0.{ln}.b"] = 0.1 * rng.normal(size=d)
    params["b0.ffn.w1"] = rng.normal(size=(d, h)) * 0.3
    params["b0.ffn.b1"] = rng.normal(size=h) * 0.1
    params["b0.ffn.w2"] = rng.normal(size=(h, d)) * 0.3
    params["b0.ffn.b2"] = rng.normal(size=d) * 0.1
    for name in ("wq", "wk", "wv", "wo"):
        params[f"b0.attn.{name}"] = rng.normal(size=(d, d)) * 0.3
    for name in ("bq", "bk", "bv", "bo"):
        params[f"b0.attn.{name}"] = rng.normal(size=d) * 0.1
    return params


def test_block_forward_without_cache_equals_cached():
    rng = np.random.default_rng(9)
    b, l, d, h = 3, 6, 8, 16
    params = _block_params(rng, d, h)
    x = rng.normal(size=(b, l, d)) * 2.0
    mask = np.ones((b, l))
    mask[1, 4:] = 0.0
    mask[2, 1:] = 0.0
    cached, cache = nn.block_forward(x, params, "b0", mask, 2, keep_cache=True)
    uncached, none = nn.block_forward(x, params, "b0", mask, 2, keep_cache=False)
    assert cache is not None and none is None
    assert uncached.tobytes() == cached.tobytes()


def _padded_block(seed):
    rng = np.random.default_rng(seed)
    b, l, d, h = 3, 6, 8, 16
    params = _block_params(rng, d, h)
    x = rng.normal(size=(b, l, d))
    mask = np.ones((b, l))
    mask[1, 4:] = 0.0
    mask[2, 2:] = 0.0
    # distinct positions per row, not sorted, one of them padding
    positions = (np.arange(b)[:, None], np.array([[5, 0, 2], [1, 3, 4], [0, 1, 3]]))
    return rng, params, x, mask, positions


def test_block_forward_at_positions_equals_full_rows():
    _, params, x, mask, positions = _padded_block(10)
    full, _ = nn.block_forward(x, params, "b0", mask, 2)
    window = (slice(None), slice(1, 4))
    for index in (positions, window, (slice(None), slice(None))):
        for keep_cache in (True, False):
            out, _ = nn.block_forward(x, params, "b0", mask, 2, keep_cache, index)
            assert out.shape == full[index].shape
            np.testing.assert_allclose(out, full[index], rtol=0, atol=1e-12)


def test_block_backward_at_positions():
    rng, params, x, mask, positions = _padded_block(11)
    for index in (positions, (slice(None), slice(2, 5))):
        dout = rng.normal(size=x[index].shape)

        def loss():
            out, _ = nn.block_forward(x, params, "b0", mask, 2, positions=index)
            return float((out * dout).sum())

        _, cache = nn.block_forward(x, params, "b0", mask, 2, positions=index)
        dx, grads = nn.block_backward(dout, cache, params, "b0")
        assert dx.shape == x.shape
        assert rel_err(dx, numeric_grad(loss, x)) < 1e-6
        for name in ("b0.ffn.w1", "b0.ln1.g", "b0.ln2.b", "b0.attn.wq", "b0.attn.wk",
                     "b0.attn.bv"):
            assert rel_err(grads[name], numeric_grad(loss, params[name])) < 1e-6, name


def test_sinusoidal_positions():
    table = nn.sinusoidal_positions(16, 8)
    assert table.shape == (16, 8)
    assert np.all(np.abs(table) <= 1.0)
    np.testing.assert_array_equal(table, nn.sinusoidal_positions(16, 8))


def test_pad_batch():
    ids, mask = nn.pad_batch([[1, 2, 3], [4]], pad_id=0)
    np.testing.assert_array_equal(ids, [[1, 2, 3], [4, 0, 0]])
    np.testing.assert_array_equal(mask, [[1, 1, 1], [1, 0, 0]])


class TestAdam:
    def test_minimizes_quadratic(self):
        params = {"x": np.array([5.0, -3.0])}
        opt = nn.Adam(params, lr=0.1)
        for _ in range(300):
            opt.step({"x": 2.0 * params["x"]})
        assert np.all(np.abs(params["x"]) < 1e-3)

    def test_first_step_magnitude(self):
        params = {"x": np.array([1.0])}
        opt = nn.Adam(params, lr=0.01)
        opt.step({"x": np.array([42.0])})
        # bias-corrected first step is ~lr regardless of gradient scale
        np.testing.assert_allclose(abs(1.0 - params["x"][0]), 0.01, rtol=1e-6)

    def test_deterministic(self):
        runs = []
        for _ in range(2):
            params = {"x": np.array([1.0, 2.0])}
            opt = nn.Adam(params, lr=0.05)
            rng = np.random.default_rng(7)
            for _ in range(20):
                opt.step({"x": rng.normal(size=2)})
            runs.append(params["x"].copy())
        np.testing.assert_array_equal(runs[0], runs[1])
