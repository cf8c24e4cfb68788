import math

import numpy as np
import pytest

from idt import ndtensor as nd
from idt.ndtensor import Tape, Tensor, grad


def numeric_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar-valued f at x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def tape_grad(build, x: np.ndarray) -> np.ndarray:
    """Reverse-mode gradient of scalar build(Tensor) at x."""
    t = Tensor(x)
    with Tape() as tape:
        tape.watch(t)
        out = build(t)
    (g,) = grad(tape, out, [t])
    return g.data


def check_grad(build, f, x, tol=1e-4):
    x = np.asarray(x, dtype=np.float64)
    g_ad = tape_grad(build, x.copy())
    g_fd = numeric_grad(f, x.copy())
    denom = np.maximum(np.abs(g_fd), 1e-8)
    rel = np.abs(g_ad - g_fd) / denom
    assert rel.max() < tol, f"max rel err {rel.max():.3e}"


class TestTensorBasics:
    def test_immutable(self):
        t = Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.data[0] = 5.0

    def test_float64(self):
        t = Tensor(np.array([1, 2], dtype=np.int32))
        assert t.data.dtype == np.float64

    def test_constructor_copies(self):
        a = np.array([1.0, 2.0])
        t = Tensor(a)
        a[0] = 99.0
        assert t.data[0] == 1.0

    def test_values_off_tape(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 4.0])
        c = a * b + a
        np.testing.assert_allclose(c.data, [4.0, 10.0])


class TestGradBasics:
    def test_sum_of_squares(self):
        # f(x) = sum(x*x), grad = 2x
        x = Tensor([1.0, 2.0])
        with Tape() as tape:
            tape.watch(x)
            y = (x * x).sum()
        (g,) = grad(tape, y, [x])
        np.testing.assert_allclose(g.data, [2.0, 4.0], rtol=0, atol=0)

    def test_scalar_output_required(self):
        x = Tensor([1.0, 2.0])
        with Tape() as tape:
            tape.watch(x)
            y = x * x
        with pytest.raises(ValueError):
            grad(tape, y, [x])

    def test_unwatched_input_rejected(self):
        x = Tensor([1.0, 2.0])
        z = Tensor([1.0])
        with Tape() as tape:
            tape.watch(x)
            y = (x * x).sum()
        with pytest.raises(ValueError):
            grad(tape, y, [z])

    def test_unused_input_gets_zeros(self):
        x = Tensor([1.0, 2.0])
        z = Tensor([3.0, 4.0, 5.0])
        with Tape() as tape:
            tape.watch(x, z)
            y = (x * x).sum()
        gx, gz = grad(tape, y, [x, z])
        np.testing.assert_allclose(gx.data, [2.0, 4.0])
        np.testing.assert_allclose(gz.data, np.zeros(3))

    def test_reused_tensor_accumulates(self):
        # y = sum(x*x + x) uses x twice on separate paths
        x = Tensor([1.0, 3.0])
        with Tape() as tape:
            tape.watch(x)
            y = (x * x + x).sum()
        (g,) = grad(tape, y, [x])
        np.testing.assert_allclose(g.data, [3.0, 7.0])

    def test_nested_tapes(self):
        x = Tensor([2.0])
        with Tape() as outer:
            outer.watch(x)
            a = x * x
            with Tape() as inner:
                inner.watch(x)
                b = x * 3.0
                bs = b.sum()
            (gi,) = grad(inner, bs, [x])
            c = (a + b).sum()
        (go,) = grad(outer, c, [x])
        np.testing.assert_allclose(gi.data, [3.0])
        # outer tape saw both paths, including ops run while inner was open
        np.testing.assert_allclose(go.data, [7.0])

    def test_determinism(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 5))

        def build(t):
            return (nd.tanh(t @ t.T) * t[0:4, 0:4]).mean()

        g1 = tape_grad(build, x.copy())
        g2 = tape_grad(build, x.copy())
        assert np.array_equal(g1, g2)


class TestOpGradients:
    """Every differentiable op against central finite differences."""

    def setup_method(self):
        self.rng = np.random.default_rng(42)

    def test_add_broadcast(self):
        x = self.rng.standard_normal((3, 4))
        c = self.rng.standard_normal((4,))
        check_grad(lambda t: (t + Tensor(c)).sum(),
                   lambda a: (a + c).sum(), x)

    def test_sub(self):
        x = self.rng.standard_normal((3, 4))
        c = self.rng.standard_normal((3, 4))
        check_grad(lambda t: (Tensor(c) - t).sum(),
                   lambda a: (c - a).sum(), x)

    def test_mul_broadcast(self):
        x = self.rng.standard_normal((2, 3))
        c = self.rng.standard_normal((2, 1))
        check_grad(lambda t: (t * Tensor(c)).sum(),
                   lambda a: (a * c).sum(), x)

    def test_div(self):
        x = self.rng.standard_normal((3, 3)) + 3.0
        c = self.rng.standard_normal((3, 3))
        check_grad(lambda t: (Tensor(c) / t).sum(),
                   lambda a: (c / a).sum(), x)

    def test_exp(self):
        x = self.rng.standard_normal(6)
        check_grad(lambda t: nd.texp(t).sum(), lambda a: np.exp(a).sum(), x)

    def test_log(self):
        x = self.rng.random(6) + 0.5
        check_grad(lambda t: nd.tlog(t).sum(), lambda a: np.log(a).sum(), x)

    def test_sqrt(self):
        x = self.rng.random(6) + 0.5
        check_grad(lambda t: nd.tsqrt(t).sum(), lambda a: np.sqrt(a).sum(), x)

    def test_abs(self):
        # keep away from the kink at 0
        x = self.rng.standard_normal(8)
        x[np.abs(x) < 0.1] = 0.5
        check_grad(lambda t: nd.tabs(t).sum(), lambda a: np.abs(a).sum(), x)

    def test_tanh(self):
        x = self.rng.standard_normal(6)
        check_grad(lambda t: nd.tanh(t).sum(), lambda a: np.tanh(a).sum(), x)

    def test_sigmoid(self):
        x = self.rng.standard_normal(6) * 3
        check_grad(lambda t: nd.sigmoid(t).sum(),
                   lambda a: (1 / (1 + np.exp(-a))).sum(), x)

    def test_softplus(self):
        x = self.rng.standard_normal(6) * 3
        check_grad(lambda t: nd.softplus(t).sum(),
                   lambda a: np.logaddexp(0, a).sum(), x)

    def test_sum_axis(self):
        x = self.rng.standard_normal((3, 4, 2))
        check_grad(lambda t: (t.sum(axis=1) ** 2 if False else
                              (t.sum(axis=1) * t.sum(axis=1)).sum()),
                   lambda a: (a.sum(axis=1) ** 2).sum(), x)

    def test_sum_keepdims(self):
        x = self.rng.standard_normal((3, 4))
        check_grad(lambda t: (t * t.sum(axis=-1, keepdims=True)).sum(),
                   lambda a: (a * a.sum(axis=-1, keepdims=True)).sum(), x)

    def test_mean(self):
        x = self.rng.standard_normal((4, 5))
        check_grad(lambda t: (t.mean(axis=0) * t.mean(axis=0)).sum(),
                   lambda a: (a.mean(axis=0) ** 2).sum(), x)

    def test_reshape(self):
        x = self.rng.standard_normal((3, 4))
        check_grad(lambda t: (t.reshape(2, 6) * t.reshape(2, 6)).sum(),
                   lambda a: (a.reshape(2, 6) ** 2).sum(), x)

    def test_transpose(self):
        x = self.rng.standard_normal((2, 3, 4))
        check_grad(lambda t: (t.transpose((2, 0, 1)) *
                              t.transpose((2, 0, 1))).sum(),
                   lambda a: (a.transpose(2, 0, 1) ** 2).sum(), x)

    def test_getitem(self):
        x = self.rng.standard_normal((4, 5))
        check_grad(lambda t: (t[1:3, ::2] * t[1:3, ::2]).sum(),
                   lambda a: (a[1:3, ::2] ** 2).sum(), x)

    def test_concat(self):
        x = self.rng.standard_normal((3, 4))
        check_grad(
            lambda t: (nd.concat([t, t * 2.0], axis=0) *
                       nd.concat([t, t * 2.0], axis=0)).sum(),
            lambda a: (np.concatenate([a, a * 2], axis=0) ** 2).sum(), x)

    def test_matmul_2d(self):
        x = self.rng.standard_normal((3, 4))
        w = self.rng.standard_normal((4, 2))
        check_grad(lambda t: ((t @ Tensor(w)) * (t @ Tensor(w))).sum(),
                   lambda a: ((a @ w) ** 2).sum(), x)

    def test_matmul_batched(self):
        x = self.rng.standard_normal((2, 3, 4))
        w = self.rng.standard_normal((4, 5))
        check_grad(lambda t: ((t @ Tensor(w)) * (t @ Tensor(w))).sum(),
                   lambda a: (np.matmul(a, w) ** 2).sum(), x)

    def test_matmul_batched_rhs_grad(self):
        x = self.rng.standard_normal((4, 5))
        a = self.rng.standard_normal((2, 3, 4))
        check_grad(lambda t: ((Tensor(a) @ t) * (Tensor(a) @ t)).sum(),
                   lambda w: (np.matmul(a, w) ** 2).sum(), x)

    def test_gelu(self):
        x = self.rng.standard_normal(8) * 2
        c = math.sqrt(2 / math.pi)

        def ref(a):
            return (0.5 * a * (1 + np.tanh(c * (a + 0.044715 * a ** 3)))).sum()

        check_grad(lambda t: nd.gelu(t).sum(), ref, x)

    def test_layer_norm(self):
        x = self.rng.standard_normal((4, 6))
        gain = self.rng.standard_normal(6)
        bias = self.rng.standard_normal(6)

        def ref(a):
            mu = a.mean(axis=-1, keepdims=True)
            var = ((a - mu) ** 2).mean(axis=-1, keepdims=True)
            y = (a - mu) / np.sqrt(var + 1e-5)
            return ((y * gain + bias) ** 2).sum()

        check_grad(
            lambda t: (nd.layer_norm(t, Tensor(gain), Tensor(bias)) *
                       nd.layer_norm(t, Tensor(gain), Tensor(bias))).sum(),
            ref, x)

    def test_layer_norm_param_grads(self):
        x = self.rng.standard_normal((4, 6))
        gain = self.rng.standard_normal(6)
        bias = self.rng.standard_normal(6)

        def build_gain(t):
            return (nd.layer_norm(Tensor(x), t, Tensor(bias)) *
                    nd.layer_norm(Tensor(x), t, Tensor(bias))).sum()

        def ref_gain(gv):
            mu = x.mean(axis=-1, keepdims=True)
            var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
            y = (x - mu) / np.sqrt(var + 1e-5)
            return ((y * gv + bias) ** 2).sum()

        check_grad(build_gain, ref_gain, gain)

    def test_attention(self):
        q = self.rng.standard_normal((3, 4))
        k = self.rng.standard_normal((5, 4))
        v = self.rng.standard_normal((5, 2))

        def ref(qv):
            s = qv @ k.T / math.sqrt(4)
            e = np.exp(s - s.max(axis=-1, keepdims=True))
            w = e / e.sum(axis=-1, keepdims=True)
            return ((w @ v) ** 2).sum()

        check_grad(
            lambda t: (nd.attention(t, Tensor(k), Tensor(v)) *
                       nd.attention(t, Tensor(k), Tensor(v))).sum(),
            ref, q)

    def test_attention_kv_grads(self):
        q = self.rng.standard_normal((3, 4))
        k = self.rng.standard_normal((5, 4))
        v = self.rng.standard_normal((5, 2))

        def ref_k(kv):
            s = q @ kv.T / math.sqrt(4)
            e = np.exp(s - s.max(axis=-1, keepdims=True))
            w = e / e.sum(axis=-1, keepdims=True)
            return ((w @ v) ** 2).sum()

        check_grad(
            lambda t: (nd.attention(Tensor(q), t, Tensor(v)) *
                       nd.attention(Tensor(q), t, Tensor(v))).sum(),
            ref_k, k)


class TestComposites:
    def test_layer_norm_stats(self):
        # variance after normalization is var/(var+eps); with var ~ 1e4 the
        # deviation from 1 is ~1e-9, far inside 1e-6
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 64)) * 100.0
        ones = Tensor(np.ones(64))
        zeros = Tensor(np.zeros(64))
        y = nd.layer_norm(Tensor(x), ones, zeros).data
        mu = y.mean(axis=-1)
        var = y.var(axis=-1)
        np.testing.assert_allclose(mu, 0.0, atol=1e-6)
        np.testing.assert_allclose(var, 1.0, atol=1e-6)
        # exact relationship: realized variance equals var/(var+eps)
        v_in = x.var(axis=-1)
        np.testing.assert_allclose(var, v_in / (v_in + 1e-5), rtol=1e-12)

    def test_layer_norm_shape_check(self):
        x = Tensor(np.zeros((2, 4)))
        with pytest.raises(ValueError):
            nd.layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(4)))

    def test_attention_convex_hull(self):
        # outputs are convex combinations of V rows: componentwise within
        # [min, max] of the corresponding V column
        rng = np.random.default_rng(11)
        q = Tensor(rng.standard_normal((7, 4)))
        k = Tensor(rng.standard_normal((9, 4)))
        vd = rng.standard_normal((9, 3))
        out = nd.attention(q, k, Tensor(vd)).data
        assert (out <= vd.max(axis=0) + 1e-12).all()
        assert (out >= vd.min(axis=0) - 1e-12).all()

    def test_attention_uniform_when_keys_equal(self):
        # identical keys: every value row weighted equally
        q = Tensor(np.ones((2, 4)))
        k = Tensor(np.ones((5, 4)))
        vd = np.arange(15.0).reshape(5, 3)
        out = nd.attention(q, k, Tensor(vd)).data
        np.testing.assert_allclose(out, np.tile(vd.mean(axis=0), (2, 1)),
                                   atol=1e-12)

    def test_attention_large_logits(self):
        # Q scaled by 50 gives scores in the hundreds: the row softmax
        # must stay finite and each head's output within the hull of V
        rng = np.random.default_rng(7)
        q = Tensor(rng.standard_normal((6, 8)) * 50.0)
        k = Tensor(rng.standard_normal((9, 8)))
        vd = rng.standard_normal((9, 6))
        out = nd.attention(q, k, Tensor(vd), heads=2).data
        assert np.isfinite(out).all()
        assert (out <= vd.max(axis=0) + 1e-12).all()
        assert (out >= vd.min(axis=0) - 1e-12).all()

    def test_attention_key_shift_invariance(self):
        # adding u to every key shifts each score of a row by q.u, which
        # the row softmax removes
        rng = np.random.default_rng(8)
        q = rng.standard_normal((5, 8))
        k = rng.standard_normal((7, 8))
        v = Tensor(rng.standard_normal((7, 6)))
        u = rng.standard_normal(8)
        a = nd.attention(Tensor(q), Tensor(k), v, heads=2).data
        b = nd.attention(Tensor(q), Tensor(k + u), v, heads=2).data
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_attention_shape_validation(self):
        q = Tensor(np.zeros((2, 4)))
        k = Tensor(np.zeros((3, 5)))
        v = Tensor(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            nd.attention(q, k, v)
        k2 = Tensor(np.zeros((3, 4)))
        v2 = Tensor(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            nd.attention(q, k2, v2)
        # heads must divide d = 4 (3 does not) and d_v (2 does not divide 3)
        for heads, dv in ((3, 6), (2, 3), (0, 2)):
            with pytest.raises(ValueError):
                nd.attention(q, k2, Tensor(np.zeros((3, dv))), heads=heads)

    def test_attention_batched(self):
        rng = np.random.default_rng(13)
        q = rng.standard_normal((2, 3, 4))
        k = rng.standard_normal((2, 5, 4))
        v = rng.standard_normal((2, 5, 6))
        out = nd.attention(Tensor(q), Tensor(k), Tensor(v)).data
        assert out.shape == (2, 3, 6)
        # each batch independently matches the unbatched op
        for b in range(2):
            ref = nd.attention(Tensor(q[b]), Tensor(k[b]), Tensor(v[b])).data
            np.testing.assert_allclose(out[b], ref, atol=1e-12)


class TestWholeBlockGradient:
    def test_transformer_block_fd(self):
        """A full pre-norm attention block against finite differences."""
        rng = np.random.default_rng(21)
        n, d = 4, 6
        x = rng.standard_normal((n, d)) * 0.5
        wq = rng.standard_normal((d, d)) * 0.3
        wk = rng.standard_normal((d, d)) * 0.3
        wv = rng.standard_normal((d, d)) * 0.3
        gain = np.ones(d)
        bias = np.zeros(d)

        def block(t):
            h = nd.layer_norm(t, Tensor(gain), Tensor(bias))
            att = nd.attention(h @ Tensor(wq), h @ Tensor(wk), h @ Tensor(wv))
            h2 = t + att
            return (nd.gelu(h2) * nd.gelu(h2)).mean()

        def ref(a):
            mu = a.mean(axis=-1, keepdims=True)
            var = ((a - mu) ** 2).mean(axis=-1, keepdims=True)
            h = (a - mu) / np.sqrt(var + 1e-5)
            s = (h @ wq) @ (h @ wk).T / math.sqrt(d)
            e = np.exp(s - s.max(axis=-1, keepdims=True))
            w = e / e.sum(axis=-1, keepdims=True)
            h2 = a + w @ (h @ wv)
            c = math.sqrt(2 / math.pi)
            g = 0.5 * h2 * (1 + np.tanh(c * (h2 + 0.044715 * h2 ** 3)))
            return (g * g).mean()

        check_grad(block, ref, x, tol=1e-4)


# the composite formulas the fused ops replaced, built from primitive ops:
# oracles for the fused values and closed-form gradients


def composite_tmean(x, axis=None):
    count = x.size if axis is None else x.shape[axis]
    return nd.div(nd.tsum(x, axis=axis), float(count))


def composite_softmax(x, axis=-1):
    m = np.max(x.data, axis=axis, keepdims=True)
    e = nd.texp(nd.sub(x, m))
    return nd.div(e, nd.tsum(e, axis=axis, keepdims=True))


def composite_gelu(x):
    c = math.sqrt(2.0 / math.pi)
    inner = nd.mul(nd.mul(x, nd.mul(x, x)), 0.044715)
    t = nd.tanh(nd.mul(nd.add(x, inner), c))
    return nd.mul(nd.mul(x, 0.5), nd.add(t, 1.0))


def composite_layer_norm(x, gain, bias, eps=nd.LAYER_NORM_EPS):
    mu = composite_tmean(x, axis=-1).reshape(x.shape[:-1] + (1,))
    xc = nd.sub(x, mu)
    var = composite_tmean(nd.mul(xc, xc), axis=-1).reshape(x.shape[:-1] + (1,))
    y = nd.div(xc, nd.tsqrt(nd.add(var, eps)))
    return nd.add(nd.mul(y, gain), bias)


def composite_attention(q, k, v):
    axes = tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2)
    scores = nd.div(nd.matmul(q, nd.transpose(k, axes)), math.sqrt(q.shape[-1]))
    return nd.matmul(composite_softmax(scores, axis=-1), v)


def composite_multi_head_attention(q, k, v, heads):
    dq, dv = q.shape[-1] // heads, v.shape[-1] // heads
    return nd.concat([composite_attention(q[..., h * dq:(h + 1) * dq],
                                          k[..., h * dq:(h + 1) * dq],
                                          v[..., h * dv:(h + 1) * dv])
                      for h in range(heads)], axis=-1)


def composite_linear(x, w, b):
    return nd.add(nd.matmul(x, w), b)


def _fused_cases():
    rng = np.random.default_rng(5)

    def r(*shape, scale=1.0):
        return rng.standard_normal(shape) * scale

    return [
        ("tmean", lambda x: nd.tmean(x, axis=1),
         lambda x: composite_tmean(x, axis=1), [r(3, 4, 5)]),
        ("tmean_all", nd.tmean, composite_tmean, [r(3, 4)]),
        ("gelu", nd.gelu, composite_gelu, [r(4, 6, scale=2.0)]),
        ("layer_norm", nd.layer_norm, composite_layer_norm,
         [r(2, 5, 8), r(8), r(8)]),
        ("attention", nd.attention, composite_attention,
         [r(2, 3, 6, 4), r(2, 3, 9, 4), r(2, 3, 9, 5)]),
        ("attention_heads2", lambda q, k, v: nd.attention(q, k, v, heads=2),
         lambda q, k, v: composite_multi_head_attention(q, k, v, 2),
         [r(2, 6, 8), r(2, 9, 8), r(2, 9, 10)]),
        ("linear", lambda *a: nd.linear(*a), composite_linear,
         [r(2, 5, 4), r(4, 3), r(3)]),
        ("linear_1d", lambda *a: nd.linear(*a), composite_linear,
         [r(4), r(4, 3), r(3)]),
    ]


FUSED_CASES = _fused_cases()


def _value_and_grads(op, arrays, cotangent_seed=9):
    ts = [Tensor(a) for a in arrays]
    with Tape() as tape:
        tape.watch(*ts)
        out = op(*ts)
        cot = np.random.default_rng(cotangent_seed).standard_normal(out.shape)
        loss = (out * Tensor(cot)).sum()
    return out.data, [g.data for g in grad(tape, loss, ts)]


class TestFusedPrimitives:
    @pytest.mark.parametrize("name,fused,composite,arrays", FUSED_CASES,
                             ids=[c[0] for c in FUSED_CASES])
    def test_matches_composite(self, name, fused, composite, arrays):
        val, grads = _value_and_grads(fused, arrays)
        ref_val, ref_grads = _value_and_grads(composite, arrays)
        np.testing.assert_allclose(val, ref_val, rtol=1e-12, atol=1e-12)
        for g, ref in zip(grads, ref_grads):
            assert g.shape == ref.shape
            np.testing.assert_allclose(g, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("name,fused,composite,arrays", FUSED_CASES,
                             ids=[c[0] for c in FUSED_CASES])
    def test_one_node_per_call(self, name, fused, composite, arrays):
        with Tape() as tape:
            fused(*[Tensor(a) for a in arrays])
        assert len(tape) == 1

    @pytest.mark.parametrize("x_shape", [(4,), (2, 3, 4)],
                             ids=["1d", "batched"])
    def test_linear_grads(self, x_shape):
        # 1-D as the heads apply it to a pooled vector, batched as in blocks
        rng = np.random.default_rng(19)
        x = rng.standard_normal(x_shape)
        w, b = rng.standard_normal((4, 5)), rng.standard_normal(5)

        def sq(out):
            return (out * out).sum()

        check_grad(lambda t: sq(nd.linear(t, Tensor(w), Tensor(b))),
                   lambda a: ((a @ w + b) ** 2).sum(), x)
        check_grad(lambda t: sq(nd.linear(Tensor(x), t, Tensor(b))),
                   lambda a: ((x @ a + b) ** 2).sum(), w)
        check_grad(lambda t: sq(nd.linear(Tensor(x), Tensor(w), t)),
                   lambda a: ((x @ w + a) ** 2).sum(), b)

    def test_linear_shape_validation(self):
        with pytest.raises(ValueError):
            nd.linear(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 5))),
                      Tensor(np.zeros(5)))
        with pytest.raises(ValueError):
            nd.linear(Tensor(np.zeros((2, 4))), Tensor(np.zeros((4, 5))),
                      Tensor(np.zeros(4)))


def test_no_tape_records_nothing(monkeypatch):
    """Without an open tape no op builds or records a backward closure."""
    from idt import model

    def refuse(*args):
        raise AssertionError("an op recorded a node with no tape open")

    monkeypatch.setattr(nd, "_record", refuse)
    rng = np.random.default_rng(23)
    x = Tensor(rng.random((3, 4)) + 0.5)
    w = Tensor(rng.standard_normal((4, 4)))
    for op in (nd.texp, nd.tlog, nd.tsqrt, nd.tabs, nd.tanh,
               nd.sigmoid, nd.softplus, nd.gelu, nd.tsum,
               nd.tmean, nd.transpose):
        op(x)
    for op in (nd.add, nd.sub, nd.mul, nd.div):
        op(x, x)
    nd.matmul(x, w)
    nd.reshape(x, (12,))
    nd.getitem(x, (slice(1, 2),))
    nd.concat([x, x], axis=0)
    nd.layer_norm(x, w[0], w[1])
    nd.attention(x, w, w)
    nd.attention(x, w, w, heads=2)
    nd.linear(x, w, w[0])
    cfg = model.ModelConfig(patch_size=8, embed_dim=16, block_pairs=1, heads=2,
                            register_count=2)
    model.decompose(rng.random((2, 16, 16, 3)), cfg, model.init_params(cfg, 0))
