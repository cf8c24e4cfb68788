import math

import numpy as np
import pytest

from idt import losses, model, scenes, sglight
from idt.losses import (LossConfig, format_loss_line, loss_albedo,
                        loss_depth_log, loss_illum_packed,
                        loss_recon, loss_shading_log, loss_total, recompose,
                        stack_ground_truth)
from idt.ndtensor import Tape, Tensor, grad


def numeric_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
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


def check_grad(build, f, x, tol=1e-4):
    x = np.asarray(x, dtype=np.float64)
    t = Tensor(x)
    with Tape() as tape:
        tape.watch(t)
        out = build(t)
    (g_ad,) = grad(tape, out, [t])
    g_fd = numeric_grad(f, x.copy())
    denom = np.maximum(np.abs(g_fd), 1e-8)
    rel = np.abs(g_ad.data - g_fd) / denom
    assert rel.max() < tol, f"max rel err {rel.max():.3e}"


def small_batch(seed, views=2, res=24):
    scene = scenes.generate_scene(seed)
    cams = [scenes.camera_from_fov(eye, np.zeros(3), res, res, 50.0)
            for eye in ([0.5, 0.8, 4.0], [-0.6, 0.7, 3.9], [0.1, 1.0, 4.2])[:views]]
    return scenes.render_batch(scene, cams, (res, res))


def random_mixture(rng, k=3):
    lobes = []
    for _ in range(k):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        lobes.append(sglight.SGLobe(axis, rng.uniform(2.0, 20.0),
                                    rng.uniform(0.1, 0.9, size=3)))
    return sglight.canonicalize(
        sglight.SGMixture(tuple(lobes), rng.uniform(0.02, 0.2, size=3)))


class TestLossConfig:
    def test_defaults(self):
        cfg = LossConfig()
        cfg.validate()
        assert cfg.eps == 1e-4
        assert (cfg.weight_alb, cfg.weight_diff, cfg.weight_spec,
                cfg.weight_recon, cfg.weight_illum) == (1.0, 1.0, 1.0, 1.0, 0.1)

    def test_invalid(self):
        with pytest.raises(ValueError):
            LossConfig(eps=0.0).validate()
        with pytest.raises(ValueError):
            LossConfig(weight_spec=-0.1).validate()


class TestRecompose:
    def test_identity_shading(self):
        a = np.ones((4, 4, 3))
        d = np.full((4, 4, 3), 0.5)
        s = np.zeros((4, 4, 3))
        assert np.array_equal(recompose(a, d, s).data, d)

    def test_direct_arithmetic(self):
        a = np.full((1, 1, 3), 0.5)
        d = np.ones((1, 1, 3))
        s = np.zeros((1, 1, 3))
        s[..., 0] = 0.1
        out = recompose(a, d, s).data[0, 0]
        assert np.allclose(out, [0.6, 0.5, 0.5], rtol=0, atol=1e-15)

    def test_elementwise_oracle(self):
        rng = np.random.default_rng(3)
        a, d, s = (rng.uniform(size=(2, 5, 6, 3)) for _ in range(3))
        assert np.array_equal(recompose(a, d, s).data, a * d + s)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            recompose(np.ones((4, 4, 3)), np.ones((4, 5, 3)), np.ones((4, 4, 3)))
        with pytest.raises(ValueError):
            recompose(np.ones((4, 4, 2)), np.ones((4, 4, 2)), np.ones((4, 4, 2)))


class TestAlbedoLoss:
    def test_zero_at_equality(self):
        x = np.random.default_rng(0).uniform(size=(3, 8, 8, 3))
        assert float(loss_albedo(x, x).data) == 0.0

    def test_constant_offset(self):
        g = np.random.default_rng(1).uniform(0.1, 0.8, size=(2, 8, 8, 3))
        val = float(loss_albedo(g + 0.1, g).data)
        assert abs(val - 0.1) < 1e-12

    def test_oracle(self):
        rng = np.random.default_rng(2)
        p = rng.uniform(size=(2, 4, 4, 3))
        g = rng.uniform(size=(2, 4, 4, 3))
        assert abs(float(loss_albedo(p, g).data) - np.mean(np.abs(p - g))) < 1e-15

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            loss_albedo(np.ones((2, 4, 4, 3)), np.ones((2, 4, 8, 3)))

    def test_gradient(self):
        rng = np.random.default_rng(4)
        g = rng.uniform(0.2, 0.8, size=(6, 3))
        x0 = rng.uniform(0.2, 0.8, size=(6, 3))
        check_grad(lambda t: loss_albedo(t, g),
                   lambda x: float(loss_albedo(x, g).data), x0)


class TestShadingLogLoss:
    def test_zero_at_equality(self):
        x = np.random.default_rng(0).uniform(0.1, 2.0, size=(8, 8, 3))
        assert float(loss_shading_log(x, x).data) == 0.0

    def test_constant_ratio_eps_zero(self):
        rng = np.random.default_rng(1)
        g = rng.uniform(0.05, 3.0, size=(4, 4, 3))
        for c in (0.25, 2.0, 7.5):
            val = float(loss_shading_log(c * g, g, eps=0.0).data)
            assert abs(val - math.log(c) ** 2) < 1e-12

    def test_e_vs_one(self):
        g = np.ones((5, 5, 3))
        p = np.full((5, 5, 3), math.e)
        val = float(loss_shading_log(p, g, eps=1e-4).data)
        expect = math.log((math.e + 1e-4) / (1 + 1e-4)) ** 2
        assert abs(val - expect) < 1e-12
        assert abs(val - 0.99993) < 1e-4

    def test_negative_rejected(self):
        good = np.ones((2, 2, 3))
        bad = good.copy()
        bad[0, 0, 0] = -1e-9
        with pytest.raises(ValueError):
            loss_shading_log(bad, good)
        with pytest.raises(ValueError):
            loss_shading_log(good, bad)

    def test_scale_invariance_eps_zero(self):
        rng = np.random.default_rng(2)
        p = rng.uniform(0.1, 2.0, size=(6, 6, 3))
        g = rng.uniform(0.1, 2.0, size=(6, 6, 3))
        base = float(loss_shading_log(p, g, eps=0.0).data)
        for c in (0.5, 2.0, 10.0):
            val = float(loss_shading_log(c * p, c * g, eps=0.0).data)
            assert abs(val - base) < 1e-12

    def test_scale_invariance_small_eps(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(0.1, 2.0, size=(6, 6, 3))
        g = rng.uniform(0.1, 2.0, size=(6, 6, 3))
        base = float(loss_shading_log(p, g).data)
        for c in (0.5, 0.8, 1.3, 2.0):
            val = float(loss_shading_log(c * p, c * g).data)
            assert abs(val - base) < 1e-3

    def test_gradient(self):
        rng = np.random.default_rng(5)
        g = rng.uniform(0.1, 1.5, size=(5, 3))
        x0 = rng.uniform(0.1, 1.5, size=(5, 3))
        check_grad(lambda t: loss_shading_log(t, g),
                   lambda x: float(loss_shading_log(x, g).data), x0)


class TestReconLoss:
    def test_ground_truth_recomposes(self):
        batch = small_batch(11)
        gt = stack_ground_truth(batch)
        val = float(loss_recon(gt["albedo"], gt["s_diff"], gt["s_spec"],
                               batch.images()).data)
        assert val == 0.0  # formation identity is bitwise in the renderer

    def test_zero_intrinsics(self):
        rng = np.random.default_rng(1)
        imgs = rng.uniform(size=(3, 4, 4, 3))
        z = np.zeros_like(imgs)
        val = float(loss_recon(z, z, z, imgs).data)
        assert abs(val - np.mean(np.abs(imgs))) < 1e-15

    def test_oracle(self):
        rng = np.random.default_rng(2)
        a, d, s, i = (rng.uniform(size=(2, 4, 4, 3)) for _ in range(4))
        expect = np.mean(np.abs(a * d + s - i))
        assert abs(float(loss_recon(a, d, s, i).data) - expect) < 1e-15

    def test_view_count_mismatch(self):
        with pytest.raises(ValueError):
            loss_recon(np.ones((2, 4, 4, 3)), np.ones((2, 4, 4, 3)),
                       np.ones((2, 4, 4, 3)), np.ones((3, 4, 4, 3)))

    def test_gradient(self):
        rng = np.random.default_rng(6)
        i = rng.uniform(size=(2, 2, 2, 3))
        d = rng.uniform(0.2, 1.0, size=(2, 2, 2, 3))
        s = rng.uniform(0.0, 0.3, size=(2, 2, 2, 3))
        a0 = rng.uniform(0.2, 0.8, size=(2, 2, 2, 3))
        check_grad(lambda t: loss_recon(t, d, s, i),
                   lambda x: float(loss_recon(x, d, s, i).data), a0)


def loss_illum(pred, gt):
    """Illumination loss of a value-level predicted mixture."""
    return loss_illum_packed(Tensor(sglight.pack(pred)), gt)


class TestIllumLoss:
    def test_zero_at_equality(self):
        m = random_mixture(np.random.default_rng(0))
        assert float(loss_illum(m, m).data) < 1e-12

    def test_permutation_free(self):
        m = random_mixture(np.random.default_rng(1))
        permuted = sglight.SGMixture((m.lobes[2], m.lobes[0], m.lobes[1]),
                                     m.ambient)
        assert float(loss_illum(permuted, m).data) < 1e-9

    def test_rotated_axis_costs_one(self):
        lobes = (sglight.SGLobe((0.0, 0.0, 1.0), 9.0, (0.8, 0.7, 0.6)),
                 sglight.SGLobe((0.0, 1.0, 0.0), 5.0, (0.3, 0.2, 0.1)))
        gt = sglight.SGMixture(lobes, (0.05, 0.05, 0.05))
        rot = (sglight.SGLobe((1.0, 0.0, 0.0), 9.0, (0.8, 0.7, 0.6)),
               lobes[1])
        pred = sglight.SGMixture(rot, (0.05, 0.05, 0.05))
        assert float(loss_illum(pred, gt).data) == 1.0

    def test_matches_per_lobe_sum(self):
        # the masked vector expression against the per-lobe definition
        rng = np.random.default_rng(12)
        gt = random_mixture(rng)
        pred = model.illumination_conditioning(
            Tensor(rng.normal(0.0, 1.0, size=7 * 3 + 3)), 3).data
        g = sglight.pack(gt)
        expect = sum(1.0 - pred[7 * i:7 * i + 3] @ g[7 * i:7 * i + 3]
                     + ((pred[7 * i + 3:7 * i + 7] - g[7 * i + 3:7 * i + 7]) ** 2).sum()
                     for i in range(3)) + ((pred[21:] - g[21:]) ** 2).sum()
        got = float(loss_illum_packed(Tensor(pred), gt).data)
        assert abs(got - expect) < 1e-12

    def test_lobe_count_mismatch(self):
        a = random_mixture(np.random.default_rng(2), k=2)
        b = random_mixture(np.random.default_rng(3), k=3)
        with pytest.raises(ValueError):
            loss_illum(a, b)

    def test_packed_route_matches_public(self):
        rng = np.random.default_rng(4)
        gt = random_mixture(rng)
        raw = rng.normal(0.0, 1.0, size=7 * 3 + 3)
        cond = model.illumination_conditioning(Tensor(raw), 3)
        via_packed = float(loss_illum_packed(cond, gt).data)
        via_public = float(loss_illum(sglight.unpack(raw, 3), gt).data)
        assert abs(via_packed - via_public) < 1e-9

    def test_packed_route_gradient(self):
        rng = np.random.default_rng(5)
        gt = random_mixture(rng)
        raw0 = rng.normal(0.0, 1.0, size=7 * 3 + 3)

        def build(t):
            return loss_illum_packed(model.illumination_conditioning(t, 3), gt)

        def f(x):
            return float(build(Tensor(x)).data)

        check_grad(build, f, raw0)

    def test_packed_length_check(self):
        gt = random_mixture(np.random.default_rng(6))
        with pytest.raises(ValueError):
            loss_illum_packed(Tensor(np.zeros(10)), gt)


class TestTotalLoss:
    def _random_case(self, seed):
        rng = np.random.default_rng(seed)
        shape = (2, 4, 4, 3)
        pred = {
            "albedo": rng.uniform(size=shape),
            "s_diff": rng.uniform(0.1, 1.0, size=shape),
            "s_spec": rng.uniform(0.0, 0.4, size=shape),
            "illum_cond": Tensor(sglight.pack(random_mixture(rng))),
        }
        gt = {
            "albedo": rng.uniform(size=shape),
            "s_diff": rng.uniform(0.1, 1.0, size=shape),
            "s_spec": rng.uniform(0.0, 0.4, size=shape),
            "illumination": random_mixture(rng),
        }
        images = rng.uniform(size=shape)
        return pred, gt, images

    def test_recon_only_weights(self):
        pred, gt, images = self._random_case(0)
        cfg = LossConfig(weight_alb=0, weight_diff=0, weight_spec=0,
                         weight_illum=0)
        total, breakdown = loss_total(pred, gt, images, cfg)
        expect = float(loss_recon(pred["albedo"], pred["s_diff"],
                                  pred["s_spec"], images).data)
        assert abs(float(total.data) - expect) < 1e-15

    def test_perfect_predictions(self):
        batch = small_batch(7)
        gt = stack_ground_truth(batch)
        pred = dict(gt, illum_cond=Tensor(sglight.pack(gt["illumination"])))
        total, breakdown = loss_total(pred, gt, batch.images())
        assert float(total.data) < 1e-6
        for term in ("alb", "diff", "spec", "recon", "illum"):
            assert term in breakdown

    def test_oracle_recombination(self):
        pred, gt, images = self._random_case(1)
        cfg = LossConfig()
        total, breakdown = loss_total(pred, gt, images, cfg)
        expect = (float(loss_albedo(pred["albedo"], gt["albedo"]).data)
                  + float(loss_shading_log(pred["s_diff"], gt["s_diff"],
                                           cfg.eps).data)
                  + float(loss_shading_log(pred["s_spec"], gt["s_spec"],
                                           cfg.eps).data)
                  + float(loss_recon(pred["albedo"], pred["s_diff"],
                                     pred["s_spec"], images).data)
                  + 0.1 * float(loss_illum_packed(pred["illum_cond"],
                                                  gt["illumination"]).data))
        assert abs(float(total.data) - expect) < 1e-12

    def test_weight_superposition(self):
        pred, gt, images = self._random_case(3)
        rng = np.random.default_rng(9)
        w1 = rng.uniform(0.0, 2.0, size=5)
        w2 = rng.uniform(0.0, 2.0, size=5)

        def tot(w):
            cfg = LossConfig(weight_alb=w[0], weight_diff=w[1],
                             weight_spec=w[2], weight_recon=w[3],
                             weight_illum=w[4])
            return float(loss_total(pred, gt, images, cfg)[0].data)

        assert abs(tot(w1 + w2) - (tot(w1) + tot(w2))) < 1e-9

    def test_gradient_through_total(self):
        rng = np.random.default_rng(10)
        shape = (1, 2, 2, 3)
        gt = {
            "albedo": rng.uniform(size=shape),
            "s_diff": rng.uniform(0.1, 1.0, size=shape),
            "s_spec": rng.uniform(0.05, 0.4, size=shape),
            "illumination": random_mixture(rng),
        }
        images = rng.uniform(size=shape)
        d = rng.uniform(0.1, 1.0, size=shape)
        s = rng.uniform(0.05, 0.4, size=shape)
        cond = Tensor(sglight.pack(random_mixture(rng)))
        a0 = rng.uniform(0.2, 0.8, size=shape)

        def build(t):
            pred = {"albedo": t, "s_diff": Tensor(d), "s_spec": Tensor(s),
                    "illum_cond": cond}
            return loss_total(pred, gt, images)[0]

        def f(x):
            pred = {"albedo": x, "s_diff": d, "s_spec": s, "illum_cond": cond}
            return float(loss_total(pred, gt, images)[0].data)

        check_grad(build, f, a0)


class TestDepthLoss:
    def test_masked_background(self):
        g = np.full((4, 4), np.inf)
        g[:2, :2] = 2.0
        p = np.full((4, 4), 2.0 * math.e)
        val = float(loss_depth_log(p, g).data)
        assert abs(val - 1.0) < 1e-12

    def test_all_background_is_zero(self):
        g = np.full((4, 4), np.inf)
        assert float(loss_depth_log(np.ones((4, 4)), g).data) == 0.0

    def test_positive_required(self):
        with pytest.raises(ValueError):
            loss_depth_log(np.zeros((2, 2)), np.ones((2, 2)))

    def test_gradient(self):
        rng = np.random.default_rng(11)
        g = rng.uniform(1.0, 5.0, size=(3, 3))
        g[0, 0] = np.inf
        p0 = rng.uniform(1.0, 5.0, size=(3, 3))
        check_grad(lambda t: loss_depth_log(t, g),
                   lambda x: float(loss_depth_log(x, g).data), p0)


class TestLossLine:
    def test_format(self):
        breakdown = {k: Tensor(float(i)) for i, k in
                     enumerate(("alb", "diff", "spec", "recon", "illum"))}
        line = format_loss_line(12, Tensor(3.5), breakdown)
        cols = [c.strip() for c in line.split(",")]
        assert cols[0] == "12"
        assert float(cols[1]) == 3.5
        assert [float(c) for c in cols[2:]] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_depth_column(self):
        line = format_loss_line(0, Tensor(1.0), {}, depth=Tensor(0.25))
        cols = [c.strip() for c in line.split(",")]
        assert len(cols) == 8
        assert float(cols[-1]) == 0.25
        assert math.isnan(float(cols[2]))
