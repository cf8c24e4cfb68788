import numpy as np
import pytest

from idt import losses, model, scenes, sglight
from idt.model import (FACTORS, ModelConfig, adapt, adapter_param_names,
                       decompose, encode, forward, init_params, patchify,
                       predict_albedo, predict_depth, predict_shading)
from idt.ndtensor import Tape, Tensor, grad

MICRO = ModelConfig(patch_size=8, embed_dim=16, block_pairs=1, heads=2,
                    register_count=2, sg_lobes=2, aux_depth=True)
SMALL = ModelConfig(patch_size=8, embed_dim=32, block_pairs=2, heads=4,
                    register_count=4, sg_lobes=3, aux_depth=True)


def small_images(seed, views=2, res=32):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(views, res, res, 3))


def render_micro(seed, views=2, res=16):
    scene = scenes.generate_scene(seed)
    cams = [scenes.camera_from_fov(eye, np.zeros(3), res, res, 50.0)
            for eye in ([0.5, 0.8, 4.0], [-0.6, 0.7, 3.9], [0.1, 1.0, 4.2])[:views]]
    return scenes.render_batch(scene, cams, (res, res))


class TestModelConfig:
    def test_defaults_valid(self):
        cfg = ModelConfig()
        cfg.validate()
        assert (cfg.patch_size, cfg.embed_dim, cfg.block_pairs, cfg.heads,
                cfg.register_count, cfg.sg_lobes, cfg.aux_depth) == \
            (8, 64, 4, 4, 4, 3, True)

    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            ModelConfig(embed_dim=30, heads=4).validate()

    def test_resolution_check(self):
        cfg = ModelConfig()
        assert cfg.check_resolution(64, 64) == (8, 8)
        with pytest.raises(ValueError):
            cfg.check_resolution(60, 64)


class TestParams:
    def test_deterministic(self):
        a = init_params(SMALL, seed=3)
        b = init_params(SMALL, seed=3)
        assert set(a) == set(b)
        for k in a:
            assert np.array_equal(a[k].data, b[k].data)

    def test_seed_changes_values(self):
        a = init_params(SMALL, seed=0)
        b = init_params(SMALL, seed=1)
        assert not np.array_equal(a["patch/weight"].data, b["patch/weight"].data)

    def test_adapter_registry_disjoint(self):
        params = init_params(SMALL)
        sets = [set(adapter_param_names(SMALL, k)) for k in FACTORS]
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                assert not (sets[i] & sets[j])
        for s in sets:
            assert s <= set(params)


class TestPatchify:
    def test_token_count(self):
        params = init_params(ModelConfig())
        tok = patchify(np.zeros((2, 64, 64, 3)), ModelConfig(), params)
        assert tok.shape == (2, 64, 64)  # per view, 8x8 grid of d=64 vectors

    def test_zero_image_is_bias_plus_positions(self):
        cfg = SMALL
        params = init_params(cfg)
        tok = patchify(np.zeros((2, 32, 32, 3)), cfg, params)
        pe = model._posenc(4, 4, cfg.embed_dim)
        expect = params["patch/bias"].data + pe
        assert np.array_equal(tok.data, np.stack([expect, expect]))

    def test_locality(self):
        cfg = SMALL
        params = init_params(cfg)
        rng = np.random.default_rng(0)
        img = rng.uniform(size=(2, 32, 32, 3))
        other = img.copy()
        other[1, 8:16, 16:24] += 0.25  # view 1, grid position (1, 2)
        a = patchify(img, cfg, params).data
        b = patchify(other, cfg, params).data
        diff = np.abs(a - b).sum(axis=2)
        assert [tuple(ix) for ix in np.argwhere(diff > 0)] == [(1, 1 * 4 + 2)]

    def test_indivisible_resolution(self):
        params = init_params(SMALL)
        with pytest.raises(ValueError):
            patchify(np.zeros((1, 30, 32, 3)), SMALL, params)


class TestEncode:
    def test_token_counts_default(self):
        cfg = ModelConfig()
        params = init_params(cfg)
        toks = encode(small_images(0, views=2, res=64), cfg, params)
        assert toks.tokens.shape == (2, 64 + 1 + 4, 64)
        assert toks.patch_tokens.shape == (2, 64, 64)
        assert toks.scene_query.shape == (1, 1 + 4, 64)
        assert toks.flat_patches.shape == (1, 2 * 64, 64)
        np.testing.assert_array_equal(
            toks.scene_query.data[0], toks.tokens.data[:, :5].mean(axis=0))
        np.testing.assert_array_equal(
            toks.flat_patches.data[0, 64:], toks.tokens.data[1, 5:])
        # built once per TokenSet and shared by the adapters and heads
        assert toks.patch_tokens is toks.patch_tokens
        assert toks.scene_query is toks.scene_query
        assert toks.flat_patches is toks.flat_patches

    def test_single_view(self):
        params = init_params(SMALL)
        toks = encode(small_images(1, views=1), SMALL, params)
        assert toks.tokens.shape[0] == 1
        assert np.isfinite(toks.tokens.data).all()

    def test_view_permutation_equivariance(self):
        params = init_params(SMALL, seed=2)
        imgs = small_images(2, views=3)
        perm = [2, 0, 1]
        base = encode(imgs, SMALL, params).tokens.data
        permuted = encode(imgs[perm], SMALL, params).tokens.data
        assert np.max(np.abs(permuted - base[perm])) < 1e-9

    def test_finite(self):
        params = init_params(SMALL, seed=5)
        toks = encode(small_images(5, views=2), SMALL, params)
        assert np.isfinite(toks.tokens.data).all()


class TestAdapt:
    def test_context_shape(self):
        cfg = ModelConfig()
        params = init_params(cfg)
        toks = encode(small_images(0, views=2, res=64), cfg, params)
        ctx = adapt(toks, "alb", params, cfg.heads)
        assert ctx.context.shape == (1 + 4, 64)
        assert ctx.factor == "alb"

    def test_unknown_factor(self):
        params = init_params(SMALL)
        toks = encode(small_images(0), SMALL, params)
        with pytest.raises(ValueError):
            adapt(toks, "normals", params, SMALL.heads)

    def test_duplication_invariance(self):
        params = init_params(SMALL, seed=3)
        img = small_images(3, views=1)
        dup = np.concatenate([img, img], axis=0)
        t1 = encode(img, SMALL, params)
        t2 = encode(dup, SMALL, params)
        for k in FACTORS:
            c1 = adapt(t1, k, params, SMALL.heads).context.data
            c2 = adapt(t2, k, params, SMALL.heads).context.data
            assert np.max(np.abs(c1 - c2)) < 1e-9

    @pytest.mark.parametrize("name,stage", [
        ("adapt/spec/wo", "'spec'"),
        ("head/spec/dec_w", "specular head"),
        ("enc0/frame/wq", "encoder"),
    ], ids=["adapter", "spec_head", "encoder"])
    def test_nonfinite_context_names_factor(self, name, stage):
        # the first non-finite stage is named, not a later one it poisons
        params = init_params(SMALL, seed=5)
        w = params[name].data.copy()
        w[0, 0] = np.nan
        params[name] = Tensor(w)
        with np.errstate(invalid="ignore"), \
                pytest.raises(model.NumericalAbort, match=stage) as info:
            forward(small_images(5), SMALL, params)
        assert "'alb'" not in str(info.value)

    def test_permutation_invariance(self):
        params = init_params(SMALL, seed=4)
        imgs = small_images(4, views=3)
        t1 = encode(imgs, SMALL, params)
        t2 = encode(imgs[[1, 2, 0]], SMALL, params)
        for k in FACTORS:
            c1 = adapt(t1, k, params, SMALL.heads).context.data
            c2 = adapt(t2, k, params, SMALL.heads).context.data
            assert np.max(np.abs(c1 - c2)) < 1e-9


class TestHeads:
    def _setup(self, seed=0, views=2, scale=None):
        params = init_params(SMALL, seed=seed)
        if scale is not None:
            rng = np.random.default_rng(seed + 100)
            params = {k: Tensor(rng.normal(0.0, scale, v.shape))
                      for k, v in params.items()}
        imgs = small_images(seed, views=views)
        toks = encode(imgs, SMALL, params)
        return params, imgs, toks

    def test_albedo_shape_and_range(self):
        params, imgs, toks = self._setup(scale=4.0)
        ctx = adapt(toks, "alb", params, SMALL.heads)
        out = predict_albedo(toks, ctx, params).data
        assert out.shape == imgs.shape
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_shading_nonnegative(self):
        params, imgs, toks = self._setup(seed=1, scale=4.0)
        cond = Tensor(np.random.default_rng(0).normal(size=24))
        for kind in ("diff", "spec"):
            ctx = adapt(toks, kind, params, SMALL.heads)
            out = predict_shading(toks, ctx, cond, params, kind).data
            assert out.shape == imgs.shape
            assert out.min() >= 0.0

    def test_shading_kind_validated(self):
        params, imgs, toks = self._setup()
        ctx = adapt(toks, "diff", params, SMALL.heads)
        with pytest.raises(ValueError):
            predict_shading(toks, ctx, Tensor(np.zeros(24)), params, "albedo")

    def test_shading_sensitive_to_illumination(self):
        params, imgs, toks = self._setup(seed=2)
        ctx = adapt(toks, "diff", params, SMALL.heads)
        rng = np.random.default_rng(1)
        c1 = Tensor(sglight.pack(sglight.unpack(rng.normal(size=24), 3)))
        c2 = Tensor(sglight.pack(sglight.unpack(rng.normal(size=24), 3)))
        o1 = predict_shading(toks, ctx, c1, params, "diff").data
        o2 = predict_shading(toks, ctx, c2, params, "diff").data
        assert np.max(np.abs(o1 - o2)) > 1e-6

    def test_illumination_contract(self):
        params, imgs, toks = self._setup(seed=3)
        mix = forward(imgs, SMALL, params)["illumination"]
        assert mix.k == SMALL.sg_lobes
        assert np.all(mix.ambient >= 0)
        lums = [float(l.amplitude @ sglight.LUMA_WEIGHTS) for l in mix.lobes]
        assert lums == sorted(lums, reverse=True)

    def test_illumination_view_permutation(self):
        params = init_params(SMALL, seed=6)
        imgs = small_images(6, views=3)
        out1 = forward(imgs, SMALL, params)
        out2 = forward(imgs[[2, 1, 0]], SMALL, params)
        v1 = sglight.pack(out1["illumination"])
        v2 = sglight.pack(out2["illumination"])
        assert np.max(np.abs(v1 - v2)) < 1e-9

    def test_depth_positive_and_shaped(self):
        params, imgs, toks = self._setup(seed=4)
        out = predict_depth(toks, params, SMALL).data
        assert out.shape == imgs.shape[:3]
        assert out.min() > 0.0

    def test_depth_disabled_errors(self):
        cfg = ModelConfig(patch_size=8, embed_dim=32, block_pairs=1, heads=4,
                          register_count=4, sg_lobes=3, aux_depth=False)
        params = init_params(cfg)
        toks = encode(small_images(0), cfg, params)
        with pytest.raises(ValueError):
            predict_depth(toks, params, cfg)

    def test_depth_gradient_skips_adapters(self):
        params = init_params(MICRO, seed=7)
        imgs = small_images(7, views=2, res=16)
        adapter_names = [n for k in FACTORS
                         for n in adapter_param_names(MICRO, k)]
        with Tape() as tape:
            for n in adapter_names:
                tape.watch(params[n])
            tape.watch(params["head/depth/w"])
            out = forward(imgs, MICRO, params)
            loss = out["depth"].mean() + 0.0 * out["albedo"].sum() \
                + 0.0 * out["s_diff"].sum() + 0.0 * out["s_spec"].sum() \
                + 0.0 * out["illum_raw"].sum()
        watched = [params[n] for n in adapter_names] + [params["head/depth/w"]]
        gs = grad(tape, loss, watched)
        for n, g in zip(adapter_names, gs[:-1]):
            assert np.all(g.data == 0.0), f"depth loss leaked into {n}"
        assert np.any(gs[-1].data != 0.0)


class TestConditioning:
    def test_matches_pack_unpack(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            raw = rng.normal(0.0, 1.5, size=7 * 3 + 3)
            cond = model.illumination_conditioning(Tensor(raw), 3).data
            expect = sglight.pack(sglight.unpack(raw, 3))
            assert np.max(np.abs(cond - expect)) < 1e-9


class TestDecompose:
    def test_bit_identical_reruns(self):
        params = init_params(SMALL, seed=8)
        imgs = small_images(8, views=2)
        a = decompose(imgs, SMALL, params)
        b = decompose(imgs, SMALL, params)
        assert np.array_equal(a.albedo, b.albedo)
        assert np.array_equal(a.s_diff, b.s_diff)
        assert np.array_equal(a.s_spec, b.s_spec)
        assert np.array_equal(a.depth, b.depth)
        assert np.array_equal(sglight.pack(a.illumination),
                              sglight.pack(b.illumination))

    def test_single_view(self):
        params = init_params(SMALL, seed=9)
        out = decompose(small_images(9, views=1), SMALL, params)
        assert out.v == 1
        assert out.albedo.shape == (1, 32, 32, 3)

    def test_range_contracts(self):
        params = init_params(SMALL, seed=10)
        out = decompose(small_images(10, views=2), SMALL, params)
        assert out.albedo.min() >= 0 and out.albedo.max() <= 1
        assert out.s_diff.min() >= 0 and out.s_spec.min() >= 0
        assert out.depth.min() > 0

    def test_full_permutation_equivariance(self):
        params = init_params(SMALL, seed=11)
        imgs = small_images(11, views=3)
        perm = [1, 2, 0]
        a = decompose(imgs, SMALL, params)
        b = decompose(imgs[perm], SMALL, params)
        assert np.max(np.abs(b.albedo - a.albedo[perm])) < 1e-9
        assert np.max(np.abs(b.s_diff - a.s_diff[perm])) < 1e-9
        assert np.max(np.abs(b.s_spec - a.s_spec[perm])) < 1e-9
        assert np.max(np.abs(b.depth - a.depth[perm])) < 1e-9
        assert np.max(np.abs(sglight.pack(b.illumination)
                             - sglight.pack(a.illumination))) < 1e-9


def training_loss(images, gt, config, params):
    out = forward(images, config, params)
    pred = {"albedo": out["albedo"], "s_diff": out["s_diff"],
            "s_spec": out["s_spec"], "illum_cond": out["illum_cond"]}
    total, _ = losses.loss_total(pred, gt, images)
    total = total + 0.1 * losses.loss_depth_log(out["depth"], gt["depth"])
    return total


class TestFullModelGradient:
    def test_matches_finite_differences(self):
        batch = render_micro(21, views=2, res=16)
        images = batch.images()
        gt = losses.stack_ground_truth(batch)
        gt["illumination"] = sglight.SGMixture(
            batch.illumination.lobes[:2], batch.illumination.ambient)
        params = init_params(MICRO, seed=12)

        with Tape() as tape:
            for t in params.values():
                tape.watch(t)
            loss = training_loss(images, gt, MICRO, params)
        names = sorted(params)
        grads = dict(zip(names, grad(tape, loss, [params[n] for n in names])))

        def eval_at(name, idx, value):
            arr = params[name].data.copy()
            arr[idx] = value
            trial = dict(params)
            trial[name] = Tensor(arr)
            return float(training_loss(images, gt, MICRO, trial).data)

        rng = np.random.default_rng(0)
        h = 1e-5
        worst = 0.0
        for name in names:
            flat_size = params[name].size
            for _ in range(2):
                idx = np.unravel_index(rng.integers(flat_size),
                                       params[name].shape)
                x0 = params[name].data[idx]
                fd = (eval_at(name, idx, x0 + h)
                      - eval_at(name, idx, x0 - h)) / (2 * h)
                ad = grads[name].data[idx]
                # the floor sits above central-difference rounding noise
                # (~|loss|*eps/h ~ 1e-11) so near-zero components compare
                # against noise, not against each other
                rel = abs(ad - fd) / max(abs(fd), abs(ad), 1e-6)
                worst = max(worst, rel)
                assert rel < 1e-3, f"{name}[{idx}]: ad={ad:.6e} fd={fd:.6e}"
        assert worst < 1e-3
