import math
import os
import subprocess
import sys

import numpy as np
import pytest

from idt import losses, metrics, scenes
from idt.metrics import (ConsistencyResult, consistency_score, log_rmse, mae,
                         psnr, report_csv, report_json, ssim,
                         warp_to_reference)


def identity_camera(h=32, w=32, f=40.0):
    return scenes.Camera(np.eye(3), np.zeros(3), f, f, w / 2.0, h / 2.0)


def shifted_camera(baseline, h=32, w=32, f=40.0):
    # camera centered at (baseline, 0, 0): world-to-camera t = -position
    return scenes.Camera(np.eye(3), np.array([-baseline, 0.0, 0.0]),
                         f, f, w / 2.0, h / 2.0)


def glossy_batch(seed=5, views=3, res=48):
    cfg = scenes.SceneConfig(checker_prob=0.0)
    scene = scenes.generate_scene(seed, cfg)
    rng = np.random.default_rng(seed)
    cams = scenes.make_arc_cameras(rng, scenes.DatasetConfig(
        views=views, height=res, width=res))
    return scenes.render_batch(scene, cams, (res, res))


class TestPSNR:
    def test_identical_is_inf(self):
        x = np.random.default_rng(0).uniform(size=(8, 8, 3))
        assert psnr(x, x) == math.inf

    def test_constant_offset_exact(self):
        a = np.zeros((16, 16, 3))
        b = np.full((16, 16, 3), 0.1)
        assert abs(psnr(a, b) - 20.0) < 1e-12

    def test_mse_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(size=(12, 12, 3))
        b = rng.uniform(size=(12, 12, 3))
        expect = 10 * math.log10(1.0 / np.mean((a - b) ** 2))
        assert abs(psnr(a, b) - expect) < 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((4, 4)), np.zeros((4, 5)))
        with pytest.raises(ValueError):
            psnr(np.zeros((4, 4)), np.zeros((4, 4)), peak=0.0)


class TestSSIM:
    def test_identical_is_one(self):
        x = np.random.default_rng(0).uniform(size=(24, 24, 3))
        assert ssim(x, x) == 1.0

    def test_inverted_checker_negative(self):
        i, j = np.meshgrid(np.arange(24), np.arange(24), indexing="ij")
        a = (((i // 4) + (j // 4)) % 2).astype(np.float64)
        assert ssim(a, 1.0 - a) < 0.0

    def test_sliding_window_oracle(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(size=(16, 18))
        b = np.clip(a + rng.normal(0, 0.1, size=a.shape), 0, 1)
        x = np.arange(11) - 5.0
        k = np.exp(-(x[:, None] ** 2 + x[None, :] ** 2) / (2.0 * 1.5 ** 2))
        k /= k.sum()
        c1, c2 = 0.01 ** 2, 0.03 ** 2
        vals = []
        for i in range(16 - 10):
            for j in range(18 - 10):
                wa = a[i:i + 11, j:j + 11]
                wb = b[i:i + 11, j:j + 11]
                mu_a = (wa * k).sum()
                mu_b = (wb * k).sum()
                va = (wa * wa * k).sum() - mu_a ** 2
                vb = (wb * wb * k).sum() - mu_b ** 2
                cov = (wa * wb * k).sum() - mu_a * mu_b
                vals.append(((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                            / ((mu_a ** 2 + mu_b ** 2 + c1) * (va + vb + c2)))
        assert abs(ssim(a, b) - np.mean(vals)) < 1e-9

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((8, 8)), np.zeros((8, 8)))

    def test_channel_average(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(size=(16, 16, 3))
        b = rng.uniform(size=(16, 16, 3))
        per = np.mean([ssim(a[..., c], b[..., c]) for c in range(3)])
        assert abs(ssim(a, b) - per) < 1e-12

    def test_stacked_views_average(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(size=(4, 20, 24, 3))
        b = np.clip(a + rng.normal(0, 0.2, size=a.shape), 0, 1)
        per = np.mean([ssim(a[i], b[i]) for i in range(4)])
        assert abs(ssim(a, b) - per) < 1e-12
        assert ssim(a, a) == 1.0

    def test_no_scipy_import(self):
        # SSIM is plain numpy: importing the CLI must not load scipy
        code = ("import sys, idt.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"


class TestMAE:
    def test_cases(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(6, 6, 3))
        assert mae(x, x) == 0.0
        assert abs(mae(x + 0.1, x) - 0.1) < 1e-12
        y = rng.uniform(size=(6, 6, 3))
        assert abs(mae(x, y) - np.mean(np.abs(x - y))) < 1e-15


class TestLogRMSE:
    def test_identical(self):
        x = np.random.default_rng(0).uniform(0.1, 2.0, size=(6, 6))
        assert log_rmse(x, x) == 0.0

    def test_factor_e(self):
        g = np.random.default_rng(1).uniform(0.2, 3.0, size=(8, 8))
        assert abs(log_rmse(math.e * g, g, eps=0.0) - 1.0) < 1e-12

    def test_oracle(self):
        rng = np.random.default_rng(2)
        p = rng.uniform(0.1, 2.0, size=(5, 5))
        g = rng.uniform(0.1, 2.0, size=(5, 5))
        expect = np.sqrt(np.mean((np.log(p + 1e-4) - np.log(g + 1e-4)) ** 2))
        assert abs(log_rmse(p, g) - expect) < 1e-12

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            log_rmse(np.full((2, 2), -0.1), np.ones((2, 2)))


class TestWarp:
    def test_identity_warp(self):
        rng = np.random.default_rng(0)
        cam = identity_camera()
        src = rng.uniform(size=(32, 32, 3))
        depth = rng.uniform(2.0, 5.0, size=(32, 32))
        wr = warp_to_reference(src, cam, cam, depth)
        assert wr.valid_mask.all()
        assert np.max(np.abs(wr.warped - src)) < 1e-12

    def test_identity_with_occlusion_check(self):
        rng = np.random.default_rng(1)
        cam = identity_camera()
        src = rng.uniform(size=(32, 32))
        depth = np.full((32, 32), 3.0)
        wr = warp_to_reference(src, cam, cam, depth, src_depth=depth)
        assert wr.valid_mask.all()
        assert np.max(np.abs(wr.warped - src)) < 1e-12

    def test_disparity_shift(self):
        h = w = 32
        f, b, d = 40.0, 0.4, 3.0
        ref = identity_camera(h, w, f)
        src = shifted_camera(b, h, w, f)
        # linear ramp in pixel x; bilinear sampling is exact on ramps
        ramp = np.tile(np.arange(w, dtype=np.float64) + 0.5, (h, 1))
        depth = np.full((h, w), d)
        wr = warp_to_reference(ramp, src, ref, depth)
        disparity = f * b / d
        jj = np.tile(np.arange(w, dtype=np.float64) + 0.5, (h, 1))
        expect = jj - disparity
        err = np.abs(wr.warped - expect)[wr.valid_mask]
        assert wr.valid_mask.sum() > 0.5 * h * w
        assert err.max() < 0.01  # pixels

    def test_out_of_bounds_masked(self):
        h = w = 32
        ref = identity_camera(h, w)
        src = shifted_camera(5.0, h, w)  # huge baseline pushes samples out
        depth = np.full((h, w), 2.0)
        wr = warp_to_reference(np.ones((h, w)), src, ref, depth)
        assert not wr.valid_mask.all()
        assert np.all(wr.warped[~wr.valid_mask] == 0.0)

    def test_infinite_ref_depth_masked(self):
        cam = identity_camera()
        depth = np.full((32, 32), np.inf)
        depth[8:16, 8:16] = 3.0
        wr = warp_to_reference(np.ones((32, 32)), cam, cam, depth)
        assert wr.valid_mask[10, 10]
        assert not wr.valid_mask[0, 0]

    def test_infinite_source_depth_masks_occlusion(self):
        # background +inf in the source depth must invalidate samples, not
        # leak NaN/inf into the comparison
        cam = identity_camera()
        ref_depth = np.full((32, 32), 3.0)
        src_depth = np.full((32, 32), np.inf)
        src_depth[4:28, 4:28] = 3.0
        wr = warp_to_reference(np.ones((32, 32)), cam, cam, ref_depth,
                               src_depth=src_depth)
        assert wr.valid_mask[16, 16]
        assert not wr.valid_mask[0, 0]
        assert np.isfinite(wr.warped).all()

    def test_occlusion_tolerance(self):
        cam = identity_camera()
        ref_depth = np.full((32, 32), 3.0)
        src_depth = np.full((32, 32), 3.5)  # disagreement > tau
        wr = warp_to_reference(np.ones((32, 32)), cam, cam, ref_depth,
                               occlusion_tau=0.05, src_depth=src_depth)
        assert not wr.valid_mask.any()

    def test_missing_depth_rejected(self):
        cam = identity_camera()
        with pytest.raises(ValueError):
            warp_to_reference(np.ones((32, 32)), cam, cam, None)


class TestConsistency:
    def test_identical_views_zero(self):
        rng = np.random.default_rng(0)
        cam = identity_camera()
        m = rng.uniform(size=(32, 32, 3))
        d = rng.uniform(2.0, 4.0, size=(32, 32))
        res = consistency_score([m, m, m], [cam, cam, cam], [d, d, d])
        assert res.score < 1e-12
        assert res.coverage == 1.0
        assert res.pairs == 2

    def test_needs_two_views(self):
        cam = identity_camera()
        with pytest.raises(ValueError):
            consistency_score([np.zeros((32, 32))], [cam],
                              [np.ones((32, 32))])

    def test_empty_mask_is_nan(self):
        cam = identity_camera()
        far = shifted_camera(50.0)
        m = np.ones((32, 32))
        d = np.full((32, 32), 2.0)
        res = consistency_score([m, m], [cam, far], [d, d])
        assert math.isnan(res.score)
        assert res.coverage == 0.0

    def test_gt_albedo_consistent_spec_not(self):
        batch = glossy_batch()
        gt = losses.stack_ground_truth(batch)
        cams = [f.camera for f in batch.frames]
        alb = consistency_score(gt["albedo"], cams, gt["depth"])
        spec = consistency_score(gt["s_spec"], cams, gt["depth"])
        assert alb.score < 1e-3
        assert spec.score > alb.score
        assert alb.coverage > 0.2

    def test_source_relabeling_symmetry(self):
        # view 0 is the reference; the order of the other views is free
        batch = glossy_batch(seed=9, views=3)
        gt = losses.stack_ground_truth(batch)
        cams = [f.camera for f in batch.frames]
        perm = [0, 2, 1]
        a = consistency_score(gt["albedo"], cams, gt["depth"])
        b = consistency_score(gt["albedo"][perm],
                              [cams[i] for i in perm], gt["depth"][perm])
        assert abs(a.score - b.score) < 1e-12
        assert a.coverage == b.coverage
        assert a.pairs == b.pairs == 2

    def test_masked_pixels_never_read(self):
        # poison the reference map where the reference depth is infinite:
        # those pixels can never be valid, so the score must not move
        batch = glossy_batch(seed=3, views=2)
        gt = losses.stack_ground_truth(batch)
        cams = [f.camera for f in batch.frames]
        base = consistency_score(gt["albedo"], cams, gt["depth"])
        poisoned = gt["albedo"].copy()
        bg = ~np.isfinite(gt["depth"][0])
        assert bg.any()
        poisoned[0][bg] = 1e12
        after = consistency_score(poisoned, cams, gt["depth"])
        assert after.score == base.score


class TestEvaluateBatch:
    def test_perfect_predictions(self):
        batch = glossy_batch(seed=11, views=2)
        gt = losses.stack_ground_truth(batch)
        pred = {k: gt[k] for k in ("albedo", "s_diff", "s_spec")}
        rows = metrics.evaluate_batch(pred, batch, scene_id=4)
        byf = {r["factor"]: r for r in rows}
        assert set(byf) == {"albedo", "s_diff", "s_spec", "recon"}
        assert byf["albedo"]["psnr"] == math.inf
        assert byf["albedo"]["ssim"] == 1.0
        assert byf["recon"]["psnr"] == math.inf
        assert byf["albedo"]["consistency"] < 1e-3
        assert all(r["scene"] == 4 for r in rows)

    def test_zero_predictions(self):
        batch = glossy_batch(seed=12, views=2)
        z = np.zeros_like(losses.stack_ground_truth(batch)["albedo"])
        pred = {"albedo": z, "s_diff": z, "s_spec": z}
        rows = metrics.evaluate_batch(pred, batch)
        byf = {r["factor"]: r for r in rows}
        images = batch.images()
        expect = np.mean([psnr(np.zeros_like(images[i]), images[i])
                          for i in range(2)])
        assert abs(byf["recon"]["psnr"] - expect) < 1e-9

    def test_report_schema(self):
        batch = glossy_batch(seed=13, views=2)
        gt = losses.stack_ground_truth(batch)
        pred = {k: gt[k] for k in ("albedo", "s_diff", "s_spec")}
        rows = metrics.evaluate_batch(pred, batch)
        text = report_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0].startswith("#") and "linear RGB" in lines[0]
        assert lines[1] == ",".join(metrics.REPORT_FIELDS)
        assert len(lines) == 2 + len(rows)
        assert "inf" in lines[2]

        import json as _json
        parsed = _json.loads(report_json(rows))
        assert len(parsed) == len(rows)
        assert parsed[0]["factor"] == "albedo"
        assert parsed[0]["psnr"] == "inf"
