import math
import os

import numpy as np
import pytest

from idt import pfm, scenes, sglight
from idt.scenes import (Camera, DatasetConfig, Plane, SceneConfig, SceneSpec,
                        Sphere, generate_scene, make_dataset, project_batch,
                        render_view, unproject_batch)


def ambient_only(a):
    lobe = sglight.SGLobe([0, 0, 1], 1.0, [0, 0, 0])
    return sglight.SGMixture((lobe,), a)


def simple_camera(h=32, w=32, eye=(0.0, 0.0, 4.0)):
    return scenes.camera_from_fov(eye, np.zeros(3), h, w, 50.0)


class TestPfm:
    def test_color_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.random((17, 23, 3)).astype(np.float32).astype(np.float64)
        p = tmp_path / "img.pfm"
        pfm.write_pfm(p, img)
        np.testing.assert_array_equal(pfm.read_pfm(p), img)

    def test_gray_round_trip_with_inf(self, tmp_path):
        d = np.array([[1.0, 2.0], [np.inf, 0.5]])
        d = np.tile(d, (4, 4))
        p = tmp_path / "d.pfm"
        pfm.write_pfm(p, d)
        np.testing.assert_array_equal(pfm.read_pfm(p), d)

    def test_write_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.random((8, 8, 3))
        a, b = tmp_path / "a.pfm", tmp_path / "b.pfm"
        pfm.write_pfm(a, img)
        pfm.write_pfm(b, img)
        assert a.read_bytes() == b.read_bytes()

    def test_float32_narrowing_bound(self, tmp_path):
        rng = np.random.default_rng(2)
        img = rng.random((16, 16, 3)) * 4.0
        p = tmp_path / "n.pfm"
        pfm.write_pfm(p, img)
        assert np.abs(pfm.read_pfm(p) - img).max() < 1e-6

    def test_bad_shapes_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            pfm.write_pfm(tmp_path / "x.pfm", np.zeros((4, 4, 2)))

    def test_malformed_files_rejected(self, tmp_path):
        p = tmp_path / "bad.pfm"
        p.write_bytes(b"P6\n2 2\n255\n" + b"\0" * 12)
        with pytest.raises(ValueError):
            pfm.read_pfm(p)
        p.write_bytes(b"PF\n2 2\n-1.0\n" + b"\0" * 10)  # truncated payload
        with pytest.raises(ValueError):
            pfm.read_pfm(p)


class TestCamera:
    def test_rotation_validated(self):
        with pytest.raises(ValueError):
            Camera(np.eye(3) * 2.0, np.zeros(3), 30, 30, 16, 16)
        refl = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            Camera(refl, np.zeros(3), 30, 30, 16, 16)
        with pytest.raises(ValueError):
            Camera(np.eye(3), np.zeros(3), -1.0, 30, 16, 16)

    def test_optical_axis_projects_to_principal_point(self):
        cam = simple_camera()
        # camera at (0,0,4) looking at origin: the axis point at depth 2
        pix, depth, valid = project_batch(cam, np.array([[0.0, 0.0, 2.0]]))
        np.testing.assert_allclose(pix, [[cam.cx, cam.cy]], atol=1e-12)
        np.testing.assert_allclose(depth, [2.0], atol=1e-12)
        assert valid.all()

    def test_behind_camera_flagged(self):
        cam = simple_camera()
        # behind the eye
        pix, depth, valid = project_batch(cam, np.array([[0.0, 0.0, 9.0]]))
        assert depth[0] < 0 and np.isnan(pix).all() and not valid.any()

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        cam = scenes.camera_from_fov([1.0, 2.0, 5.0], [0.2, -0.3, 0.0],
                                     48, 64, 45.0)
        pts = rng.uniform(-2, 2, (1000, 3))
        pix, depth, valid = project_batch(cam, pts)
        back = unproject_batch(cam, pix[valid], depth[valid])
        assert valid.sum() > 500
        assert np.abs(back - pts[valid]).max() < 1e-9

    def test_unproject_requires_positive_depth(self):
        with pytest.raises(ValueError):
            unproject_batch(simple_camera(), np.ones((2, 2)),
                            np.array([1.0, 0.0]))

    def test_pure_translation_disparity(self):
        # fronto-parallel point: disparity = f * baseline / depth
        h, w, f = 64, 64, 80.0
        base = Camera(np.eye(3), np.zeros(3), f, f, w / 2, h / 2)
        b = 0.4
        shifted = Camera(np.eye(3), np.array([-b, 0.0, 0.0]), f, f, w / 2, h / 2)
        rng = np.random.default_rng(4)
        p = np.stack([rng.uniform(-1, 1, 50), rng.uniform(-1, 1, 50),
                      rng.uniform(2.0, 6.0, 50)], axis=1)
        pa, da, _ = project_batch(base, p)
        pb, db, _ = project_batch(shifted, p)
        np.testing.assert_allclose(da, db, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pa[:, 0] - pb[:, 0], f * b / p[:, 2],
                                   atol=1e-9)
        np.testing.assert_allclose(pa[:, 1], pb[:, 1], atol=1e-12)

    def test_batch_matches_single(self):
        cam = scenes.camera_from_fov([0.5, 1.0, 4.0], [0, 0, 0], 32, 32, 50.0)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-3, 3, (64, 3))
        pix, dep, valid = project_batch(cam, pts)
        for i in range(64):
            pc = cam.rotation @ pts[i] + cam.translation
            assert abs(pc[2] - dep[i]) < 1e-12
            assert valid[i] == (pc[2] > 0)
            if valid[i]:
                np.testing.assert_allclose(
                    pix[i], [cam.fx * pc[0] / pc[2] + cam.cx,
                             cam.fy * pc[1] / pc[2] + cam.cy], atol=1e-12)
            else:
                assert np.isnan(pix[i]).all()
        back = unproject_batch(cam, pix[valid], dep[valid])
        np.testing.assert_allclose(back, pts[valid], atol=1e-9)

    def test_camera_file_round_trip(self, tmp_path):
        cam = scenes.camera_from_fov([1, 2, 5], [0, 0.5, 0], 48, 64, 55.0)
        p = tmp_path / "camera.txt"
        scenes.save_camera(p, cam)
        cam2 = scenes.load_camera(p)
        np.testing.assert_array_equal(cam.rotation, cam2.rotation)
        np.testing.assert_array_equal(cam.translation, cam2.translation)
        assert (cam.fx, cam.fy, cam.cx, cam.cy) == \
               (cam2.fx, cam2.fy, cam2.cx, cam2.cy)


class TestPrimitives:
    def test_plane_validation(self):
        with pytest.raises(ValueError):
            Plane([0, 0, 0], [0, 0, 2.0], [1, 0, 0], [0, 1, 0], 1, 1,
                  [0.5] * 3, [0.5] * 3, 0, 10.0)
        with pytest.raises(ValueError):  # non-orthogonal axes
            Plane([0, 0, 0], [0, 0, 1], [1, 0, 0], [1, 0, 0], 1, 1,
                  [0.5] * 3, [0.5] * 3, 0, 10.0)
        with pytest.raises(ValueError):  # albedo out of range
            Plane([0, 0, 0], [0, 0, 1], [1, 0, 0], [0, 1, 0], 1, 1,
                  [1.5, 0, 0], [0.5] * 3, 0, 10.0)

    def test_sphere_validation(self):
        with pytest.raises(ValueError):
            Sphere([0, 0, 0], -1.0, [0.5] * 3, [0.5] * 3, 0, 10.0)
        with pytest.raises(ValueError):
            Sphere([0, 0, 0], 1.0, [0.5] * 3, [0.5] * 3, 0, 0.0)

    def test_sphere_intersect_known(self):
        s = Sphere([0, 0, 0], 1.0, [0.5] * 3, [0.5] * 3, 0, 10.0)
        origin = np.array([0.0, 0.0, 3.0])
        dirs = np.array([[0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
        d = s.intersect(origin, dirs)
        np.testing.assert_allclose(d[0], 2.0, atol=1e-12)
        assert np.isinf(d[1])

    def test_plane_checker_pattern(self):
        p = Plane([0, 0, 0], [0, 0, 1], [1, 0, 0], [0, 1, 0], 1.0, 1.0,
                  [1, 1, 1], [0, 0, 0], 2, 10.0)
        pts = np.array([[-0.5, -0.5, 0.0], [0.5, -0.5, 0.0],
                        [-0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
        cols = p.albedo_at(pts)
        np.testing.assert_array_equal(cols[0], [1, 1, 1])
        np.testing.assert_array_equal(cols[1], [0, 0, 0])
        np.testing.assert_array_equal(cols[2], [0, 0, 0])
        np.testing.assert_array_equal(cols[3], [1, 1, 1])


class TestGenerateScene:
    def test_deterministic(self):
        a = generate_scene(11)
        b = generate_scene(11)
        assert len(a.primitives) == len(b.primitives)
        for pa, pb in zip(a.primitives, b.primitives):
            assert type(pa) is type(pb)
            np.testing.assert_array_equal(pa.albedo_a, pb.albedo_a)
            assert pa.gloss == pb.gloss
        np.testing.assert_array_equal(a.illumination.ambient,
                                      b.illumination.ambient)

    def test_distinct_seeds_differ(self):
        a, b = generate_scene(0), generate_scene(1)
        same = (len(a.primitives) == len(b.primitives)
                and np.array_equal(a.illumination.ambient,
                                   b.illumination.ambient))
        assert not same

    def test_property_sweep(self):
        cfg = SceneConfig()
        for seed in range(1000):
            s = generate_scene(seed, cfg)
            assert len(s.primitives) >= 1
            for p in s.primitives:
                assert (p.albedo_a >= 0).all() and (p.albedo_a <= 1).all()
                assert (p.albedo_b >= 0).all() and (p.albedo_b <= 1).all()
                assert p.gloss > 0
            assert s.illumination.k == cfg.lobe_count

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            generate_scene(0, SceneConfig(min_primitives=0))
        with pytest.raises(ValueError):
            generate_scene(0, SceneConfig(checker_prob=1.5))
        with pytest.raises(ValueError):
            generate_scene(0, SceneConfig(sharpness_range=(0.0, 5.0)))


class TestRenderView:
    def test_flat_field_under_ambient(self):
        # fronto-parallel white plane under pure ambient light: image is
        # the ambient constant, depth the plane distance
        amb = np.array([0.3, 0.4, 0.5])
        plane = Plane([0, 0, 0], [0, 0, 1], [1, 0, 0], [0, 1, 0], 50.0, 50.0,
                      [1, 1, 1], [1, 1, 1], 0, 30.0)
        spec = SceneSpec((plane,), ambient_only(amb), seed=0)
        cam = Camera(np.eye(3), np.array([0.0, 0.0, 2.0]), 40.0, 40.0, 16, 16)
        f = render_view(spec, cam, (32, 32))
        np.testing.assert_allclose(f.image, np.broadcast_to(amb, (32, 32, 3)),
                                   atol=1e-9)
        np.testing.assert_allclose(f.depth, 2.0, atol=1e-12)

    def test_formation_identity_bitwise(self):
        for seed in range(5):
            spec = generate_scene(seed)
            cam = simple_camera(48, 48, eye=(0.6, 0.7, 4.2))
            f = render_view(spec, cam, (48, 48))
            assert np.array_equal(f.image, f.albedo * f.s_diff + f.s_spec)

    def test_background_convention(self):
        # tiny plane, most rays miss
        plane = Plane([0, 0, 0], [0, 0, 1], [1, 0, 0], [0, 1, 0], 0.2, 0.2,
                      [0.5] * 3, [0.5] * 3, 0, 30.0)
        lobe = sglight.SGLobe([0, 0, 1], 2.0, [0.4, 0.3, 0.2])
        mix = sglight.SGMixture((lobe,), [0.1, 0.1, 0.1])
        spec = SceneSpec((plane,), mix, seed=0)
        cam = simple_camera()
        f = render_view(spec, cam, (32, 32))
        bg = ~np.isfinite(f.depth)
        assert bg.any() and np.isfinite(f.depth).any()
        assert (f.albedo[bg] == 0).all()
        assert (f.s_diff[bg] == 0).all()
        # ambient-free environment radiance: strictly below the with-ambient value
        assert (f.s_spec[bg] >= 0).all()
        assert np.array_equal(f.image[bg], f.s_spec[bg])

    def test_sphere_brightest_sdiff_at_lobe_axis(self):
        axis = np.array([0.3, 0.5, 0.8])
        axis = axis / np.linalg.norm(axis)
        lobe = sglight.SGLobe(axis, 12.0, [1.0, 1.0, 1.0])
        mix = sglight.SGMixture((lobe,), [0.0, 0.0, 0.0])
        sphere = Sphere([0, 0, 0], 1.0, [0.8] * 3, [0.8] * 3, 0, 60.0)
        spec = SceneSpec((sphere,), mix, seed=0)
        cam = simple_camera(64, 64)
        f = render_view(spec, cam, (64, 64))
        hit = np.isfinite(f.depth)
        lum = f.s_diff.sum(axis=2)
        lum[~hit] = -1.0
        i, j = np.unravel_index(np.argmax(lum), lum.shape)
        rows, cols = np.where(hit)
        pts = unproject_batch(cam, np.stack([cols + 0.5, rows + 0.5], axis=1),
                              f.depth[rows, cols])
        cos = (pts / np.linalg.norm(pts, axis=1, keepdims=True)) @ axis
        # unit sphere at origin: the normal is the point; among rendered
        # pixels, the brightest normal is the closest to the axis
        brightest = np.nonzero((rows == i) & (cols == j))[0][0]
        assert cos[brightest] > 0.99 * cos.max()

    def test_resolution_floor(self):
        spec = generate_scene(0)
        with pytest.raises(ValueError):
            render_view(spec, simple_camera(), (4, 32))

    def test_depth_positive_on_hits(self):
        spec = generate_scene(3)
        f = render_view(spec, simple_camera(64, 64), (64, 64))
        hit = np.isfinite(f.depth)
        assert (f.depth[hit] > 0).all()


class TestDataset:
    def test_layout_and_counts(self, tmp_path):
        cfg = DatasetConfig(scenes=2, views=3, height=16, width=16, seed=5)
        out = tmp_path / "data"
        summary = make_dataset(cfg, out)
        assert summary["scenes"] == 2 and summary["views"] == 3
        assert (out / "manifest.txt").exists()
        for s in range(2):
            sdir = out / f"scene_{s:04d}"
            assert (sdir / "sgm.txt").exists()
            for v in range(3):
                vdir = sdir / f"view_{v:02d}"
                for name in ("image.pfm", "albedo.pfm", "sdiff.pfm",
                             "sspec.pfm", "depth.pfm", "camera.txt"):
                    assert (vdir / name).exists()

    def test_regeneration_byte_identical(self, tmp_path):
        cfg = DatasetConfig(scenes=1, views=2, height=16, width=16, seed=9)
        a, b = tmp_path / "a", tmp_path / "b"
        make_dataset(cfg, a)
        make_dataset(cfg, b)
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_existing_nonempty_dir_rejected(self, tmp_path):
        out = tmp_path / "data"
        out.mkdir()
        (out / "junk.txt").write_text("x")
        cfg = DatasetConfig(scenes=1, views=2, height=16, width=16)
        with pytest.raises(FileExistsError):
            make_dataset(cfg, out)
        ok = make_dataset(DatasetConfig(scenes=1, views=2, height=16,
                                        width=16, overwrite=True), out)
        assert ok["scenes"] == 1

    def test_reload_recomposition_identity(self, tmp_path):
        cfg = DatasetConfig(scenes=2, views=2, height=24, width=24, seed=3)
        out = tmp_path / "data"
        make_dataset(cfg, out)
        for s in range(2):
            batch = scenes.load_scene(out, s)
            for f in batch.frames:
                err = np.abs(f.image - (f.albedo * f.s_diff + f.s_spec)).max()
                assert err <= 1e-6

    def test_view_count_floor(self, tmp_path):
        with pytest.raises(ValueError):
            make_dataset(DatasetConfig(scenes=1, views=1), tmp_path / "d")

    def test_manifest_round_trip(self, tmp_path):
        cfg = DatasetConfig(scenes=1, views=2, height=16, width=16, seed=21)
        out = tmp_path / "data"
        make_dataset(cfg, out)
        m = scenes.load_manifest(out)
        assert m["format"] == "IDTDATA1"
        assert (m["scenes"], m["views"], m["height"], m["width"], m["seed"]) \
               == (1, 2, 16, 16, 21)

